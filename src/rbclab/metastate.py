"""Empirical metastate surrogates and size-dependence diagnostics.

A finite-volume Gibbs measure with random boundary values is summarized by
one number lambda in [0, 1]: the weight of the plus phase in a two-state
mixture.  Histogramming lambda over many disorder realizations gives an
empirical picture of the measure-on-measures; tracking the sign of the
boundary energy W along a growing sequence of volumes gives the
chaotic-size-dependence and null-recurrence diagnostics.

Two lambda constructions:

* T0_weight: lambda = (1 + tanh(beta W)) / 2 from the interval boundary
  energy, the zero-temperature two-well picture evaluated at inverse
  temperature beta.  Scales to N = 1e5 and beyond.
* exact_gibbs_fit: lambda from the total-variation fit of the exact Gibbs
  table against the plus/minus tables.  Limited to enumerable volumes;
  agrees with T0_weight at low temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .boundary import (batch_interval_W, batch_W_plus, count_inside,
                       hurwitz_coefficients, metastate_weight, wilson_interval,
                       window_slack)
from .exact import fit_mixture_weight, gibbs_table
from .models import BoundaryCondition, DisorderRealization, ModelSpec, Volume

N_BINS = 101
ENDPOINT_EPS = 0.01


# ---------------------------------------------------------------------------
# volume sequences


@dataclass(frozen=True)
class VolumeSequence:
    kind: str
    terms: tuple

    def __post_init__(self):
        t = tuple(int(n) for n in self.terms)
        if len(t) < 2 or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("sequence terms must be strictly increasing")
        object.__setattr__(self, "terms", t)

    def __len__(self) -> int:
        return len(self.terms)


def make_volume_sequence(kind: str, budget: int, step: int = 100,
                         ratio: float = 2.0, start: int = 2) -> VolumeSequence:
    """Deterministic size sequence with total site count <= budget.

    sparse: N_k = 2^(k^2).  linear: step, 2*step, ...  geometric:
    start, start*ratio, ...  Fewer than four terms within budget is an
    error (the diagnostics need room to show a trend).
    """
    terms = []
    total = 0
    if kind == "sparse":
        k = 1
        while True:
            n = 2 ** (k * k)
            if total + n > budget:
                break
            terms.append(n)
            total += n
            k += 1
    elif kind == "linear":
        if step < 1:
            raise ValueError("linear step must be >= 1")
        k = 1
        while total + step * k <= budget:
            terms.append(step * k)
            total += step * k
            k += 1
    elif kind == "geometric":
        if ratio <= 1.0 or start < 1:
            raise ValueError("geometric sequence needs ratio > 1 and start >= 1")
        x = float(start)
        while total + int(round(x)) <= budget:
            n = int(round(x))
            if terms and n <= terms[-1]:
                raise ValueError(f"ratio {ratio} too small to increase from {terms[-1]}")
            terms.append(n)
            total += n
            x *= ratio
    else:
        raise ValueError(f"sequence kind must be sparse, linear or geometric, got {kind!r}")
    if len(terms) < 4:
        raise ValueError(
            f"budget {budget} allows only {len(terms)} {kind} terms; need >= 4"
        )
    return VolumeSequence(kind, tuple(terms))


def is_strictly_sparse(seq: VolumeSequence) -> bool:
    """N_{k+1} >= N_k^2, the summability criterion for window probabilities."""
    return all(b >= a * a for a, b in zip(seq.terms, seq.terms[1:]))


# ---------------------------------------------------------------------------
# lambda histograms


@dataclass(frozen=True)
class MetastateHistogram:
    """Histogram of two-state weights over disorder realizations.

    Bin k covers [k/101, (k+1)/101); assignment goes through |W| and is
    mirrored for negative W, so flipping every disorder sign maps counts[k]
    to counts[100-k] exactly in floating point, not just up to rounding.
    Endpoint masses use the raw values against eps = 0.01.
    """

    axis: str
    counts: np.ndarray
    bin_edges: np.ndarray
    values: np.ndarray
    n_disorder: int
    sizes: tuple
    beta: float
    alpha: float | None
    mode: str

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def variance(self) -> float:
        return float(self.values.var())

    @property
    def endpoint_low_mass(self) -> float:
        lo = -1.0 + ENDPOINT_EPS if self.axis == "magnetization" else ENDPOINT_EPS
        return float((self.values < lo).mean())

    @property
    def endpoint_high_mass(self) -> float:
        return float((self.values > 1.0 - ENDPOINT_EPS).mean())

    @property
    def endpoint_mass(self) -> float:
        return self.endpoint_low_mass + self.endpoint_high_mass

    @property
    def interior_mass(self) -> float:
        return 1.0 - self.endpoint_mass


def _mirror_bins(w: np.ndarray, beta: float) -> np.ndarray:
    """Bin indices for lambda(W), exactly antisymmetric under W -> -W."""
    lam_abs = 0.5 * (1.0 + np.tanh(beta * np.abs(w)))
    k_abs = np.minimum((lam_abs * N_BINS).astype(np.int64), N_BINS - 1)
    return np.where(w >= 0, k_abs, (N_BINS - 1) - k_abs)


def histogram_from_w(w: np.ndarray, beta: float, axis: str, sizes, alpha, mode,
                     n_disorder: int) -> MetastateHistogram:
    bins = _mirror_bins(w, beta)
    counts = np.bincount(bins, minlength=N_BINS)
    lam = metastate_weight(w, beta)
    if axis == "lambda":
        edges = np.linspace(0.0, 1.0, N_BINS + 1)
        values = lam
    elif axis == "magnetization":
        edges = np.linspace(-1.0, 1.0, N_BINS + 1)
        values = 2.0 * lam - 1.0
    else:
        raise ValueError(f"axis must be 'lambda' or 'magnetization', got {axis!r}")
    return MetastateHistogram(axis, counts, edges, values, n_disorder,
                              tuple(sizes), beta, alpha, mode)


def empirical_metastate(spec: ModelSpec, n_or_sequence, n_disorder: int,
                        master_seed: int = 0, mode: str = "T0_weight",
                        beta: float | None = None, axis: str = "lambda",
                        flip_disorder: bool = False,
                        interaction_seed: int | None = None,
                        window: int | None = None,
                        seed_offset: int = 0) -> MetastateHistogram:
    """Histogram of two-state weights across boundary-disorder realizations.

    Passing a VolumeSequence pools one lambda per (seed, size) pair, all
    sizes reading prefixes of the same boundary streams; counts then sum to
    n_disorder * len(sequence).  flip_disorder negates every boundary value
    (the eta -> -eta symmetry test hook).
    """
    beta = spec.beta if beta is None else beta
    sizes = (list(n_or_sequence.terms) if isinstance(n_or_sequence, VolumeSequence)
             else [int(n_or_sequence)])
    w = lambda_w_samples(spec, sizes, n_disorder, master_seed, mode, beta,
                         flip_disorder, interaction_seed, window, seed_offset)
    return histogram_from_w(w, beta, axis, sizes, spec.alpha, mode, n_disorder)


def lambda_w_samples(spec: ModelSpec, sizes, n_disorder: int, master_seed: int,
                     mode: str, beta: float, flip_disorder: bool = False,
                     interaction_seed: int | None = None,
                     window: int | None = None,
                     seed_offset: int = 0) -> np.ndarray:
    """W values behind the lambda histogram, concatenated size-major.

    Seed index i always means sub_seed(master_seed, seed_offset + i), so
    disjoint offset ranges partition the realizations: parallel workers can
    each take a slice and the pooled result is independent of the split.
    """
    if mode == "T0_weight":
        if not spec.long_range:
            raise ValueError("T0_weight mode needs a power kernel (interval W)")
        cols = []
        for n in sizes:
            m = window if window is not None else spec.default_window(Volume.interval(n))
            cols.append(batch_interval_W(spec.alpha, n, m, master_seed,
                                         n_disorder, negate=flip_disorder,
                                         seed_offset=seed_offset))
        return np.concatenate(cols)
    if mode == "exact_gibbs_fit":
        return np.concatenate([
            _exact_fit_pseudo_w(spec, n, n_disorder, master_seed, beta,
                                flip_disorder, interaction_seed, window,
                                seed_offset)
            for n in sizes])
    raise ValueError(f"mode must be 'T0_weight' or 'exact_gibbs_fit', got {mode!r}")


def _exact_fit_pseudo_w(spec: ModelSpec, n: int, n_disorder: int,
                        master_seed: int, beta: float, flip: bool,
                        interaction_seed: int | None,
                        window: int | None, seed_offset: int = 0) -> np.ndarray:
    """Fitted mixture weights, returned on the W scale through atanh.

    Mapping lambda back through lambda = (1 + tanh(beta w)) / 2 lets the
    histogram share one binning path with T0_weight mode.
    """
    spec = spec.with_beta(beta)
    volume = Volume.interval(n) if spec.dimension == 1 else Volume.box(n)
    disorder = (DisorderRealization(interaction_seed)
                if interaction_seed is not None else None)
    table_plus = gibbs_table(spec, volume, BoundaryCondition.plus(), disorder, window)
    table_minus = gibbs_table(spec, volume, BoundaryCondition.minus(), disorder, window)
    out = np.empty(n_disorder)
    for i in range(n_disorder):
        seed = rng.sub_seed(master_seed, seed_offset + i)
        bc = _random_boundary(spec, volume, seed, flip, window)
        table = gibbs_table(spec, volume, bc, disorder, window)
        lam = fit_mixture_weight(table, table_plus, table_minus).weight
        # clamp so atanh stays finite; one part in 1e12 is far below bin width
        lam = min(max(lam, 5e-13), 1.0 - 5e-13)
        out[i] = np.arctanh(2.0 * lam - 1.0) / max(beta, 1e-300)
    return out


def _random_boundary(spec: ModelSpec, volume: Volume, seed: int, flip: bool,
                     window: int | None) -> BoundaryCondition:
    if not flip:
        return BoundaryCondition.random(seed)
    w = window if window is not None else spec.default_window(volume)
    ext = volume.boundary_sites(w) if volume.kind == "interval" else volume.boundary_sites()
    vals = DisorderRealization(seed, negate=True).boundary_values(ext, volume)
    return BoundaryCondition.explicit({s: int(v) for s, v in zip(ext, vals)})


# ---------------------------------------------------------------------------
# chaotic size dependence


@dataclass(frozen=True)
class FlipRecord:
    """Sign history of W along a volume sequence, per master seed."""

    sequence: VolumeSequence
    w: np.ndarray              # (n_seeds, K) boundary energies
    signs: np.ndarray          # (n_seeds, K) int8
    flip_counts: np.ndarray    # sign changes per seed
    longest_runs: np.ndarray   # longest constant-sign stretch per seed

    @property
    def mean_flip_count(self) -> float:
        return float(self.flip_counts.mean())


def csd_flip_statistics(spec: ModelSpec, sequence: VolumeSequence,
                        master_seed: int, n_seeds: int = 1,
                        boundary: str = "random",
                        seed_offset: int = 0) -> FlipRecord:
    """Track sign(W_{N_k}) along the sequence for each master seed.

    Each seed's boundary values form one infinite stream; every size reads
    a prefix, so the W values are the nested ones (bit-identical to
    standalone evaluation).  boundary="plus" replaces the stream with the
    constant +1 sequence: W is then a sum of positive coefficients and the
    record shows zero flips, the non-random control.
    """
    if not spec.long_range:
        raise ValueError("size-dependence diagnostics need a power kernel")
    sizes = np.asarray(sequence.terms)
    if boundary == "random":
        w = batch_W_plus(spec.alpha, sizes, master_seed, n_seeds,
                         seed_offset=seed_offset)
    elif boundary == "plus":
        w = np.empty((n_seeds, len(sizes)))
        for k, m in enumerate(sizes):
            a, _ = hurwitz_coefficients(spec.alpha, int(m))
            w[:, k] = a.sum()
    else:
        raise ValueError(f"boundary must be 'random' or 'plus', got {boundary!r}")
    signs = np.sign(w).astype(np.int8)
    flips = (np.diff(signs, axis=1) != 0).sum(axis=1)
    longest = np.empty(n_seeds, dtype=np.int64)
    for i in range(n_seeds):
        best = run = 1
        for k in range(1, len(sizes)):
            run = run + 1 if signs[i, k] == signs[i, k - 1] else 1
            best = max(best, run)
        longest[i] = best
    return FlipRecord(sequence, w, signs, flips.astype(np.int64), longest)


# ---------------------------------------------------------------------------
# null recurrence


@dataclass(frozen=True)
class NullRecurrenceRecord:
    """Per-size window probabilities p_k = P(|W_{N_k}| <= c_k) and their sum.

    running_sums[k] = p_1 + ... + p_{k+1}; a sparse sequence shows the sum
    converging (small last_term_fraction), a linear one shows it still
    growing (large growth_last_half).
    """

    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    running_sums: np.ndarray
    n_seeds: int

    @classmethod
    def from_counts(cls, counts, n_seeds: int) -> "NullRecurrenceRecord":
        """Record from the per-size counts of draws inside the window."""
        p = np.asarray(counts) / n_seeds
        lo, hi = np.array([wilson_interval(int(k), n_seeds) for k in counts]).T
        return cls(p, lo, hi, np.cumsum(p), n_seeds)

    @property
    def last_term_fraction(self) -> float:
        total = self.running_sums[-1]
        return float(self.p_hat[-1] / total) if total > 0 else 0.0

    @property
    def growth_last_half(self) -> float:
        half = len(self.p_hat) // 2
        base = self.running_sums[half - 1]
        return float((self.running_sums[-1] - base) / base) if base > 0 else np.inf


def null_recurrence_frequency(alpha: float, sequence: VolumeSequence, c: float,
                              n_seeds: int, master_seed: int = 0
                              ) -> NullRecurrenceRecord:
    """Estimate the window probabilities along the sequence, conservatively:
    p_hat errs upward (count_inside), the safe direction for summability."""
    if c <= 0:
        raise ValueError(f"window threshold c must be > 0, got {c}")
    w = batch_W_plus(alpha, sequence.terms, master_seed, n_seeds)
    slacks = [window_slack("dyson", alpha, m) for m in sequence.terms]
    return NullRecurrenceRecord.from_counts(
        count_inside(w, c, slacks), n_seeds)
