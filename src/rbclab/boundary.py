"""Boundary-energy statistics for long-range intervals and 2d boxes.

Conventions, used consistently everywhere:

* W is the cross-boundary energy advantage of the all-plus interior: the
  all-plus state has cross term -W in the Hamiltonian and the all-minus
  state +W, so the ground-state gap is -2W and positive W favours plus.
* Half-line form: W = sum_d eta_d a_d with a_d = sum_{j>=0} (d+j)^-alpha,
  one boundary spin per distance d >= 1, truncated at a window of M spins.
* Interval form adds the mirror-image right half-line; the interior sum is
  then finite and the coefficients are exact partial sums.
* For +-1 disorder the moments are exact: Var W = sum of squared
  coefficients.  That makes scaling statements testable without estimator
  noise; samplers exist for everything anyway.

Tail sums are certified: every truncated sum returns an error bound the
truth provably respects (Euler-Maclaurin remainder for infinite tails,
worst-case window bound for boundary truncation).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.special

from . import rng
from .models import DisorderRealization, Volume

DEFAULT_EPS = 1e-8
_EM_MIN_BASE = 16.0

# Batch samplers draw realizations in blocks of at most BLOCK words per stream
# tag (one row if a stream is longer), so their memory is flat in n_seeds.
BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# certified tail sums


@dataclass(frozen=True)
class TailSum:
    """Certified value of sum_{j>=0} (q+j)^-alpha.

    |truth - value| <= error_bound, and error_bound never exceeds the
    integral-comparison bound (alpha-1)^-1 (q+window)^(1-alpha).
    """

    alpha: float
    q: float
    value: float
    error_bound: float
    window: int


def _em_tail(alpha: float, s: float) -> tuple[float, float]:
    """Euler-Maclaurin value and remainder bound for sum_{j>=0} (s+j)^-alpha.

    Terms through the second Bernoulli correction; for real alpha > 1 the
    remainder is no larger than the first omitted term.
    """
    a = alpha
    value = (s ** (1.0 - a) / (a - 1.0)
             + 0.5 * s ** -a
             + a * s ** (-a - 1.0) / 12.0
             - a * (a + 1.0) * (a + 2.0) * s ** (-a - 3.0) / 720.0)
    bound = a * (a + 1.0) * (a + 2.0) * (a + 3.0) * (a + 4.0) * s ** (-a - 5.0) / 30240.0
    return value, bound


def _check_alpha(alpha: float | None):
    if alpha is None or not alpha > 1.0:
        raise ValueError(
            f"alpha must exceed 1 (the boundary sum diverges otherwise), got {alpha}"
        )


def tail_sum(alpha: float, q: float, eps: float = DEFAULT_EPS,
             window: int | None = None) -> TailSum:
    """sum_{j>=0} (q+j)^-alpha by direct summation plus a certified tail.

    The window M is the number of directly summed terms; the remainder is
    continued analytically with an Euler-Maclaurin remainder bound <= eps.
    Passing `window` overrides the automatic choice (the bound then lands
    wherever that window puts it).
    """
    _check_alpha(alpha)
    if not q >= 1.0:
        raise ValueError(f"offset q must be >= 1, got {q}")
    if window is None:
        c5 = alpha * (alpha + 1) * (alpha + 2) * (alpha + 3) * (alpha + 4) / 30240.0
        s_needed = max(_EM_MIN_BASE, (c5 / eps) ** (1.0 / (alpha + 5.0)))
        m = int(max(0.0, np.ceil(s_needed - q)))
    else:
        m = int(window)
        if m < 0:
            raise ValueError("window must be >= 0")
    direct = float(np.sum((q + np.arange(m, dtype=np.float64)) ** -alpha)) if m else 0.0
    em_value, em_bound = _em_tail(alpha, q + m)
    value = direct + em_value
    # float roundoff slack for the direct partial sum
    slack = 2.3e-16 * (m + 8) * max(value, 1.0)
    return TailSum(alpha, q, value, em_bound + slack, m)


def hurwitz_coefficients(alpha: float, m: int) -> tuple[np.ndarray, float]:
    """a_d = sum_{j>=0} (d+j)^-alpha for d = 1..m, plus a per-term error bound.

    One anchored tail sum at d = m+1 and a reverse cumulative sum give all m
    coefficients in O(m); agrees with per-d tail_sum calls within bounds.
    Computed once per (alpha, m) in a process; the array is read-only.
    """
    _check_alpha(alpha)
    if m < 1:
        raise ValueError(f"need at least one coefficient, got m={m}")
    return _hurwitz_cached(float(alpha), int(m))


@functools.lru_cache(maxsize=32)
def _hurwitz_cached(alpha: float, m: int) -> tuple[np.ndarray, float]:
    anchor = tail_sum(alpha, m + 1)
    powers = np.arange(1, m + 1, dtype=np.float64) ** -alpha
    a = powers[::-1].cumsum()[::-1] + anchor.value
    a.flags.writeable = False
    per_term = anchor.error_bound + 1.2e-16 * m ** 0.5 * float(a[0])
    return a, per_term


def _row_blocks(master_seed: int, tags, count: int, n_seeds: int,
                seed_offset: int = 0, negate: bool = False):
    """Yield (i, rows), rows[t][r] = the first `count` sign words (word &
    1<<63, set for -1) of the tags[t] stream of sub_seed(master_seed,
    seed_offset + i + r), sign flipped if asked.

    The sub-seeds of a block are computed once, and each tag's rows are one
    u64_at call over a (sub-seeds x count) index grid, written into a word
    buffer allocated once per call: the rows are valid until the next block.
    """
    per = max(1, min(n_seeds, BLOCK // count))
    idx = np.arange(count, dtype=np.uint64)
    bufs = [np.empty((per, count), dtype=np.uint64) for _ in tags]
    for i in range(0, n_seeds, per):
        seeds = rng.sub_seeds(master_seed, seed_offset + i,
                              seed_offset + min(i + per, n_seeds))[:, None]
        rows = [rng.u64_at(seeds, tag, idx, out=buf[:len(seeds)], sign_only=True)
                for tag, buf in zip(tags, bufs)]
        if negate:
            for r in rows:
                r ^= rng.SIGN_BIT
        yield i, rows


# Standalone and batch functions evaluate rows through the same helpers, so
# they agree bit for bit: one numpy sum of products per (row, window), which
# calls no BLAS, so the bits do not depend on its thread count; box gaps are
# exact.  A row is float values (standalone) or sign words (batch).
def _products(c, row, buf):
    """c * row[:len(c)] in buf[:len(c)].  For sign words this is one XOR of
    each coefficient's sign bit, which is the product with +-1.0 exactly."""
    buf = buf[:len(c)]
    if row.dtype == np.uint64:
        np.bitwise_xor(c.view(np.uint64), row[:len(c)], out=buf.view(np.uint64))
    else:
        np.multiply(c, row[:len(c)], out=buf)
    return buf


def _half_line_w(coeffs, eta, buf) -> list:
    """W at the nested windows len(c), c in coeffs, of one boundary row."""
    return [float(_products(c, eta, buf).sum()) for c in coeffs]


def _interval_w(c, eta_left, eta_right, buf) -> float:
    return float(_products(c, eta_left, buf).sum()
                 + _products(c, eta_right, buf).sum())


def _box_gap(layer):
    """-2 sum eta over the last axis: one gap per row.  For sign words that
    sum is count - 2 * (number of -1 values), an exact integer."""
    if layer.dtype == np.uint64:
        neg = np.count_nonzero(layer, axis=-1)
        return -2.0 * (layer.shape[-1] - 2 * neg)
    return -2.0 * layer.sum(axis=-1)


# ---------------------------------------------------------------------------
# half-line boundary energy W


@dataclass(frozen=True)
class WPlusSample:
    value: float
    error_bound: float


def sample_W_plus(alpha: float, window_m: int, eta) -> WPlusSample:
    """W = sum_{d=1..M} eta_d a_d against the all-plus half-line interior.

    `eta` is a DisorderRealization (left boundary stream) or an array of
    +-1 values indexed by distance d = 1..M.  The error bound accumulates
    the certified per-coefficient tail error (the boundary window M itself
    is part of the definition, not an approximation).
    """
    values = (eta.left_boundary(window_m) if isinstance(eta, DisorderRealization)
              else np.asarray(eta, dtype=np.float64))
    if values.shape != (window_m,):
        raise ValueError(f"eta must supply {window_m} boundary values")
    a, per_term = hurwitz_coefficients(alpha, window_m)
    return WPlusSample(_half_line_w([a], values.astype(np.float64),
                                    np.empty(window_m))[0],
                       window_m * per_term)


def w_plus_exact_std(alpha: float, sizes, method: str = "tail") -> np.ndarray:
    """sqrt(Var W_M) for several windows M, exact for +-1 disorder.

    Var W_M = sum_{d<=M} a_d^2.  method="tail" uses the package's certified
    coefficients; method="zeta" recomputes them through scipy's Hurwitz zeta
    as an independent path for cross-checking.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    m_max = int(sizes.max())
    if method == "tail":
        a, _ = hurwitz_coefficients(alpha, m_max)
    elif method == "zeta":
        a = scipy.special.zeta(alpha, np.arange(1, m_max + 1, dtype=np.float64))
    else:
        raise ValueError(f"unknown method {method!r}")
    cum = np.cumsum(a * a)
    return np.sqrt(cum[sizes - 1])


def batch_W_plus(alpha: float, sizes, master_seed: int, n_seeds: int,
                 negate: bool = False, seed_offset: int = 0) -> np.ndarray:
    """W samples at nested windows: (n_seeds, len(sizes)) matrix.

    Seed i reads the first max(sizes) values of its left-boundary stream;
    column k is bit-identical to sample_W_plus at window sizes[k] with the
    same realization (prefix nesting).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    coeffs = [hurwitz_coefficients(alpha, int(m))[0] for m in sizes]
    out = np.empty((n_seeds, len(sizes)))
    buf = np.empty(int(sizes.max()))
    for i, (rows,) in _row_blocks(master_seed, (rng.TAG_LEFT,),
                                  int(sizes.max()), n_seeds, seed_offset,
                                  negate):
        for r, eta in enumerate(rows):
            out[i + r] = _half_line_w(coeffs, eta, buf)
    return out


# ---------------------------------------------------------------------------
# two decompositions of the same double sum


@dataclass(frozen=True)
class DecompositionCheck:
    """Boundary-indexed vs interior-indexed summation of one finite window."""

    by_boundary_terms: float      # sum over boundary spins of eta_i * (row sum)
    by_interior_terms: float      # sum over interior sites of (weighted column sum)
    discrepancy: float
    interior_second_moments: np.ndarray  # exact E[(W'_j)^2] per interior site j


def decomposition_crosscheck(alpha: float, m: int, eta) -> DecompositionCheck:
    """Cross-check the square window {1..m} x {0..m-1} summed both ways."""
    _check_alpha(alpha)
    values = (eta.left_boundary(m) if isinstance(eta, DisorderRealization)
              else np.asarray(eta, dtype=np.float64)).astype(np.float64)
    if values.shape != (m,):
        raise ValueError(f"eta must supply {m} boundary values")
    d = np.arange(1, m + 1, dtype=np.float64)[:, None] + np.arange(m, dtype=np.float64)[None, :]
    C = d ** -alpha
    by_boundary = float(values @ C.sum(axis=1))
    by_interior = float((values @ C).sum())
    second_moments = (C * C).sum(axis=0)
    return DecompositionCheck(by_boundary, by_interior,
                              abs(by_boundary - by_interior), second_moments)


# ---------------------------------------------------------------------------
# interval (two-sided) boundary energy


def interval_coefficients(alpha: float, n: int, window_m: int) -> np.ndarray:
    """c_d = sum_{j=0..n-1} (d+j)^-alpha for d = 1..M; exact finite sums."""
    _check_alpha(alpha)
    powers = np.arange(1, n + window_m, dtype=np.float64) ** -alpha
    prefix = np.concatenate(([0.0], np.cumsum(powers)))
    d = np.arange(1, window_m + 1)
    return prefix[d + n - 1] - prefix[d - 1]


def interval_boundary_energy(alpha: float, n: int, window_m: int,
                             eta_left, eta_right) -> float:
    """Cross-boundary W for the all-plus interval {0..n-1}, window M per side.

    Positive W means the plus interior is favoured; the Hamiltonian cross
    term of the all-plus state is -W.  eta arrays are indexed by distance
    from the respective interval edge (d = 1..M).
    """
    c = interval_coefficients(alpha, n, window_m)
    el = np.asarray(eta_left, dtype=np.float64)
    er = np.asarray(eta_right, dtype=np.float64)
    if el.shape != (window_m,) or er.shape != (window_m,):
        raise ValueError(f"eta arrays must each supply {window_m} values")
    return _interval_w(c, el, er, np.empty(window_m))


def interval_exact_std(alpha: float, n: int, window_m: int) -> float:
    c = interval_coefficients(alpha, n, window_m)
    return float(np.sqrt(2.0 * (c * c).sum()))


def batch_interval_W(alpha: float, n: int, window_m: int, master_seed: int,
                     n_seeds: int, negate: bool = False,
                     seed_offset: int = 0) -> np.ndarray:
    """Interval W per realization; seed i uses streams of sub_seed(master, i)."""
    c = interval_coefficients(alpha, n, window_m)
    out = np.empty(n_seeds)
    buf = np.empty(window_m)
    for i, (el, er) in _row_blocks(master_seed, (rng.TAG_LEFT, rng.TAG_RIGHT),
                                   window_m, n_seeds, seed_offset, negate):
        for r in range(len(el)):
            out[i + r] = _interval_w(c, el[r], er[r], buf)
    return out


# ---------------------------------------------------------------------------
# 2d nearest-neighbour box: ground-state gap


def nn2d_boundary_gap(n: int, eta_layer) -> float:
    """E(all plus) - E(all minus) for the N x N box under layer values eta.

    Every exterior layer site carries exactly one bond, so the gap is
    -2 sum eta_j over the 4N layer sites.
    """
    values = (eta_layer.layer_values(4 * n) if isinstance(eta_layer, DisorderRealization)
              else np.asarray(eta_layer, dtype=np.float64))
    if values.shape != (4 * n,):
        raise ValueError(f"layer must supply {4 * n} values for an {n}x{n} box")
    return float(_box_gap(values))


def nn2d_gap_exact_std(n: int) -> float:
    """Exact sqrt(Var gap) from the boundary bond count of the box."""
    n_bonds = len(Volume.box(n).boundary_sites())
    return 2.0 * float(np.sqrt(n_bonds))


def batch_nn2d_gaps(n: int, master_seed: int, n_seeds: int,
                    seed_offset: int = 0) -> np.ndarray:
    out = np.empty(n_seeds)
    for i, (rows,) in _row_blocks(master_seed, (rng.TAG_LAYER,), 4 * n,
                                  n_seeds, seed_offset):
        out[i:i + len(rows)] = _box_gap(rows)
    return out


def batch_family_W(family: str, alpha: float | None, sizes, master_seed: int,
                   n_seeds: int, seed_offset: int = 0) -> np.ndarray:
    """(n_seeds, len(sizes)) W draws: half-line W at window N for "dyson"
    (needs alpha), the box gap at side N for "nn2d"."""
    if family == "dyson":
        return batch_W_plus(alpha, sizes, master_seed, n_seeds,
                            seed_offset=seed_offset)
    if family == "nn2d":
        return np.column_stack([batch_nn2d_gaps(int(n), master_seed, n_seeds,
                                                seed_offset) for n in sizes])
    raise ValueError(f"family must be 'dyson' or 'nn2d', got {family!r}")


# ---------------------------------------------------------------------------
# scaling fits


# A scaling fit needs FIT_MIN_SIZES sizes with FIT_MIN_SAMPLES draws each,
# spanning a max/min ratio of FIT_SPAN[family]: two decades for the dyson
# half-line; the box-gap criterion range {16..1024} spans 1.8 decades, so the
# 2d family relaxes that to one decade.
FIT_MIN_SIZES = 4
FIT_MIN_SAMPLES = 1000
FIT_SPAN = {"dyson": 100.0, "nn2d": 10.0}


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float
    stderr: float
    sizes: tuple
    statistic_values: tuple
    statistic: str


def fit_loglog(sizes, values) -> tuple[float, float, float]:
    """Least-squares slope of log(values) on log(sizes): (slope, intercept, stderr)."""
    x = np.log(np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    k = len(x)
    if k < 2:
        raise ValueError("need at least two sizes for a fit")
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    slope = ((x - xm) * (y - ym)).sum() / sxx
    intercept = ym - slope * xm
    if k == 2:
        return float(slope), float(intercept), float("nan")
    resid = y - slope * x - intercept
    stderr = float(np.sqrt((resid ** 2).sum() / (k - 2) / sxx))
    return float(slope), float(intercept), stderr


def scaling_fit(samples: dict, statistic: str = "sqrt_var",
                min_span: float = FIT_SPAN["dyson"]) -> ScalingFit:
    """Power-law fit of a W statistic against volume size.

    `samples` maps size -> array of W draws; needs >= FIT_MIN_SIZES sizes
    spanning max/min >= min_span (two decades by default, FIT_SPAN per
    family) with >= FIT_MIN_SAMPLES draws each.  statistic: "sqrt_var"
    (default; the lower-noise choice since the moments are exact for +-1
    disorder when computed analytically) or "mean_abs".
    """
    sizes = sorted(samples)
    if len(sizes) < FIT_MIN_SIZES:
        raise ValueError(f"need >= {FIT_MIN_SIZES} distinct sizes, "
                         f"got {len(sizes)}")
    if max(sizes) < min_span * min(sizes):
        raise ValueError(
            f"sizes must span a max/min ratio of {min_span:g}, got "
            f"{max(sizes) / min(sizes):g}"
        )
    vals = []
    for n in sizes:
        w = np.asarray(samples[n], dtype=np.float64)
        if len(w) < FIT_MIN_SAMPLES:
            raise ValueError(f"need >= {FIT_MIN_SAMPLES} samples per size, "
                             f"got {len(w)} at N={n}")
        vals.append(np.sqrt(w.var(ddof=1)) if statistic == "sqrt_var"
                    else np.abs(w).mean())
    slope, intercept, stderr = fit_loglog(sizes, vals)
    return ScalingFit(slope, intercept, stderr, tuple(sizes), tuple(vals), statistic)


# ---------------------------------------------------------------------------
# window probabilities


@dataclass(frozen=True)
class WindowProbability:
    p_hat: float
    ci_low: float
    ci_high: float
    n_inside: int
    n_seeds: int
    threshold: float
    slack: float          # certified numerical slack added to the threshold
    out_of_regime: bool   # delta outside (0, 1/2); still computed, flagged


def window_slack(family: str, alpha: float | None, n: int) -> float:
    """Certified numerical error of a family's W at size n (exact for nn2d)."""
    return n * hurwitz_coefficients(alpha, n)[1] if family == "dyson" else 0.0


def count_inside(w, thresholds, slacks):
    """Per-column count of |W| <= threshold + slack: draws within certified
    error of the edge count as inside, so estimates err upward."""
    return (np.abs(w) <= np.asarray(thresholds) + np.asarray(slacks)).sum(axis=0)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for k successes in n trials."""
    if n <= 0:
        raise ValueError("need at least one trial")
    z = 1.96
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def window_probability(family: str, n: int, n_seeds: int, master_seed: int = 0,
                       delta: float | None = None, threshold: float | None = None,
                       alpha: float | None = None) -> WindowProbability:
    """P(|W_N| <= threshold), threshold = N^delta unless given directly.

    family "dyson" uses the half-line W at window N (needs alpha); "nn2d"
    uses the box gap. Values within the certified slack of the threshold
    count as inside (count_inside), so the estimate errs upward.
    """
    if (delta is None) == (threshold is None):
        raise ValueError("give exactly one of delta or threshold")
    out_of_regime = False
    if delta is not None:
        threshold = float(n) ** delta
        out_of_regime = not (0.0 < delta < 0.5)
    w = batch_family_W(family, alpha, [n], master_seed, n_seeds)[:, 0]
    slack = window_slack(family, alpha, n)
    inside = int(count_inside(w, threshold, slack))
    lo, hi = wilson_interval(inside, n_seeds)
    return WindowProbability(inside / n_seeds, lo, hi, inside, n_seeds,
                             threshold, slack, out_of_regime)


# ---------------------------------------------------------------------------
# two-state weight


def metastate_weight(w, beta: float):
    """lam = e^{beta W} / (e^{beta W} + e^{-beta W}), stable at any |W|.

    Written as (1 + tanh(beta W))/2 so the map is exactly antisymmetric:
    lam(-W) = 1 - lam(W) in floating point, which the disorder-flip
    symmetry tests rely on.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    w = np.asarray(w, dtype=np.float64)
    lam = 0.5 * (1.0 + np.tanh(beta * w))
    return float(lam) if lam.ndim == 0 else lam
