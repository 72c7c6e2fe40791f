"""Exact finite-volume Gibbs measures by full enumeration.

Everything here is the oracle the rest of the package is checked against,
so it stays deliberately simple: materialize all 2^n energies in blocks,
normalize through log-sum-exp, and answer questions by direct summation.
Enumeration is refused above ENUMERATION_LIMIT sites.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import logsumexp

from .models import (BoundaryCondition, DisorderRealization, ModelSpec,
                     SpinConfiguration, Volume, hamiltonian_arrays)

ENUMERATION_LIMIT = 24
_BLOCK_BITS = 18

# Configuration indexing: config index bit k is spin k, bit value 0 -> +1.
# Index 0 is the all-plus configuration; complementing the index flips
# every spin, so reversing the probability array flips the boundary sign.


@dataclass(eq=False)
class GibbsTable:
    """Full finite-volume Gibbs measure: probabilities over all 2^n configs."""

    spec: ModelSpec
    volume: Volume
    probabilities: np.ndarray
    log_z: float
    energies: np.ndarray
    spin_sums: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.volume.n_sites

    def spins_of(self, index: int) -> np.ndarray:
        shifts = np.arange(self.n_sites, dtype=np.uint64)
        bits = (np.uint64(index) >> shifts) & np.uint64(1)
        return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def _enumerate_arrays(K: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(h)
    n_conf = 1 << n
    U = np.triu(K, 1)
    energies = np.empty(n_conf)
    spin_sums = np.empty(n_conf, dtype=np.int32)
    block = 1 << min(_BLOCK_BITS, n)
    bit_shifts = np.arange(n, dtype=np.uint64)
    for lo in range(0, n_conf, block):
        idx = np.arange(lo, lo + block, dtype=np.uint64)
        sig = 1.0 - 2.0 * ((idx[:, None] >> bit_shifts[None, :]) & np.uint64(1))
        energies[lo:lo + block] = -((sig @ U) * sig).sum(axis=1) - sig @ h
        spin_sums[lo:lo + block] = sig.sum(axis=1)
    return energies, spin_sums


def gibbs_table(spec: ModelSpec, volume: Volume, boundary: BoundaryCondition,
                disorder: DisorderRealization | None = None,
                window: int | None = None) -> GibbsTable:
    n = volume.n_sites
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"{n} sites exceeds the enumeration limit {ENUMERATION_LIMIT}; "
            "use the monte-carlo layer for volumes this large"
        )
    K, h = hamiltonian_arrays(spec, volume, boundary, disorder, window)
    energies, spin_sums = _enumerate_arrays(K, h)
    weights = -spec.beta * energies
    log_z = float(logsumexp(weights))
    probabilities = np.exp(weights - log_z)
    return GibbsTable(spec, volume, probabilities, log_z, energies, spin_sums)


def log_partition_function(spec: ModelSpec, volume: Volume,
                           boundary: BoundaryCondition,
                           disorder: DisorderRealization | None = None,
                           window: int | None = None) -> float:
    """log Z; finite for beta up to ~50 at the enumeration limit."""
    table = gibbs_table(spec, volume, boundary, disorder, window)
    return table.log_z


def partition_function(spec: ModelSpec, volume: Volume,
                       boundary: BoundaryCondition,
                       disorder: DisorderRealization | None = None,
                       window: int | None = None) -> float:
    """Z itself; overflows to inf when log Z exceeds float range (use the log)."""
    return float(np.exp(log_partition_function(
        spec, volume, boundary, disorder, window)))


# ---------------------------------------------------------------------------
# observables

Observable = Union[str, tuple, Callable]


def _site_spins(table: GibbsTable, i: int) -> np.ndarray:
    idx = np.arange(len(table.probabilities), dtype=np.uint64)
    return 1.0 - 2.0 * ((idx >> np.uint64(i)) & np.uint64(1))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) without BLAS, so the bits do not depend on its threading."""
    return float(np.einsum("i,i->", a, b))


def expectation(table: GibbsTable, observable: Observable) -> float:
    """<f> under the table.

    Accepts "magnetization", "energy", ("site", i), ("overlap", tau_values),
    or a callable mapping a (block, n_sites) spin matrix to a vector.
    """
    p = table.probabilities
    n = table.n_sites
    if observable == "magnetization":
        return _dot(p, table.spin_sums / n)
    if observable == "energy":
        return _dot(p, table.energies)
    if isinstance(observable, tuple) and observable[0] == "site":
        i = observable[1]
        if not 0 <= i < n:
            raise ValueError(f"site index {i} outside 0..{n - 1}")
        return _dot(p, _site_spins(table, i))
    if isinstance(observable, tuple) and observable[0] == "overlap":
        tau = np.asarray(observable[1], dtype=np.float64)
        if tau.shape != (n,):
            raise ValueError(f"overlap configuration must have {n} spins")
        acc = 0.0
        for i in range(n):
            acc += tau[i] * _dot(p, _site_spins(table, i))
        return acc / n
    if callable(observable):
        n_conf = len(p)
        block = 1 << min(_BLOCK_BITS, n)
        bit_shifts = np.arange(n, dtype=np.uint64)
        acc = 0.0
        for lo in range(0, n_conf, block):
            idx = np.arange(lo, lo + block, dtype=np.uint64)
            sig = 1.0 - 2.0 * ((idx[:, None] >> bit_shifts[None, :]) & np.uint64(1))
            acc += _dot(p[lo:lo + block], np.asarray(observable(sig), dtype=np.float64))
        return acc
    raise ValueError(f"unrecognized observable {observable!r}")


def total_variation(table_a: GibbsTable, table_b: GibbsTable) -> float:
    if table_a.volume != table_b.volume:
        raise ValueError("total variation needs tables on the same volume")
    return 0.5 * float(np.abs(table_a.probabilities - table_b.probabilities).sum())


def plus_phase_weight(table: GibbsTable) -> float:
    """Gibbs weight of the positive-magnetization half (ties split evenly).

    The positive-temperature analogue of the two-state weight: equal to the
    ratio of restricted partition functions Z+/(Z+ + Z-).
    """
    p = table.probabilities
    s = table.spin_sums
    return float(p[s > 0].sum() + 0.5 * p[s == 0].sum())


# ---------------------------------------------------------------------------
# two-state mixture fit


@dataclass(frozen=True)
class MixtureFit:
    weight: float    # midpoint of [lo, hi]
    residual: float  # total variation at weight
    lo: float        # the minimising interval, clipped to [0, 1]
    hi: float


# elements per list handed to math.fsum by _excess
_FSUM_CHUNK = 1 << 12


def _excess(w: np.ndarray, k: int) -> float:
    """sum(w[:k]) - sum(w[k:]), rounded once, so its sign is exact."""
    left = (w[i:min(i + _FSUM_CHUNK, k)].tolist()
            for i in range(0, k, _FSUM_CHUNK))
    right = (np.negative(w[i:i + _FSUM_CHUNK]).tolist()
             for i in range(k, len(w), _FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(itertools.chain(left, right)))


def _median_interval(p: np.ndarray, p_plus: np.ndarray,
                     p_minus: np.ndarray) -> tuple[float, float]:
    """Minimising set over the reals of sum_i |v_i| |t_i - mu|, where
    v = p_plus - p_minus has a nonzero entry and t_i = 2 u_i / v_i - 1.

    t is formed as ((p - p_minus) - (p_plus - p)) / v, which negates exactly
    when the boundary is flipped (p reversed, p_plus and p_minus swapped).
    In t order with weights w = |v| the set's lower end is t_(k) for the
    smallest k with sum(w_(1..k)) >= sum(w_(k+1..)); when the two sums are
    equal it is flat up to t_(k+1), its upper end. A float cumsum proposes
    k and _excess settles each comparison exactly. Arrays are dropped as
    soon as they are spent, to keep the peak low.
    """
    v = p_plus - p_minus
    t = p - p_minus
    b = p_plus - p
    t -= b
    del b
    nonzero = v != 0.0
    if not nonzero.all():
        v, t = v[nonzero], t[nonzero]
    del nonzero
    t /= v
    order = np.argsort(t)
    ts = t[order]
    del t
    ws = v[order]
    del v, order
    np.abs(ws, out=ws)
    cs = np.cumsum(ws)
    k = int(np.searchsorted(cs, 0.5 * cs[-1])) + 1
    del cs
    excess = _excess(ws, k)
    while excess < 0.0:
        k += 1
        excess = _excess(ws, k)
    while k > 1:
        before = _excess(ws, k - 1)
        if before < 0.0:
            break
        k, excess = k - 1, before
    lo = float(ts[k - 1])
    return lo, (float(ts[k]) if excess == 0.0 else lo)


def fit_mixture_weight(table: GibbsTable, table_plus: GibbsTable,
                       table_minus: GibbsTable,
                       grid_step: float = 1e-4) -> MixtureFit:
    """Best lam in [0,1] for table ~ lam*plus + (1-lam)*minus, by total variation.

    With u = table - minus and v = plus - minus, TV(lam) = 0.5 sum |u - lam v|
    is convex and piecewise linear, minimised over the reals on the weighted-
    median interval of the ratios u_i / v_i with weights |v_i| (v_i != 0).
    That interval, clipped to [0, 1], is returned as [lo, hi], weight is its
    midpoint and residual the TV there; a flat minimum (lo < hi) is decided
    exactly, without a tolerance. The median is taken in the centred
    coordinate mu = 2 lam - 1, which a flipped boundary negates exactly, so
    the flipped fit's weight plus this one's is 1.0 in floating point.
    `grid_step` is validated but no longer affects the fit.
    """
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must lie in (0, 1], got {grid_step!r}")
    for other in (table_plus, table_minus):
        if other.volume != table.volume:
            raise ValueError("mixture fit needs tables on the same volume")
    p, p_plus, p_minus = (table.probabilities, table_plus.probabilities,
                          table_minus.probabilities)
    if np.array_equal(p_plus, p_minus):
        # plus and minus tables coincide, every weight fits equally well
        mu_lo, mu_hi = -1.0, 1.0
    else:
        mu_lo, mu_hi = (min(max(mu, -1.0), 1.0)
                        for mu in _median_interval(p, p_plus, p_minus))
    lo, hi, lam = (0.5 + 0.5 * mu for mu in (mu_lo, mu_hi, 0.5 * (mu_lo + mu_hi)))
    # TV at lam as 0.5 * |u - lam*v|.sum(), in place
    u = p - p_minus
    v = p_plus - p_minus
    np.multiply(lam, v, out=v)
    np.subtract(u, v, out=u)
    np.abs(u, out=u)
    return MixtureFit(weight=lam, residual=0.5 * float(u.sum()), lo=lo, hi=hi)
