"""Exact finite-volume Gibbs measures by full enumeration.

Everything here is the oracle the rest of the package is checked against,
so it stays deliberately simple: materialize all 2^n energies in blocks,
normalize through log-sum-exp, and answer questions by direct summation.
Enumeration is refused above ENUMERATION_LIMIT sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import logsumexp

from .models import (BoundaryCondition, DisorderRealization, ModelSpec,
                     SpinConfiguration, Volume, hamiltonian_arrays)

ENUMERATION_LIMIT = 24
_BLOCK_BITS = 18
# elements in the mixture fit's lambda-grid buffer (512 KiB, cache-sized)
_TV_BLOCK = 1 << 16

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
                window: int | None = None,
                max_sites: int = ENUMERATION_LIMIT) -> GibbsTable:
    n = volume.n_sites
    if n > max_sites:
        raise ValueError(
            f"{n} sites exceeds the enumeration limit {max_sites}; "
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
                           window: int | None = None,
                           max_sites: int = ENUMERATION_LIMIT) -> float:
    """log Z; finite for beta up to ~50 at the enumeration limit."""
    table = gibbs_table(spec, volume, boundary, disorder, window, max_sites)
    return table.log_z


def partition_function(spec: ModelSpec, volume: Volume,
                       boundary: BoundaryCondition,
                       disorder: DisorderRealization | None = None,
                       window: int | None = None,
                       max_sites: int = ENUMERATION_LIMIT) -> float:
    """Z itself; overflows to inf when log Z exceeds float range (use the log)."""
    return float(np.exp(log_partition_function(
        spec, volume, boundary, disorder, window, max_sites)))


# ---------------------------------------------------------------------------
# observables

Observable = Union[str, tuple, Callable]


def _site_spins(table: GibbsTable, i: int) -> np.ndarray:
    idx = np.arange(len(table.probabilities), dtype=np.uint64)
    return 1.0 - 2.0 * ((idx >> np.uint64(i)) & np.uint64(1))


def expectation(table: GibbsTable, observable: Observable) -> float:
    """<f> under the table.

    Accepts "magnetization", ("site", i), ("overlap", tau_values), or a
    callable mapping a (block, n_sites) spin matrix to a vector.
    """
    p = table.probabilities
    n = table.n_sites
    if observable == "magnetization":
        return float(p @ (table.spin_sums / n))
    if isinstance(observable, tuple) and observable[0] == "site":
        i = observable[1]
        if not 0 <= i < n:
            raise ValueError(f"site index {i} outside 0..{n - 1}")
        return float(p @ _site_spins(table, i))
    if isinstance(observable, tuple) and observable[0] == "overlap":
        tau = np.asarray(observable[1], dtype=np.float64)
        if tau.shape != (n,):
            raise ValueError(f"overlap configuration must have {n} spins")
        acc = 0.0
        for i in range(n):
            acc += tau[i] * float(p @ _site_spins(table, i))
        return acc / n
    if callable(observable):
        n_conf = len(p)
        block = 1 << min(_BLOCK_BITS, n)
        bit_shifts = np.arange(n, dtype=np.uint64)
        acc = 0.0
        for lo in range(0, n_conf, block):
            idx = np.arange(lo, lo + block, dtype=np.uint64)
            sig = 1.0 - 2.0 * ((idx[:, None] >> bit_shifts[None, :]) & np.uint64(1))
            acc += float(p[lo:lo + block] @ np.asarray(observable(sig), dtype=np.float64))
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
    weight: float
    residual: float  # total variation at the optimum


def _tv_curve(u: np.ndarray, v: np.ndarray, lams: np.ndarray) -> np.ndarray:
    # TV(lam) = 0.5 sum |u - lam v|, for a batch of lam values, computed in
    # place in one buffer of at most _TV_BLOCK elements (one row when u is
    # longer); each row is still reduced on its own, so the bits do not
    # depend on the block size
    out = np.empty(len(lams))
    chunk = max(1, _TV_BLOCK // max(len(u), 1))
    buf = np.empty((min(chunk, len(lams)), len(u)))
    for lo in range(0, len(lams), chunk):
        lam_blk = lams[lo:lo + chunk]
        b = buf[:len(lam_blk)]
        np.multiply(lam_blk[:, None], v, out=b)
        np.subtract(u, b, out=b)
        np.abs(b, out=b)
        out[lo:lo + chunk] = 0.5 * b.sum(axis=1)
    return out


def fit_mixture_weight(table: GibbsTable, table_plus: GibbsTable,
                       table_minus: GibbsTable,
                       grid_step: float = 1e-4) -> MixtureFit:
    """Best lam in [0,1] for table ~ lam*plus + (1-lam)*minus, by total variation.

    TV is piecewise linear and convex in lam, so a grid pass followed by a
    golden-section refinement of the winning bracket finds the optimum.
    """
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must lie in (0, 1], got {grid_step!r}")
    for other in (table_plus, table_minus):
        if other.volume != table.volume:
            raise ValueError("mixture fit needs tables on the same volume")
    u = table.probabilities - table_minus.probabilities
    v = table_plus.probabilities - table_minus.probabilities
    if not np.any(v):
        # plus and minus tables coincide, every weight fits equally well
        residual = 0.5 * float(np.abs(u).sum())
        return MixtureFit(weight=0.5, residual=residual)
    lams = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    tv = _tv_curve(u, v, lams)
    k = int(np.argmin(tv))
    lo = lams[max(k - 1, 0)]
    hi = lams[min(k + 1, len(lams) - 1)]

    def f(lam: float) -> float:
        return 0.5 * float(np.abs(u - lam * v).sum())

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-12:
            break
    lam_star = min(1.0, max(0.0, 0.5 * (a + b)))
    return MixtureFit(weight=lam_star, residual=f(lam_star))
