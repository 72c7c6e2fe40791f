"""Metropolis sampler for volumes past the exact-enumeration limit.

Single-spin-flip dynamics on the same (K, h) arrays the exact layer uses, so
any run can be validated observable-by-observable against the enumeration
oracle on small volumes.  All randomness comes from counter-based streams
keyed by the chain seed, drawn BLOCK sweeps at a time so memory stays
O(n * BLOCK) for any chain length: a run is a pure function of
(model, volume, boundary, disorder, chain seed, schedule), however the
sweeps are split into blocks.

Local fields f = K sigma + h are maintained incrementally (O(N) per
accepted flip) and recomputed from scratch every `recompute_every` sweeps;
the worst drift seen at those checkpoints is reported on the result so a
run certifies its own float hygiene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .models import BoundaryCondition, DisorderRealization, ModelSpec, Volume, \
    hamiltonian_arrays

try:
    from numba import njit as _njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an install-time extra
    HAVE_NUMBA = False

DEFAULT_RECOMPUTE_EVERY = 1000


def recommended_sweeps(beta: float) -> int:
    """Sweep budget that mixes across wells on enumerable volumes.

    Below beta ~ 1.5 the chain decorrelates in O(10) sweeps and 2e4 is
    plenty; at low temperature well-hopping is exponentially suppressed and
    the budget goes up instead of silently under-sampling.
    """
    return 100_000 if beta >= 1.5 else 20_000


# ---------------------------------------------------------------------------
# kernel (one source, numba-compiled when available)

# Sweeps per block of drawn proposals (see the module docstring).
BLOCK = 1000


def _sweep_loop(Kc, h, sigma, f, beta, sweep_lo, sweep_hi, sites, uniforms,
                recompute_every, burn_in, thin, mag_out, en_out, site_sums,
                energy, accepted, max_f_drift, max_e_drift, m):
    # Sweeps [sweep_lo, sweep_hi) of one chain. sigma, f and site_sums are
    # updated in place; the scalar chain state goes in and comes back out.
    # Kc[i][j] = K[j, i] (one row per flipped spin), and sites/uniforms hold
    # this block's proposals only. Runs on numpy arrays when compiled and on
    # Python lists otherwise, where scalar indexing is several times faster.
    n = len(sigma)
    k = 0
    for sweep in range(sweep_lo, sweep_hi):
        for _ in range(n):
            i = sites[k]
            de = 2.0 * sigma[i] * f[i]
            u = uniforms[k]
            k += 1
            if de <= 0.0 or u < math.exp(-beta * de):
                s_old = sigma[i]
                sigma[i] = -s_old
                c = 2.0 * s_old
                Ki = Kc[i]
                for j in range(n):
                    f[j] -= c * Ki[j]
                energy += de
                accepted += 1
        if (sweep + 1) % recompute_every == 0:
            for i in range(n):
                acc = h[i]
                for j in range(n):
                    acc += Kc[j][i] * sigma[j]
                d = abs(f[i] - acc)
                if d > max_f_drift:
                    max_f_drift = d
                f[i] = acc
            e_new = 0.0
            for i in range(n):
                e_new += -0.5 * sigma[i] * (f[i] + h[i])
            d = abs(energy - e_new)
            if d > max_e_drift:
                max_e_drift = d
            energy = e_new
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            s_tot = 0.0
            for i in range(n):
                s_tot += sigma[i]
                site_sums[i] += sigma[i]
            mag_out[m] = s_tot / n
            en_out[m] = energy
            m += 1
    return energy, accepted, max_f_drift, max_e_drift, m


if HAVE_NUMBA:
    _sweep_kernel = _njit(cache=True)(_sweep_loop)
    _feed = np.ascontiguousarray
else:
    _sweep_kernel = _sweep_loop
    _feed = np.ndarray.tolist


def _fields_and_energy(K, h, sigma):
    # f = K sigma + h and the energy in the kernel's recompute order
    # (sequential over j from h[i]): bit for bit what a checkpoint computes
    f = h.copy()
    for j in range(sigma.size):
        f += K[:, j] * sigma[j]
    energy = 0.0
    for term in (-0.5 * sigma * (f + h)).tolist():
        energy += term
    return f, energy


def _run_chain(kernel, feed, K, h, sigma, beta, chain_seed, n_sweeps,
               burn_in, thin, recompute_every):
    """Drive `kernel` over the chain BLOCK sweeps at a time.

    Proposals for sweeps [lo, hi) are words lo*n .. hi*n of the counter
    streams, so every split of the chain draws the same proposals and the
    checkpoints (global sweep index) fall on the same sweeps.
    """
    n = sigma.size
    f, energy = _fields_and_energy(K, h, sigma)
    n_samples = (n_sweeps - burn_in + thin - 1) // thin
    mag = np.empty(n_samples)
    en = np.empty(n_samples)
    Kc, h, sigma, f, site_sums = (feed(a) for a in
                                  (K.T, h, sigma, f, np.zeros(n)))
    state = (energy, 0, 0.0, 0.0, 0)
    for lo in range(0, n_sweeps, BLOCK):
        hi = min(lo + BLOCK, n_sweeps)
        sites = (rng.stream_uniform(chain_seed, rng.TAG_MC_SITE, lo * n,
                                    (hi - lo) * n) * n).astype(np.int64)
        uniforms = rng.stream_uniform(chain_seed, rng.TAG_MC_ACCEPT, lo * n,
                                      (hi - lo) * n)
        state = kernel(Kc, h, sigma, f, beta, lo, hi, feed(sites),
                       feed(uniforms), recompute_every, burn_in, thin,
                       mag, en, site_sums, *state)
    _, accepted, f_drift, e_drift, _ = state
    return (np.asarray(sigma, dtype=np.float64), accepted, f_drift, e_drift,
            mag, en, np.asarray(site_sums, dtype=np.float64))


# ---------------------------------------------------------------------------
# error bars


def batch_means_stderr(samples) -> float:
    """Standard error of the mean from sqrt(S) batch means.

    Correct for autocorrelated chains once batches exceed the correlation
    time; with fewer than 100 samples the batch count is too small to trust,
    so that is an error rather than a bad number.
    """
    x = np.asarray(samples, dtype=np.float64)
    s = len(x)
    if s < 100:
        raise ValueError(f"need >= 100 samples for batch means, got {s}")
    n_batches = int(np.sqrt(s))
    batch = s // n_batches
    x = x[s - n_batches * batch:]  # drop the earliest remainder
    means = x.reshape(n_batches, batch).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


# ---------------------------------------------------------------------------
# runs


@dataclass(frozen=True)
class McRun:
    """One Metropolis chain with its schedule, estimates and hygiene checks."""

    n_sites: int
    beta: float
    n_sweeps: int
    burn_in: int
    thin: int
    chain_seed: int
    acceptance_rate: float
    magnetization_mean: float
    magnetization_stderr: float
    energy_mean: float
    energy_stderr: float
    spin_means: np.ndarray
    max_field_drift: float
    max_energy_drift: float
    magnetization_samples: np.ndarray
    energy_samples: np.ndarray
    final_spins: np.ndarray


def metropolis_run(spec: ModelSpec, volume: Volume, boundary: BoundaryCondition,
                   disorder: DisorderRealization | None = None,
                   chain_seed: int = 0, n_sweeps: int | None = None,
                   burn_in: int | None = None, thin: int = 1,
                   window: int | None = None, start: str = "random",
                   recompute_every: int = DEFAULT_RECOMPUTE_EVERY) -> McRun:
    """Run one chain and return means, batch-means errors and drift checks.

    The three chain streams (initial spins, proposal sites, acceptance
    uniforms) are keyed by chain_seed alone; the disorder realization keeps
    its own seed, so chains and disorder resample independently.
    """
    K, h = hamiltonian_arrays(spec, volume, boundary, disorder, window)
    n = volume.n_sites
    if n_sweeps is None:
        n_sweeps = recommended_sweeps(spec.beta)
    if burn_in is None:
        burn_in = n_sweeps // 5
    if not (0 <= burn_in < n_sweeps):
        raise ValueError(f"burn_in {burn_in} must lie in [0, n_sweeps)")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")

    if start == "random":
        sigma = rng.stream_pm1(chain_seed, rng.TAG_MC_INIT, 0, n).astype(np.float64)
    elif start in ("plus", "minus"):
        sigma = np.full(n, 1.0 if start == "plus" else -1.0)
    else:
        raise ValueError(f"start must be 'random', 'plus' or 'minus', got {start!r}")

    sigma, accepted, f_drift, e_drift, mag, en, site_sums = _run_chain(
        _sweep_kernel, _feed, K, h, sigma, spec.beta, chain_seed, n_sweeps,
        burn_in, thin, recompute_every)

    return McRun(
        n_sites=n, beta=spec.beta, n_sweeps=n_sweeps, burn_in=burn_in,
        thin=thin, chain_seed=chain_seed,
        acceptance_rate=accepted / (n_sweeps * n),
        magnetization_mean=float(mag.mean()),
        magnetization_stderr=batch_means_stderr(mag),
        energy_mean=float(en.mean()),
        energy_stderr=batch_means_stderr(en),
        spin_means=site_sums / mag.size,
        max_field_drift=float(f_drift),
        max_energy_drift=float(e_drift),
        magnetization_samples=mag,
        energy_samples=en,
        final_spins=sigma.astype(np.int8),
    )


def _z(diff: float, stderr: float, n_samples: int, swing: float) -> float:
    # A frozen chain (stderr 0: every recorded sample identical) carries
    # zero-count evidence, not a ratio. A discrepancy diff forces the target
    # measure to spend at least diff/swing probability off the frozen value
    # (one sample can move the mean by at most swing/n), so the chain should
    # have recorded lambda >= n*diff/swing off-value samples. Seeing none is
    # a sqrt(lambda)-sigma Poisson deficit; swing=inf disables the branch.
    if stderr == 0.0:
        if diff == 0.0:
            return 0.0
        if not math.isfinite(swing):
            return float("inf")
        return math.sqrt(n_samples * diff / swing)
    return diff / stderr


def oracle_z_scores(run: McRun, exact_magnetization: float,
                    exact_energy: float,
                    energy_swing: float | None = None) -> tuple[float, float]:
    """Distance from the enumeration oracle in batch-means standard errors.

    Frozen chains (constant samples, stderr 0) are scored by the zero-count
    test in _z instead. Per-site magnetization has the a-priori swing bound
    2; the energy swing (max minus min over states) depends on the model, so
    callers holding the exact table should pass it. Without a bound a frozen
    chain's energy score stays at the strict 0-or-inf convention.
    """
    n = run.magnetization_samples.size
    zm = _z(abs(run.magnetization_mean - exact_magnetization),
            run.magnetization_stderr, n, 2.0)
    ze = _z(abs(run.energy_mean - exact_energy),
            run.energy_stderr, n,
            float("inf") if energy_swing is None else energy_swing)
    return zm, ze
