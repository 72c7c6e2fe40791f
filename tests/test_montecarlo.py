"""Metropolis sampler: determinism, drift, error bars, oracle agreement."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from rbclab import (BoundaryCondition, DisorderRealization, ModelSpec,
                    Volume, batch_means_stderr, expectation, gibbs_table,
                    metropolis_run)
from rbclab import montecarlo
from rbclab.cli import main as cli_main

NN = ModelSpec.nn_ising()
V8 = Volume.interval(8)

# ---------------------------------------------------------------------------
# determinism and drift


def test_runs_are_deterministic():
    kw = dict(chain_seed=7, n_sweeps=2000, burn_in=200)
    a = metropolis_run(NN, V8, BoundaryCondition.plus(), **kw)
    b = metropolis_run(NN, V8, BoundaryCondition.plus(), **kw)
    assert np.array_equal(a.magnetization_samples, b.magnetization_samples)
    assert np.array_equal(a.energy_samples, b.energy_samples)
    assert np.array_equal(a.final_spins, b.final_spins)
    assert a.acceptance_rate == b.acceptance_rate
    c = metropolis_run(NN, V8, BoundaryCondition.plus(),
                       chain_seed=8, n_sweeps=2000, burn_in=200)
    assert not np.array_equal(a.magnetization_samples, c.magnetization_samples)


def test_incremental_fields_do_not_drift():
    # recompute guard reports the worst deviation between the running local
    # fields / energy and a fresh evaluation; must stay at rounding level
    spec = ModelSpec.dyson(1.3, beta=1.0)
    run = metropolis_run(spec, Volume.interval(12), BoundaryCondition.random(3),
                         chain_seed=1, n_sweeps=5000, burn_in=500,
                         recompute_every=250)
    assert run.max_field_drift <= 1e-6
    assert run.max_energy_drift <= 1e-6


def test_sample_count_respects_thinning():
    run = metropolis_run(NN, V8, BoundaryCondition.free(), chain_seed=2,
                         n_sweeps=1000, burn_in=100, thin=7)
    assert len(run.magnetization_samples) == (1000 - 100 + 7 - 1) // 7
    assert 0.0 < run.acceptance_rate <= 1.0


def test_cold_start_is_frozen_at_strong_coupling():
    run = metropolis_run(NN.with_beta(50.0), V8, BoundaryCondition.plus(),
                         chain_seed=5, n_sweeps=500, burn_in=0, start="plus")
    assert run.magnetization_mean == 1.0
    run_m = metropolis_run(NN.with_beta(50.0), V8, BoundaryCondition.minus(),
                           chain_seed=5, n_sweeps=500, burn_in=0, start="minus")
    assert run_m.magnetization_mean == -1.0


# ---------------------------------------------------------------------------
# batch means


def test_batch_means_on_iid_samples():
    g = np.random.default_rng(42)
    x = g.normal(size=40_000)
    se = batch_means_stderr(x)
    # iid: true stderr of the mean is 1/sqrt(S)
    assert se == pytest.approx(1.0 / np.sqrt(len(x)), rel=0.25)


def test_batch_means_sees_autocorrelation():
    # AR(1) with rho=0.8 inflates the stderr by sqrt((1+rho)/(1-rho)) = 3
    g = np.random.default_rng(7)
    rho, n = 0.8, 200_000
    eps = g.normal(size=n) * np.sqrt(1 - rho**2)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    se = batch_means_stderr(x)
    assert se == pytest.approx(3.0 / np.sqrt(n), rel=0.35)


def test_batch_means_needs_enough_samples():
    with pytest.raises(ValueError):
        batch_means_stderr(np.zeros(99))


# ---------------------------------------------------------------------------
# agreement with the exact oracle (loose single-run z checks; the formal
# 95-percent criterion lives in the acceptance suite)


@pytest.mark.parametrize("spec,seed", [
    (ModelSpec.nn_ising(beta=1.0), 11),
    (ModelSpec.dyson(1.5, beta=0.5), 12),
    (ModelSpec.ea(beta=1.0), 13),
], ids=["nn", "dyson", "ea"])
def test_single_run_tracks_exact_oracle(spec, seed):
    volume = Volume.interval(8)
    disorder = DisorderRealization(100 + seed) \
        if (spec.needs_site_disorder or spec.needs_bond_disorder) else None
    bc = BoundaryCondition.random(seed)
    table = gibbs_table(spec, volume, bc, disorder)
    run = metropolis_run(spec, volume, bc, disorder, chain_seed=seed,
                         n_sweeps=40_000)
    exact_m = expectation(table, "magnetization")
    exact_e = float(table.probabilities @ table.energies)
    zm, ze = montecarlo.oracle_z_scores(run, exact_m, exact_e)
    assert abs(zm) < 5.0
    assert abs(ze) < 5.0


def test_three_spin_visits_are_stationary_for_the_exact_table():
    # smoke test of detailed balance: on 3 spins every state is visited
    # thousands of times, so the empirical state frequencies of a thinned
    # chain must sit inside the binomial CI around the exact probabilities.
    # States are identified by their energies, distinct for this draw.
    spec = ModelSpec.dyson(1.5, beta=0.8)
    volume = Volume.interval(3)
    bc = BoundaryCondition.random(31)
    table = gibbs_table(spec, volume, bc)
    gaps = np.diff(np.sort(table.energies))
    assert gaps.min() > 1e-6
    run = metropolis_run(spec, volume, bc, chain_seed=32,
                         n_sweeps=400_000, thin=25)
    idx = np.argmin(np.abs(run.energy_samples[:, None]
                           - table.energies[None, :]), axis=1)
    assert np.max(np.abs(run.energy_samples - table.energies[idx])) < 1e-8
    n = idx.size
    freq = np.bincount(idx, minlength=table.energies.size) / n
    ci = 5.0 * np.sqrt(table.probabilities * (1 - table.probabilities) / n)
    assert np.all(np.abs(freq - table.probabilities) <= ci)


def test_python_and_compiled_kernels_agree():
    from rbclab.models import hamiltonian_arrays
    spec = ModelSpec.dyson(1.5, beta=0.5)
    volume = Volume.interval(6)
    K, h = hamiltonian_arrays(spec, volume, BoundaryCondition.random(4))
    # the Python kernel on lists and on arrays, and the kernel and feed
    # that metropolis_run uses (compiled on arrays when numba is present),
    # over 2.5 blocks with checkpoints that straddle block boundaries
    paths = ((montecarlo._sweep_loop, np.ndarray.tolist),
             (montecarlo._sweep_loop, np.ascontiguousarray),
             (montecarlo._sweep_kernel, montecarlo._feed))
    ref, *others = [montecarlo._run_chain(kernel, feed, K, h,
                                          np.ones(volume.n_sites), spec.beta,
                                          9, 2500, 40, 3, 700)
                    for kernel, feed in paths]
    for out in others:
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# block-split chains are bit-identical to the single up-front draw


def _run_digest(run):
    h = hashlib.sha256()
    for a in (run.magnetization_samples, run.energy_samples, run.spin_means,
              run.final_spins):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.array([run.acceptance_rate, run.max_field_drift,
                       run.max_energy_drift, run.magnetization_stderr,
                       run.energy_stderr], dtype=np.float64).tobytes())
    return h.hexdigest()


# Digests recorded with the sampler that drew every proposal of a chain up
# front and ran it in one kernel call. Sweep counts that are not multiples
# of BLOCK, recompute intervals that do not divide it, burn-in ending
# mid-block and thinning all cross block boundaries.
@pytest.mark.parametrize("spec,volume,bc_seed,dis_seed,kw,digest", [
    (ModelSpec.dyson(1.5, beta=0.5), Volume.interval(8), 21, None,
     dict(chain_seed=3, n_sweeps=2537, burn_in=1234, thin=3,
          recompute_every=300, start="random"),
     "abd865829d21ded7632c66524475c777a60800a7fefca012797e888c9567b0fa"),
    (ModelSpec.dyson(1.8, beta=2.0), Volume.interval(5), 24, None,
     dict(chain_seed=7, n_sweeps=731, burn_in=0, thin=2, recompute_every=64,
          start="plus"),
     "8bc9094db5d71ca5a9739a5058d8651a34602983e75df28b36042ed344d14065"),
    (ModelSpec.ea(beta=1.0), Volume.interval(7), 22, 5,
     dict(chain_seed=4, n_sweeps=3001, burn_in=999, thin=1,
          recompute_every=700, start="plus"),
     "7cf1deea1ae6f758c7362f3292a3e54d7bd2a4346ea113dc559ccc94688deeaa"),
    (ModelSpec.rfim(0.5, beta=0.7, dimension=2), Volume.box(3), 23, 6,
     dict(chain_seed=5, n_sweeps=1999, burn_in=1500, thin=5, start="minus"),
     "ae67f134edf01c9b1102467ad8d0648185588512ec9ce19f59e95cee06e08de5"),
    (ModelSpec.ea(beta=0.6, dimension=2), Volume.box(3), 25, 8,
     dict(chain_seed=6, n_sweeps=2000, burn_in=400, thin=4,
          recompute_every=1000, start="random"),
     "b1ab93440e103ba2d7daaf18a9784acbf301815c9e1cd27306e80d648ad9427f"),
], ids=["dyson-random", "dyson-plus-short", "ea-plus", "rfim-box-minus",
        "ea-box-random"])
def test_block_split_chain_matches_recorded_digest(spec, volume, bc_seed,
                                                   dis_seed, kw, digest):
    assert montecarlo.BLOCK == 1000  # the cases above are placed around it
    dis = DisorderRealization(dis_seed) if dis_seed is not None else None
    run = metropolis_run(spec, volume, BoundaryCondition.random(bc_seed), dis,
                         **kw)
    assert _run_digest(run) == digest


MC_ORACLE_CFG = {"experiment": "oracle-vs-mc",
                 "families": ["nn_ising", "dyson", "mattis", "rfim", "ea"],
                 "betas": [0.5], "size": 10, "alpha": 1.8, "n_seeds": 2,
                 "n_sweeps": 5000}


def test_oracle_experiment_csv_matches_recorded_digest(tmp_path, capsys):
    # seed-0 CSV of the benchmark's mc_oracle config, recorded with the
    # up-front draw and 8-trial chunks
    cfg = tmp_path / "mc_oracle.json"
    cfg.write_text(json.dumps(MC_ORACLE_CFG))
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg), "--workers", "2", "--output", str(out),
                     "--master-seed", "0"]) == 0
    raw = (out / "oracle-vs-mc.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == \
        "bd1130edc8bcddbd2f62cbd8526958d4da6b84779ce80d294f20e117dc7b024a"


# ---------------------------------------------------------------------------
# memory stays bounded for long chains


_LONG_CHAIN = """
from rbclab import BoundaryCondition, ModelSpec, Volume, metropolis_run
from rbclab.experiments import oracle_trial_plan
spec = ModelSpec.dyson(1.8, beta=2.0)
size, sweeps, thin = oracle_trial_plan(spec, 10)
assert (size, sweeps, thin) == (4, 2_000_000, 100)
run = metropolis_run(spec, Volume.interval(size), BoundaryCondition.random(1),
                     chain_seed=2, n_sweeps=sweeps, thin=thin)
assert run.magnetization_samples.size == 16_000
with open("/proc/self/status") as fh:
    print([line.split()[1] for line in fh if line.startswith("VmHWM:")][0])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc")
def test_long_chain_memory_is_bounded():
    # the oracle plan's strong-coupling dyson schedule: 8M proposals, whose
    # up-front draw alone took 192 MB. The child reports VmHWM, the peak RSS
    # of its own image: its ru_maxrss would also count the RSS of this test
    # process, which Linux carries across the exec that starts the child.
    res = subprocess.run([sys.executable, "-c", _LONG_CHAIN],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    peak_mb = int(res.stdout.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 150.0
