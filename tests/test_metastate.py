"""Volume sequences, lambda histograms, flip statistics, recurrence sums."""

import subprocess
import sys

import numpy as np
import pytest

from rbclab import (DisorderRealization, ModelSpec, VolumeSequence,
                    csd_flip_statistics, empirical_metastate,
                    is_strictly_sparse, make_volume_sequence,
                    null_recurrence_frequency, sample_W_plus)
from rbclab import rng
from rbclab.metastate import N_BINS, histogram_from_w, lambda_w_samples

DYSON = ModelSpec.dyson(1.25)

# ---------------------------------------------------------------------------
# volume sequences (budget = total site count across terms)


def test_sparse_sequence_budget_ten_million():
    # N_k = 2^(k^2): 2 + 16 + 512 + 65536 fits, the k=5 term does not
    seq = make_volume_sequence("sparse", 10_000_000)
    assert seq.terms == (2, 16, 512, 65536)
    assert len(seq) == 4


def test_linear_sequence_budget():
    # 100 k terms while the running total stays under 1e5: k = 1..44
    seq = make_volume_sequence("linear", 100_000, step=100)
    assert len(seq) == 44
    assert seq.terms[0] == 100 and seq.terms[-1] == 4400
    assert sum(seq.terms) <= 100_000 < sum(seq.terms) + 4500


def test_geometric_sequence_budget():
    seq = make_volume_sequence("geometric", 240, ratio=2.0, start=16)
    assert seq.terms == (16, 32, 64, 128)
    with pytest.raises(ValueError):
        make_volume_sequence("geometric", 1000, ratio=1.0, start=16)


def test_sequence_needs_four_terms():
    with pytest.raises(ValueError, match="need >= 4"):
        make_volume_sequence("sparse", 100)  # only 2 + 16 fit
    with pytest.raises(ValueError):
        make_volume_sequence("fibonacci", 1000)
    with pytest.raises(ValueError):
        VolumeSequence("linear", (10, 10, 20, 30))  # not strictly increasing


def test_strict_sparsity_predicate():
    assert is_strictly_sparse(VolumeSequence("sparse", (2, 4, 16, 256)))
    # 2^(k^2) fails N_{k+1} >= N_k^2 from the third step on
    assert not is_strictly_sparse(make_volume_sequence("sparse", 10_000_000))
    assert not is_strictly_sparse(make_volume_sequence("linear", 1000, step=100))


# ---------------------------------------------------------------------------
# lambda histograms


def test_histogram_counts_and_masses():
    h = empirical_metastate(DYSON, 64, n_disorder=300, master_seed=1, beta=1.0)
    assert h.counts.sum() == 300
    assert len(h.counts) == N_BINS
    assert len(h.bin_edges) == N_BINS + 1
    assert h.values.min() >= 0.0 and h.values.max() <= 1.0
    assert h.endpoint_mass + h.interior_mass == pytest.approx(1.0, abs=1e-12)
    assert h.mean == pytest.approx(h.values.mean())
    assert h.variance == pytest.approx(h.values.var())


def test_magnetization_axis_is_affine_in_lambda():
    h_lam = empirical_metastate(DYSON, 32, n_disorder=100, master_seed=2,
                                beta=1.5, axis="lambda")
    h_mag = empirical_metastate(DYSON, 32, n_disorder=100, master_seed=2,
                                beta=1.5, axis="magnetization")
    assert np.allclose(h_mag.values, 2.0 * h_lam.values - 1.0, atol=1e-15)
    assert np.array_equal(h_mag.counts, h_lam.counts)
    assert h_mag.bin_edges[0] == -1.0 and h_mag.bin_edges[-1] == 1.0


def test_disorder_flip_mirrors_histogram_exactly():
    # eta -> -eta sends W -> -W; the binning goes through |W| so the counts
    # reverse exactly, not merely within rounding
    kw = dict(n_disorder=400, master_seed=7, beta=1.0)
    h = empirical_metastate(DYSON, 128, **kw)
    h_flip = empirical_metastate(DYSON, 128, flip_disorder=True, **kw)
    assert np.array_equal(h_flip.counts, h.counts[::-1])
    assert np.allclose(h_flip.values, 1.0 - h.values, atol=1e-15)


def test_sequence_pools_one_lambda_per_seed_size_pair():
    seq = make_volume_sequence("geometric", 240, ratio=2.0, start=16)
    h = empirical_metastate(DYSON, seq, n_disorder=50, master_seed=3, beta=1.0)
    assert h.counts.sum() == 50 * 4
    assert h.sizes == (16, 32, 64, 128)


def test_histogram_from_w_mirror_invariant_on_raw_values():
    w = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    h = histogram_from_w(w, 1.0, "lambda", (8,), 1.25, "T0_weight", 5)
    h_neg = histogram_from_w(-w, 1.0, "lambda", (8,), 1.25, "T0_weight", 5)
    assert np.array_equal(h_neg.counts, h.counts[::-1])
    assert h.counts.sum() == 5


def test_exact_fit_mode_agrees_with_t0_weights():
    # the fitted-mixture pseudo-W and the interval W feed the same seed
    # streams; at strong coupling the two lambdas agree closely seed by seed
    spec = ModelSpec.dyson(1.5, beta=3.0)
    kw = dict(sizes=[8], n_disorder=60, master_seed=11, beta=3.0)
    w_t0 = lambda_w_samples(spec, mode="T0_weight", **kw)
    w_exact = lambda_w_samples(spec, mode="exact_gibbs_fit", **kw)
    lam_t0 = 0.5 * (1.0 + np.tanh(3.0 * w_t0))
    lam_exact = 0.5 * (1.0 + np.tanh(3.0 * w_exact))
    close = np.abs(lam_t0 - lam_exact) <= 0.1
    assert close.mean() >= 0.9


_EXACT_FIT = """
from rbclab import ModelSpec
from rbclab.metastate import lambda_w_samples
w = lambda_w_samples(ModelSpec.dyson(1.25), [12], 3, 0, "exact_gibbs_fit", 2.0)
assert w.shape == (3,)
with open("/proc/self/status") as fh:
    print([line.split()[1] for line in fh if line.startswith("VmHWM:")][0])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc")
def test_exact_fit_memory_is_bounded():
    # N = 12 gives 4,096 probabilities per table; the 10,001-point lambda
    # grid once went through 32 MiB broadcast temporaries, about 145 MB at
    # peak. The child reports VmHWM, the peak RSS of its own image (see
    # test_long_chain_memory_is_bounded for why not ru_maxrss).
    res = subprocess.run([sys.executable, "-c", _EXACT_FIT],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    peak_mb = int(res.stdout.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 100.0


def test_t0_mode_rejects_short_range_models():
    with pytest.raises(ValueError):
        empirical_metastate(ModelSpec.nn_ising(), 16, n_disorder=10)
    with pytest.raises(ValueError):
        lambda_w_samples(DYSON, [8], 5, 0, mode="bootstrap", beta=1.0)


# ---------------------------------------------------------------------------
# chaotic size dependence


def test_flip_record_matches_standalone_w():
    seq = make_volume_sequence("geometric", 2 + 4 + 8 + 16, ratio=2.0, start=2)
    rec = csd_flip_statistics(DYSON, seq, master_seed=21, n_seeds=5)
    assert rec.w.shape == (5, 4)
    for i in range(5):
        eta = DisorderRealization(rng.sub_seed(21, i))
        for k, m in enumerate(seq.terms):
            assert rec.w[i, k] == sample_W_plus(1.25, m, eta).value
    # flip counts recomputed from the reported signs
    for i in range(5):
        assert rec.flip_counts[i] == (np.diff(rec.signs[i]) != 0).sum()
        assert 1 <= rec.longest_runs[i] <= 4


def test_plus_boundary_control_never_flips():
    seq = make_volume_sequence("geometric", 510, ratio=2.0, start=2)
    rec = csd_flip_statistics(DYSON, seq, master_seed=0, n_seeds=20,
                              boundary="plus")
    assert rec.mean_flip_count == 0.0
    assert np.all(rec.signs == 1)
    assert np.all(rec.longest_runs == len(seq))
    with pytest.raises(ValueError):
        csd_flip_statistics(DYSON, seq, master_seed=0, boundary="antiperiodic")
    with pytest.raises(ValueError):
        csd_flip_statistics(ModelSpec.nn_ising(), seq, master_seed=0)


def test_random_boundary_flips_at_small_alpha():
    # alpha close to 1 keeps Var W_N growing, so signs keep flipping
    seq = make_volume_sequence("geometric", 2 ** 11 - 2, ratio=2.0, start=2)
    rec = csd_flip_statistics(DYSON, seq, master_seed=5, n_seeds=40)
    assert rec.mean_flip_count >= 1.0
    assert rec.w.shape == (40, len(seq))


# ---------------------------------------------------------------------------
# null recurrence


def test_wide_window_saturates_probabilities():
    seq = make_volume_sequence("geometric", 240, ratio=2.0, start=16)
    rec = null_recurrence_frequency(1.25, seq, c=1e9, n_seeds=50)
    assert np.array_equal(rec.p_hat, np.ones(4))
    assert np.array_equal(rec.running_sums, np.arange(1.0, 5.0))
    assert rec.last_term_fraction == pytest.approx(0.25)
    # second half adds terms 3..4 on top of running_sums[1] = 2
    assert rec.growth_last_half == pytest.approx(1.0)
    with pytest.raises(ValueError):
        null_recurrence_frequency(1.25, seq, c=0.0, n_seeds=10)


def test_sparse_vs_linear_sum_behaviour():
    # small-scale version of the recurrence diagnostic: the sparse sequence's
    # running sum is already dominated by early terms, the linear one is not
    sparse = make_volume_sequence("sparse", 70_000)
    linear = make_volume_sequence("linear", 1000, step=100)
    assert len(sparse) == len(linear) == 4
    rec_s = null_recurrence_frequency(1.25, sparse, c=1.0, n_seeds=400)
    rec_l = null_recurrence_frequency(1.25, linear, c=1.0, n_seeds=400)
    assert rec_s.last_term_fraction < rec_l.last_term_fraction
    assert rec_l.growth_last_half > rec_s.growth_last_half
