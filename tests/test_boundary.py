"""Boundary-energy statistics: certified tails, exact moments, fits."""

import tracemalloc

import numpy as np
import pytest
import scipy.special

from rbclab import (DisorderRealization, hurwitz_coefficients,
                    interval_boundary_energy, metastate_weight,
                    nn2d_boundary_gap, sample_W_plus, scaling_fit, tail_sum,
                    w_plus_exact_std, window_probability)
from rbclab import boundary, rng
from rbclab.boundary import (batch_W_plus, batch_interval_W, batch_nn2d_gaps,
                             decomposition_crosscheck, fit_loglog,
                             interval_coefficients, interval_exact_std,
                             nn2d_gap_exact_std, wilson_interval)

# ---------------------------------------------------------------------------
# certified tail sums, cross-checked against scipy's Hurwitz zeta


def test_tail_sum_pinned_basel():
    # sum_{d>=1} d^-2 = pi^2/6; the certified bound holds at any eps, and a
    # tight eps request must actually deliver the digits
    target = 1.6449340668482264
    t = tail_sum(2.0, 1.0)
    assert abs(t.value - target) <= t.error_bound
    tight = tail_sum(2.0, 1.0, eps=1e-13)
    assert abs(tight.value - target) <= tight.error_bound
    assert tight.value == pytest.approx(target, rel=1e-12)


def test_tail_sum_within_certified_bound():
    g = np.random.default_rng(404)
    for _ in range(200):
        alpha = float(g.uniform(1.05, 2.0))
        q = float(g.integers(1, 120))
        t = tail_sum(alpha, q)
        ref = float(scipy.special.zeta(alpha, q))
        assert abs(t.value - ref) <= t.error_bound, (alpha, q)
        assert t.error_bound <= 1e-8 + 1e-12 * abs(t.value) + 1e-15


def test_tail_sum_explicit_window_still_certified():
    for window in (20, 100, 1000):
        t = tail_sum(1.3, 2.0, window=window)
        ref = float(scipy.special.zeta(1.3, 2.0))
        assert abs(t.value - ref) <= t.error_bound


def test_tail_sum_rejects_bad_alpha():
    for alpha in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            tail_sum(alpha, 1.0)


def test_hurwitz_coefficients_match_scipy():
    a, per_term = hurwitz_coefficients(1.5, 60)
    assert a[0] == pytest.approx(2.612375348685488, rel=1e-13)
    assert a[2] == pytest.approx(1.2588219580922144, rel=1e-13)
    ref = scipy.special.zeta(1.5, np.arange(1, 61, dtype=np.float64))
    assert np.max(np.abs(a - ref)) <= per_term
    # coefficients agree with one anchored tail_sum per distance
    for d in (1, 7, 60):
        t = tail_sum(1.5, float(d))
        assert abs(a[d - 1] - t.value) <= per_term + t.error_bound


def test_hurwitz_coefficients_are_cached_read_only():
    a, per_term = hurwitz_coefficients(1.5, 60)
    fresh, fresh_per_term = boundary._hurwitz_cached.__wrapped__(1.5, 60)
    assert np.array_equal(a.view(np.uint64), fresh.view(np.uint64))
    assert per_term == fresh_per_term
    assert hurwitz_coefficients(1.5, np.int64(60))[0] is a
    with pytest.raises(ValueError):
        a[0] = 0.0


# ---------------------------------------------------------------------------
# half-line boundary energy


def test_half_line_energy_is_linear_in_disorder():
    a, _ = hurwitz_coefficients(1.4, 30)
    basis = np.zeros(30)
    basis[4] = 1.0
    assert sample_W_plus(1.4, 30, basis).value == a[4]
    eta = DisorderRealization(3)
    w = sample_W_plus(1.4, 30, eta)
    w_neg = sample_W_plus(1.4, 30, eta.flipped())
    assert w_neg.value == -w.value  # exact sign flip, not approximate


def test_half_line_exact_std_two_methods_agree():
    sizes = np.array([10, 100, 1000, 10000])
    for alpha in (1.2, 1.5, 1.8):
        by_tail = w_plus_exact_std(alpha, sizes, method="tail")
        by_zeta = w_plus_exact_std(alpha, sizes, method="zeta")
        assert np.max(np.abs(by_tail / by_zeta - 1.0)) < 1e-6
    # pinned: sqrt(sum_{d<=50} zeta(1.5,d)^2), computed via scipy offline
    assert w_plus_exact_std(1.5, [50])[0] \
        == pytest.approx(4.714990208907471, rel=1e-12)
    with pytest.raises(ValueError):
        w_plus_exact_std(1.5, [10], method="simpson")


# an odd stream length that puts 3 realizations in each row block
M_BLOCK3 = boundary.BLOCK // 4 + 1


def test_batch_is_bitwise_equal_to_standalone_samples():
    # nested-window contract: column k of the batch must reproduce the
    # standalone evaluation bit for bit, prefix by prefix; the second case
    # spans 4 row blocks from an unaligned offset, with negated boundaries
    for sizes, n_seeds, offset, negate in (([10, 100, 1000], 6, 0, False),
                                           ([10, 777, M_BLOCK3], 10, 5, True)):
        out = batch_W_plus(1.25, sizes, master_seed=5, n_seeds=n_seeds,
                           negate=negate, seed_offset=offset)
        for i in range(n_seeds):
            eta = DisorderRealization(rng.sub_seed(5, offset + i), negate)
            for k, m in enumerate(sizes):
                assert out[i, k] == sample_W_plus(1.25, m, eta).value


@pytest.mark.parametrize("tags", [(rng.TAG_LEFT,), (rng.TAG_LEFT, rng.TAG_RIGHT)])
@pytest.mark.parametrize("negate", [False, True])
def test_row_blocks_are_stream_sign_bits(tags, negate):
    # 4 row blocks of 3 from an unaligned offset, the last one short
    idx = np.arange(M_BLOCK3, dtype=np.uint64)
    seen = 0
    for i, rows in boundary._row_blocks(7, tags, M_BLOCK3, 10, seed_offset=5,
                                        negate=negate):
        assert len(rows) == len(tags)
        for tag, block in zip(tags, rows):
            assert block.dtype == np.uint64 and block.shape[1] == M_BLOCK3
            for r, row in enumerate(block):
                want = rng.u64_at(rng.sub_seed(7, 5 + i + r), tag, idx) & rng.SIGN_BIT
                if negate:
                    want ^= rng.SIGN_BIT
                assert np.array_equal(row, want)
        seen += len(rows[0])
    assert seen == 10


def test_batch_memory_is_flat_in_realizations():
    m = 100_000
    batch_W_plus(1.25, [m], master_seed=2, n_seeds=1)  # caches the coefficients
    peaks = {}
    for n_seeds in (3, 30):
        tracemalloc.start()
        try:
            batch_W_plus(1.25, [m], master_seed=2, n_seeds=n_seeds)
            peaks[n_seeds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # equal up to the (n_seeds, 1) output, far below one 8 * m byte row
    assert abs(peaks[30] - peaks[3]) <= 4096
    assert peaks[30] <= 5 * 8 * m


def test_batch_seed_offset_partitions_realizations():
    whole = batch_W_plus(1.25, [50], master_seed=9, n_seeds=8)
    tail_part = batch_W_plus(1.25, [50], master_seed=9, n_seeds=3, seed_offset=5)
    assert np.array_equal(whole[5:], tail_part)
    negated = batch_W_plus(1.25, [50], master_seed=9, n_seeds=8, negate=True)
    assert np.array_equal(negated, -whole)
    # 4 row blocks of 3; parts from the unaligned offset 4, one ending where
    # `whole` ends and one ending mid-block
    whole = batch_W_plus(1.25, [M_BLOCK3], master_seed=9, n_seeds=10)
    for n_part in (6, 4):
        part = batch_W_plus(1.25, [M_BLOCK3], master_seed=9, n_seeds=n_part,
                            seed_offset=4)
        assert np.array_equal(whole[4:4 + n_part], part)
    negated = batch_W_plus(1.25, [M_BLOCK3], master_seed=9, n_seeds=10,
                           negate=True)
    assert np.array_equal(negated, -whole)


def test_sampled_variance_matches_exact_moments():
    # +-1 coefficients make Var W a finite sum of squares; 4000 samples must
    # land within a CLT band of the exact value
    alpha, m, n = 1.3, 400, 4000
    w = batch_W_plus(alpha, [m], master_seed=2, n_seeds=n)[:, 0]
    exact = w_plus_exact_std(alpha, [m])[0]
    assert w.mean() == pytest.approx(0.0, abs=4 * exact / np.sqrt(n))
    assert w.std() == pytest.approx(exact, rel=5 / np.sqrt(n))


def test_decomposition_crosscheck_is_tight():
    eta = DisorderRealization(31)
    chk = decomposition_crosscheck(1.5, 150, eta)
    assert chk.discrepancy < 1e-10
    assert chk.by_boundary_terms == pytest.approx(chk.by_interior_terms, abs=1e-10)


# ---------------------------------------------------------------------------
# interval boundary energy (both sides)


def test_interval_coefficients_are_zeta_differences():
    # c_d = zeta(a, d) - zeta(a, d + n); pinned value from scipy offline
    c = interval_coefficients(1.25, 4, 10)
    assert c[1] == pytest.approx(0.9842515258026427, rel=1e-12)
    d = np.arange(1, 11, dtype=np.float64)
    ref = scipy.special.zeta(1.25, d) - scipy.special.zeta(1.25, d + 4)
    assert np.max(np.abs(c - ref)) < 1e-12
    assert np.all(np.diff(c) < 0)  # strictly decaying in distance


def test_interval_energy_antisymmetric_and_batched():
    alpha, n, m = 1.4, 8, 64
    c = interval_coefficients(alpha, n, m)
    el = rng.stream_pm1(11, rng.TAG_LEFT, 0, m).astype(np.float64)
    er = rng.stream_pm1(11, rng.TAG_RIGHT, 0, m).astype(np.float64)
    w = interval_boundary_energy(alpha, n, m, el, er)
    assert w == float(c @ el + c @ er)
    assert interval_boundary_energy(alpha, n, m, -el, -er) == -w
    batch = batch_interval_W(alpha, n, m, master_seed=11, n_seeds=1)
    # seed 0 of the batch reads the same streams through sub_seed(11, 0)
    seed0 = rng.sub_seed(11, 0)
    el0 = rng.stream_pm1(seed0, rng.TAG_LEFT, 0, m).astype(np.float64)
    er0 = rng.stream_pm1(seed0, rng.TAG_RIGHT, 0, m).astype(np.float64)
    assert batch[0] == interval_boundary_energy(alpha, n, m, el0, er0)
    # 4 row blocks from an unaligned offset, negated boundaries
    m = M_BLOCK3
    batch = batch_interval_W(alpha, n, m, master_seed=11, n_seeds=10,
                             negate=True, seed_offset=5)
    for i in range(10):
        d = DisorderRealization(rng.sub_seed(11, 5 + i), negate=True)
        assert batch[i] == interval_boundary_energy(
            alpha, n, m, d.left_boundary(m), d.right_boundary(m))


def test_interval_exact_std_pinned():
    # sqrt(2 sum c_d^2) at alpha=1.25, n=16, window 200; scipy offline
    assert interval_exact_std(1.25, 16, 200) \
        == pytest.approx(5.853861147699205, rel=1e-12)
    w = batch_interval_W(1.25, 16, 200, master_seed=4, n_seeds=4000)
    assert w.std() == pytest.approx(interval_exact_std(1.25, 16, 200),
                                    rel=5 / np.sqrt(4000))


# ---------------------------------------------------------------------------
# 2d nearest-neighbour boundary gap


def test_nn2d_gap_hand_values():
    assert nn2d_boundary_gap(2, np.ones(8)) == -16.0
    assert nn2d_boundary_gap(2, np.array([1, -1, 1, -1, 1, -1, 1, -1])) == 0.0
    with pytest.raises(ValueError):
        nn2d_boundary_gap(2, np.ones(7))


def test_balanced_layer_gap_is_negative_zero():
    # -2 * 0.0 is -0.0, and the CSV writes it so: batch and standalone agree
    g = nn2d_boundary_gap(2, np.array([1.0, -1.0] * 4))
    assert g == 0.0 and np.signbit(g)
    out = batch_nn2d_gaps([1], master_seed=8, n_seeds=16)[:, 0]
    balanced = [i for i in range(16)
                if DisorderRealization(rng.sub_seed(8, i)).layer_values(4).sum() == 0]
    assert balanced
    # the side-1 column again, now a 4-word prefix of a longer sliced row
    sliced = batch_nn2d_gaps([7, 1], master_seed=8, n_seeds=16)[:, 1]
    for gaps in (out, sliced):
        for i in balanced:
            assert gaps[i] == 0.0 and np.signbit(gaps[i])
        assert not np.any(np.signbit(gaps[gaps > 0]))


def test_nn2d_exact_std_closed_form():
    for n in (2, 16, 64, 1024):
        assert nn2d_gap_exact_std(n) == 2.0 * np.sqrt(4 * n)


def test_nn2d_batch_matches_disorder_stream():
    out = batch_nn2d_gaps([5], master_seed=8, n_seeds=4)[:, 0]
    for i in range(4):
        d = DisorderRealization(rng.sub_seed(8, i))
        assert out[i] == nn2d_boundary_gap(5, d.layer_values(20).astype(np.float64))
    # a layer of 4n words puts 3 boxes in each row block: 4 blocks, offset 5
    n = M_BLOCK3 // 4 + 1
    out = batch_nn2d_gaps([n], master_seed=8, n_seeds=10, seed_offset=5)[:, 0]
    for i in range(10):
        d = DisorderRealization(rng.sub_seed(8, 5 + i))
        assert out[i] == nn2d_boundary_gap(n, d)


def test_nn2d_batch_columns_are_nested_gaps():
    # column k is the standalone gap at side sizes[k]: every side reads a
    # prefix of one layer row, here 4 * 16385 words, past one row block, so
    # each block holds a single row (unsorted sides, unaligned offset)
    sizes = [20, boundary.BLOCK // 4 + 1, 1, 4100]
    assert 4 * max(sizes) > boundary.BLOCK
    out = batch_nn2d_gaps(sizes, master_seed=8, n_seeds=5, seed_offset=3)
    assert out.shape == (5, len(sizes))
    for i in range(5):
        d = DisorderRealization(rng.sub_seed(8, 3 + i))
        for k, n in enumerate(sizes):
            assert out[i, k] == nn2d_boundary_gap(n, d)


def test_nn2d_batch_spans_concatenate_to_the_whole():
    # rows of 4 * 4097 words, 3 per row block; spans from unaligned offsets
    sizes = [5, M_BLOCK3 // 4 + 1, 64]
    whole = batch_nn2d_gaps(sizes, master_seed=9, n_seeds=10)
    bounds = [0, 4, 5, 10]
    parts = [batch_nn2d_gaps(sizes, master_seed=9, n_seeds=hi - lo,
                             seed_offset=lo)
             for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


def _count_u64_at(monkeypatch):
    """Wrap rng.u64_at (sub-seeds included); returns the [calls, words] tally."""
    tally = [0, 0]
    inner = rng.u64_at

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        tally[0] += 1
        tally[1] += int(np.size(out))
        return out
    monkeypatch.setattr(rng, "u64_at", counting)
    return tally


@pytest.mark.parametrize("sizes, n_seeds", [([16, 1024, 64], 37),
                                            ([boundary.BLOCK // 4 + 1, 2], 3)])
def test_nn2d_batch_draws_each_word_once(monkeypatch, sizes, n_seeds):
    # one row of 4 max(sizes) words per realization for all sides, plus one
    # sub-seed word each, drawn in one call for the whole span
    tally = _count_u64_at(monkeypatch)
    batch_nn2d_gaps(sizes, master_seed=4, n_seeds=n_seeds, seed_offset=2)
    count = 4 * max(sizes)
    per = max(1, boundary.BLOCK // count)
    assert tally == [-(-n_seeds // per) + 1, n_seeds * count + n_seeds]


@pytest.mark.parametrize("sizes, n_seeds", [([10, 5000, 300], 40),
                                            ([boundary.BLOCK + 1, 7], 3)])
def test_w_plus_batch_draws_each_word_once(monkeypatch, sizes, n_seeds):
    tally = _count_u64_at(monkeypatch)
    batch_W_plus(1.25, sizes, master_seed=4, n_seeds=n_seeds, seed_offset=2)
    count = max(sizes)
    per = max(1, boundary.BLOCK // count)
    assert tally == [-(-n_seeds // per) + 1, n_seeds * count + n_seeds]


# ---------------------------------------------------------------------------
# fits


def test_loglog_fit_recovers_exact_power_law():
    sizes = np.array([10, 100, 1000, 10000, 100000])
    slope, intercept, stderr = fit_loglog(sizes, 3.0 * sizes ** 0.7)
    assert slope == pytest.approx(0.7, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-10)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_scaling_fit_on_synthetic_gaussians():
    g = np.random.default_rng(99)
    sizes = [10, 100, 1000, 10000]
    samples = {n: g.normal(scale=float(n) ** 0.3, size=2000) for n in sizes}
    fit = scaling_fit(samples)
    assert fit.exponent == pytest.approx(0.3, abs=0.04)
    assert fit.statistic == "sqrt_var"


@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5])
def test_scaling_fit_recovers_planted_exponents(p):
    # seeded: sample sets built with std = 2 * n^p, so the fitted statistic
    # is the planted power law times estimation noise; recovery must land
    # within twice the fitted standard error (seven sizes keep the residual
    # stderr from collapsing by chance the way a 4-point fit can)
    g = np.random.default_rng(4000 + round(1000 * p))
    sizes = [int(round(x)) for x in np.logspace(2, 5, 7)]
    samples = {n: g.normal(scale=2.0 * float(n) ** p, size=2000) for n in sizes}
    fit = scaling_fit(samples)
    assert abs(fit.exponent - p) <= 2.0 * fit.stderr
    assert fit.stderr < 0.02


def test_scaling_fit_guards():
    g = np.random.default_rng(1)
    with pytest.raises(ValueError):
        scaling_fit({n: g.normal(size=2000) for n in (10, 100, 1000)})
    with pytest.raises(ValueError):
        scaling_fit({n: g.normal(size=2000) for n in (10, 20, 40, 80)})
    with pytest.raises(ValueError):
        scaling_fit({n: g.normal(size=50) for n in (10, 100, 1000, 10000)})


# ---------------------------------------------------------------------------
# window probabilities


def test_wilson_interval_properties():
    # k=50, n=100, z=1.96 evaluated from the closed form by hand
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40382982859014716, rel=1e-12)
    assert hi == pytest.approx(0.5961701714098528, rel=1e-12)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    for k in (0, 3, 25, 50):
        lo, hi = wilson_interval(k, 50)
        assert 0.0 <= lo <= k / 50 <= hi <= 1.0


def test_window_probability_is_conservative_at_the_edge():
    # values within the certified coefficient error of the threshold count
    # as inside, so the estimate errs upward
    res = window_probability("dyson", 64, n_seeds=500, master_seed=3,
                             threshold=1.0, alpha=1.25)
    assert 0.0 <= res.ci_low <= res.p_hat <= res.ci_high <= 1.0
    assert res.slack > 0.0
    assert res.p_hat == res.n_inside / res.n_seeds
    loose = window_probability("dyson", 64, n_seeds=500, master_seed=3,
                               threshold=100.0, alpha=1.25)
    assert loose.p_hat == 1.0


def test_window_probability_regime_flag():
    # threshold N^delta needs delta in (0, 1/2) for the sparse-sum argument
    ok = window_probability("dyson", 64, n_seeds=200, master_seed=1,
                            delta=0.25, alpha=1.25)
    assert not ok.out_of_regime
    assert ok.threshold == pytest.approx(64 ** 0.25, rel=1e-12)
    bad = window_probability("dyson", 64, n_seeds=200, master_seed=1,
                             delta=0.7, alpha=1.25)
    assert bad.out_of_regime


def test_window_probability_nn2d_family():
    res = window_probability("nn2d", 16, n_seeds=400, master_seed=2, delta=0.25)
    assert 0.0 <= res.p_hat <= 1.0
    with pytest.raises(ValueError):
        window_probability("ea", 16, n_seeds=10, master_seed=0, threshold=1.0)


# ---------------------------------------------------------------------------
# two-state weight map


def test_metastate_weight_shape():
    assert metastate_weight(0.0, 2.0) == 0.5
    assert metastate_weight(np.inf, 2.0) == 1.0
    assert metastate_weight(-np.inf, 2.0) == 0.0
    w = np.linspace(-3, 3, 41)
    lam = metastate_weight(w, 1.5)
    assert np.all(np.diff(lam) > 0)  # strictly increasing in W
    assert np.allclose(lam + metastate_weight(-w, 1.5), 1.0, atol=1e-15)
