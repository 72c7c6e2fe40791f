"""Exact enumeration oracle: pinned partition functions and consistency laws."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rbclab import (BoundaryCondition, DisorderRealization, ModelSpec,
                    SpinConfiguration, Volume, expectation,
                    finite_volume_energy, fit_mixture_weight, gibbs_table,
                    log_partition_function, partition_function,
                    plus_phase_weight, total_variation)
from rbclab.exact import ENUMERATION_LIMIT
from rbclab.metastate import _random_boundary

NN = ModelSpec.nn_ising()

# ---------------------------------------------------------------------------
# pinned values from 4-state enumeration by hand
#
# N=2 free, beta=1: energies (-1, +1, +1, -1), so Z = 2e + 2/e and
# <s0 s1> = (2e - 2/e)/Z = tanh 1.
# N=2 plus, beta=1: H(s0,s1) = -s0 s1 - s0 - s1, energies (-3, 1, 1, 1),
# so Z = e^3 + 3/e and <m> = (e^3 - 1/e)/Z with m = (s0+s1)/2.


def test_pinned_partition_function_free():
    z = partition_function(NN, Volume.interval(2), BoundaryCondition.free())
    assert z == pytest.approx(6.172322539260975, rel=1e-13)


def test_pinned_bond_correlation_free():
    table = gibbs_table(NN, Volume.interval(2), BoundaryCondition.free())
    corr = expectation(table, lambda s: s[:, 0] * s[:, 1])
    assert corr == pytest.approx(0.7615941559557649, rel=1e-13)  # tanh(1)


def test_pinned_plus_boundary_values():
    table = gibbs_table(NN, Volume.interval(2), BoundaryCondition.plus())
    z = partition_function(NN, Volume.interval(2), BoundaryCondition.plus())
    assert z == pytest.approx(21.189175246701996, rel=1e-13)
    assert expectation(table, "magnetization") \
        == pytest.approx(0.9305533251033541, rel=1e-13)


def test_pinned_single_site():
    # N=1 plus boundary couples the site to two +1 neighbours: <s> = tanh(2 beta)
    spec = NN.with_beta(0.7)
    table = gibbs_table(spec, Volume.interval(1), BoundaryCondition.plus())
    assert expectation(table, "magnetization") \
        == pytest.approx(0.8853516482022625, rel=1e-13)


def test_log_partition_function_stable_at_large_beta():
    # logZ = log(2e^b + 2e^-b) -> b + log 2; naive exp overflows at b = 500
    logz = log_partition_function(NN.with_beta(500.0), Volume.interval(2),
                                  BoundaryCondition.free())
    assert np.isfinite(logz)
    assert logz == pytest.approx(500.0 + math.log(2.0), abs=1e-9)
    z = partition_function(NN, Volume.interval(3), BoundaryCondition.random(5))
    logz = log_partition_function(NN, Volume.interval(3), BoundaryCondition.random(5))
    assert math.log(z) == pytest.approx(logz, rel=1e-13)


# ---------------------------------------------------------------------------
# consistency with the energy function: P(s) e^{beta H(s)} is constant


@pytest.mark.parametrize("spec,volume,bc_seed", [
    (ModelSpec.nn_ising(beta=1.3), Volume.interval(6), 1),
    (ModelSpec.dyson(1.5, beta=0.8), Volume.interval(5), 2),
    (ModelSpec.ea(beta=1.1), Volume.interval(6), 3),
    (ModelSpec.rfim(0.4, beta=0.9), Volume.interval(5), 4),
], ids=["nn", "dyson", "ea", "rfim"])
def test_table_consistent_with_energy(spec, volume, bc_seed):
    disorder = DisorderRealization(50 + bc_seed) \
        if (spec.needs_site_disorder or spec.needs_bond_disorder) else None
    bc = BoundaryCondition.random(bc_seed)
    table = gibbs_table(spec, volume, bc, disorder)
    logz = log_partition_function(spec, volume, bc, disorder)
    for idx in (0, 1, (1 << volume.n_sites) - 1, 17 % (1 << volume.n_sites)):
        sigma = SpinConfiguration(volume, table.spins_of(idx).astype(np.int8))
        h = finite_volume_energy(spec, sigma, bc, disorder)
        # log P + beta H + log Z = 0 state by state
        assert math.log(table.probabilities[idx]) + spec.beta * h + logz \
            == pytest.approx(0.0, abs=1e-9)


def test_probabilities_normalized_and_ordered():
    table = gibbs_table(NN, Volume.interval(8), BoundaryCondition.plus())
    assert table.probabilities.sum() == pytest.approx(1.0, rel=1e-12)
    assert len(table.probabilities) == 256
    # index 0 is all plus under the bit convention
    assert np.array_equal(table.spins_of(0), np.ones(8))
    assert np.array_equal(table.spins_of(255), -np.ones(8))


def test_boundary_negation_reverses_table():
    # b -> -b composed with s -> -s is an energy bijection when no field
    volume = Volume.interval(6)
    ext = volume.boundary_sites(1)
    vals = DisorderRealization(17).boundary_values(ext, volume)
    bc = BoundaryCondition.explicit({s: int(v) for s, v in zip(ext, vals)})
    bc_neg = BoundaryCondition.explicit({s: -int(v) for s, v in zip(ext, vals)})
    t = gibbs_table(NN, volume, bc)
    t_neg = gibbs_table(NN, volume, bc_neg)
    assert np.allclose(t_neg.probabilities, t.probabilities[::-1], rtol=1e-12)


# ---------------------------------------------------------------------------
# observables and two-state structure


def test_expectation_observable_forms_agree():
    table = gibbs_table(NN.with_beta(0.9), Volume.interval(5),
                        BoundaryCondition.random(8))
    by_site = np.mean([expectation(table, ("site", i)) for i in range(5)])
    assert expectation(table, "magnetization") == pytest.approx(by_site, rel=1e-12)
    assert expectation(table, ("overlap", np.ones(5))) \
        == pytest.approx(by_site, rel=1e-12)
    via_callable = expectation(table, lambda s: s.mean(axis=1))
    assert via_callable == pytest.approx(by_site, rel=1e-12)
    assert expectation(table, "energy") == pytest.approx(
        math.fsum(table.probabilities * table.energies), rel=1e-12)
    with pytest.raises(ValueError):
        expectation(table, ("site", 5))
    with pytest.raises(ValueError):
        expectation(table, "unknown")


def test_total_variation_bounds():
    v = Volume.interval(6)
    t_plus = gibbs_table(NN.with_beta(2.0), v, BoundaryCondition.plus())
    t_minus = gibbs_table(NN.with_beta(2.0), v, BoundaryCondition.minus())
    assert total_variation(t_plus, t_plus) == 0.0
    tv = total_variation(t_plus, t_minus)
    assert 0.9 < tv <= 1.0  # opposite boundaries at beta=2 nearly disjoint
    with pytest.raises(ValueError):
        total_variation(t_plus, gibbs_table(NN, Volume.interval(5),
                                            BoundaryCondition.plus()))


def test_plus_phase_weight_tracks_boundary():
    v = Volume.interval(8)
    spec = NN.with_beta(2.0)
    assert plus_phase_weight(gibbs_table(spec, v, BoundaryCondition.plus())) > 0.99
    assert plus_phase_weight(gibbs_table(spec, v, BoundaryCondition.minus())) < 0.01
    # free boundary is exactly symmetric, ties split evenly
    assert plus_phase_weight(gibbs_table(spec, v, BoundaryCondition.free())) \
        == pytest.approx(0.5, abs=1e-12)


def test_mixture_weight_recovers_planted_lambda():
    v = Volume.interval(8)
    spec = NN.with_beta(2.0)
    t_plus = gibbs_table(spec, v, BoundaryCondition.plus())
    t_minus = gibbs_table(spec, v, BoundaryCondition.minus())
    for lam in (0.0, 0.3, 0.5, 0.75, 1.0):
        mix = lam * t_plus.probabilities + (1 - lam) * t_minus.probabilities
        planted = dataclasses.replace(t_plus, probabilities=mix)
        fit = fit_mixture_weight(planted, t_plus, t_minus)
        assert fit.weight == pytest.approx(lam, abs=1e-6)
        assert fit.residual < 1e-6


def test_mixture_weight_degenerate_endpoints():
    v = Volume.interval(4)
    t = gibbs_table(NN, v, BoundaryCondition.plus())
    assert fit_mixture_weight(t, t, t).weight == 0.5  # identical: convention
    for step in (0.0, -1e-4, 1.5, float("nan")):
        with pytest.raises(ValueError, match="grid_step"):
            fit_mixture_weight(t, t, t, grid_step=step)


# ---------------------------------------------------------------------------
# the exact mixture fit against the grid fit it replaced


def _tv_curve(u, v, lams):
    out = np.empty(len(lams))
    chunk = max(1, (1 << 16) // max(len(u), 1))
    buf = np.empty((min(chunk, len(lams)), len(u)))
    for lo in range(0, len(lams), chunk):
        lam_blk = lams[lo:lo + chunk]
        b = buf[:len(lam_blk)]
        np.multiply(lam_blk[:, None], v, out=b)
        np.subtract(u, b, out=b)
        np.abs(b, out=b)
        out[lo:lo + chunk] = 0.5 * b.sum(axis=1)
    return out


def _grid_fit(p, p_plus, p_minus):
    # the previous fit_mixture_weight: a 10,001-point lambda grid, then
    # golden-section refinement of the best bracket; returns (lambda, TV)
    u, v = p - p_minus, p_plus - p_minus
    lams = np.linspace(0.0, 1.0, 10_001)
    k = int(np.argmin(_tv_curve(u, v, lams)))
    lo = lams[max(k - 1, 0)]
    hi = lams[min(k + 1, len(lams) - 1)]

    def f(lam):
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
    return lam_star, f(lam_star)


def _tv(p, p_plus, p_minus, lam):
    return 0.5 * float(np.abs((p - p_minus) - lam * (p_plus - p_minus)).sum())


def _tv_exact(p, p_plus, p_minus, lam):
    # 2 TV in rational arithmetic on the float differences u and v
    lam = Fraction(lam)
    return sum(abs(Fraction(u) - lam * Fraction(v)) for u, v in
               zip((p - p_minus).tolist(), (p_plus - p_minus).tolist()))


def _fit_cases():
    gen = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        base = gibbs_table(NN, Volume.interval(n), BoundaryCondition.free())
        for _ in range(6):
            p, p_plus, p_minus = gen.dirichlet(np.ones(1 << n), size=3)
            yield tuple(dataclasses.replace(base, probabilities=x)
                        for x in (p, p_plus, p_minus))
    for spec, disorder in [(ModelSpec.dyson(1.25, beta=2.0), None),
                           (ModelSpec.dyson(1.5, beta=1.0), None),
                           (ModelSpec.ea(beta=1.0), DisorderRealization(3)),
                           (ModelSpec.mattis(beta=1.0), DisorderRealization(5))]:
        v = Volume.interval(8)
        t_plus = gibbs_table(spec, v, BoundaryCondition.plus(), disorder)
        t_minus = gibbs_table(spec, v, BoundaryCondition.minus(), disorder)
        for seed in range(6):
            yield (gibbs_table(spec, v, BoundaryCondition.random(seed), disorder),
                   t_plus, t_minus)


def test_fit_agrees_with_grid_reference():
    # On a flat minimum TV evaluated in floating point wobbles by an ulp
    # either way, so "the grid's lambda is never better" is checked in
    # rational arithmetic; the float residual gets one ulp of 1.
    for t, t_plus, t_minus in _fit_cases():
        p, pp, pm = t.probabilities, t_plus.probabilities, t_minus.probabilities
        fit = fit_mixture_weight(t, t_plus, t_minus)
        ref_lam, ref_residual = _grid_fit(p, pp, pm)
        assert 0.0 <= fit.lo <= fit.weight <= fit.hi <= 1.0
        assert fit.residual == _tv(p, pp, pm, fit.weight)
        assert fit.residual <= ref_residual + 2.2e-16
        assert _tv_exact(p, pp, pm, ref_lam) >= _tv_exact(p, pp, pm, fit.weight)
        for end in (fit.lo, fit.hi):
            assert abs(_tv(p, pp, pm, end) - fit.residual) <= 2.2e-16


def _hand_tables(p, p_plus, p_minus):
    base = gibbs_table(NN, Volume.interval(2), BoundaryCondition.free())
    return [dataclasses.replace(base, probabilities=np.array(x, dtype=float))
            for x in (p, p_plus, p_minus)]


def test_mixture_fit_returns_the_flat_interval_exactly():
    # ratios u/v = 0.25, 0.75, 0.25, 0.75 with equal weights |v| = 0.5:
    # TV is flat on [0.25, 0.75]
    fit = fit_mixture_weight(*_hand_tables([0.125, 0.375, 0.375, 0.125],
                                           [0.5, 0.5, 0.0, 0.0],
                                           [0.0, 0.0, 0.5, 0.5]))
    assert (fit.lo, fit.weight, fit.hi) == (0.25, 0.5, 0.75)
    assert fit.residual == 0.25


def test_mixture_fit_decides_ties_exactly():
    # With p_minus = 0 and weights w = p_plus, p = 0, w/4, w/2 and w give
    # centred ratios 2 u/v - 1 of -1, -0.5, 0 and 1. Weights 0.1, 0.2, 0.3
    # (and a v = 0 entry): a float cumsum sees a tie after 0.1 + 0.2, but
    # exactly 0.1 + 0.2 exceeds 0.3, so the minimum is the single point 0.5
    fit = fit_mixture_weight(*_hand_tables([0.0, 0.2 / 2, 0.3, 0.0],
                                           [0.1, 0.2, 0.3, 0.0],
                                           [0.0] * 4))
    assert (0.1 + 0.2) + 0.3 == 2 * (0.1 + 0.2)
    assert (fit.lo, fit.weight, fit.hi) == (0.5, 0.5, 0.5)
    # weights 1, 2^-60, 2^-60, 1: a float cumsum loses 2^-60 and would split
    # after the first entry; the exact sums tie after the second, so the
    # minimum is flat between the centred ratios -0.5 and 0
    tiny = 2.0 ** -60
    fit = fit_mixture_weight(*_hand_tables([0.0, tiny / 4, tiny / 2, 1.0],
                                           [1.0, tiny, tiny, 1.0],
                                           [0.0] * 4))
    assert (fit.lo, fit.weight, fit.hi) == (0.25, 0.375, 0.5)


def test_mixture_fit_planted_interval_is_a_point():
    v = Volume.interval(10)
    spec = NN.with_beta(2.0)
    t_plus = gibbs_table(spec, v, BoundaryCondition.plus())
    t_minus = gibbs_table(spec, v, BoundaryCondition.minus())
    for lam in (0.0, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0):
        mix = lam * t_plus.probabilities + (1 - lam) * t_minus.probabilities
        planted = dataclasses.replace(t_plus, probabilities=mix)
        fit = fit_mixture_weight(planted, t_plus, t_minus)
        assert fit.lo == fit.hi == fit.weight
        assert abs(fit.weight - lam) <= 2.2e-16


@pytest.mark.parametrize("spec,n,interaction_seed", [
    (ModelSpec.dyson(1.25, beta=2.0), 12, None),
    (ModelSpec.ea(beta=1.5), 10, 11),
], ids=["dyson", "ea"])
def test_mixture_fit_flip_symmetry(spec, n, interaction_seed):
    # A flipped boundary reverses the table and swaps plus with minus, which
    # negates the centred ratios exactly. Back on the lambda scale the
    # weights and the interval ends add up to 1.0 exactly in floating point;
    # the float 1 - hi itself can differ from the flipped lo by half an ulp.
    volume = Volume.interval(n)
    disorder = (DisorderRealization(interaction_seed)
                if interaction_seed is not None else None)
    t_plus = gibbs_table(spec, volume, BoundaryCondition.plus(), disorder)
    t_minus = gibbs_table(spec, volume, BoundaryCondition.minus(), disorder)
    flat = 0
    for seed in range(12):
        a, b = (fit_mixture_weight(
            gibbs_table(spec, volume,
                        _random_boundary(spec, volume, seed, flip, None),
                        disorder), t_plus, t_minus) for flip in (False, True))
        assert a.weight + b.weight == 1.0
        assert b.lo + a.hi == 1.0 and b.hi + a.lo == 1.0
        assert abs(b.lo - (1.0 - a.hi)) <= 2.0 ** -54
        assert abs(b.hi - (1.0 - a.lo)) <= 2.0 ** -54
        flat += a.lo < a.hi
    assert flat > 0  # the symmetry is exercised on flat intervals too


def test_mixture_fit_memory_is_bounded():
    # one fit at n = 16 allocates at most five arrays of 2^n floats; the
    # grid fit it replaced peaked at 4.3 of them
    v = Volume.interval(16)
    spec = ModelSpec.dyson(1.25, beta=2.0)
    t_plus = gibbs_table(spec, v, BoundaryCondition.plus())
    t_minus = gibbs_table(spec, v, BoundaryCondition.minus())
    table = gibbs_table(spec, v, BoundaryCondition.random(3))
    tracemalloc.start()
    try:
        fit_mixture_weight(table, t_plus, t_minus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * (1 << 16)


def test_enumeration_limit_enforced():
    with pytest.raises(ValueError):
        gibbs_table(NN, Volume.interval(ENUMERATION_LIMIT + 1),
                    BoundaryCondition.free())
