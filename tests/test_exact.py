"""Exact enumeration oracle: pinned partition functions and consistency laws."""

import dataclasses
import math

import numpy as np
import pytest

from rbclab import (BoundaryCondition, DisorderRealization, ModelSpec,
                    SpinConfiguration, Volume, expectation,
                    finite_volume_energy, fit_mixture_weight, gibbs_table,
                    log_partition_function, partition_function,
                    plus_phase_weight, total_variation)
from rbclab.exact import ENUMERATION_LIMIT, _TV_BLOCK, _tv_curve

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


def _tv_curve_broadcast(u, v, lams):
    # the broadcast form the blocked curve replaced: three temporaries of up
    # to 2^22 elements per chunk of lambda values
    out = np.empty(len(lams))
    chunk = max(1, (1 << 22) // max(len(u), 1))
    for lo in range(0, len(lams), chunk):
        lam_blk = lams[lo:lo + chunk]
        out[lo:lo + chunk] = 0.5 * np.abs(
            u[None, :] - lam_blk[:, None] * v[None, :]).sum(axis=1)
    return out


@pytest.mark.parametrize("n", [1, 2, 4096, 1 << 16, (1 << 16) + 3, 1 << 17])
def test_tv_curve_is_bitwise_equal_to_broadcast(n):
    gen = np.random.default_rng(n)
    p_mix, p_plus, p_minus = gen.dirichlet(np.ones(n), size=3)
    u, v = p_mix - p_minus, p_plus - p_minus
    rows = max(1, _TV_BLOCK // n)
    # the fit's full grid, and a count that leaves a partial last block
    counts = [10_001, 2 * rows + 3] if n <= 4096 else [5]
    for n_lam in counts:
        lams = np.linspace(0.0, 1.0, n_lam)
        assert np.array_equal(_tv_curve(u, v, lams),
                              _tv_curve_broadcast(u, v, lams))


def test_enumeration_limit_enforced():
    with pytest.raises(ValueError):
        gibbs_table(NN, Volume.interval(ENUMERATION_LIMIT + 1),
                    BoundaryCondition.free())
    with pytest.raises(ValueError):
        gibbs_table(NN, Volume.interval(12), BoundaryCondition.free(), max_sites=10)
