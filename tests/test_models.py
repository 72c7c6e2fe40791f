"""Model assembly checked against an independent double-loop energy oracle."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from rbclab import (BoundaryCondition, DisorderRealization, ModelSpec,
                    SpinConfiguration, Volume, finite_volume_energy,
                    gauge_boundary, gauge_partner, gauge_transform)
from rbclab.models import (boundary_field, coupling_matrix, hamiltonian_arrays,
                           window_tail_bound)

# ---------------------------------------------------------------------------
# independent oracle: straight loops over the Hamiltonian definition,
# H = -sum_{i<j} J_ij s_i s_j - sum_i sum_u J_iu s_i b_u - sum_i h_i s_i,
# sharing only the disorder/boundary value lookups with the package.


def _dist(i, j):
    if isinstance(i, tuple):
        return abs(i[0] - j[0]) + abs(i[1] - j[1])
    return abs(i - j)


def _kernel(spec, i, j):
    r = _dist(i, j)
    if spec.kernel == "power":
        return r ** -spec.alpha
    return 1.0 if r == 1 else 0.0


def naive_energy(spec, sigma, boundary, disorder=None, window=None):
    volume = sigma.volume
    sites = volume.sites()
    s = {site: float(v) for site, v in zip(sites, sigma.values)}
    if spec.family == "mattis":
        xi = dict(zip(sites, disorder.site_values(sites).astype(float)))
    energy = 0.0
    for a, i in enumerate(sites):
        for j in sites[a + 1:]:
            J = _kernel(spec, i, j)
            if J == 0.0:
                continue
            if spec.family == "mattis":
                J *= xi[i] * xi[j]
            elif spec.family == "ea":
                J *= float(disorder.bond_values([(i, j)])[0])
            energy -= J * s[i] * s[j]
    if boundary.kind != "free":
        if window is None:
            window = spec.default_window(volume)
        ext = (volume.boundary_sites(window) if volume.kind == "interval"
               else volume.boundary_sites())
        b = dict(zip(ext, boundary.values_at(ext, volume).astype(float)))
        if spec.family == "mattis":
            xi_ext = dict(zip(ext, disorder.site_values(ext).astype(float)))
        for i in sites:
            for u in ext:
                J = _kernel(spec, i, u)
                if J == 0.0:
                    continue
                if spec.family == "mattis":
                    J *= xi[i] * xi_ext[u]
                elif spec.family == "ea":
                    J *= float(disorder.bond_values([(i, u)])[0])
                energy -= J * s[i] * b[u]
    if spec.family == "rfim":
        eps = disorder.site_values(sites).astype(float)
        for k, i in enumerate(sites):
            energy -= spec.field_strength * eps[k] * s[i]
    return energy


_CASES = [
    (ModelSpec.nn_ising(), Volume.interval(6)),
    (ModelSpec.nn_ising(dimension=2), Volume.box(3)),
    (ModelSpec.dyson(1.5), Volume.interval(5)),
    (ModelSpec.dyson(1.2), Volume.interval(7)),
    (ModelSpec.mattis(), Volume.interval(6)),
    (ModelSpec.mattis(kernel="power", alpha=1.8), Volume.interval(5)),
    (ModelSpec.rfim(0.7), Volume.interval(6)),
    (ModelSpec.rfim(0.3, dimension=2), Volume.box(3)),
    (ModelSpec.ea(), Volume.interval(6)),
    (ModelSpec.ea(dimension=2), Volume.box(3)),
]


@pytest.mark.parametrize("spec,volume", _CASES,
                         ids=[f"{s.family}-{v.kind}{v.extent}" for s, v in _CASES])
def test_energy_matches_naive_oracle(spec, volume):
    for trial in range(8):
        sigma = SpinConfiguration.random(volume, seed=1000 + trial)
        disorder = DisorderRealization(seed=2000 + trial) \
            if (spec.needs_site_disorder or spec.needs_bond_disorder) else None
        for bc in (BoundaryCondition.free(), BoundaryCondition.plus(),
                   BoundaryCondition.minus(), BoundaryCondition.random(3000 + trial)):
            got = finite_volume_energy(spec, sigma, bc, disorder)
            want = naive_energy(spec, sigma, bc, disorder)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), \
                f"{spec.family} {bc.kind} trial {trial}"


# ---------------------------------------------------------------------------
# the array builders against the pair-loop builders they replaced, bitwise


def _reference_coupling_matrix(spec, volume, disorder=None):
    sites = volume.sites()
    n = len(sites)
    if spec.kernel == "power":
        coords = np.arange(n, dtype=np.float64)
        dist = np.abs(coords[:, None] - coords[None, :])
        np.fill_diagonal(dist, 1.0)
        K = dist ** -spec.alpha
        np.fill_diagonal(K, 0.0)
    else:
        K = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                if _dist(sites[a], sites[b]) == 1:
                    K[a, b] = K[b, a] = 1.0
    if spec.family == "mattis":
        eta = disorder.site_values(sites).astype(np.float64)
        K *= np.outer(eta, eta)
    elif spec.family == "ea":
        ia, ib = np.nonzero(np.triu(K, 1))
        signs = disorder.bond_values([(sites[a], sites[b]) for a, b in zip(ia, ib)])
        K[ia, ib] *= signs
        K[ib, ia] = K[ia, ib]
    return K


def _reference_boundary_field(spec, volume, boundary, disorder=None, window=None):
    sites = volume.sites()
    n = len(sites)
    h = np.zeros(n)
    if boundary.kind != "free":
        if window is None:
            window = spec.default_window(volume)
        ext = volume.boundary_sites(window) if volume.kind == "interval" \
            else volume.boundary_sites()
        b_vals = boundary.values_at(ext, volume).astype(np.float64)
        if spec.kernel == "power":
            pos_in = np.arange(n, dtype=np.float64)
            pos_ext = np.asarray(ext, dtype=np.float64)
            cross = np.abs(pos_in[:, None] - pos_ext[None, :]) ** -spec.alpha
        else:
            cross = np.zeros((n, len(ext)))
            for a in range(n):
                for k, s in enumerate(ext):
                    if _dist(sites[a], s) == 1:
                        cross[a, k] = 1.0
        if spec.family == "mattis":
            eta_in = disorder.site_values(sites).astype(np.float64)
            eta_ext = disorder.site_values(ext).astype(np.float64)
            cross = cross * np.outer(eta_in, eta_ext)
        elif spec.family == "ea":
            nz_i, nz_k = np.nonzero(cross)
            signs = disorder.bond_values([(sites[a], ext[k]) for a, k in zip(nz_i, nz_k)])
            cross[nz_i, nz_k] *= signs
        h += cross @ b_vals
    if spec.family == "rfim" and spec.field_strength != 0.0:
        h += spec.field_strength * disorder.site_values(sites).astype(np.float64)
    return h


def _builder_cases():
    specs_1d = (ModelSpec.nn_ising(), ModelSpec.dyson(1.5), ModelSpec.mattis(),
                ModelSpec.mattis(kernel="power", alpha=1.8), ModelSpec.rfim(0.7),
                ModelSpec.rfim(0.4, kernel="power", alpha=1.3), ModelSpec.ea(),
                ModelSpec.ea(kernel="power", alpha=2.0))
    specs_2d = (ModelSpec.nn_ising(dimension=2), ModelSpec.mattis(dimension=2),
                ModelSpec.rfim(0.7, dimension=2), ModelSpec.ea(dimension=2))
    volumes = [(specs_1d, Volume.interval(n)) for n in (1, 2, 3, 7, 12, 24)]
    volumes += [(specs_2d, Volume.box(n)) for n in range(1, 6)]
    for specs, volume in volumes:
        for spec in specs:
            disorder = DisorderRealization(100 + volume.extent) \
                if (spec.needs_site_disorder or spec.needs_bond_disorder) else None
            for window in (None, 3):
                for bc in (BoundaryCondition.free(), BoundaryCondition.plus(),
                           BoundaryCondition.minus(),
                           BoundaryCondition.random(17 + volume.extent)):
                    yield spec, volume, bc, disorder, window


def test_builders_match_pair_loop_reference_bitwise():
    # K and h over every family, 1d sizes 1..24 (size 1 has no interior
    # bond), boxes up to 5x5 and four boundaries; the digest was recorded
    # with the pair-loop builders
    digest = hashlib.sha256()
    n_cases = 0
    for spec, volume, bc, disorder, window in _builder_cases():
        K = coupling_matrix(spec, volume, disorder)
        h = boundary_field(spec, volume, bc, disorder, window)
        case = f"{spec.family}/{spec.kernel} {volume} {bc.kind} window={window}"
        assert K.tobytes() == _reference_coupling_matrix(
            spec, volume, disorder).tobytes(), case
        assert h.tobytes() == _reference_boundary_field(
            spec, volume, bc, disorder, window).tobytes(), case
        digest.update(K.tobytes())
        digest.update(h.tobytes())
        n_cases += 1
    assert n_cases == 544
    assert digest.hexdigest() == \
        "5c6cdf14e9d0c1e41bcf3a9559c62ba8c97727dba1bb710b5e82b5665efd8177"


@pytest.mark.parametrize("spec,volume,bound_mib", [
    (ModelSpec.dyson(1.5), Volume.interval(400), 51.0),
    (ModelSpec.nn_ising(), Volume.interval(2000), 1.1 * 8 * 2000 ** 2 / 2 ** 20),
    (ModelSpec.nn_ising(dimension=2), Volume.box(40), 2.1 * 8 * 1600 ** 2 / 2 ** 20),
], ids=["dyson-400", "nn-2000", "nn-box-40"])
def test_one_build_peak_memory(spec, volume, bound_mib):
    # dyson's cross-boundary block (400 x 8000) dominates; the nn builds
    # hold K plus at most one more coordinate block
    tracemalloc.start()
    try:
        hamiltonian_arrays(spec, volume, BoundaryCondition.plus())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= bound_mib


# ---------------------------------------------------------------------------
# pinned values, derived by hand from the definition


def test_pinned_energies():
    nn = ModelSpec.nn_ising()
    v2 = Volume.interval(2)
    free = BoundaryCondition.free()
    # one bond: H(++) = -1, H(+-) = +1
    pp = SpinConfiguration(v2, np.array([1, 1], dtype=np.int8))
    pm = SpinConfiguration(v2, np.array([1, -1], dtype=np.int8))
    assert finite_volume_energy(nn, pp, free) == -1.0
    assert finite_volume_energy(nn, pm, free) == 1.0
    # single site, plus boundary on both sides: H(+) = -2
    v1 = Volume.interval(1)
    up = SpinConfiguration(v1, np.array([1], dtype=np.int8))
    assert finite_volume_energy(nn, up, BoundaryCondition.plus()) == -2.0
    # three sites all plus, plus boundary: 2 interior + 2 boundary bonds
    v3 = Volume.interval(3)
    assert finite_volume_energy(
        nn, SpinConfiguration.all_plus(v3), BoundaryCondition.plus()) == -4.0
    # 2x2 box, free: 4 interior bonds
    nn2 = ModelSpec.nn_ising(dimension=2)
    box = Volume.box(2)
    assert finite_volume_energy(
        nn2, SpinConfiguration.all_plus(box), BoundaryCondition.free()) == -4.0
    # 2x2 box, plus layer: 8 more bonds, one per layer site
    assert finite_volume_energy(
        nn2, SpinConfiguration.all_plus(box), BoundaryCondition.plus()) == -12.0


def test_boundary_negation_is_linear():
    # H(s; b) + H(s; -b) = 2 H(s; free) for families without on-site fields
    for spec in (ModelSpec.nn_ising(), ModelSpec.dyson(1.4),
                 ModelSpec.mattis(), ModelSpec.ea()):
        volume = Volume.interval(5)
        disorder = DisorderRealization(11) \
            if (spec.needs_site_disorder or spec.needs_bond_disorder) else None
        sigma = SpinConfiguration.random(volume, seed=4)
        ext = volume.boundary_sites(spec.default_window(volume))
        vals = DisorderRealization(21).boundary_values(ext, volume)
        bc = BoundaryCondition.explicit({s: int(v) for s, v in zip(ext, vals)})
        bc_neg = BoundaryCondition.explicit({s: -int(v) for s, v in zip(ext, vals)})
        h_free = finite_volume_energy(spec, sigma, BoundaryCondition.free(), disorder)
        h = finite_volume_energy(spec, sigma, bc, disorder)
        h_neg = finite_volume_energy(spec, sigma, bc_neg, disorder)
        assert h + h_neg == pytest.approx(2 * h_free, rel=1e-12, abs=1e-12)


def test_spin_flip_symmetry_free_boundary():
    for spec in (ModelSpec.nn_ising(), ModelSpec.dyson(1.7), ModelSpec.ea()):
        volume = Volume.interval(6)
        disorder = DisorderRealization(8) if spec.needs_bond_disorder else None
        sigma = SpinConfiguration.random(volume, seed=13)
        h = finite_volume_energy(spec, sigma, BoundaryCondition.free(), disorder)
        h_flip = finite_volume_energy(spec, sigma.flipped(),
                                      BoundaryCondition.free(), disorder)
        assert h == h_flip


# ---------------------------------------------------------------------------
# gauge relation: mattis energies equal the gauged ferromagnet's, bitwise


def test_gauge_identity_energies():
    for kernel, volume in (("nn", Volume.interval(6)),
                           ("power", Volume.interval(5)),
                           ("nn", Volume.box(2))):
        spec = ModelSpec.mattis(kernel=kernel, alpha=1.5,
                                dimension=volume.dimension)
        ferro = gauge_partner(spec)
        disorder = DisorderRealization(77)
        for trial in range(10):
            sigma = SpinConfiguration.random(volume, seed=trial)
            bc = BoundaryCondition.random(500 + trial)
            e_mattis = finite_volume_energy(spec, sigma, bc, disorder)
            e_ferro = finite_volume_energy(
                ferro, gauge_transform(sigma, disorder),
                gauge_boundary(spec, volume, bc, disorder))
            assert e_mattis == e_ferro


def test_gauge_transform_involutive():
    volume = Volume.interval(9)
    disorder = DisorderRealization(5)
    sigma = SpinConfiguration.random(volume, seed=2)
    twice = gauge_transform(gauge_transform(sigma, disorder), disorder)
    assert np.array_equal(twice.values, sigma.values)


# ---------------------------------------------------------------------------
# windows


def test_window_tail_bound_controls_truncation():
    spec = ModelSpec.dyson(1.3)
    volume = Volume.interval(6)
    sigma = SpinConfiguration.random(volume, seed=1)
    bc = BoundaryCondition.random(9)
    wide = finite_volume_energy(spec, sigma, bc, window=4000)
    for m in (20, 50, 200):
        narrow = finite_volume_energy(spec, sigma, bc, window=m)
        assert abs(wide - narrow) <= window_tail_bound(spec.alpha, 6, m)
    assert window_tail_bound(1.3, 6, 200) < window_tail_bound(1.3, 6, 20)


# ---------------------------------------------------------------------------
# value plumbing and validation


def test_boundary_values_are_indexed_by_distance():
    volume = Volume.interval(4)
    d = DisorderRealization(321)
    left, right = d.left_boundary(3), d.right_boundary(3)
    got = d.boundary_values([-3, -1, 4, 6], volume)
    assert list(got) == [left[2], left[0], right[0], right[2]]
    with pytest.raises(ValueError):
        d.boundary_values([2], volume)  # interior site
    empty = d.boundary_values([], volume)
    assert empty.dtype == np.int8 and empty.shape == (0,)
    # far out in the window: distance 1000 on either side
    far = d.boundary_values([-1000, 1003], volume)
    assert list(far) == [d.left_boundary(1000)[999], d.right_boundary(1000)[999]]
    assert list(d.flipped().boundary_values([-1000, 1003], volume)) == list(-far)


def test_random_boundary_matches_disorder_stream():
    volume = Volume.interval(5)
    ext = volume.boundary_sites(4)
    bc = BoundaryCondition.random(99)
    assert np.array_equal(bc.values_at(ext, volume),
                          DisorderRealization(99).boundary_values(ext, volume))


def test_flipped_disorder_negates_every_stream():
    d = DisorderRealization(6)
    f = d.flipped()
    assert np.array_equal(f.left_boundary(10), -d.left_boundary(10))
    assert np.array_equal(f.layer_values(8), -d.layer_values(8))
    assert np.array_equal(f.site_values([0, 1, 2]), -d.site_values([0, 1, 2]))
    assert np.array_equal(f.bond_values([(0, 1)]), -d.bond_values([(0, 1)]))


def test_explicit_boundary_validation():
    with pytest.raises(ValueError):
        BoundaryCondition.explicit({-1: 2})
    bc = BoundaryCondition.explicit({-1: 1})
    with pytest.raises(ValueError):
        bc.values_at([-1, 5], Volume.interval(5))  # missing site 5


def test_spin_configuration_helpers():
    volume = Volume.interval(12)
    r = SpinConfiguration.random(volume, seed=3)
    assert set(np.unique(r.values)) <= {-1, 1}
    assert np.array_equal(SpinConfiguration.random(volume, seed=3).values, r.values)
    assert np.array_equal(r.flipped().values, -r.values)
    assert SpinConfiguration.all_plus(volume).values.sum() == 12
    assert SpinConfiguration.all_minus(volume).values.sum() == -12


def test_volume_and_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec.dyson(1.5).check_volume(Volume.box(3))  # power kernel is 1d
    with pytest.raises(ValueError):
        ModelSpec.dyson(2.5)  # alpha out of (1, 2]
    with pytest.raises(ValueError):
        Volume.interval(0)
    with pytest.raises(ValueError):
        gauge_partner(ModelSpec.nn_ising())  # only mattis has one
    spec = ModelSpec.dyson(1.5)
    assert spec.default_window(Volume.interval(10)) == 100  # 10x extent
    assert ModelSpec.nn_ising().default_window(Volume.interval(10)) == 1
