"""Spin models on finite volumes with explicit exterior boundaries.

Five families share one quadratic form: an interior coupling matrix K and a
local field h collecting cross-boundary terms (plus the on-site field for the
random-field model), so every energy is

    H(sigma) = -1/2 sigma.K.sigma - h.sigma

with K symmetric and zero on the diagonal.  Couplings J(r) come from a
nearest-neighbour kernel (J=1 at graph distance 1) or a power kernel
J(r) = r^-alpha with alpha in (1, 2]; disorder enters as site signs
(mattis, rfim), bond signs (ea), or random boundary values (all families).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng

FAMILIES = ("nn_ising", "dyson", "mattis", "rfim", "ea")
# families whose DisorderRealization supplies site signs or bond signs
DISORDERED_FAMILIES = {"mattis": "site", "rfim": "site", "ea": "bond"}
KERNELS = ("nn", "power")

# Exterior window for long-range kernels: M = WINDOW_FACTOR * N sites per side.
WINDOW_FACTOR = 10


# ---------------------------------------------------------------------------
# volumes and configurations


@dataclass(frozen=True)
class Volume:
    """Finite site set: a 1d interval {0..N-1} or a 2d box {0..N-1}^2.

    Sites are plain ints in 1d and (row, col) tuples in 2d, always
    enumerated in lexicographic order.
    """

    kind: str
    extent: int

    def __post_init__(self):
        if self.kind not in ("interval", "box"):
            raise ValueError(f"volume kind must be 'interval' or 'box', got {self.kind!r}")
        if self.extent < 1:
            raise ValueError(f"volume extent must be >= 1, got {self.extent}")

    @classmethod
    def interval(cls, n: int) -> "Volume":
        return cls("interval", n)

    @classmethod
    def box(cls, n: int) -> "Volume":
        return cls("box", n)

    @property
    def dimension(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def n_sites(self) -> int:
        return self.extent if self.kind == "interval" else self.extent * self.extent

    def sites(self) -> list:
        n = self.extent
        if self.kind == "interval":
            return list(range(n))
        return [(r, c) for r in range(n) for c in range(n)]

    def boundary_sites(self, window: int = 1) -> list:
        """Exterior sites carrying boundary values, lexicographic.

        Interval: `window` sites on each side.  Box: the adjacent exterior
        layer (4N sites; corners touch nothing and are excluded), whatever
        the window.
        """
        n = self.extent
        if self.kind == "interval":
            if window < 1:
                raise ValueError("boundary window must be >= 1")
            return list(range(-window, 0)) + list(range(n, n + window))
        layer = [(-1, c) for c in range(n)]
        for r in range(n):
            layer += [(r, -1), (r, n)]
        layer += [(n, c) for c in range(n)]
        return sorted(layer)


@dataclass(frozen=True, eq=False)
class SpinConfiguration:
    """+-1 spins on a volume, in site enumeration order."""

    volume: Volume
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int8)
        if v.shape != (self.volume.n_sites,):
            raise ValueError(
                f"expected {self.volume.n_sites} spins for {self.volume}, got shape {v.shape}"
            )
        if not np.all(np.abs(v) == 1):
            raise ValueError("spins must be +-1")
        object.__setattr__(self, "values", v)

    @classmethod
    def all_plus(cls, volume: Volume) -> "SpinConfiguration":
        return cls(volume, np.ones(volume.n_sites, dtype=np.int8))

    @classmethod
    def all_minus(cls, volume: Volume) -> "SpinConfiguration":
        return cls(volume, -np.ones(volume.n_sites, dtype=np.int8))

    @classmethod
    def random(cls, volume: Volume, seed: int) -> "SpinConfiguration":
        return cls(volume, rng.stream_pm1(seed, rng.TAG_SPINS, 0, volume.n_sites))

    def flipped(self) -> "SpinConfiguration":
        return SpinConfiguration(self.volume, -self.values)


# ---------------------------------------------------------------------------
# disorder


@dataclass(frozen=True)
class DisorderRealization:
    """Quenched +-1 disorder, regenerated on demand from the seed.

    Site and bond values are addressed by site coordinates, so volumes that
    overlap see identical disorder, and exterior windows of any size read
    prefixes of the same two half-line boundary streams (left stream index
    d-1 holds the value at distance d from the interval edge).  The boundary
    streams double as the random boundary condition.
    """

    seed: int
    negate: bool = False

    def _sign(self) -> np.int8:
        return np.int8(-1 if self.negate else 1)

    def site_values(self, sites) -> np.ndarray:
        return self._sign() * rng.pm1_at(self.seed, rng.TAG_SITE, rng.site_codes(sites))

    def bond_values(self, pairs) -> np.ndarray:
        return self._sign() * rng.pm1_at(self.seed, rng.TAG_BOND, rng.bond_codes(pairs))

    def left_boundary(self, m: int) -> np.ndarray:
        return self._sign() * rng.stream_pm1(self.seed, rng.TAG_LEFT, 0, m)

    def right_boundary(self, m: int) -> np.ndarray:
        return self._sign() * rng.stream_pm1(self.seed, rng.TAG_RIGHT, 0, m)

    def layer_values(self, count: int) -> np.ndarray:
        return self._sign() * rng.stream_pm1(self.seed, rng.TAG_LAYER, 0, count)

    def boundary_values(self, sites, volume: Volume) -> np.ndarray:
        """Values at explicit exterior sites of `volume`."""
        if volume.kind == "interval":
            s = np.asarray(sites, dtype=np.int64)
            n = volume.extent
            interior = s[(s >= 0) & (s < n)]
            if interior.size:
                raise ValueError(f"sites {interior[:8].tolist()} are interior to {volume}")
            left = s < 0
            out = np.empty(len(s), dtype=np.int8)
            out[left] = rng.pm1_at(self.seed, rng.TAG_LEFT, -s[left] - 1)
            out[~left] = rng.pm1_at(self.seed, rng.TAG_RIGHT, s[~left] - n)
            return self._sign() * out
        layer = volume.boundary_sites()
        pos = {s: k for k, s in enumerate(layer)}
        vals = self.layer_values(len(layer))
        try:
            return np.asarray([vals[pos[s]] for s in sites], dtype=np.int8)
        except KeyError as err:
            raise ValueError(f"site {err.args[0]} is not in the boundary layer of {volume}")

    def flipped(self) -> "DisorderRealization":
        return DisorderRealization(self.seed, not self.negate)


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class BoundaryCondition:
    """Exterior condition: plus | minus | free | random(seed) | explicit."""

    kind: str
    seed: int | None = None
    mapping: tuple | None = None  # explicit: ((site, value), ...)

    @classmethod
    def plus(cls) -> "BoundaryCondition":
        return cls("plus")

    @classmethod
    def minus(cls) -> "BoundaryCondition":
        return cls("minus")

    @classmethod
    def free(cls) -> "BoundaryCondition":
        return cls("free")

    @classmethod
    def random(cls, seed: int) -> "BoundaryCondition":
        return cls("random", seed=seed)

    @classmethod
    def explicit(cls, values: dict) -> "BoundaryCondition":
        sites = list(values)
        items = tuple((sites[k], values[sites[k]])
                      for k in np.argsort(rng.site_codes(sites)))
        for _, v in items:
            if v not in (-1, 1):
                raise ValueError("explicit boundary values must be +-1")
        return cls("explicit", mapping=items)

    def values_at(self, sites, volume: Volume) -> np.ndarray:
        if self.kind == "free":
            raise ValueError("free boundary has no exterior values")
        if self.kind == "plus":
            return np.ones(len(sites), dtype=np.int8)
        if self.kind == "minus":
            return -np.ones(len(sites), dtype=np.int8)
        if self.kind == "random":
            return DisorderRealization(self.seed).boundary_values(sites, volume)
        lookup = dict(self.mapping)
        missing = [s for s in sites if s not in lookup]
        if missing:
            raise ValueError(f"explicit boundary missing values at sites {missing[:8]}")
        return np.asarray([lookup[s] for s in sites], dtype=np.int8)


# ---------------------------------------------------------------------------
# model specification


@dataclass(frozen=True)
class ModelSpec:
    """One of the five model families plus its parameters.

    alpha is the power-kernel exponent, constrained to (1, 2] so boundary
    sums converge while the interaction stays long-range.  field_strength is
    the on-site random-field coupling (rfim only).  beta >= 0 is the inverse
    temperature carried with the model.
    """

    family: str
    beta: float = 1.0
    alpha: float | None = None
    kernel: str = "nn"
    field_strength: float = 0.0
    dimension: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not (self.beta >= 0.0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose from {KERNELS}")
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.family == "dyson":
            object.__setattr__(self, "kernel", "power")
        if self.family == "nn_ising":
            object.__setattr__(self, "kernel", "nn")
        if self.kernel == "power":
            if self.alpha is None or not (1.0 < self.alpha <= 2.0):
                raise ValueError(
                    f"power kernel needs alpha in (1, 2], got {self.alpha}"
                )
            if self.dimension != 1:
                raise ValueError("power kernel is defined on 1d volumes only")
        if self.field_strength != 0.0 and self.family != "rfim":
            raise ValueError("field_strength applies to the rfim family only")

    # -- constructors ------------------------------------------------------

    @classmethod
    def nn_ising(cls, dimension: int = 1, beta: float = 1.0) -> "ModelSpec":
        return cls("nn_ising", beta=beta, dimension=dimension)

    @classmethod
    def dyson(cls, alpha: float, beta: float = 1.0) -> "ModelSpec":
        return cls("dyson", beta=beta, alpha=alpha, kernel="power")

    @classmethod
    def mattis(cls, kernel: str = "nn", beta: float = 1.0, alpha: float | None = None,
               dimension: int = 1) -> "ModelSpec":
        return cls("mattis", beta=beta, alpha=alpha, kernel=kernel, dimension=dimension)

    @classmethod
    def rfim(cls, field_strength: float, beta: float = 1.0, kernel: str = "nn",
             alpha: float | None = None, dimension: int = 1) -> "ModelSpec":
        return cls("rfim", beta=beta, alpha=alpha, kernel=kernel,
                   field_strength=field_strength, dimension=dimension)

    @classmethod
    def ea(cls, kernel: str = "nn", beta: float = 1.0, alpha: float | None = None,
           dimension: int = 1) -> "ModelSpec":
        return cls("ea", beta=beta, alpha=alpha, kernel=kernel, dimension=dimension)

    # -- derived properties ------------------------------------------------

    @property
    def long_range(self) -> bool:
        return self.kernel == "power"

    @property
    def needs_site_disorder(self) -> bool:
        return DISORDERED_FAMILIES.get(self.family) == "site"

    @property
    def needs_bond_disorder(self) -> bool:
        return DISORDERED_FAMILIES.get(self.family) == "bond"

    def with_beta(self, beta: float) -> "ModelSpec":
        return ModelSpec(self.family, beta=beta, alpha=self.alpha, kernel=self.kernel,
                         field_strength=self.field_strength, dimension=self.dimension)

    def check_volume(self, volume: Volume):
        if volume.dimension != self.dimension:
            raise ValueError(
                f"{self.family} with dimension {self.dimension} cannot act on {volume.kind}"
            )

    def default_window(self, volume: Volume) -> int:
        return WINDOW_FACTOR * volume.extent if self.long_range else 1


def gauge_partner(spec: ModelSpec) -> ModelSpec:
    """The disorder-free ferromagnet sharing spec's kernel."""
    if spec.family != "mattis":
        raise ValueError("gauge partner is defined for the mattis family")
    if spec.kernel == "power":
        return ModelSpec.dyson(spec.alpha, beta=spec.beta)
    return ModelSpec.nn_ising(spec.dimension, beta=spec.beta)


# ---------------------------------------------------------------------------
# couplings and energies


def window_tail_bound(alpha: float, n_sites: int, window: int) -> float:
    """Worst-case cross-boundary energy shift from enlarging the window past M.

    Sum over r > M of N r^-alpha is at most N M^(1-alpha)/(alpha-1) by
    integral comparison, uniformly over +-1 boundary values.
    """
    return n_sites * window ** (1.0 - alpha) / (alpha - 1.0)


def _couplings(spec: ModelSpec, sites_a: list, sites_b: list,
               disorder: DisorderRealization | None) -> np.ndarray:
    """J between two site lists from their graph distance, disorder folded in."""
    a = np.asarray(sites_a, dtype=np.float64).reshape(len(sites_a), -1)
    b = np.asarray(sites_b, dtype=np.float64).reshape(len(sites_b), -1)
    J = np.subtract.outer(a[:, 0], b[:, 0])
    np.abs(J, out=J)
    for axis in range(1, a.shape[1]):
        step = np.subtract.outer(a[:, axis], b[:, axis])
        J += np.abs(step, out=step)
    if spec.kernel == "power":
        same = J == 0.0
        J[same] = 1.0
        np.power(J, -spec.alpha, out=J)
        J[same] = 0.0
    else:
        np.equal(J, 1.0, out=J)
    if spec.family == "mattis":
        J *= np.outer(disorder.site_values(sites_a), disorder.site_values(sites_b))
    elif spec.family == "ea":
        ia, ib = np.nonzero(J)
        pairs = np.stack((np.asarray(sites_a)[ia], np.asarray(sites_b)[ib]), axis=1)
        J[ia, ib] *= disorder.bond_values(pairs)
    return J


def coupling_matrix(spec: ModelSpec, volume: Volume,
                    disorder: DisorderRealization | None = None) -> np.ndarray:
    """Interior coupling matrix K (symmetric, zero diagonal, disorder folded in)."""
    spec.check_volume(volume)
    _require_disorder(spec, disorder)
    sites = volume.sites()
    return _couplings(spec, sites, sites, disorder)


def boundary_field(spec: ModelSpec, volume: Volume, boundary: BoundaryCondition,
                   disorder: DisorderRealization | None = None,
                   window: int | None = None) -> np.ndarray:
    """Local fields h_i: cross-boundary couplings plus the rfim on-site term."""
    spec.check_volume(volume)
    _require_disorder(spec, disorder)
    sites = volume.sites()
    h = np.zeros(len(sites))
    if boundary.kind != "free":
        if window is None:
            window = spec.default_window(volume)
        ext = volume.boundary_sites(window)
        b_vals = boundary.values_at(ext, volume).astype(np.float64)
        h += _couplings(spec, sites, ext, disorder) @ b_vals
    if spec.family == "rfim" and spec.field_strength != 0.0:
        h += spec.field_strength * disorder.site_values(sites).astype(np.float64)
    return h


def hamiltonian_arrays(spec: ModelSpec, volume: Volume, boundary: BoundaryCondition,
                       disorder: DisorderRealization | None = None,
                       window: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    return (coupling_matrix(spec, volume, disorder),
            boundary_field(spec, volume, boundary, disorder, window))


def finite_volume_energy(spec: ModelSpec, sigma: SpinConfiguration,
                         boundary: BoundaryCondition,
                         disorder: DisorderRealization | None = None,
                         window: int | None = None) -> float:
    """H(sigma) with the exterior truncated at the window (exact for nn kernels)."""
    K, h = hamiltonian_arrays(spec, sigma.volume, boundary, disorder, window)
    s = sigma.values.astype(np.float64)
    return float(-0.5 * s @ K @ s - h @ s)


def _require_disorder(spec: ModelSpec, disorder):
    if (spec.needs_site_disorder or spec.needs_bond_disorder) and disorder is None:
        raise ValueError(f"family {spec.family!r} needs a DisorderRealization")


# ---------------------------------------------------------------------------
# gauge transformation


def gauge_transform(sigma: SpinConfiguration,
                    disorder: DisorderRealization) -> SpinConfiguration:
    """sigma_i -> eta_i sigma_i.  Involutive because eta_i^2 = 1."""
    eta = disorder.site_values(sigma.volume.sites())
    return SpinConfiguration(sigma.volume, sigma.values * eta)


def gauge_boundary(spec: ModelSpec, volume: Volume, boundary: BoundaryCondition,
                   disorder: DisorderRealization,
                   window: int | None = None) -> BoundaryCondition:
    """Boundary values b_j -> eta_j b_j on the exterior window, made explicit."""
    if boundary.kind == "free":
        return boundary
    if window is None:
        window = spec.default_window(volume)
    ext = volume.boundary_sites(window)
    b_vals = boundary.values_at(ext, volume)
    eta = disorder.site_values(ext)
    return BoundaryCondition.explicit({s: int(b * e) for s, b, e in zip(ext, b_vals, eta)})
