"""Counter-based random streams.

Every random quantity in the package is a pure function of
(seed, role tag, index), evaluated through the splitmix64 mixer.
That gives O(1) random access into any stream, so parallel workers
can regenerate any realization without coordination and results
never depend on worker count or evaluation order.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)

# Role tags.  Streams with different tags are unrelated even under the
# same seed; never reuse a tag for a new purpose.
TAG_SITE = 0x51
TAG_BOND = 0xB0
TAG_LEFT = 0x1E
TAG_RIGHT = 0x2E
TAG_LAYER = 0x3E
TAG_SPINS = 0x70
TAG_MC_INIT = 0xA1
TAG_MC_SITE = 0xA2
TAG_MC_ACCEPT = 0xA3
TAG_SUBSEED = 0xF5


def _mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, elementwise on uint64 (wraparound intended)."""
    z = np.uint64(z) if np.isscalar(z) or isinstance(z, int) else z
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MULT1
        z = (z ^ (z >> np.uint64(27))) * _MULT2
        return z ^ (z >> np.uint64(31))


def _stream_key(seed, tag: int):
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    t = np.uint64(tag & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix64(s ^ _mix64(t * _GAMMA + _GAMMA))


def u64_at(seed, tag: int, indices: np.ndarray) -> np.ndarray:
    """Stream words at arbitrary indices (uint64 array in, uint64 array out);
    `seed` is an int or a uint64 array broadcast against `indices`."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(_stream_key(seed, tag) + (idx + np.uint64(1)) * _GAMMA)


def stream_u64(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.uint64)
    return u64_at(seed, tag, idx)


def pm1_from_u64(words: np.ndarray) -> np.ndarray:
    """Top bit -> symmetric +-1 (int8)."""
    return (1 - 2 * (words >> np.uint64(63)).astype(np.int8)).astype(np.int8)


def uniform_from_u64(words: np.ndarray) -> np.ndarray:
    """53-bit uniform in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def stream_pm1(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    return pm1_from_u64(stream_u64(seed, tag, start, count))


def stream_uniform(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    return uniform_from_u64(stream_u64(seed, tag, start, count))


def pm1_at(seed: int, tag: int, indices: np.ndarray) -> np.ndarray:
    return pm1_from_u64(u64_at(seed, tag, indices))


def sub_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """sub_seed(master_seed, i) for i in lo..hi-1, as one uint64 array."""
    return u64_at(master_seed, TAG_SUBSEED, np.arange(lo, hi, dtype=np.uint64))


def sub_seed(master_seed: int, index: int) -> int:
    """Per-realization seed: stable under any worker layout."""
    return int(sub_seeds(master_seed, index, index + 1)[0])


def zigzag(n: np.ndarray | int) -> np.ndarray | int:
    """Z -> N embedding for signed site coordinates."""
    n = np.asarray(n, dtype=np.int64)
    out = np.where(n >= 0, 2 * n, -2 * n - 1).astype(np.uint64)
    return out if out.ndim else np.uint64(out)


def site_code(site) -> np.uint64:
    """Stable uint64 code for a 1d (int) or 2d (pair) site."""
    if isinstance(site, tuple):
        r, c = site
        return (zigzag(int(r)) << np.uint64(32)) ^ zigzag(int(c)) ^ np.uint64(1) << np.uint64(63)
    return np.uint64(zigzag(int(site)))


def bond_code(site_a, site_b) -> np.uint64:
    """Symmetric uint64 code for an unordered site pair."""
    ca, cb = site_code(site_a), site_code(site_b)
    lo, hi = (ca, cb) if ca <= cb else (cb, ca)
    with np.errstate(over="ignore"):
        return _mix64(lo + _GAMMA * hi)
