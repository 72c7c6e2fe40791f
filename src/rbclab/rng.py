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
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
# The top bit of a stream word: set means -1 in every +-1 draw.
SIGN_BIT = np.uint64(1 << 63)

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


def _mix64(z: np.ndarray, sign_only: bool = False) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array (wraparound intended).

    One scratch array holds each shifted copy.  With sign_only the last step,
    z ^= z >> 31, is skipped: it cannot change the top bit, so only that bit
    of the result is then the mixed word's.
    """
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, _S30, out=t)
        z ^= t
        z *= _MULT1
        np.right_shift(z, _S27, out=t)
        z ^= t
        z *= _MULT2
        if not sign_only:
            np.right_shift(z, _S31, out=t)
            z ^= t
    return z


def _stream_key(seed, tag: int) -> np.ndarray:
    """mix(seed ^ mix(tag * gamma + gamma)); 0-d for an int seed, the seed
    array's shape otherwise."""
    t = np.array(tag & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    with np.errstate(over="ignore"):
        t *= _GAMMA
        t += _GAMMA
    key = np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    key ^= _mix64(t)
    return _mix64(key)


def u64_at(seed, tag: int, indices: np.ndarray, out: np.ndarray | None = None,
           sign_only: bool = False) -> np.ndarray:
    """Stream words at arbitrary indices (uint64 array in, uint64 array out);
    `seed` is an int or a uint64 array broadcast against `indices`.

    The words are written into `out` when it is given (a C-contiguous uint64
    array of the broadcast shape) and into a new array otherwise.  With
    sign_only each word is reduced to its top bit, word & 1<<63.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    key = _stream_key(seed, tag)
    if out is None:
        out = np.empty(np.broadcast_shapes(key.shape, idx.shape), dtype=np.uint64)
    # key + (idx + 1) * gamma, as idx * gamma + (key + gamma) mod 2**64
    with np.errstate(over="ignore"):
        np.multiply(idx, _GAMMA, out=out)
        key += _GAMMA
        out += key
    _mix64(out, sign_only)
    if sign_only:
        out &= SIGN_BIT
    return out


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


def site_codes(sites) -> np.ndarray:
    """Stable uint64 codes for 1d (int) or 2d ((row, col)) sites."""
    s = np.asarray(sites, dtype=np.int64)
    if s.ndim == 1:
        return zigzag(s)
    return (zigzag(s[:, 0]) << np.uint64(32)) ^ zigzag(s[:, 1]) ^ np.uint64(1) << np.uint64(63)


def bond_codes(pairs) -> np.ndarray:
    """Symmetric uint64 codes for unordered site pairs."""
    p = np.asarray(pairs, dtype=np.int64)
    p = p.reshape(-1, 2, *p.shape[2:])
    ca, cb = site_codes(p[:, 0]), site_codes(p[:, 1])
    with np.errstate(over="ignore"):
        z = np.minimum(ca, cb) + _GAMMA * np.maximum(ca, cb)
    return _mix64(z)
