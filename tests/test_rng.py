"""Counter-based RNG: determinism, nesting, statistics, code injectivity."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbclab import rng

# ---------------------------------------------------------------------------
# determinism and prefix nesting


def test_stream_is_reproducible():
    a = rng.stream_u64(123, rng.TAG_SITE, 0, 64)
    b = rng.stream_u64(123, rng.TAG_SITE, 0, 64)
    assert np.array_equal(a, b)


def test_prefix_nesting_bitwise():
    # reading a longer stream never changes the earlier values
    full = rng.stream_u64(9, rng.TAG_LEFT, 0, 1000)
    assert np.array_equal(rng.stream_u64(9, rng.TAG_LEFT, 0, 10), full[:10])
    assert np.array_equal(rng.stream_u64(9, rng.TAG_LEFT, 400, 600), full[400:])


def test_random_access_matches_stream():
    full = rng.stream_u64(5, rng.TAG_BOND, 0, 50)
    idx = np.array([0, 7, 13, 49], dtype=np.uint64)
    assert np.array_equal(rng.u64_at(5, rng.TAG_BOND, idx), full[[0, 7, 13, 49]])


def test_streams_differ_across_seeds_and_tags():
    a = rng.stream_u64(1, rng.TAG_SITE, 0, 1000)
    b = rng.stream_u64(2, rng.TAG_SITE, 0, 1000)
    c = rng.stream_u64(1, rng.TAG_BOND, 0, 1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # 64-bit words from distinct streams should essentially never collide
    assert (a == b).sum() == 0
    assert (a == c).sum() == 0


def test_regression_anchors():
    # arbitrary values frozen once: any change breaks stored-result replay
    assert rng.sub_seed(0, 0) == 496074965304898980
    assert rng.sub_seed(0, 1) == 4142831502546304099
    assert rng.sub_seed(7, 3) == 4548535397052278728
    assert int(rng.stream_u64(0, rng.TAG_SITE, 0, 1)[0]) == 7406373282578140897
    assert list(rng.stream_pm1(42, rng.TAG_LEFT, 0, 4)) == [-1, -1, 1, -1]
    assert float(rng.stream_uniform(1, rng.TAG_MC_ACCEPT, 0, 1)[0]) \
        == 0.21670654793945698


# ---------------------------------------------------------------------------
# distributional sanity (loose 4-sigma style bounds, fixed seeds)


def test_pm1_values_and_symmetry():
    x = rng.stream_pm1(2024, rng.TAG_LEFT, 0, 100_000)
    assert x.dtype == np.int8
    assert set(np.unique(x)) <= {-1, 1}
    assert abs(x.astype(np.float64).mean()) < 4.0 / np.sqrt(len(x))


def test_uniform_range_and_mean():
    u = rng.stream_uniform(77, rng.TAG_MC_SITE, 0, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # Var = 1/12 for U[0,1)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12 * len(u))


def test_uniform_has_53_bit_resolution():
    u = rng.stream_uniform(3, rng.TAG_MC_ACCEPT, 0, 10_000)
    assert len(np.unique(u)) == len(u)


# ---------------------------------------------------------------------------
# site and bond codes


def test_zigzag_interleaves_signs():
    assert [rng.zigzag(n) for n in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    vals = [rng.zigzag(n) for n in range(-500, 501)]
    assert len(set(vals)) == len(vals)


def test_site_codes_injective():
    sites_1d = list(range(-100, 200))
    sites_2d = [(r, c) for r in range(-8, 24) for c in range(-8, 24)]
    codes = np.concatenate([rng.site_codes(sites_1d), rng.site_codes(sites_2d)])
    assert codes.dtype == np.uint64
    assert len(np.unique(codes)) == len(codes)
    assert rng.site_codes([3]).tolist() == [6]  # zigzag, no 2d flag


def test_bond_code_symmetric_and_injective():
    assert np.array_equal(rng.bond_codes([(0, 1), (-4, 7)]),
                          rng.bond_codes([(1, 0), (7, -4)]))
    assert np.array_equal(rng.bond_codes([((2, 3), (2, 4))]),
                          rng.bond_codes([((2, 4), (2, 3))]))
    pairs = [(i, j) for i in range(-20, 20) for j in range(i + 1, 20)]
    codes = rng.bond_codes(pairs)
    assert len(np.unique(codes)) == len(codes) == len(pairs)


# codes of 1d sites (some of them far out) and 2d sites, and of adjacent
# pairs in both orders, recorded with the per-site scalar code functions
_CODE_SITES_1D = list(range(-300, 300)) + [-(2 ** 40), 2 ** 40, 10 ** 12]
_CODE_SITES_2D = [(r, c) for r in range(-12, 30) for c in range(-12, 30)]
_CODE_PAIRS_1D = [(i, i + 1) for i in range(-300, 300)] \
    + [(i + 1, i) for i in range(-5, 5)]
_CODE_PAIRS_2D = [((r, c), (r, c + 1)) for r, c in _CODE_SITES_2D] \
    + [((r + 1, c), (r, c)) for r, c in _CODE_SITES_2D]


def test_codes_match_recorded_digests():
    sites = np.concatenate([rng.site_codes(_CODE_SITES_1D),
                            rng.site_codes(_CODE_SITES_2D)])
    assert hashlib.sha256(sites.tobytes()).hexdigest() == \
        "1ab639011a8142dd11448112bd073d89a9c478b604e9f92927dfb8aabb0c8c49"
    bonds = np.concatenate([rng.bond_codes(_CODE_PAIRS_1D),
                            rng.bond_codes(_CODE_PAIRS_2D)])
    assert hashlib.sha256(bonds.tobytes()).hexdigest() == \
        "74a5bab3f0dc691470e2ca228505a00f43091bc8818ca15e72d60e4ef4d1e420"


def test_empty_site_and_pair_lists_give_empty_codes():
    for codes in (rng.site_codes([]), rng.bond_codes([])):
        assert codes.dtype == np.uint64 and codes.shape == (0,)


def test_sub_seed_decorrelates_children():
    kids = [rng.sub_seed(0, i) for i in range(1000)]
    assert len(set(kids)) == 1000
    first = np.array([int(rng.stream_u64(k, rng.TAG_LEFT, 0, 1)[0]) for k in kids])
    assert len(np.unique(first)) == 1000


@pytest.mark.parametrize("master", [0, -1, 2 ** 63 + 5])
def test_seed_arrays_match_scalar_calls(master):
    # the vectorised sub-seeds, and one u64_at call over a (seeds x words)
    # grid, equal the per-index and per-seed scalar calls
    seeds = rng.sub_seeds(master, 3, 40)
    assert [int(s) for s in seeds] == [
        int(rng.u64_at(master, rng.TAG_SUBSEED, np.asarray([i], dtype=np.uint64))[0])
        for i in range(3, 40)]
    assert [int(s) for s in seeds] == [rng.sub_seed(master, i) for i in range(3, 40)]
    idx = np.arange(17, dtype=np.uint64)
    grid = rng.u64_at(seeds[:, None], rng.TAG_LEFT, idx)
    assert grid.shape == (37, 17)
    for row, s in zip(grid, seeds):
        assert np.array_equal(row, rng.u64_at(int(s), rng.TAG_LEFT, idx))


@pytest.mark.parametrize("master", [0, -1, 2 ** 63 + 5])
def test_u64_at_writes_into_a_given_buffer(master):
    seeds = rng.sub_seeds(master, 0, 6)[:, None]
    idx = np.arange(1, 40, 3, dtype=np.uint64)
    want = rng.u64_at(seeds, rng.TAG_LAYER, idx)
    buf = np.full((6, len(idx)), 7, dtype=np.uint64)
    assert rng.u64_at(seeds, rng.TAG_LAYER, idx, out=buf) is buf
    assert np.array_equal(buf, want)
    # sign_only keeps each word's top bit and clears the rest
    assert rng.u64_at(seeds, rng.TAG_LAYER, idx, out=buf, sign_only=True) is buf
    assert np.array_equal(buf, want & rng.SIGN_BIT)
    assert np.array_equal(rng.u64_at(master, rng.TAG_LAYER, idx, sign_only=True),
                          rng.u64_at(master, rng.TAG_LAYER, idx) & rng.SIGN_BIT)


# ---------------------------------------------------------------------------
# stream keys


_M64 = 2 ** 64 - 1
_TAGS = {name: v for name, v in vars(rng).items() if name.startswith("TAG_")}


def _mix_ref(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _stream_key_ref(seed: int, tag: int) -> int:
    """The uncached key: mix(seed ^ mix(tag * gamma + gamma)), in Python ints."""
    g = 0x9E3779B97F4A7C15
    return _mix_ref((seed & _M64) ^ _mix_ref((tag * g + g) & _M64))


@pytest.mark.parametrize("tag", list(_TAGS.values()), ids=list(_TAGS))
def test_stream_key_matches_uncached_formula(tag):
    for seed in (0, 2 ** 64 - 1):
        assert int(rng._stream_key(seed, tag)) == _stream_key_ref(seed, tag)
    seeds = rng.sub_seeds(3, 0, 9).reshape(3, 3)
    keys = rng._stream_key(seeds, tag)
    assert keys.shape == (3, 3) and keys.dtype == np.uint64
    assert [int(k) for k in keys.ravel()] == \
        [_stream_key_ref(int(s), tag) for s in seeds.ravel()]


def test_stream_key_cannot_be_changed_by_callers():
    want = _stream_key_ref(5, rng.TAG_LAYER)
    key = rng._stream_key(5, rng.TAG_LAYER)
    key ^= np.uint64(0xFFFF)
    tag_key = rng._tag_key(rng.TAG_LAYER)
    tag_key ^= np.uint64(0xFFFF)
    assert int(rng._stream_key(5, rng.TAG_LAYER)) == want
    seeds = np.array([5, 6], dtype=np.uint64)
    keys = rng._stream_key(seeds, rng.TAG_LAYER)
    keys ^= np.uint64(1)
    assert int(rng._stream_key(seeds, rng.TAG_LAYER)[0]) == want


def test_tag_keys_are_not_mixed_at_import():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import rbclab.cli\nfrom rbclab import rng\n"
            "print(rng._tag_key.cache_info().currsize)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0"]


def test_no_overflow_warnings():
    with np.errstate(over="raise"):
        rng.stream_u64(123, rng.TAG_SITE, 0, 100)
        rng.sub_seed(999, 999)
        rng.site_codes(_CODE_SITES_1D + [-(2 ** 62)])
        rng.site_codes(_CODE_SITES_2D)
        rng.bond_codes(_CODE_PAIRS_1D)
        rng.bond_codes(_CODE_PAIRS_2D)
