"""Config validation and end-to-end experiment runs through the CLI."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbclab.config import (_COMMON, KEYS, ConfigError, resolve_config,
                           validate_config)
from rbclab.experiments import _fmt, run_experiment

REPO = Path(__file__).resolve().parents[1]


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "rbclab.cli", *args],
                          capture_output=True, text=True)


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=2) + "\n")
    return str(p)


GAUGE_CFG = {"experiment": "gauge-check", "size": 5, "kernel": "nn",
             "n_seeds": 12, "master_seed": 3}


# ---------------------------------------------------------------------------
# validate


def test_shipped_configs_validate():
    for cfg in sorted((REPO / "configs").glob("*.json")):
        res = _cli("validate", str(cfg))
        assert res.returncode == 0, res.stderr
        assert "ok" in res.stdout


# configs that `validate` once accepted and `run` then rejected: the scaling
# fit's size count, sample count and size span, and the batch-means floor
FIT_PROBES = [
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [10, 100], "n_seeds": 1000}, "sizes"),
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [10, 100, 1000, 10000], "n_seeds": 50}, "n_seeds"),
    ({"experiment": "scaling", "family": "nn2d",
      "sizes": [16, 32, 64, 128]}, "sizes"),
    ({"experiment": "oracle-vs-mc", "families": ["nn_ising"],
      "n_sweeps": 110}, "n_sweeps"),
]
FIT_PROBE_IDS = ["fit-sizes", "fit-samples", "fit-span", "batch-samples"]


@pytest.mark.parametrize("payload,needle", [
    ({"experiment": "annealing"}, "experiment"),
    ({"experiment": "scaling", "family": "dyson", "alpha": 2.5}, "alpha"),
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [100, 50]}, "sizes"),
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "frobnicate": 1}, "frobnicate"),
    ({"experiment": "window", "family": "dyson", "alpha": 1.25,
      "threshold": 1.0, "delta": 0.25}, "threshold"),
    ({"experiment": "oracle-vs-mc", "size": 30}, "size"),
    ({"experiment": "metastate", "alpha": 1.25, "mode": "exact_gibbs_fit",
      "size": 30}, "size"),
    ({"experiment": "metastate", "alpha": 1.25, "mode": "exact_gibbs_fit",
      "sequence": {"kind": "geometric", "budget": 200, "start": 4}},
     "sequence"),
    ({"experiment": "metastate", "family": "ea", "mode": "exact_gibbs_fit",
      "size": 8}, "interaction_seed"),
    ({"experiment": "window", "family": "dyson", "alpha": 1.25,
      "threshold": 1.0, "sequence": {"kind": "geometric", "budget": 10}},
     "sequence"),
] + FIT_PROBES, ids=["experiment", "alpha-range", "sizes-order", "unknown-key",
                     "threshold-and-delta", "oracle-size", "exact-fit-size",
                     "exact-fit-sequence", "exact-fit-disorder",
                     "sequence-too-short"] + FIT_PROBE_IDS)
def test_validate_rejects_bad_configs(tmp_path, payload, needle):
    path = _write(tmp_path, "bad.json", payload)
    res = _cli("validate", path)
    assert res.returncode == 2
    assert needle in res.stderr


def test_validate_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "bad.json",
                  {"experiment": "scaling", "family": "dyson", "alpha": 2.5})
    res = _cli("validate", path)
    lines = Path(path).read_text().splitlines()
    alpha_line = next(i + 1 for i, l in enumerate(lines) if '"alpha"' in l)
    assert f"bad.json:{alpha_line}:" in res.stderr


@pytest.mark.parametrize("payload,key", [
    ({"experiment": "scaling", "n_seeds": 1000, "family": "ising",
      "sizes": [16, 32]}, "family"),
    ({"experiment": "metastate", "alpha": 1.25, "size": 8, "mode": "annealed",
      "n_seeds": 5}, "mode"),
    ({"experiment": "csd", "alpha": 1.25, "n_seeds": 5,
      "sequence": {"budget": 100000, "kind": "cubic"}}, "kind"),
] + FIT_PROBES, ids=["family", "mode", "sequence-kind"] + FIT_PROBE_IDS)
def test_line_hint_points_at_the_offending_key(tmp_path, payload, key):
    # each message quotes a value before (or instead of) its key
    path = _write(tmp_path, "bad.json", payload)
    res = _cli("validate", path)
    lines = Path(path).read_text().splitlines()
    key_line = next(i + 1 for i, l in enumerate(lines) if f'"{key}"' in l)
    assert res.returncode == 2
    assert f"bad.json:{key_line}:" in res.stderr, res.stderr


@pytest.mark.parametrize("flag,value,key", [
    ("--workers", "0", "workers"),
    ("--master-seed", str(2**64), "master_seed"),
    ("--master-seed", "-1", "master_seed"),
])
def test_cli_overrides_are_validated(tmp_path, flag, value, key):
    cfg = _write(tmp_path, "gauge.json", GAUGE_CFG)
    res = _cli("run", cfg, "--output", str(tmp_path / "o"), flag, value)
    assert res.returncode == 2
    assert f"error: {key} must be" in res.stderr
    assert not (tmp_path / "o").exists()


def test_missing_and_malformed_files(tmp_path):
    assert _cli("validate", str(tmp_path / "nope.json")).returncode == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _cli("validate", str(broken)).returncode == 2


def test_validate_config_api_collects_all_diagnostics():
    diags = validate_config({"experiment": "scaling", "family": "dyson",
                             "alpha": 3.0, "n_seeds": -1})
    assert len(diags) >= 2
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "scaling", "family": "dyson", "alpha": 3.0})


def test_resolve_fills_defaults():
    data = resolve_config({"experiment": "scaling", "family": "dyson",
                           "alpha": 1.25})
    assert data["sizes"] == [100, 1000, 10000, 100000]
    assert data["n_seeds"] == 2000
    assert data["master_seed"] == 0


# ---------------------------------------------------------------------------
# run (small workloads; CSV and JSON contracts)


def test_run_writes_csv_and_summary(tmp_path):
    cfg = _write(tmp_path, "gauge.json", GAUGE_CFG)
    res = _cli("run", cfg, "--output", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    csv_path = tmp_path / "out" / "gauge-check.csv"
    summary_path = tmp_path / "out" / "gauge-check_summary.json"
    assert csv_path.exists() and summary_path.exists()
    lines = csv_path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    header = next(l for l in lines if not l.startswith("#"))
    # every column is documented in the comment block
    for col in header.split(","):
        assert any(col in c for c in comments), col
    summary = json.loads(summary_path.read_text())
    assert summary["experiment"] == "gauge-check"
    assert summary["results"]["n_pass"] == 12
    assert summary["n_rows"] == 12
    assert summary["data_file"] == "gauge-check.csv"
    assert "versions" in summary and "wall_time_s" in summary


def test_rerun_and_worker_count_are_byte_identical(tmp_path):
    # 600 seeds spill across several scheduler chunks, so the 4-worker run
    # really partitions the work before the byte comparison
    base = {"experiment": "metastate", "alpha": 1.5, "beta": 1.0, "size": 32,
            "n_seeds": 600, "master_seed": 9}
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        run_experiment(dict(base), output_dir=str(out), workers=workers)
        outs.append((out / "metastate.csv").read_bytes())
    assert outs[0] == outs[1]  # rerun
    assert outs[0] == outs[2]  # worker-count invariance
    summaries = [json.loads((tmp_path / t / "metastate_summary.json").read_text())
                 for t in ("a", "c")]
    for s in summaries:
        s.pop("wall_time_s")
        s["config"].pop("workers", None)
        s["config"].pop("output_dir", None)
    assert summaries[0] == summaries[1]


def test_master_seed_changes_the_data(tmp_path):
    cfg = dict(GAUGE_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(dict(cfg), output_dir=str(a))
    run_experiment(dict(cfg, master_seed=4), output_dir=str(b))
    assert (a / "gauge-check.csv").read_bytes() != (b / "gauge-check.csv").read_bytes()


def test_cli_master_seed_override(tmp_path):
    cfg = _write(tmp_path, "gauge.json", GAUGE_CFG)
    r1 = _cli("run", cfg, "--output", str(tmp_path / "o1"), "--master-seed", "5")
    r2 = _cli("run", cfg, "--output", str(tmp_path / "o2"), "--master-seed", "5")
    r3 = _cli("run", cfg, "--output", str(tmp_path / "o3"))
    assert r1.returncode == r2.returncode == r3.returncode == 0
    b1 = (tmp_path / "o1" / "gauge-check.csv").read_bytes()
    b2 = (tmp_path / "o2" / "gauge-check.csv").read_bytes()
    b3 = (tmp_path / "o3" / "gauge-check.csv").read_bytes()
    assert b1 == b2
    assert b1 != b3
    summary = json.loads((tmp_path / "o1" / "gauge-check_summary.json").read_text())
    assert summary["config"]["master_seed"] == 5


def test_run_scaling_emits_fit_results(tmp_path):
    payload = {"experiment": "scaling", "family": "dyson", "alpha": 1.25,
               "sizes": [10, 100, 200, 1000], "n_seeds": 1000,
               "master_seed": 1, "workers": 2}
    summary = run_experiment(payload, output_dir=str(tmp_path / "s"))
    res = summary["results"]
    assert abs(res["sampled_exponent"] - res["exact_exponent"]) < 0.1
    assert res["tail_vs_zeta_max_rel_diff"] < 1e-6
    rows = [l for l in (tmp_path / "s" / "scaling.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) - 1 == 4 * 1000  # header + (size, seed) pairs


@pytest.mark.parametrize("value,text", [
    (True, "1"), (np.bool_(False), "0"), (5, "5"), (np.int64(5), "5"),
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (-0.0, "-0.0"),
    (np.float64(-0.0), "-0.0"), (float("inf"), "inf"), (float("nan"), "nan"),
    (np.float32(0.1), "0.10000000149011612"), ("dyson", "dyson")])
def test_csv_cells_are_pinned(value, text):
    assert _fmt(value) == text


def test_run_rejects_invalid_config(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"experiment": "scaling",
                                        "family": "dyson", "alpha": 9.0})
    res = _cli("run", cfg, "--output", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "alpha" in res.stderr


# CSV digests recorded with the per-realization boundary loops, before
# realizations were drawn in row blocks. Each config puts several row blocks
# into one scheduler chunk, chunks start at seed offsets that are not block
# multiples, and stream lengths are odd or not powers of two; the second
# metastate case negates the boundary. The boundary-energy digests were
# re-recorded when W stopped calling BLAS (a 1-D ddot split across threads
# changed its low bits), the exact_gibbs_fit digests when lambda became the
# midpoint of the exact weighted-median interval: N = 16 flips the boundary,
# and the EA case fixes the couplings through interaction_seed. The EA
# digest was re-recorded when an exact fit of 0 or 1 stopped being clamped
# 5e-13 inside [0, 1] on its way into the CSV. The gauge-
# check digests (the shipped power-kernel config and an nn box) were
# recorded with the pair-loop coupling builders, the oracle digest once the
# exact expectations stopped calling BLAS (2^14-entry tables are where a
# 1-D ddot starts to split across threads). The last four were recorded while
# experiments still built their own chunk tasks and oracle trial list: trial
# index -> (family, beta) over several betas, a window over a sequence with
# delta, csd against the plus boundary, and an exact fit over a five-term
# sequence in two spans. Every digest must hold at one and at two workers.
ANCHORED = {
    "scaling-dyson": (
        {"experiment": "scaling", "family": "dyson", "alpha": 1.25,
         "sizes": [100, 1001, 4099, 12345], "n_seeds": 1100, "master_seed": 3},
        "e8f85e1f1079fb842953cd33bae5639afb2b378220b73abc079963c69c200050"),
    "scaling-nn2d": (
        {"experiment": "scaling", "family": "nn2d", "sizes": [16, 50, 160, 999],
         "n_seeds": 1100, "master_seed": 4},
        "198d3ca1db0808de589e8b5136c03b7cce21b7741111043f08acee2f663264d0"),
    "window-dyson": (
        {"experiment": "window", "family": "dyson", "alpha": 1.25,
         "sizes": [300, 2500, 9999], "threshold": 1.0, "n_seeds": 700,
         "master_seed": 5},
        "de4cfffe45971032d8039b24cee0d8c022881f32f3e7eca741dc55c98bc73a55"),
    "window-nn2d": (
        {"experiment": "window", "family": "nn2d", "sizes": [20, 333, 2048],
         "delta": 0.3, "n_seeds": 700, "master_seed": 6},
        "3b6270f683b1d57148bb75fb78585fdc00f244ade61b42118154b2d146a293cc"),
    # a 4 * 17000-word layer row exceeds boundary.BLOCK: one row per block
    "window-nn2d-wide": (
        {"experiment": "window", "family": "nn2d", "sizes": [20, 4100, 17000],
         "delta": 0.3, "n_seeds": 300, "master_seed": 11},
        "6eb0747d48fb9981612792d316088d5a6456c0b33982d44784b4daeb831740cb"),
    "metastate": (
        {"experiment": "metastate", "alpha": 1.5, "beta": 1.0, "size": 1234,
         "n_seeds": 600, "master_seed": 7},
        "94e506fa953b261151980c1b5caaef46fec9473e7236ac95001dea571e3b0d0c"),
    "metastate-flip": (
        {"experiment": "metastate", "alpha": 1.25, "beta": 2.0,
         "sequence": {"kind": "geometric", "budget": 3000, "ratio": 3,
                      "start": 7},
         "flip_disorder": True, "n_seeds": 300, "master_seed": 8},
        "85997621fcbb81055506bffb7d346b2c4909fb2cc307bf26f12fac233e9a9f01"),
    "csd": (
        {"experiment": "csd", "alpha": 1.25,
         "sequence": {"kind": "geometric", "budget": 32766, "ratio": 2,
                      "start": 2},
         "n_seeds": 60, "master_seed": 9},
        "f52da6c369fc207f25cb1b8fa83a0311231afa20b83e8006dcd961695d139a26"),
    "exact-fit": (
        {"experiment": "metastate", "mode": "exact_gibbs_fit", "alpha": 1.25,
         "beta": 2.0, "size": 12, "n_seeds": 6, "master_seed": 3},
        "370542650d96aa6069537a697a1cb7e52fe22a244fcff7de1aa7e30faf23cab1"),
    "exact-fit-flip16": (
        {"experiment": "metastate", "mode": "exact_gibbs_fit", "alpha": 1.25,
         "beta": 2.0, "size": 16, "flip_disorder": True, "n_seeds": 2,
         "master_seed": 5},
        "2146e3c41f55b6080c3bb63b6a38c53f8fe6482a2129ed79a656ec4cabac7b03"),
    "exact-fit-ea": (
        {"experiment": "metastate", "mode": "exact_gibbs_fit", "family": "ea",
         "beta": 1.5, "size": 10, "interaction_seed": 11, "n_seeds": 8,
         "master_seed": 2},
        "80d1b18cb437f6026ac4c1f22e8dff7c84a5e957845e1fe6ddbe0c88e175effe"),
    "gauge-check": (
        {"experiment": "gauge-check", "size": 6, "kernel": "power",
         "alpha": 1.5, "beta": 1.0, "n_seeds": 100, "master_seed": 0},
        "51c2fe2567b2e72179820af8f5c4e1c1293aabb2a2a4fe51e349f92a294858e4"),
    "gauge-check-nn-box": (
        {"experiment": "gauge-check", "kernel": "nn", "dimension": 2,
         "size": 4, "n_seeds": 12, "master_seed": 3},
        "e331c895c585cf4316ceaeb129d625ae209b5677a2f15abb2701970685e708f4"),
    "oracle-vs-mc-14": (
        {"experiment": "oracle-vs-mc", "families": ["nn_ising", "dyson", "ea"],
         "betas": [0.5], "size": 14, "n_sweeps": 200, "n_seeds": 2,
         "master_seed": 1},
        "1473aba865dbafd8e24630fb77b7a4abc634bfd4dc10ab00be01fedc4d35e094"),
    "oracle-vs-mc-betas": (
        {"experiment": "oracle-vs-mc", "families": ["nn_ising", "mattis", "rfim"],
         "betas": [0.5, 0.25], "size": 6, "n_sweeps": 200, "n_seeds": 2,
         "master_seed": 4},
        "e9bac17daa77915b2231a64faf0463f1febc2c96160dc62487e9a7f18e705cd4"),
    "window-sequence": (
        {"experiment": "window", "family": "dyson", "alpha": 1.25,
         "sequence": {"kind": "linear", "budget": 1000, "step": 100},
         "delta": 0.25, "n_seeds": 1200, "master_seed": 2},
        "b43f2b82bf932c517e6ee600a45763a4f999e7c343fc4a6a26ddbe15657221ee"),
    "csd-plus": (
        {"experiment": "csd", "alpha": 1.25,
         "sequence": {"kind": "geometric", "budget": 32766},
         "n_seeds": 60, "boundary": "plus"},
        "02f4309b0ccb94665e0bde492052a08a3c72ea1dc7743f40b762afe378947a19"),
    "exact-fit-sequence": (
        {"experiment": "metastate", "mode": "exact_gibbs_fit", "alpha": 1.5,
         "beta": 1.0, "sequence": {"kind": "linear", "budget": 30, "step": 2},
         "n_seeds": 30, "master_seed": 1},
        "50c01a042e446cc4f3e40429d52fb5b715683465cff60cc83ceb74814ebdce06"),
}


@pytest.mark.parametrize("case", list(ANCHORED))
def test_csv_digests_are_anchored(tmp_path, case):
    payload, digest = ANCHORED[case]
    summary = run_experiment(dict(payload), output_dir=str(tmp_path))
    raw = Path(summary["csv_path"]).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("case", list(ANCHORED))
def test_csv_digests_are_anchored_at_two_workers(tmp_path, case):
    # the same anchors when the spans are drawn in two worker processes
    payload, digest = ANCHORED[case]
    summary = run_experiment(dict(payload), output_dir=str(tmp_path),
                             workers=2)
    raw = Path(summary["csv_path"]).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest


_DIGEST = """
import hashlib, json, sys, tempfile
from pathlib import Path
from rbclab.experiments import run_experiment
with tempfile.TemporaryDirectory() as out:
    for payload in json.loads(sys.argv[1]):
        csv = run_experiment(payload, output_dir=out)["csv_path"]
        print(hashlib.sha256(Path(csv).read_bytes()).hexdigest())
"""


def test_boundary_digests_do_not_depend_on_blas_threads():
    # the anchored cases that sum boundary energies, and an oracle run whose
    # exact expectations sum 2^14 table entries, each under a one- and a
    # two-thread OpenBLAS; neither sum calls BLAS, so the bits agree
    cases = ["scaling-dyson", "metastate", "metastate-flip", "csd",
             "oracle-vs-mc-14"]
    payloads = json.dumps([ANCHORED[c][0] for c in cases])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    digests = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        res = subprocess.run([sys.executable, "-c", _DIGEST, payloads],
                             capture_output=True, text=True, env=env,
                             timeout=600)
        assert res.returncode == 0, res.stderr
        digests.append(res.stdout.split())
    assert digests[0] == digests[1] == [ANCHORED[c][1] for c in cases]


def test_readme_lists_every_config_key():
    text = (REPO / "README.md").read_text()
    common = re.search(r"^Common config keys: ([^.]*)\.", text, re.M)
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", common.group(1)))
    assert set(listed) == set(_COMMON)
    for exp, table in KEYS.items():
        keys = set(table) - set(_COMMON)
        # the bullet and its indented continuation lines
        line = re.search(rf"^- `{re.escape(exp)}`: (.*(?:\n  .*)*)", text, re.M)
        assert line, exp
        # backticked words outside parentheses are keys; inside, values
        listed = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", line.group(1)))
        assert set(listed) == keys, exp


def test_readme_quick_start_runs():
    text = (REPO / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", text, re.M | re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
