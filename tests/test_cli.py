"""Config validation and end-to-end experiment runs through the CLI."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rbclab.config import (_EXPERIMENT_KEYS, ConfigError, resolve_config,
                           validate_config)
from rbclab.experiments import run_experiment

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
], ids=["experiment", "alpha-range", "sizes-order", "unknown-key",
        "threshold-and-delta", "oracle-size", "exact-fit-size",
        "exact-fit-sequence", "exact-fit-disorder", "sequence-too-short"])
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
# metastate case negates the boundary. The exact_gibbs_fit digests were
# recorded with the broadcast lambda grid, before it ran in a cache-sized
# buffer: N = 12 gives 16 grid rows per buffer, N = 16 one row, and the EA
# case fixes the couplings through interaction_seed.
@pytest.mark.parametrize("payload,digest", [
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [100, 1001, 4099, 12345], "n_seeds": 1100, "master_seed": 3},
     "bb089ae94077b8d353782730b9235c826ee13dd095f4c304b542921ed705c3e0"),
    ({"experiment": "scaling", "family": "nn2d", "sizes": [16, 50, 160, 999],
      "n_seeds": 1100, "master_seed": 4},
     "198d3ca1db0808de589e8b5136c03b7cce21b7741111043f08acee2f663264d0"),
    ({"experiment": "window", "family": "dyson", "alpha": 1.25,
      "sizes": [300, 2500, 9999], "threshold": 1.0, "n_seeds": 700,
      "master_seed": 5},
     "de4cfffe45971032d8039b24cee0d8c022881f32f3e7eca741dc55c98bc73a55"),
    ({"experiment": "window", "family": "nn2d", "sizes": [20, 333, 2048],
      "delta": 0.3, "n_seeds": 700, "master_seed": 6},
     "3b6270f683b1d57148bb75fb78585fdc00f244ade61b42118154b2d146a293cc"),
    ({"experiment": "metastate", "alpha": 1.5, "beta": 1.0, "size": 1234,
      "n_seeds": 600, "master_seed": 7},
     "091bd28c1f5f694f94234991d75f637f512f87807584c05092a70de338287680"),
    ({"experiment": "metastate", "alpha": 1.25, "beta": 2.0,
      "sequence": {"kind": "geometric", "budget": 3000, "ratio": 3, "start": 7},
      "flip_disorder": True, "n_seeds": 300, "master_seed": 8},
     "b311054ce5f86871f828ec064f233f307ffd203a6b57d1a3130531ec6ad0ccc0"),
    ({"experiment": "csd", "alpha": 1.25,
      "sequence": {"kind": "geometric", "budget": 32766, "ratio": 2, "start": 2},
      "n_seeds": 60, "master_seed": 9},
     "b2a6eb842a2afe726147d722a3522dec1af8b88daf77547faec22842dfda5660"),
    ({"experiment": "metastate", "mode": "exact_gibbs_fit", "alpha": 1.25,
      "beta": 2.0, "size": 12, "n_seeds": 6, "master_seed": 3},
     "730fdc07225e0db20bf8d33d8cba25bc4b3968942131b712a33bc926d9096f9b"),
    ({"experiment": "metastate", "mode": "exact_gibbs_fit", "alpha": 1.25,
      "beta": 2.0, "size": 16, "flip_disorder": True, "n_seeds": 2,
      "master_seed": 5},
     "229bdb8876a0370bdfba7b118efa78471c599cb059ed0dd092027ea9fcc9200a"),
    ({"experiment": "metastate", "mode": "exact_gibbs_fit", "family": "ea",
      "beta": 1.5, "size": 10, "interaction_seed": 11, "n_seeds": 8,
      "master_seed": 2},
     "32f844cbf4d568241a629de1dd1c961770eeb5f26d728e68c8f546e51724b25f"),
], ids=["scaling-dyson", "scaling-nn2d", "window-dyson", "window-nn2d",
        "metastate", "metastate-flip", "csd", "exact-fit", "exact-fit-flip16",
        "exact-fit-ea"])
def test_csv_digests_are_anchored(tmp_path, payload, digest):
    summary = run_experiment(dict(payload), output_dir=str(tmp_path))
    raw = Path(summary["csv_path"]).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest


def test_readme_lists_every_config_key():
    text = (REPO / "README.md").read_text()
    for exp, keys in _EXPERIMENT_KEYS.items():
        # the bullet and its indented continuation lines
        line = re.search(rf"^- `{re.escape(exp)}`: (.*(?:\n  .*)*)", text, re.M)
        assert line, exp
        # backticked words outside parentheses are keys; inside, values
        listed = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", line.group(1)))
        assert set(listed) == keys, exp
