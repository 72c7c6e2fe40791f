"""Config schema: resolved dicts and diagnostics pinned to recorded cases.

Both tables below were recorded with the hand-written validation that
preceded the key table in `rbclab.config`: `resolved_configs.json` holds the
exact `resolve_config` output for every shipped config, the benchmark
workload configs and every accepted config of `tests/test_cli.py`; CORPUS
holds bad configs with the keys their diagnostics are about.
"""

import json
from pathlib import Path

import pytest

from rbclab.config import KEYS, ConfigError, resolve_config, validate_config

REPO = Path(__file__).resolve().parents[1]
RESOLVED = json.loads((Path(__file__).parent / "resolved_configs.json").read_text())
NAN = float("nan")
INF = float("inf")
SEQ = {"kind": "sparse", "budget": 100000}


def _config_of(case):
    if case["source"].startswith("configs/"):
        return json.loads((REPO / case["source"]).read_text())
    return case["config"]


def test_every_shipped_config_is_recorded():
    recorded = {c["source"] for c in RESOLVED}
    assert {f"configs/{p.name}" for p in (REPO / "configs").glob("*.json")} <= recorded


@pytest.mark.parametrize("case", RESOLVED, ids=lambda c: c["source"])
def test_resolve_config_matches_recorded_dict(case):
    cfg = resolve_config(_config_of(case))
    # json text also pins key order and int versus float
    assert json.dumps(cfg) == json.dumps(case["resolved"])


def test_resolved_defaults_are_not_shared():
    a = resolve_config({"experiment": "oracle-vs-mc"})
    a["families"].append("x")
    a["betas"].append(9.0)
    b = resolve_config({"experiment": "oracle-vs-mc"})
    assert b["families"] == ["nn_ising", "dyson", "mattis", "rfim", "ea"]
    assert b["betas"] == [0.5, 1.0, 2.0]


# (config, keys the diagnostics are about); an empty set means accepted.
# Marked cases were accepted before non-finite numbers, booleans for
# integers, null for a key that has no default, and seeds outside
# [0, 2**64) were rejected; every one of them failed at run time or aliased
# another seed. The two geometric-ratio cases were rejected under the key
# "sequence" (NaN) or raised OverflowError (Infinity). Cases marked "fit"
# were accepted before the scaling fit's size, span and sample rules and the
# batch-means sample floor were checked at validation; each failed at run
# time.
CORPUS = [
    # scaling
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "master_seed": "7", "n_seeds": 0, "workers": -1, "output_dir": 5},
     {"master_seed", "n_seeds", "workers", "output_dir"}),
    ({"experiment": "scaling", "family": "ising", "statistic": "median",
      "alpha": 2.5, "sizes": [10, 10]},
     {"family", "statistic", "alpha", "sizes"}),
    ({"experiment": "scaling", "family": "dyson"}, {"alpha"}),
    ({"experiment": "scaling", "family": "nn2d", "frobnicate": 1}, {"frobnicate"}),
    ({"experiment": "scaling", "family": "nn2d", "sizes": [16, 32], "alpha": 2,
      "master_seed": 2**64 - 1}, {"sizes"}),                      # marked fit
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [100, 50]}, {"sizes"}),
    ({"experiment": "scaling", "family": "dyson", "alpha": 3.0, "n_seeds": -1},
     {"alpha", "n_seeds"}),
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": None}, {"sizes"}),                                  # marked
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [10, 100], "n_seeds": 1000}, {"sizes"}),            # marked fit
    ({"experiment": "scaling", "family": "dyson", "alpha": 1.25,
      "sizes": [10, 100, 1000, 10000], "n_seeds": 50}, {"n_seeds"}),  # marked fit
    ({"experiment": "scaling", "family": "nn2d",
      "sizes": [16, 32, 64, 128]}, {"sizes"}),                     # marked fit
    # window
    ({"experiment": "window", "family": "nn3d", "sizes": [5], "threshold": 0,
      "master_seed": 1.5, "n_seeds": "10", "workers": 0, "output_dir": None},
     {"family", "sizes", "threshold", "master_seed", "n_seeds", "workers",
      "output_dir"}),
    ({"experiment": "window", "family": "dyson", "alpha": 1.0,
      "sequence": "linear", "delta": "0.3"}, {"alpha", "sequence", "delta"}),
    ({"experiment": "window", "family": "nn2d", "sizes": [10, 20],
      "sequence": {"kind": "linear", "budget": 1000}}, {"sizes", "threshold"}),
    ({"experiment": "window", "family": "dyson", "alpha": 1.25,
      "threshold": 1.0, "delta": 0.25}, {"sizes", "threshold"}),
    ({"experiment": "window", "sizes": [10, 20], "delta": 0.3}, {"alpha"}),
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "cubic", "budget": 0}},
     {"sequence.kind", "sequence.budget"}),
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "linear", "budget": 1000, "step": 0}},
     {"sequence.step"}),
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "geometric", "budget": 1000, "ratio": 1.0,
                   "start": 0}}, {"sequence.ratio", "sequence.start"}),
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "sparse", "budget": 100000, "extra": 1}},
     {"sequence.extra"}),
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "geometric", "budget": 10}}, {"sequence"}),
    ({"experiment": "window", "family": "dyson", "alpha": 1.25,
      "threshold": 1.0, "sequence": {"kind": "geometric", "budget": 10}},
     {"sequence"}),
    # a kind ignores the keys it does not read
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "sparse", "budget": 100000, "ratio": 0.5,
                   "step": "x"}}, set()),
    ({"experiment": "window", "family": "nn2d", "sizes": [10, 20],
      "site_budget": 9, "threshold": 1}, {"site_budget"}),
    ({"experiment": "window", "family": "nn2d", "sizes": [10, 20],
      "threshold": NAN}, {"threshold"}),                           # marked
    ({"experiment": "window", "family": "nn2d", "sizes": [10, 20],
      "delta": INF}, {"delta"}),                                   # marked
    ({"experiment": "window", "family": "nn2d", "sizes": None,
      "delta": 0.3}, {"sizes"}),                                   # marked
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "geometric", "budget": 1000, "ratio": NAN}},
     {"sequence.ratio"}),                                          # marked
    ({"experiment": "window", "family": "nn2d", "delta": 0.3,
      "sequence": {"kind": "geometric", "budget": 1000, "ratio": INF}},
     {"sequence.ratio"}),                                          # marked
    # metastate
    ({"experiment": "metastate", "family": "potts", "alpha": 3, "beta": -1,
      "size": 0, "mode": "annealed", "window": 0, "interaction_seed": "x",
      "flip_disorder": 1},
     {"family", "alpha", "beta", "size", "mode", "window", "interaction_seed",
      "flip_disorder"}),
    ({"experiment": "metastate", "alpha": 1.25, "sequence": [1, 2],
      "master_seed": "0", "n_seeds": 2.0, "workers": "2", "output_dir": ["r"]},
     {"sequence", "master_seed", "n_seeds", "workers", "output_dir"}),
    ({"experiment": "metastate", "family": "ea", "size": 8}, {"family"}),
    ({"experiment": "metastate", "alpha": 1.25, "mode": "exact_gibbs_fit",
      "size": 30}, {"size"}),
    ({"experiment": "metastate", "alpha": 1.25, "mode": "exact_gibbs_fit",
      "sequence": {"kind": "geometric", "budget": 200, "start": 4}},
     {"sequence"}),
    ({"experiment": "metastate", "family": "ea", "mode": "exact_gibbs_fit",
      "size": 8}, {"interaction_seed"}),
    ({"experiment": "metastate", "alpha": 1.25, "size": 8, "sequence": SEQ},
     {"size"}),
    ({"experiment": "metastate", "alpha": 1.25}, {"size"}),
    ({"experiment": "metastate", "size": 8}, {"alpha"}),
    ({"experiment": "metastate", "family": "ea", "mode": "exact_gibbs_fit",
      "size": 8, "interaction_seed": 2**64 - 1, "master_seed": 0,
      "flip_disorder": True}, set()),
    ({"experiment": "metastate", "alpha": 1.25, "size": 8, "beta": NAN},
     {"beta"}),                                                    # marked
    ({"experiment": "metastate", "alpha": 1.25, "size": 8, "master_seed": -1},
     {"master_seed"}),                                             # marked
    ({"experiment": "metastate", "alpha": 1.25, "size": 8,
      "master_seed": 2**64, "interaction_seed": -1},
     {"master_seed", "interaction_seed"}),                         # marked
    ({"experiment": "metastate", "alpha": 1.25, "size": 8,
      "master_seed": 2**70, "interaction_seed": 2**64},
     {"master_seed", "interaction_seed"}),                         # marked
    ({"experiment": "metastate", "alpha": 1.25, "size": None},
     {"size"}),                                                    # marked
    ({"experiment": "metastate", "alpha": 1.25, "sequence": None},
     {"sequence"}),                                                # marked
    # csd
    ({"experiment": "csd", "alpha": 0.5, "sequence": SEQ, "boundary": "minus",
      "master_seed": True, "n_seeds": [], "workers": 1.5, "output_dir": 7},
     {"alpha", "boundary", "master_seed", "n_seeds", "workers", "output_dir"}),
    ({"experiment": "csd"}, {"alpha", "sequence"}),
    ({"experiment": "csd", "alpha": 1.25, "sequence": "sparse"}, {"sequence"}),
    # gauge-check
    ({"experiment": "gauge-check", "size": 25, "kernel": "cubic", "alpha": 2.5,
      "dimension": 3, "beta": "hot", "master_seed": None, "n_seeds": -5,
      "workers": 0, "output_dir": False},
     {"size", "kernel", "alpha", "dimension", "beta", "master_seed", "n_seeds",
      "workers", "output_dir"}),
    ({"experiment": "gauge-check", "kernel": "power"}, {"alpha"}),
    ({"experiment": "gauge-check", "kernel": "power", "alpha": 1.5,
      "dimension": 2, "size": 4}, {"kernel"}),
    ({"experiment": "gauge-check", "dimension": 2, "size": 5}, {"size"}),
    ({"experiment": "gauge-check", "dimension": 2, "size": 4}, set()),
    ({"experiment": "gauge-check", "dimension": True}, {"dimension"}),  # marked
    ({"experiment": "gauge-check", "beta": INF}, {"beta"}),             # marked
    # oracle-vs-mc
    ({"experiment": "oracle-vs-mc", "families": ["dyson", "potts"],
      "betas": [], "size": 1, "alpha": 1.0, "n_sweeps": 99, "master_seed": "s",
      "n_seeds": 0, "workers": "many", "output_dir": 1},
     {"families", "betas", "size", "alpha", "n_sweeps", "master_seed",
      "n_seeds", "workers", "output_dir"}),
    ({"experiment": "oracle-vs-mc", "size": 30}, {"size"}),
    ({"experiment": "oracle-vs-mc", "families": ["nn_ising"],
      "n_sweeps": 110}, {"n_sweeps"}),                             # marked fit
    ({"experiment": "oracle-vs-mc", "betas": [0.5, NAN]}, {"betas"}),   # marked
    ({"experiment": "oracle-vs-mc", "families": "dyson", "betas": [-1]},
     {"families", "betas"}),
    # experiment
    ({"experiment": "annealing"}, {"experiment"}),
    ({"master_seed": 0}, {"experiment"}),
]


@pytest.mark.parametrize("payload,keys", CORPUS)
def test_diagnostics_name_their_keys(payload, keys):
    diagnostics = validate_config(payload)
    assert {d.key for d in diagnostics} == keys
    for d in diagnostics:
        assert isinstance(d, str)
    if keys:
        with pytest.raises(ConfigError):
            resolve_config(payload)


def test_corpus_has_a_bad_value_for_every_key():
    named = {}
    for payload, keys in CORPUS:
        named.setdefault(payload.get("experiment"), set()).update(keys)
    for exp, table in KEYS.items():
        assert set(table) - {"experiment"} <= named[exp], exp
