"""Experiment configuration: JSON loading, validation, defaults.

A config is a flat JSON object.  `validate_config` returns a list of
diagnostics (empty = valid), each naming the offending key and the accepted
range, so the CLI can point at the config line.  `resolve_config` fills in
defaults and normalizes types; experiments consume the resolved dict.
"""

from __future__ import annotations

import json

from .exact import ENUMERATION_LIMIT
from .metastate import VolumeSequence, make_volume_sequence
from .models import FAMILIES

EXPERIMENTS = ("scaling", "window", "metastate", "csd", "gauge-check",
               "oracle-vs-mc")
SEQUENCE_KINDS = ("sparse", "linear", "geometric")
METASTATE_MODES = ("T0_weight", "exact_gibbs_fit")
# families whose couplings or fields come from a DisorderRealization
_DISORDERED_FAMILIES = ("mattis", "rfim", "ea")

# keys every experiment accepts
_COMMON_KEYS = {"experiment", "master_seed", "n_seeds", "workers", "output_dir"}

# per-experiment extras
_EXPERIMENT_KEYS = {
    "scaling": {"family", "alpha", "sizes", "statistic"},
    "window": {"family", "alpha", "sizes", "sequence", "threshold", "delta"},
    "metastate": {"family", "alpha", "beta", "size", "sequence", "mode",
                  "window", "interaction_seed", "flip_disorder"},
    "csd": {"alpha", "sequence", "boundary"},
    "gauge-check": {"size", "kernel", "alpha", "dimension", "beta"},
    "oracle-vs-mc": {"families", "alpha", "betas", "size", "n_sweeps"},
}

_DEFAULT_N_SEEDS = {
    "scaling": 2000,
    "window": 2000,
    "metastate": 2000,
    "csd": 100,
    "gauge-check": 100,
    "oracle-vs-mc": 34,   # trials per (family, beta)
}


class ConfigError(Exception):
    """Raised with the full diagnostics list when a config cannot be used."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def load_config(path: str) -> tuple[dict, str]:
    """Parse the JSON config; returns (data, raw text) for line hints."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"not valid JSON: {err.msg} (line {err.lineno})"])
    if not isinstance(data, dict):
        raise ConfigError(["config must be a JSON object of key/value pairs"])
    return data, text


def line_hint(text: str, key: str) -> int | None:
    """1-based line of the key's first occurrence in the raw config text."""
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


# ---------------------------------------------------------------------------
# validation


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _check_alpha(data, out, required):
    if "alpha" not in data:
        if required:
            out.append("missing key 'alpha'; power kernels need alpha in (1, 2]")
        return
    a = data["alpha"]
    if not _is_num(a) or not (1.0 < a <= 2.0):
        out.append(f"alpha must lie in (1, 2], got {a!r}")


def _check_sizes(data, out):
    sizes = data.get("sizes")
    if sizes is None:
        return
    if (not isinstance(sizes, list) or len(sizes) < 2
            or not all(_is_int(n) and n >= 1 for n in sizes)
            or any(b <= a for a, b in zip(sizes, sizes[1:]))):
        out.append("sizes must be a strictly increasing list of >= 2 positive integers")


def resolve_sequence(seq: dict) -> VolumeSequence:
    """The volume sequence a config's `sequence` object describes."""
    return make_volume_sequence(
        seq["kind"], seq["budget"], step=seq.get("step", 100),
        ratio=seq.get("ratio", 2.0), start=seq.get("start", 2))


def _check_sequence(data, out, required=False) -> tuple:
    """Checks the sequence object; returns its terms, () if it has none."""
    seq = data.get("sequence")
    if seq is None:
        if required:
            out.append(f"missing key 'sequence'; expected an object with kind in {SEQUENCE_KINDS}")
        return ()
    if not isinstance(seq, dict):
        out.append(f"sequence must be an object with kind in {SEQUENCE_KINDS} and a budget")
        return ()
    n_diagnostics = len(out)
    kind = seq.get("kind")
    if kind not in SEQUENCE_KINDS:
        out.append(f"sequence.kind must be one of {SEQUENCE_KINDS}, got {kind!r}")
    budget = seq.get("budget")
    if not _is_int(budget) or budget < 1:
        out.append(f"sequence.budget must be a positive integer (total site count), got {budget!r}")
    if kind == "linear" and not (_is_int(seq.get("step", 100)) and seq.get("step", 100) >= 1):
        out.append(f"sequence.step must be a positive integer, got {seq.get('step')!r}")
    if kind == "geometric":
        ratio = seq.get("ratio", 2.0)
        if not _is_num(ratio) or ratio <= 1.0:
            out.append(f"sequence.ratio must exceed 1, got {ratio!r}")
        start = seq.get("start", 2)
        if not _is_int(start) or start < 1:
            out.append(f"sequence.start must be a positive integer, got {start!r}")
    extra = set(seq) - {"kind", "budget", "step", "ratio", "start"}
    if extra:
        out.append(f"unknown sequence keys {sorted(extra)}; accepted: kind, budget, step, ratio, start")
    if len(out) > n_diagnostics:
        return ()
    try:
        return resolve_sequence(seq).terms
    except ValueError as err:
        out.append(f"sequence {err}")
        return ()


def validate_config(data: dict) -> list[str]:
    """Schema and range checks; returns diagnostics naming key and range."""
    out = []
    exp = data.get("experiment")
    if exp is None:
        return [f"missing key 'experiment'; valid experiments: {', '.join(EXPERIMENTS)}"]
    if exp not in EXPERIMENTS:
        return [f"unknown experiment {exp!r}; valid experiments: {', '.join(EXPERIMENTS)}"]

    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[exp]
    for key in sorted(set(data) - allowed):
        out.append(f"unknown key {key!r} for experiment {exp}; accepted keys: "
                   f"{', '.join(sorted(allowed))}")

    if "master_seed" in data and not _is_int(data["master_seed"]):
        out.append(f"master_seed must be an integer, got {data['master_seed']!r}")
    if "n_seeds" in data and (not _is_int(data["n_seeds"]) or data["n_seeds"] < 1):
        out.append(f"n_seeds must be a positive integer, got {data['n_seeds']!r}")
    if "workers" in data and (not _is_int(data["workers"]) or data["workers"] < 1):
        out.append(f"workers must be a positive integer, got {data['workers']!r}")
    if "output_dir" in data and not isinstance(data["output_dir"], str):
        out.append("output_dir must be a string path")
    if "beta" in data and (not _is_num(data["beta"]) or data["beta"] < 0):
        out.append(f"beta must be >= 0, got {data['beta']!r}")

    if exp == "scaling":
        family = data.get("family", "dyson")
        if family not in ("dyson", "nn2d"):
            out.append(f"family must be 'dyson' or 'nn2d' for scaling, got {family!r}")
        _check_alpha(data, out, required=(family == "dyson"))
        _check_sizes(data, out)
        if data.get("statistic", "sqrt_var") not in ("sqrt_var", "mean_abs"):
            out.append(f"statistic must be 'sqrt_var' or 'mean_abs', got {data.get('statistic')!r}")
    elif exp == "window":
        family = data.get("family", "dyson")
        if family not in ("dyson", "nn2d"):
            out.append(f"family must be 'dyson' or 'nn2d' for window, got {family!r}")
        _check_alpha(data, out, required=(family == "dyson"))
        _check_sizes(data, out)
        _check_sequence(data, out)
        if ("sizes" in data) == ("sequence" in data):
            out.append("give exactly one of 'sizes' or 'sequence'")
        if ("threshold" in data) == ("delta" in data):
            out.append("give exactly one of 'threshold' (absolute c > 0) or "
                       "'delta' (threshold N^delta; summable regime is 0 < delta < 1/2)")
        if "threshold" in data and (not _is_num(data["threshold"]) or data["threshold"] <= 0):
            out.append(f"threshold must be > 0, got {data['threshold']!r}")
        if "delta" in data and not _is_num(data["delta"]):
            out.append(f"delta must be a number, got {data['delta']!r}")
    elif exp == "metastate":
        mode = data.get("mode", "T0_weight")
        if mode not in METASTATE_MODES:
            out.append(f"mode must be one of {METASTATE_MODES}, got {mode!r}")
        family = data.get("family", "dyson")
        if family not in FAMILIES:
            out.append(f"unknown family {family!r}; choose from {FAMILIES}")
        if mode == "T0_weight" and family != "dyson":
            out.append("T0_weight mode supports the dyson family only (interval W)")
        _check_alpha(data, out, required=(family == "dyson"))
        terms = _check_sequence(data, out)
        if ("size" in data) == ("sequence" in data):
            out.append("give exactly one of 'size' or 'sequence'")
        size = data.get("size")
        if size is not None and (not _is_int(size) or size < 1):
            out.append(f"size must be a positive integer, got {size!r}")
        if mode == "exact_gibbs_fit":
            if _is_int(size) and size > ENUMERATION_LIMIT:
                out.append(f"size {size} exceeds the exact-enumeration bound "
                           f"{ENUMERATION_LIMIT} required by mode exact_gibbs_fit")
            over = [n for n in terms if n > ENUMERATION_LIMIT]
            if over:
                out.append(f"sequence term {over[0]} exceeds the exact-enumeration "
                           f"bound {ENUMERATION_LIMIT} required by mode exact_gibbs_fit")
            if family in _DISORDERED_FAMILIES and "interaction_seed" not in data:
                out.append(f"family {family!r} has random couplings or fields; mode "
                           "exact_gibbs_fit needs an integer 'interaction_seed' to fix them")
        if "window" in data and (not _is_int(data["window"]) or data["window"] < 1):
            out.append(f"window must be a positive integer, got {data['window']!r}")
        if "interaction_seed" in data and not _is_int(data["interaction_seed"]):
            out.append(f"interaction_seed must be an integer, got {data['interaction_seed']!r}")
        if "flip_disorder" in data and not isinstance(data["flip_disorder"], bool):
            out.append(f"flip_disorder must be true or false, got {data['flip_disorder']!r}")
    elif exp == "csd":
        _check_alpha(data, out, required=True)
        _check_sequence(data, out, required=True)
        if data.get("boundary", "random") not in ("random", "plus"):
            out.append(f"boundary must be 'random' or 'plus', got {data.get('boundary')!r}")
    elif exp == "gauge-check":
        size = data.get("size", 6)
        if not _is_int(size) or not (1 <= size <= ENUMERATION_LIMIT):
            out.append(f"size must be an integer in [1, {ENUMERATION_LIMIT}] "
                       f"(exact partition functions), got {size!r}")
        kernel = data.get("kernel", "nn")
        if kernel not in ("nn", "power"):
            out.append(f"kernel must be 'nn' or 'power', got {kernel!r}")
        _check_alpha(data, out, required=(kernel == "power"))
        dim = data.get("dimension", 1)
        if dim not in (1, 2):
            out.append(f"dimension must be 1 or 2, got {dim!r}")
        if kernel == "power" and dim == 2:
            out.append("power kernel is defined on 1d volumes only")
        if dim == 2 and _is_int(size) and size * size > ENUMERATION_LIMIT:
            out.append(f"2d size {size} gives {size * size} sites, over the "
                       f"enumeration bound {ENUMERATION_LIMIT}")
    elif exp == "oracle-vs-mc":
        fams = data.get("families", list(FAMILIES))
        if (not isinstance(fams, list) or not fams
                or any(f not in FAMILIES for f in fams)):
            out.append(f"families must be a non-empty list drawn from {FAMILIES}")
        betas = data.get("betas", [0.5, 1.0, 2.0])
        if (not isinstance(betas, list) or not betas
                or any(not _is_num(b) or b < 0 for b in betas)):
            out.append("betas must be a non-empty list of numbers >= 0")
        size = data.get("size", 10)
        if not _is_int(size) or not (2 <= size <= ENUMERATION_LIMIT):
            out.append(f"size must be an integer in [2, {ENUMERATION_LIMIT}] "
                       f"(the exact oracle bound), got {size!r}")
        if "n_sweeps" in data and (not _is_int(data["n_sweeps"]) or data["n_sweeps"] < 100):
            out.append(f"n_sweeps must be an integer >= 100, got {data['n_sweeps']!r}")
        if "alpha" in data:
            _check_alpha(data, out, required=False)
    return out


# ---------------------------------------------------------------------------
# defaults


def resolve_config(data: dict) -> dict:
    """Validated config plus defaults; raises ConfigError when invalid."""
    diagnostics = validate_config(data)
    if diagnostics:
        raise ConfigError(diagnostics)
    exp = data["experiment"]
    cfg = {
        "experiment": exp,
        "master_seed": data.get("master_seed", 0),
        "n_seeds": data.get("n_seeds", _DEFAULT_N_SEEDS[exp]),
        "workers": data.get("workers", 1),
        "output_dir": data.get("output_dir", "results"),
    }
    if exp == "scaling":
        cfg["family"] = data.get("family", "dyson")
        cfg["statistic"] = data.get("statistic", "sqrt_var")
        if cfg["family"] == "dyson":
            cfg["alpha"] = data["alpha"]
            cfg["sizes"] = data.get("sizes", [100, 1000, 10_000, 100_000])
        else:
            cfg["alpha"] = data.get("alpha")
            cfg["sizes"] = data.get("sizes", [16, 32, 64, 128, 256, 512, 1024])
    elif exp == "window":
        cfg["family"] = data.get("family", "dyson")
        cfg["alpha"] = data.get("alpha")
        cfg["sizes"] = data.get("sizes")
        cfg["sequence"] = data.get("sequence")
        cfg["threshold"] = data.get("threshold")
        cfg["delta"] = data.get("delta")
    elif exp == "metastate":
        cfg["family"] = data.get("family", "dyson")
        cfg["alpha"] = data.get("alpha")
        cfg["beta"] = data.get("beta", 1.0)
        cfg["size"] = data.get("size")
        cfg["sequence"] = data.get("sequence")
        cfg["mode"] = data.get("mode", "T0_weight")
        cfg["window"] = data.get("window")
        cfg["interaction_seed"] = data.get("interaction_seed")
        cfg["flip_disorder"] = data.get("flip_disorder", False)
    elif exp == "csd":
        cfg["alpha"] = data["alpha"]
        cfg["sequence"] = data.get("sequence")
        cfg["boundary"] = data.get("boundary", "random")
    elif exp == "gauge-check":
        cfg["size"] = data.get("size", 6)
        cfg["kernel"] = data.get("kernel", "nn")
        cfg["alpha"] = data.get("alpha")
        cfg["dimension"] = data.get("dimension", 1)
        cfg["beta"] = data.get("beta", 1.0)
    elif exp == "oracle-vs-mc":
        cfg["families"] = data.get("families", list(FAMILIES))
        cfg["betas"] = data.get("betas", [0.5, 1.0, 2.0])
        cfg["size"] = data.get("size", 10)
        # weak-coupling end of the power-law family: the validated regime
        # for single-flip chains across all three default betas
        cfg["alpha"] = data.get("alpha", 1.8)
        cfg["n_sweeps"] = data.get("n_sweeps")
    return cfg
