"""Experiment configuration: JSON loading, validation, defaults.

A config is a flat JSON object.  `KEYS` maps each experiment to the keys it
accepts, and each key to its check and its default.  `validate_config`
returns a list of diagnostics (empty = valid); each is a message string
whose `key` attribute names the config key it is about, so the CLI can point
at the config line.  `resolve_config` fills in defaults; experiments consume
the resolved dict.
"""

from __future__ import annotations

import copy
import json
import math

from .boundary import FIT_MIN_SAMPLES, FIT_MIN_SIZES, FIT_SPAN
from .exact import ENUMERATION_LIMIT
from .metastate import VolumeSequence, make_volume_sequence
from .models import DISORDERED_FAMILIES, FAMILIES
from .montecarlo import MIN_BATCH_SAMPLES

EXPERIMENTS = ("scaling", "window", "metastate", "csd", "gauge-check",
               "oracle-vs-mc")
SEQUENCE_KINDS = ("sparse", "linear", "geometric")
METASTATE_MODES = ("T0_weight", "exact_gibbs_fit")


class ConfigError(Exception):
    """Raised with the full diagnostics list when a config cannot be used."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class _Diagnostic(str):
    """A diagnostic message; `key` is the config key it is about."""

    def __new__(cls, message: str, key: str | None = None):
        self = super().__new__(cls, message)
        self.key = key
        return self


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
    """1-based line of the key's first occurrence in the raw config text.

    A dotted key ("sequence.kind") is the first occurrence of its last part
    at or after the line of the part before it.
    """
    lines = text.splitlines()
    lineno = 0
    for part in key.split("."):
        needle = f'"{part}"'
        lineno = next((i for i in range(lineno, len(lines))
                       if needle in lines[i]), None)
        if lineno is None:
            return None
    return lineno + 1


# ---------------------------------------------------------------------------
# the key table


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    """A finite int or float (json parses NaN and Infinity as floats)."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _one_of(values: tuple) -> tuple:
    """Check and text for a value equal to one of `values`, type included."""
    return (lambda v: any(type(v) is type(c) and v == c for c in values),
            f"one of {values}")


def _enumerable(lo: int, why: str) -> tuple:
    return (lambda v: _is_int(v) and lo <= v <= ENUMERATION_LIMIT,
            f"an integer in [{lo}, {ENUMERATION_LIMIT}] ({why})")


def _is_sizes(v) -> bool:
    return (isinstance(v, list) and len(v) >= 2
            and all(_is_int(n) and n >= 1 for n in v)
            and all(a < b for a, b in zip(v, v[1:])))


_POSITIVE = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_SEED = (lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2**64)")
_ALPHA = (lambda v: _is_num(v) and 1 < v <= 2, "a number in (1, 2]")
_BETA = (lambda v: _is_num(v) and v >= 0, "a number >= 0", 1.0)
_SIZES = (_is_sizes, "a strictly increasing list of >= 2 positive integers", None)
_SEQUENCE = (lambda v: isinstance(v, dict),
             f"an object with kind in {SEQUENCE_KINDS} and a budget", None)
# the families whose boundary energy W the scaling and window experiments draw
_W_FAMILY = (*_one_of(("dyson", "nn2d")), "dyson")
# A given n_sweeps runs unchanged with thin 1 and a burn-in of a fifth, so it
# needs n_sweeps - n_sweeps // 5 >= MIN_BATCH_SAMPLES kept samples.
_MIN_SWEEPS = next(v for v in range(MIN_BATCH_SAMPLES, 2 * MIN_BATCH_SAMPLES)
                   if v - v // 5 >= MIN_BATCH_SAMPLES)

# key -> (check, text, default); `check` accepts a value and `text` says what
# it accepts.  A default of None stands for "not given".
_COMMON = {
    "experiment": (*_one_of(EXPERIMENTS), None),
    "master_seed": (*_SEED, 0),
    "n_seeds": (*_POSITIVE, None),
    "workers": (*_POSITIVE, 1),
    "output_dir": (lambda v: isinstance(v, str), "a string path", "results"),
}


def _experiment(n_seeds: int, **keys) -> dict:
    return {**_COMMON, "n_seeds": (*_POSITIVE, n_seeds), **keys}


# experiment -> the keys it accepts, the common ones first
KEYS = {
    "scaling": _experiment(
        2000, family=_W_FAMILY,
        statistic=(*_one_of(("sqrt_var", "mean_abs")), "sqrt_var"),
        alpha=(*_ALPHA, None), sizes=_SIZES),
    "window": _experiment(
        2000, family=_W_FAMILY, alpha=(*_ALPHA, None), sizes=_SIZES,
        sequence=_SEQUENCE,
        threshold=(lambda v: _is_num(v) and v > 0, "a number > 0", None),
        delta=(_is_num, "a finite number", None)),
    "metastate": _experiment(
        2000, family=(*_one_of(FAMILIES), "dyson"), alpha=(*_ALPHA, None),
        beta=_BETA, size=(*_POSITIVE, None), sequence=_SEQUENCE,
        mode=(*_one_of(METASTATE_MODES), "T0_weight"),
        window=(*_POSITIVE, None), interaction_seed=(*_SEED, None),
        flip_disorder=(lambda v: isinstance(v, bool), "true or false", False)),
    "csd": _experiment(
        100, alpha=(*_ALPHA, None), sequence=_SEQUENCE,
        boundary=(*_one_of(("random", "plus")), "random")),
    "gauge-check": _experiment(
        100, size=(*_enumerable(1, "exact partition functions"), 6),
        kernel=(*_one_of(("nn", "power")), "nn"), alpha=(*_ALPHA, None),
        dimension=(*_one_of((1, 2)), 1), beta=_BETA),
    "oracle-vs-mc": _experiment(
        34,  # trials per (family, beta)
        families=(lambda v: isinstance(v, list) and v != []
                  and all(f in FAMILIES for f in v),
                  f"a non-empty list drawn from {FAMILIES}", list(FAMILIES)),
        betas=(lambda v: isinstance(v, list) and v != []
               and all(_is_num(b) and b >= 0 for b in v),
               "a non-empty list of numbers >= 0", [0.5, 1.0, 2.0]),
        size=(*_enumerable(2, "the exact oracle bound"), 10),
        # weak-coupling end of the power-law family: the validated regime
        # for single-flip chains across all three default betas
        alpha=(*_ALPHA, 1.8),
        n_sweeps=(lambda v: _is_int(v) and v >= _MIN_SWEEPS,
                  f"an integer >= {_MIN_SWEEPS} (a fifth is burn-in, and batch "
                  f"means need {MIN_BATCH_SAMPLES} samples)", None)),
}

# keys of the `sequence` object; every kind reads kind and budget
_SEQUENCE_KEYS = {
    "kind": (*_one_of(SEQUENCE_KINDS), None),
    "budget": (*_POSITIVE, None),
    "step": (*_POSITIVE, 100),
    "ratio": (lambda v: _is_num(v) and v > 1, "a number > 1", 2.0),
    "start": (*_POSITIVE, 2),
}
_SEQUENCE_READS = {"linear": ("step",), "geometric": ("ratio", "start")}

# pairs of keys of which a config gives exactly one
_EXACTLY_ONE = {"window": (("sizes", "sequence"), ("threshold", "delta")),
                "metastate": (("size", "sequence"),)}


# ---------------------------------------------------------------------------
# validation


def _bad(key: str, text: str, value) -> _Diagnostic:
    return _Diagnostic(f"{key} must be {text}, got {value!r}", key)


def _unknown(data: dict, keys: dict, where: str, prefix: str = "") -> list:
    return [_Diagnostic(f"unknown key {key!r} {where}; accepted keys: "
                        f"{', '.join(sorted(keys))}", prefix + key)
            for key in sorted(set(data) - set(keys))]


def resolve_sequence(seq: dict) -> VolumeSequence:
    """The volume sequence a config's `sequence` object describes."""
    return make_volume_sequence(**{key: seq.get(key, entry[2])
                                   for key, entry in _SEQUENCE_KEYS.items()})


def _sequence_terms(seq: dict, out: list) -> tuple:
    """Checks the sequence object into `out`; returns its terms, () if none."""
    n_diagnostics = len(out)
    out += _unknown(seq, _SEQUENCE_KEYS, "in sequence", "sequence.")
    kind = seq.get("kind")
    reads = _SEQUENCE_READS.get(kind, ()) if isinstance(kind, str) else ()
    for key in ("kind", "budget") + reads:
        check, text, default = _SEQUENCE_KEYS[key]
        if not check(seq.get(key, default)):
            out.append(_bad(f"sequence.{key}", text, seq.get(key, default)))
    if len(out) > n_diagnostics:
        return ()
    try:
        return resolve_sequence(seq).terms
    except ValueError as err:
        out.append(_Diagnostic(f"sequence {err}", "sequence"))
        return ()


def _fill(data: dict, keys: dict) -> dict:
    return {key: data[key] if key in data else copy.copy(entry[2])
            for key, entry in keys.items()}


def validate_config(data: dict) -> list[str]:
    """Schema and range checks; returns diagnostics naming key and range.

    Each diagnostic is a str whose `key` attribute is the config key it is
    about ("sequence.kind" for a key of the sequence object).
    """
    exp = data.get("experiment")
    if exp not in EXPERIMENTS:
        problem = ("missing key 'experiment'" if exp is None
                   else f"unknown experiment {exp!r}")
        return [_Diagnostic(f"{problem}; valid experiments: "
                            f"{', '.join(EXPERIMENTS)}", "experiment")]
    keys = KEYS[exp]
    out = _unknown(data, keys, f"for experiment {exp}")
    out += [_bad(key, text, data[key]) for key, (check, text, _) in keys.items()
            if key in data and not check(data[key])]

    # rules that involve more than one key
    cfg = _fill(data, keys)
    family = cfg.get("family")
    power = (cfg["kernel"] == "power" if exp == "gauge-check"
             else exp == "csd" or family == "dyson")
    required = (["alpha"] if power else []) + (["sequence"] if exp == "csd" else [])
    for key in required:
        if key not in data:
            out.append(_Diagnostic(f"missing key {key!r}; expected "
                                   f"{keys[key][1]}", key))
    for a, b in _EXACTLY_ONE.get(exp, ()):
        if (a in data) == (b in data):
            out.append(_Diagnostic(f"give exactly one of {a!r} or {b!r}", a))
    terms = (_sequence_terms(data["sequence"], out)
             if isinstance(data.get("sequence"), dict) else ())

    if exp == "metastate":
        if cfg["mode"] == "T0_weight" and family != "dyson":
            out.append(_Diagnostic("T0_weight mode supports the dyson family "
                                   "only (interval W)", "family"))
        if cfg["mode"] == "exact_gibbs_fit":
            size = cfg["size"]
            if _is_int(size) and size > ENUMERATION_LIMIT:
                out.append(_Diagnostic(
                    f"size {size} exceeds the exact-enumeration bound "
                    f"{ENUMERATION_LIMIT} required by mode exact_gibbs_fit", "size"))
            over = [n for n in terms if n > ENUMERATION_LIMIT]
            if over:
                out.append(_Diagnostic(
                    f"sequence term {over[0]} exceeds the exact-enumeration "
                    f"bound {ENUMERATION_LIMIT} required by mode exact_gibbs_fit",
                    "sequence"))
            if (isinstance(family, str) and family in DISORDERED_FAMILIES
                    and "interaction_seed" not in data):
                out.append(_Diagnostic(
                    f"family {family!r} has random couplings or fields; mode "
                    "exact_gibbs_fit needs an integer 'interaction_seed' to fix "
                    "them", "interaction_seed"))
    elif exp == "scaling":
        # the default sizes of either family meet the fit's rules
        sizes, n_seeds = data.get("sizes"), cfg["n_seeds"]
        span = FIT_SPAN.get(family) if isinstance(family, str) else None
        if _is_sizes(sizes):
            if len(sizes) < FIT_MIN_SIZES:
                out.append(_Diagnostic(f"the scaling fit needs >= "
                                       f"{FIT_MIN_SIZES} sizes, got {len(sizes)}",
                                       "sizes"))
            if span and sizes[-1] < span * sizes[0]:
                out.append(_Diagnostic(
                    f"{family} sizes must span a max/min ratio of {span:g} for "
                    f"the scaling fit, got {sizes[-1] / sizes[0]:g}", "sizes"))
        if _is_int(n_seeds) and 1 <= n_seeds < FIT_MIN_SAMPLES:
            out.append(_Diagnostic(f"the scaling fit needs n_seeds >= "
                                   f"{FIT_MIN_SAMPLES}, got {n_seeds}",
                                   "n_seeds"))
    elif exp == "gauge-check":
        size, dim = cfg["size"], cfg["dimension"]
        if power and dim == 2:
            out.append(_Diagnostic("power kernel is defined on 1d volumes only",
                                   "kernel"))
        if dim == 2 and _is_int(size) and size * size > ENUMERATION_LIMIT:
            out.append(_Diagnostic(f"2d size {size} gives {size * size} sites, "
                                   f"over the enumeration bound {ENUMERATION_LIMIT}",
                                   "size"))
    return out


# ---------------------------------------------------------------------------
# defaults


def resolve_config(data: dict) -> dict:
    """Validated config plus defaults; raises ConfigError when invalid."""
    diagnostics = validate_config(data)
    if diagnostics:
        raise ConfigError(diagnostics)
    cfg = _fill(data, KEYS[data["experiment"]])
    if cfg["experiment"] == "scaling" and cfg["sizes"] is None:
        cfg["sizes"] = ([100, 1000, 10_000, 100_000] if cfg["family"] == "dyson"
                        else [16, 32, 64, 128, 256, 512, 1024])
    return cfg
