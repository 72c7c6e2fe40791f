"""Span tracer for rbclab, installed from outside the package.

`install()` wraps every public function of the layers in LAYERS (and the
public methods of the classes they define) and rebinds each wrapper at every
module attribute that held the original, so names imported with
`from .x import f` are traced too.  Nothing inside `src/` changes.

Spans are kept in memory (`SpanLog`) until the run ends.  Pool workers are
forked and exit without running `atexit`, so each experiment chunk runs
under `TracedWorker`, which returns the chunk's spans and counts with its
result; the wrapped `experiments._map_tasks` merges them back under its own
span.  Span clocks are CLOCK_MONOTONIC, shared by every process on the host.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "config", "experiments", "montecarlo", "exact", "metastate",
          "boundary", "models", "rng")

_clock = time.monotonic


class SpanLog:
    """Spans as parallel lists (name, enclosing span, start, end) plus counts."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = Counter()
        self.maxima = {}

    def merge(self, other: "SpanLog", parent: int):
        """Append another log's spans; its root spans hang under `parent`."""
        offset = len(self.names)
        self.names.extend(other.names)
        self.parents.extend(parent if p < 0 else p + offset for p in other.parents)
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)
        self.counts.update(other.counts)
        for key, val in other.maxima.items():
            self.maxima[key] = max(val, self.maxima.get(key, val))


class Tracer:
    def __init__(self):
        self.log = SpanLog()
        self.stack = []
        self.maps = []     # (map seconds, pool size, chunk span indices)

    def open(self, name: str) -> int:
        log = self.log
        i = len(log.names)
        log.names.append(name)
        log.parents.append(self.stack[-1] if self.stack else -1)
        log.starts.append(_clock())
        log.ends.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int):
        self.log.ends[i] = _clock()
        self.stack.pop()

    def swap(self, log: SpanLog, stack: list) -> tuple:
        old = (self.log, self.stack)
        self.log, self.stack = log, stack
        return old


# the tracer of this process; forked pool workers inherit it
_ACTIVE: Tracer | None = None


class TracedWorker:
    """Picklable stand-in for an experiment chunk function.

    Runs the chunk under a fresh log and returns (result, log), so spans and
    counts made in a pool worker travel back with the chunk's result.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, task):
        tracer = _ACTIVE
        saved = tracer.swap(SpanLog(), [])
        i = tracer.open("experiments.chunk")
        try:
            out = self.fn(task)
        finally:
            tracer.close(i)
            log, _ = tracer.swap(*saved)
        return out, log


# ---------------------------------------------------------------------------
# counters computed at layer boundaries, from arguments and results


def _count_words(log, args, kwargs, out):
    log.counts["rng.u64_at.words"] += int(np.size(out))


def _count_realizations(log, args, kwargs, out):
    log.counts["boundary.realizations"] += int(np.size(out))


def _count_chain(log, args, kwargs, out):
    n_prop = out.n_sweeps * out.n_sites
    log.counts["montecarlo.proposals"] += n_prop
    log.counts["montecarlo.accepted"] += round(out.acceptance_rate * n_prop)
    predraw = 24 * n_prop   # site uniforms, site indices, accept uniforms
    log.maxima["montecarlo.predraw_bytes"] = max(
        predraw, log.maxima.get("montecarlo.predraw_bytes", 0))


def _count_configs(log, args, kwargs, out):
    log.counts["exact.configs_enumerated"] += int(out.probabilities.size)


def _count_csv(log, args, kwargs, out):
    log.counts["experiments.csv_bytes"] += os.path.getsize(args[0])


def _tv_counter(fn):
    sig = inspect.signature(fn)

    def count(log, args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if np.any(a["table_plus"].probabilities != a["table_minus"].probabilities):
            points = int(round(1.0 / a["grid_step"])) + 1
            log.counts["exact.tv_evals"] += points * a["table"].probabilities.size
    return count


def _hooks(name, fn):
    if name == "rng.u64_at":
        return _count_words
    if name in ("boundary.batch_W_plus", "boundary.batch_nn2d_gaps",
                "boundary.batch_interval_W"):
        return _count_realizations
    if name == "montecarlo.metropolis_run":
        return _count_chain
    if name == "exact.gibbs_table":
        return _count_configs
    if name == "exact.fit_mixture_weight":
        return _tv_counter(fn)
    if name == "experiments.write_csv":
        return _count_csv
    return None


# ---------------------------------------------------------------------------
# installation


def _wrap(tracer: Tracer, name: str, fn):
    hook = _hooks(name, fn)
    t_open, t_close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = t_open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            t_close(i)
        if hook is not None:
            hook(tracer.log, args, kwargs, out)
        return out

    return wrapper


def _wrap_map(tracer: Tracer, fn):
    def _map_tasks(worker, tasks, workers):
        i = tracer.open("experiments._map_tasks")
        try:
            parts = fn(TracedWorker(worker), tasks, workers)
        finally:
            tracer.close(i)
        log = tracer.log
        first = len(log.names)
        out = []
        for result, part in parts:
            log.merge(part, parent=i)
            out.append(result)
        chunks = [j for j in range(first, len(log.names))
                  if log.parents[j] == i]
        pool = 1 if workers <= 1 or len(tasks) <= 1 else min(workers, len(tasks))
        tracer.maps.append((log.ends[i] - log.starts[i], pool, chunks))
        return out

    return _map_tasks


def install() -> Tracer:
    """Wrap rbclab's layers in this process; returns the active tracer."""
    global _ACTIVE
    import rbclab
    import rbclab.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    modules = [sys.modules[f"rbclab.{layer}"] for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrappers[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
        # methods are named <layer>.<method> unless that name is taken
        taken = set(vars(mod))
        for cls in [c for c in vars(mod).values()
                    if inspect.isclass(c) and c.__module__ == mod.__name__]:
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = (f"{layer}.{attr}" if attr not in taken
                        else f"{layer}.{cls.__name__}.{attr}")
                taken.add(attr)
                setattr(cls, attr, _wrap(tracer, name, obj))
    experiments = sys.modules["rbclab.experiments"]
    wrappers[experiments._map_tasks] = _wrap_map(tracer, experiments._map_tasks)

    for mod in [rbclab] + modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    _ACTIVE = tracer
    return tracer


# ---------------------------------------------------------------------------
# reduction


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(tracer: Tracer) -> dict:
    """Per-function calls, inclusive and self seconds; counts; chunk timings.

    Self time is a span's duration minus the part of its interval covered
    by its child spans (children of a pool map run in parallel, so their
    union is taken rather than their sum).
    """
    log = tracer.log
    n = len(log.names)
    kids = [[] for _ in range(n)]
    for j, p in enumerate(log.parents):
        if p >= 0:
            kids[p].append(j)
    fns = {}
    for i in range(n):
        s, e = log.starts[i], log.ends[i]
        dur = e - s
        cover = _covered((max(log.starts[k], s), min(log.ends[k], e))
                         for k in kids[i]) if kids[i] else 0.0
        calls, incl, self_s = fns.get(log.names[i], (0, 0.0, 0.0))
        fns[log.names[i]] = (calls + 1, incl + dur, self_s + dur - cover)
    maps = [{"map_s": map_s, "pool": pool,
             "chunk_s": [log.ends[j] - log.starts[j] for j in chunks]}
            for map_s, pool, chunks in tracer.maps]
    return {"functions": fns, "counts": dict(log.counts),
            "maxima": dict(log.maxima), "maps": maps, "spans": n}
