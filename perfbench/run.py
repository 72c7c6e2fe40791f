"""rbclab benchmark: `rbclab run` on fixed workloads, each run a fresh process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; rbclab is imported from `src/`, nothing is
installed.  The workload seed becomes the run's `--master-seed`.

--trace 0 (end to end): after one uncounted warm-up start, takes set-up
samples and then repeats `rbclab run` in fresh processes until --seconds
have passed, and reports the median of each end-to-end metric.
--trace 1 (per layer): untraced and traced runs alternate, two of each; the
traced runs' counts must agree exactly.  Reports the per-layer metrics of
the first traced run and the tracing overhead (median traced minus median
untraced wall_s).

Every run's outputs are checked (exit code, per-workload invariants that
hold at any seed, and equal CSV sha256 across runs of one seed).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
--smoke swaps in tiny configs (about a second per run) for the smoke test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
BASELINE = os.path.join(HERE, "baseline.json")

N_SETUP_PROBES = 3
RUN_TIMEOUT_S = 170.0
# a PROBE_N dot slower than this is the slow BLAS threading mode (~8 ms
# there, ~12 us otherwise)
BLAS_SLOW_S = 1e-3

FAMILIES = ["nn_ising", "dyson", "mattis", "rfim", "ea"]

# One rbclab run takes about a second here, so a run of the benchmark holds
# a dozen or more of them; smoke overrides shrink the rest to that size.
WORKLOADS = {
    # oracle_trial_plan fixes the dyson chains at beta >= 0.75 to 4M and 8M
    # proposals, too long a run to repeat; this keeps every family at the
    # weak-coupling beta, with two chains per family on one schedule.
    "mc_oracle": {
        "config": {"experiment": "oracle-vs-mc", "families": FAMILIES,
                   "betas": [0.5], "size": 10, "alpha": 1.8, "n_seeds": 2,
                   "n_sweeps": 5000},
        "workers": 2,
        "smoke": {"n_seeds": 2, "n_sweeps": 200},
    },
    "exact_fit": {
        "config": {"experiment": "metastate", "mode": "exact_gibbs_fit",
                   "alpha": 1.25, "beta": 2.0, "size": 12, "n_seeds": 6},
        "workers": 1,
        "smoke": {"n_seeds": 3},
    },
    "bdy_wide": {
        "config": {"experiment": "scaling", "family": "dyson", "alpha": 1.25,
                   "sizes": [100, 1000, 10000, 100000], "n_seeds": 1000},
        "workers": 1,
        "smoke": {},   # scaling_fit needs >= 1000 draws
    },
    "bdy_many": {
        "config": {"experiment": "scaling", "family": "nn2d",
                   "sizes": [16, 32, 64, 128, 256, 512, 1024],
                   "n_seeds": 2500},
        "workers": 1,
        "smoke": {"n_seeds": 1000},
    },
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# wrapped functions reported with .calls and .self_s
TIMED = (
    "rng.u64_at", "rng.sub_seed", "rng.stream_pm1", "rng.stream_uniform",
    "boundary.batch_W_plus", "boundary.batch_nn2d_gaps",
    "boundary.batch_interval_W", "boundary.hurwitz_coefficients",
    "boundary.w_plus_exact_std", "boundary.nn2d_gap_exact_std",
    "boundary.scaling_fit", "boundary.metastate_weight",
    "montecarlo.metropolis_run", "montecarlo.batch_means_stderr",
    "exact.gibbs_table", "exact.fit_mixture_weight", "exact.expectation",
    "metastate.lambda_w_samples", "metastate.histogram_from_w",
    "models.hamiltonian_arrays", "models.coupling_matrix",
    "models.boundary_field", "models.boundary_sites",
    "models.site_values", "models.bond_values",
    "experiments.run_experiment", "cli.main",
)
BATCHES = ("boundary.batch_W_plus", "boundary.batch_nn2d_gaps",
           "boundary.batch_interval_W")
# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("montecarlo.proposals", "rng.u64_at.words", "rng.sub_seed.calls",
                "exact.configs_enumerated", "exact.tv_evals",
                "experiments.chunks", "experiments.csv_bytes")


# ---------------------------------------------------------------------------
# output checks that hold at any seed


def _check_oracle(cfg, summary, rows):
    problems = []
    want = len(cfg["families"]) * len(cfg["betas"]) * cfg["n_seeds"]
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    drift = [r["trial"] for r in rows if not float(r["max_field_drift"]) <= 1e-9]
    if drift:
        problems.append(f"max_field_drift > 1e-9 in trials {drift}")
    return problems


def _check_exact_fit(cfg, summary, rows):
    problems = []
    if len(rows) != cfg["n_seeds"]:
        problems.append(f"{len(rows)} rows, expected n_seeds={cfg['n_seeds']}")
    bad = [r["seed_index"] for r in rows if not 0.0 <= float(r["lambda"]) <= 1.0]
    if bad:
        problems.append(f"lambda outside [0, 1] at seed_index {bad}")
    return problems


def _check_scaling(key, bound):
    def check(cfg, summary, rows):
        problems = []
        want = cfg["n_seeds"] * len(cfg["sizes"])
        if len(rows) != want:
            problems.append(f"{len(rows)} rows, expected {want}")
        val = summary["results"].get(key)
        if val is None or not val <= bound:
            problems.append(f"{key} = {val}, expected <= {bound}")
        return problems
    return check


CHECKS = {
    "mc_oracle": _check_oracle,
    "exact_fit": _check_exact_fit,
    "bdy_wide": _check_scaling("tail_vs_zeta_max_rel_diff", 1e-8),
    "bdy_many": _check_scaling("closed_form_max_rel_diff", 1e-12),
}
# summary results kept as reference values
REFERENCE_KEYS = {
    "mc_oracle": ("n_pass", "n_trials", "max_field_drift"),
    "exact_fit": ("endpoint_mass", "mean"),
    "bdy_wide": ("sampled_exponent", "exact_exponent"),
    "bdy_many": ("sampled_exponent", "exact_exponent"),
}


# ---------------------------------------------------------------------------
# processes


class Bench:
    def __init__(self, workload: str, seed: int, smoke: bool, work: str):
        spec = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.cfg = dict(spec["config"], **(spec["smoke"] if smoke else {}))
        self.workers = spec["workers"]
        self.work = work
        self.n_spawned = 0
        self.cfg_path = os.path.join(work, "config.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh)

    def spawn(self, trace=False, probe=False, argv=()):
        """Start child.py; returns (measurements, error message)."""
        self.n_spawned += 1
        result = os.path.join(self.work, f"result{self.n_spawned}.json")
        cmd = [sys.executable, CHILD, "--src", SRC, "--result", result]
        cmd += ["--trace"] * trace + ["--probe"] * probe + ["--", *argv]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"timed out after {RUN_TIMEOUT_S:g} s"
        if proc.returncode != 0 or not os.path.exists(result):
            try:   # pool workers a crashed run may have left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            tail = err.strip().splitlines()[-3:]
            return None, f"exit code {proc.returncode}: {' | '.join(tail)}"
        with open(result) as fh:
            data = json.load(fh)
        data["setup_s"] = data["t_enter"] - t_spawn
        return data, None

    def run(self, trace=False) -> dict:
        """One `rbclab run`, its measurements and its output checks."""
        out_dir = os.path.join(self.work, f"out{self.n_spawned + 1}")
        argv = ["run", self.cfg_path, "--workers", str(self.workers),
                "--output", out_dir, "--master-seed", str(self.seed)]
        data, err = self.spawn(trace=trace, argv=argv)
        it = {"problems": [err] if err else []}
        if data is not None:
            it.update((k, data[k]) for k in ("wall_s", "cpu_s", "setup_s",
                                             "peak_rss_mb", "blas_probe_s",
                                             "import_s"))
            it["trace"] = data.get("trace")
            if data["rc"] != 0:
                it["problems"].append(f"rbclab run returned {data['rc']}")
            else:
                it.update(self._outputs(out_dir, it["problems"]))
        shutil.rmtree(out_dir, ignore_errors=True)
        return it

    def _outputs(self, out_dir, problems) -> dict:
        base = os.path.join(out_dir, self.cfg["experiment"])
        try:
            with open(base + ".csv", "rb") as fh:
                raw = fh.read()
            with open(base + "_summary.json") as fh:
                summary = json.load(fh)
        except OSError as err:
            problems.append(f"missing output: {err}")
            return {}
        lines = [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        problems.extend(CHECKS[self.workload](self.cfg, summary, rows))
        results = summary["results"]
        return {"sha256": hashlib.sha256(raw).hexdigest(),
                "reference": {k: results.get(k) for k in REFERENCE_KEYS[self.workload]}}


def _same_hash(iterations):
    """Fail every run whose CSV hash differs from the most common one."""
    hashes = Counter(it["sha256"] for it in iterations if "sha256" in it)
    if len(hashes) > 1:
        common = hashes.most_common(1)[0][0]
        for it in iterations:
            if it.get("sha256", common) != common:
                it["problems"].append("CSV sha256 differs from other runs of this seed")


def _median(values):
    return statistics.median(values) if values else 0.0


def _environment(probe: dict, load: tuple) -> dict:
    """Where the numbers come from; the BLAS and version keys come from a
    probe process, which sees what rbclab sees."""
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg_start": list(load), "commit": _git_commit()}
    for key in ("numba_importable", "blas", "blas_threads", "python", "numpy",
                "scipy"):
        env[key] = probe.get(key)
    return env


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(tr: dict, import_s: float, overhead_s: float,
                  blas_slow_frac: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    fns, counts, maxima = tr["functions"], tr["counts"], tr["maxima"]

    def calls(name):
        return fns.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return fns.get(name, (0, 0.0, 0.0))[1]

    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (fns.get(name, (0, 0.0, 0.0))[2], "s")
    words = counts.get("rng.u64_at.words", 0)
    m["rng.u64_at.words"] = (words, "count")
    m["rng.words_per_s"] = (words / incl("rng.u64_at") if words else 0.0, "1/s")
    real = counts.get("boundary.realizations", 0)
    batch_s = sum(incl(n) for n in BATCHES)
    m["boundary.realizations"] = (real, "count")
    m["boundary.realizations_per_s"] = (real / batch_s if real else 0.0, "1/s")
    prop = counts.get("montecarlo.proposals", 0)
    m["montecarlo.proposals"] = (prop, "count")
    m["montecarlo.ns_per_proposal"] = (
        1e9 * incl("montecarlo.metropolis_run") / prop if prop else 0.0, "ns")
    m["montecarlo.acceptance"] = (
        counts.get("montecarlo.accepted", 0) / prop if prop else 0.0, "ratio")
    m["montecarlo.predraw_bytes"] = (maxima.get("montecarlo.predraw_bytes", 0), "B")
    m["exact.configs_enumerated"] = (counts.get("exact.configs_enumerated", 0), "count")
    m["exact.tv_evals"] = (counts.get("exact.tv_evals", 0), "count")
    chunk_s = [c for mp in tr["maps"] for c in mp["chunk_s"]]
    map_s = sum(mp["map_s"] for mp in tr["maps"])
    capacity = sum(mp["pool"] * mp["map_s"] for mp in tr["maps"])
    m["experiments.chunks"] = (len(chunk_s), "count")
    m["experiments.chunk_s.p50"] = (_median(chunk_s), "s")
    m["experiments.chunk_s.max"] = (max(chunk_s, default=0.0), "s")
    m["experiments.map_s"] = (map_s, "s")
    m["experiments.worker_idle_frac"] = (
        1.0 - sum(chunk_s) / capacity if capacity else 0.0, "ratio")
    m["experiments.write_csv_s"] = (incl("experiments.write_csv"), "s")
    m["experiments.csv_bytes"] = (counts.get("experiments.csv_bytes", 0), "B")
    m["config.validate_s"] = (incl("config.validate_config"), "s")
    m["config.resolve_s"] = (incl("config.resolve_config"), "s")
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (tr["spans"], "count")
    m["env.blas_slow_frac"] = (blas_slow_frac, "ratio")
    return m


def _exact_counts(m: dict) -> dict:
    return {k: v[0] for k, v in m.items()
            if k in EXACT_COUNTS or k.endswith(".calls")}


# ---------------------------------------------------------------------------
# measurement


def measure(bench: Bench, seconds: float, trace: bool):
    """Returns (runs, set-up samples, metrics)."""
    load = os.getloadavg()
    warm, err = bench.spawn(probe=True)   # compiles .pyc, warms the file cache
    if warm is None:
        raise RuntimeError(f"rbclab does not start: {err}")
    print("env: " + json.dumps(_environment(warm, load), sort_keys=True))

    if trace:
        runs = [bench.run(trace=t) for t in (False, True, False, True)]
        plain, traced = runs[0::2], runs[1::2]
        _same_hash(runs)
        slow = sum(r.get("blas_probe_s", 0.0) > BLAS_SLOW_S for r in runs) / len(runs)
        overhead = (_median([r["wall_s"] for r in traced if "wall_s" in r])
                    - _median([r["wall_s"] for r in plain if "wall_s" in r]))
        metrics, seen = {}, []
        for r in traced:
            if r.get("trace") is None:
                continue
            seen.append(layer_metrics(r["trace"], r["import_s"], overhead, slow))
        if len(seen) == 2:
            a, b = (_exact_counts(x) for x in seen)
            diff = sorted(k for k in a if a[k] != b.get(k))
            if diff:
                traced[1]["problems"].append(f"counts differ between traced runs: {diff}")
        if seen:
            metrics = seen[0]
        return runs, [], metrics

    t_start = time.monotonic()
    setup = []
    for _ in range(N_SETUP_PROBES):
        data, err = bench.spawn(probe=True)
        if data is not None:
            setup.append(data["setup_s"])
    runs = []
    took = []
    while True:
        t0 = time.monotonic()
        runs.append(bench.run())
        took.append(time.monotonic() - t0)
        # start another run only if a typical one still ends in time
        if time.monotonic() - t_start + _median(took) > seconds:
            break
    _same_hash(runs)
    done = [r for r in runs if "wall_s" in r]
    setup += [r["setup_s"] for r in done]
    metrics = {name: (_median([r[name] for r in done]), unit)
               for name, unit in E2E_UNITS.items() if name != "setup_s"}
    metrics["setup_s"] = (_median(setup), "s")
    return runs, setup, metrics


def _reference_hash(workload: str, seed: int, smoke: bool):
    if smoke or seed != 0 or not os.path.exists(BASELINE):
        return None
    with open(BASELINE) as fh:
        ref = json.load(fh)
    return ref.get("workloads", {}).get(workload, {}).get("seed0_sha256")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs, about a second per run")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rbclab", "cli.py")):
        print(f"error: no rbclab sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.smoke, work)
        print(f"rbclab benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}, workers {bench.workers}")
        try:
            runs, setup, metrics = measure(bench, args.seconds, bool(args.trace))
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    failed = sum(bool(r["problems"]) for r in runs)
    for k, r in enumerate(runs, start=1):
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        if "wall_s" in r:
            print(f"run {k}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                  f"setup {r['setup_s']:.3f} s, rss {r['peak_rss_mb']:.0f} MB, "
                  f"blas probe {1e6 * r['blas_probe_s']:.0f} us, {status}")
        else:
            print(f"run {k}: {status}")
    hashes = sorted({r["sha256"] for r in runs if "sha256" in r})
    ref = _reference_hash(args.workload, args.seed, args.smoke)
    if ref is not None and hashes:
        print("csv sha256 " + ("matches" if hashes == [ref] else "differs from")
              + " the seed-0 reference in baseline.json")
    detail = [{k: r.get(k) for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                                     "blas_probe_s", "sha256", "reference")}
              for r in runs]
    print("detail: " + json.dumps({"runs": detail, "setup_s": setup}))
    if not args.trace:
        n_done = sum("wall_s" in r for r in runs)
        for name, (val, unit) in metrics.items():
            n = len(setup) if name == "setup_s" else n_done
            print(f"  {name:<12} {val:12.4f} {unit:<3} median of {n}")
        print(f"  {'failed_frac':<12} {failed / len(runs):12.4f}     "
              f"{failed} of {len(runs)} runs")
    else:
        for name, (val, unit) in metrics.items():
            print(f"  {name:<40} {val:16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
