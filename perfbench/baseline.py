"""Measure the benchmark's spread and record its baseline.

    python3 perfbench/baseline.py [--workloads W ...] [--runs 10] [--write]

Runs `run.py` once per seed (0 .. runs-1) on each workload with the
BENCHMARK.json run length, then prints, per end-to-end metric, the median
of the per-run values and their spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound.  With --write it also makes one traced run per
workload at seed 0 and writes baseline.json: the environment, the medians
and spreads, per-run values, the seed-0 CSV sha256 and reference results,
the per-layer metrics of the traced run, and the observations derived from
per-process values (peak RSS modes, slow BLAS share).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from run import BLAS_SLOW_S, WORKLOADS  # noqa: E402


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail: "):
            res["detail"] = json.loads(line[len("detail: "):])
        elif line.startswith("env: "):
            res["env"] = json.loads(line[len("env: "):])
    return res


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true",
                        help="also trace seed 0 and write baseline.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    record = {"workloads": {}}
    steady = True
    for w in args.workloads:
        runs = []
        for seed in range(args.runs):
            res = bench_once(w, seed, seconds, 0)
            runs.append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} {vals}", flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "runs": len(runs), "metrics": {}}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(vals)
            ok = rel <= bound / 3
            steady &= ok or name == "setup_s"
            entry["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": rel,
                "bound": bound, "unit": runs[0]["metrics"][name]["unit"],
                "per_run": vals}
            print(f"  {w:<10} {name:<12} median {med:10.4f}  spread {rel:6.3f}"
                  f"  (bound {bound}, target < {bound / 3:.3f}) "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
        procs = [d for r in runs for d in r["detail"]["runs"] if d.get("wall_s")]
        rss = Counter(round(d["peak_rss_mb"]) for d in procs)
        entry["per_process"] = {
            "processes": len(procs),
            "peak_rss_mb_counts": {str(mb): n for mb, n in sorted(rss.items())},
            "blas_slow_processes": sum(d["blas_probe_s"] > BLAS_SLOW_S for d in procs),
            "wall_s_min_max": [min(d["wall_s"] for d in procs),
                               max(d["wall_s"] for d in procs)],
        }
        seed0 = runs[0]["detail"]["runs"]
        entry["seed0_sha256"] = next((d["sha256"] for d in seed0 if d.get("sha256")), None)
        entry["seed0_reference"] = next((d["reference"] for d in seed0
                                         if d.get("reference")), None)
        record["workloads"][w] = entry
        record["environment"] = runs[0]["env"]
        if args.write:
            tr = bench_once(w, 0, seconds, 1)
            entry["trace_seed0"] = {
                "correct": tr["correct"],
                "metrics": {k: v["value"] for k, v in tr["metrics"].items()}}

    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        old = {}
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)
        old.setdefault("workloads", {}).update(record["workloads"])
        old["environment"] = record["environment"]
        with open(path, "w") as fh:
            json.dump(old, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
