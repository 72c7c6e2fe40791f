"""One `rbclab run` in a fresh process, as a user would start it.

    python3 child.py --src SRC --result OUT.json [--trace] [--probe] -- run CONFIG ...

Imports rbclab from SRC, calls `rbclab.cli.main` with the arguments after
`--`, and writes what it measured to OUT.json: the monotonic time at which
`cli.main` was entered (the parent subtracts its spawn time to get set-up
time), seconds inside `cli.main`, CPU seconds and peak RSS of this process
and its pool workers, a BLAS probe, and with --trace the layer trace.
--probe stops right before `cli.main` (set-up only).
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import resource
import sys
import time

PROBE_N = 65_536         # the dot length the slow BLAS mode was seen at
PROBE_REPS = 20


def _blas_info() -> dict:
    """BLAS vendor and the thread count the program sees."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = int(fn())
                return info
    return info


def _blas_probe_s() -> float:
    """Median seconds of one PROBE_N-element float64 dot in this process."""
    import numpy as np
    a = np.linspace(0.0, 1.0, PROBE_N)
    e = np.ones(PROBE_N)
    times = []
    for _ in range(PROBE_REPS):
        t = time.perf_counter()
        a @ e
        times.append(time.perf_counter() - t)
    times.sort()
    return times[len(times) // 2]


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    t_import = time.perf_counter()
    from rbclab import cli
    out = {"import_s": time.perf_counter() - t_import}
    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.install()

    if args.probe:
        out["t_enter"] = time.monotonic()
        import numpy
        import scipy
        out.update(_blas_info(), python=sys.version.split()[0],
                   numpy=numpy.__version__, scipy=scipy.__version__,
                   numba_importable=importlib.util.find_spec("numba") is not None)
    else:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        out["t_enter"] = time.monotonic()
        t0 = time.perf_counter()
        out["rc"] = cli.main(argv)
        out["wall_s"] = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        ruc = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["cpu_s"] = _cpu(ru1) - _cpu(ru0) + _cpu(ruc)
        out["peak_rss_mb"] = max(ru1.ru_maxrss, ruc.ru_maxrss) / 1024.0
        out["blas_probe_s"] = _blas_probe_s()
        if tracer is not None:
            import layertrace
            out["trace"] = layertrace.summarize(tracer)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
