"""One workload in one fresh process, with one BLAS/FFT thread.

Started by run.py, which passes the CLOCK_MONOTONIC time at which it
started this process, so set-up time counts from process start.  Prints one
JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload hp-sweep --seed 1 --seconds 30 \
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402  (imports every hardybench module the tracer wraps)


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timed_round(wl, tracer=None):
    """One round; returns (wall seconds, results, errors, seconds by op).

    Checks run later, outside the timed region."""
    if tracer is None:
        t0 = time.perf_counter()
        out = wl.run_round()
        return (time.perf_counter() - t0, *out)
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.round():
            out = wl.run_round()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return (wall, *out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    walls = {"untraced": [], "traced": []}
    attempted = failed = 0
    gaps, failures, errors_seen = [], [], []
    op_seconds: dict[str, list[float]] = {}
    loop_start = time.monotonic()
    while True:
        step_start = time.monotonic()
        # with tracing, alternate an untraced and a traced round
        for mode in (("untraced", "traced") if tracer else ("untraced",)):
            wall, results, errors, seconds = timed_round(wl, tracer if mode == "traced" else None)
            walls[mode].append(wall)
            for label, t in seconds.items():
                op_seconds.setdefault(label, []).append(t)
            gap, bad = wl.check(results)
            attempted += len(wl.ops)
            failed += len(errors)
            gaps.append(gap)
            failures.extend(bad)
            errors_seen.extend(f"{k}: {v}" for k, v in errors.items())
        now = time.monotonic()
        if now - loop_start + (now - step_start) > args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "failures": failures[:20],
        "errors": sorted(set(errors_seen))[:20],
        "round_walls": walls,
        "op_seconds": op_seconds,
        "bracket_gap": statistics.median(gaps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
        rounds = tracer.round_metrics()
        per_round = [spans.layer_metrics(r, overhead) for r in rounds]
        # counts repeat exactly from round to round; times take the median
        out["layers"] = {
            k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                m[k] for m in per_round)
            for k, v in per_round[0].items()
        }
        out["self_sum_error_s"] = max(abs(r["self_sum_s"] - w) for r, w in zip(rounds, walls["traced"]))
        if args.trace_file:
            tracer.save(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
