"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload lp-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload runs in a fresh worker process with one BLAS/FFT
thread.  With `--trace 0` a few more fresh processes only set up, so that
`setup_s` is a median.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a run record and, with
`--trace 1`, the span file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("lp-grid", "hp-sweep", "oracle-tables")
SETUP_PROBES = 4  # extra set-up-only processes per untraced run
DEADLINE_S = 170.0  # the whole run ends before this


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py once; returns the JSON object on its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hardybench" / "__init__.py").is_file():
        print(f"error: no hardybench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(common + ["--setup-only"], deadline)["setup_s"])
        run = spawn(common, deadline)
    else:
        run = spawn(common + ["--trace-file", str(OUT / f"trace-{stem}.npz")], deadline)
    setups.append(run["setup_s"])

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in run["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(run["round_walls"]["untraced"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "bracket_gap": {"value": run["bracket_gap"], "unit": "dimensionless"},
        }
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups,
                  **{k: run[k] for k in ("round_walls", "op_seconds", "failures", "errors", "env")})
    if args.trace:
        record["self_sum_error_s"] = run["self_sum_error_s"]
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = run["env"]
    print(f"# {args.workload} seed={args.seed}: nproc={env['nproc']} numpy={env['numpy']} "
          f"blas={env['blas']} blas_threads={env['blas_threads']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for line in run["failures"] + run["errors"]:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


if __name__ == "__main__":
    sys.exit(main())
