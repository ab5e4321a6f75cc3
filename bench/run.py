"""Benchmark of the convex_cyclic library: one command, two workloads.

    python3 bench/run.py --workload classify --seed 0 --seconds 50 --trace 0

Runs from the root of a source checkout and uses the library in ``src/``.
Every measurement happens in fresh child processes (``bench/workload.py``)
with BLAS and OpenMP pools pinned to one thread:

1. one untimed set-up process warms the bytecode and file caches;
2. SETUP_SAMPLES - 1 set-up processes each time the import and one
   warm-up operation;
3. the workload process times the same set-up, then repeats whole rounds
   of the workload's fixed operation list for ``--seconds``.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead.  A traced run also runs one traced round of each other workload
(their operations are checked but not counted in ``attempted``), so every
per-layer metric is reported on every workload.  The exit code is 0 only
when the run completed; ``correct`` is false if any output failed a check
outside the slices kept as known failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "solve_scan")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CONVEX_CYCLIC_LOG", None)
    return env


def child(args: list[str]) -> dict:
    """Run one workload.py pass and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(round_size: int) -> int:
    """Highest whole percentile with at least 10 calls of a round beyond it."""
    return math.floor(100.0 * (1.0 - 10.0 / round_size))


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "convex_cyclic" / "__init__.py").is_file():
        sys.stderr.write(f"no library source at {ROOT / 'src' / 'convex_cyclic'}\n")
        return 2

    child(["--workload", args.workload, "--setup-only"])
    setups = [child(["--workload", args.workload, "--setup-only"]) for _ in range(SETUP_SAMPLES - 1)]
    main_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run = child(main_args + ["--trace", str(args.trace)])
    setups.append(run)

    correct = run["wrong"] == 0
    if args.trace:
        metrics = {
            "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
            "setup.first_op_s": (statistics.median(s["first_op_s"] for s in setups), "s"),
        }
        metrics.update((name, tuple(v)) for name, v in run["layers"].items())
        for other in WORKLOADS:
            if other != args.workload:
                side = child(["--workload", other, "--seed", str(args.seed), "--seconds", "0", "--trace", "1"])
                correct = correct and side["wrong"] == 0
                metrics.update((name, tuple(v)) for name, v in side["layers"].items())
    else:
        latencies = run["latencies"]
        metrics = {
            "setup_s": (statistics.median(s["import_s"] + s["first_op_s"] for s in setups), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * nearest_rank(latencies, tail_percentile(run["round_size"])), "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    for problem in run["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
