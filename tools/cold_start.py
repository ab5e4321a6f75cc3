"""Cold command-line calls: wall time and output digest per subcommand.

    python3 tools/cold_start.py [--runs N]

Runs ``python -m convex_cyclic {analyze,interpolate,density}`` on the
README's example inputs, each in N fresh interpreters (default 5, the
commands interleaved so that drift in machine speed spreads over all of
them), with one BLAS thread.  Prints, per command, the median wall time of
a whole process, start-up and imports included, and the SHA-256 of its
stdout, which must be the same in every run.

Run it on two checkouts to compare their cold start and to show that their
outputs match.  It uses the library in the ``src/`` next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "analyze": '{"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}',
    "interpolate": '{"real_nodes": [{"x": -2.0, "targets": [7.0]}]}',
    "density": '{"matrix": {"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}, "vector": [1.0, 1.0], '
    '"targets": [[-4.0, 2.0], [3.0, -5.0]], "poly_budget": 200}',
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per command")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    times: dict[str, list[float]] = {command: [] for command in COMMANDS}
    digests: dict[str, set[str]] = {command: set() for command in COMMANDS}
    for _ in range(args.runs):
        for command, payload in COMMANDS.items():
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "convex_cyclic", command, "--input", payload],
                capture_output=True, env=env, check=True,
            )
            times[command].append(time.perf_counter() - start)
            digests[command].add(hashlib.sha256(proc.stdout).hexdigest())
    for command in COMMANDS:
        if len(digests[command]) != 1:
            sys.exit(f"{command}: stdout differs between runs")
        print(f"{command} {statistics.median(times[command]):.3f} s {digests[command].pop()}", flush=True)


if __name__ == "__main__":
    main()
