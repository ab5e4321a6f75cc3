"""Check that no density pool entry raises or fails its check.

    OPENBLAS_NUM_THREADS=1 python3 bench/screen_pool.py

Scans every candidate input of every density slot, as the benchmark
does, prints each candidate that raises or is misreported, and
exits 1 if there is any.  Takes about three minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from convex_cyclic import empirical_density_scan  # noqa: E402


def main() -> int:
    bad = 0
    slots = len(inputs.density_slots())
    for slot in range(slots):
        for draw in range(inputs.DENSITY_DRAWS):
            case = inputs.pool_case(slot, draw)
            try:
                report = empirical_density_scan(case.matrix, case.x, list(case.targets), poly_budget=case.budget)
                problems = checks.check_density(case, report)
            except RuntimeError as exc:
                problems = [repr(exc)]
            if problems:
                bad += 1
                print(f"slot {slot} draw {draw}: {problems}")
    print(f"{bad} of {slots * inputs.DENSITY_DRAWS} candidate scans raised or were misreported")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
