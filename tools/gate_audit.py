"""Audit the interpolation residual gate against exact rational residuals.

    python3 tools/gate_audit.py [--seeds 0 1 2] [--draws N]

Solves every non-violator problem of the given ``interpolate_round`` seeds
and N draws of ``sample_admissible_problem(np.random.default_rng(0))``
with ``solve``.  Every candidate that the refinement delivers on the way,
with the residual it measured on its own longdouble rows, is judged twice:
by the gate (it is the certificate's polynomial or not) and by its exact
residual, the rational value of every target jet of the stored float64
coefficients, within ``residual_tol`` or not.  Prints four counts over
the candidates: all of them, gate accepts, false accepts (accepted, exact
residual above the tolerance) and false rejects (rejected, exact residual
within it), then one line per disagreement, and exits 1 if there is any.

Run it on two checkouts to compare their gates.  It uses the library in
the ``src/`` next to it and reads ``bench/inputs.py`` without changing
anything there.  One BLAS thread keeps the linear algebra deterministic;
set it in the environment before the run (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from convex_cyclic import interpolation as itp  # noqa: E402
from convex_cyclic.acceptance import _exact_within  # noqa: E402


def candidates(problem: itp.InterpolationProblem) -> list[tuple[int, bool, np.ndarray]]:
    """``(degree, accepted, coeffs)`` of every polished candidate on the
    route of ``solve(problem)``; the degree is the LP's width less one."""
    polish, polished = itp._polish, []

    def recording_polish(problem, eq_rows, *args):
        polished.append((eq_rows.shape[1] - 1, polish(problem, eq_rows, *args)))
        return polished[-1][1]

    itp._polish = recording_polish
    try:
        cert = itp.solve(problem)
    finally:
        itp._polish = polish
    return [(degree, c[0] is cert.polynomial, c[0].coeffs) for degree, c in polished if c is not None]


def problems(seeds: list[int], draws: int):
    for seed in seeds:
        seen = {"narrow": 0, "wide": 0}
        for case in inputs.interpolate_round(seed):
            if case.slice in seen:
                problem = itp.InterpolationProblem(
                    tuple(itp.RealNode(x, t) for x, t in case.real_nodes),
                    tuple(itp.ComplexNode(z, t) for z, t in case.complex_nodes),
                )
                yield f"round {seed} {case.slice} case {seen[case.slice]} ({case.kind})", problem
                seen[case.slice] += 1
    rng = np.random.default_rng(0)
    for k in range(draws):
        yield f"draw {k}", itp.sample_admissible_problem(rng)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2], help="interpolate_round seeds")
    parser.add_argument("--draws", type=int, default=0, help="sampler draws from default_rng(0)")
    args = parser.parse_args()
    # the wide slice's known InfeasibleAtCap ends would log a warning each
    logging.getLogger("convex_cyclic").setLevel(logging.ERROR)
    total = accepts = false_accepts = false_rejects = 0
    disagreements = []
    for label, problem in problems(args.seeds, args.draws):
        for degree, accepted, coeffs in candidates(problem):
            within, residual = _exact_within(problem, coeffs)
            total += 1
            accepts += accepted
            if accepted != within:
                false_accepts += accepted
                false_rejects += within
                verdict = "accepted" if accepted else "rejected"
                disagreements.append(f"{label} degree {degree}: {verdict}, exact residual {residual:.3e}")
    print(f"candidates {total} accepts {accepts} false_accepts {false_accepts} false_rejects {false_rejects}")
    for line in disagreements:
        print(line)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
