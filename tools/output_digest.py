"""Digests of the library's outputs on the benchmark's seeded inputs.

    python3 tools/output_digest.py

Prints one SHA-256 per layer:

- ``solve``: the certificates of ``interpolate_round`` seeds 0-2 (status,
  reason, detail, degree, ``max_residual`` and the coefficient bytes);
- ``classify``: ``classify(...).to_jsonable()`` on ``classify_round``
  seeds 0-2;
- ``density``: the ``DensityReport`` of every scan of ``density_round``
  seeds 0-3.

Run it on two checkouts to show that a change leaves every output bit for
bit as it was.  It uses the library in the ``src/`` next to it and reads
``bench/inputs.py`` without changing anything there.  One BLAS thread keeps
the linear algebra deterministic; set it in the environment before the run
(``OPENBLAS_NUM_THREADS=1``), as the benchmark does.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from convex_cyclic import MatrixSpec, classify, empirical_density_scan, solve  # noqa: E402
from convex_cyclic.interpolation import ComplexNode, InterpolationProblem, RealNode  # noqa: E402


def solve_digest(seeds=(0, 1, 2)) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for case in inputs.interpolate_round(seed):
            cert = solve(
                InterpolationProblem(
                    tuple(RealNode(x, t) for x, t in case.real_nodes),
                    tuple(ComplexNode(z, t) for z, t in case.complex_nodes),
                )
            )
            h.update(repr((cert.status, cert.reason, cert.detail, cert.degree_used, cert.max_residual)).encode())
            if cert.polynomial is not None:
                h.update(np.asarray(cert.polynomial.coeffs, dtype=float).tobytes())
    return h.hexdigest()


def classify_digest(seeds=(0, 1, 2)) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for case in inputs.classify_round(seed):
            verdict = classify(MatrixSpec(case.field, case.matrix))
            h.update(json.dumps(verdict.to_jsonable()).encode())
    return h.hexdigest()


def density_digest(seeds=(0, 1, 2, 3)) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for case in inputs.density_round(seed):
            report = empirical_density_scan(case.matrix, case.x, list(case.targets), poly_budget=case.budget)
            h.update(repr(report).encode())
    return h.hexdigest()


def main() -> None:
    # the wide slice's known InfeasibleAtCap ends would log a warning each
    logging.getLogger("convex_cyclic").setLevel(logging.ERROR)
    for name, digest in (("solve", solve_digest), ("classify", classify_digest), ("density", density_digest)):
        print(f"{name} {digest()}", flush=True)


if __name__ == "__main__":
    main()
