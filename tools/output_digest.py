"""Digests of the library's outputs on the benchmark's seeded inputs.

    python3 tools/output_digest.py
    python3 tools/output_digest.py --against PATH

Prints one SHA-256 per layer:

- ``solve``: the certificates of ``interpolate_round`` seeds 0-2 (status,
  reason, detail, degree, ``max_residual`` and the coefficient bytes);
- ``classify``: ``classify(...).to_jsonable()`` on ``classify_round``
  seeds 0-2;
- ``density``: the ``DensityReport`` of every scan of ``density_round``
  seeds 0-3;
- ``hull``: the residual and the weight bytes (not the verdict) of
  ``hull_contains`` for every target of the budget-400 scans of
  ``density_round`` seeds 0-1, on the orbit prefix the benchmark's trace
  uses (cut where a point first exceeds 1e7 times the largest input norm);
- ``peak``: the peaking certificates of the 200 node sets that acceptance
  criterion 2 draws at seed 0, each with and without ``avoid_real_values``
  (an exception counts by its type and message);
- ``cli``: the exit code and stdout of every command line example in the
  README (``analyze`` on dense rows and on block form, ``interpolate``,
  ``peak``, ``orbit``, ``density``), run in-process through ``cli.main``;
- ``admissibility``: the verdict and the violations (reasons and nodes, in
  order) of ``check_admissibility`` on 2 000 node sets drawn at seed 0,
  most nodes placed at a threshold or one rounding step off it:
  ``x = -1`` (and 0 and 1), ``|z| = 1``, ``|Im z| = NODE_TOLERANCE``, a
  conjugate pair at gap ``NODE_TOLERANCE``, a repeated node.

Run it on two checkouts to show that a change leaves every output bit for
bit as it was; ``--against PATH`` does both in one command.  It computes
the digests here and, in a subprocess, on the library in ``PATH/src``,
then prints ``same`` or ``DIFFERENT`` per layer and exits 1 on any
difference.  The digests use the library in the ``src/`` next to this
script, or the one the environment variable ``OUTPUT_DIGEST_SRC`` names,
and read ``bench/inputs.py`` without changing anything there.  One BLAS
thread keeps the linear algebra deterministic; set it in the environment
before the run (``OPENBLAS_NUM_THREADS=1``), as the benchmark does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [os.environ.get("OUTPUT_DIGEST_SRC", str(ROOT / "src")), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from convex_cyclic import (  # noqa: E402
    ConvexCyclicError,
    HullQuery,
    MatrixSpec,
    NODE_TOLERANCE,
    check_admissibility,
    classify,
    empirical_density_scan,
    hull_contains,
    orbit,
    peaking_polynomial,
    solve,
)
from convex_cyclic import cli  # noqa: E402
from convex_cyclic.acceptance import _peaking_nodes  # noqa: E402
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


def hull_digest(seeds=(0, 1)) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for case in inputs.density_round(seed):
            if case.budget != 400:
                continue
            scale = max([1.0, float(np.linalg.norm(case.x))] + [float(np.linalg.norm(t)) for t in case.targets])
            with np.errstate(over="ignore", invalid="ignore"):
                points = orbit(case.matrix, case.x, case.budget - 1).points
            keep = 1
            while keep < len(points) and np.max(np.abs(points[keep])) <= 1e7 * scale:
                keep += 1
            prefix = tuple(points[:keep])
            for target in case.targets:
                result = hull_contains(HullQuery(prefix, target))
                h.update(repr(result.residual).encode())
                h.update(result.weights.tobytes())
    return h.hexdigest()


def peak_digest(seed=0, trials=200) -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(seed + 1)  # criterion 2's generator
    for _ in range(trials):
        nodes = _peaking_nodes(rng)
        for avoid in (False, True):
            try:
                cert = peaking_polynomial(nodes, avoid_real_values=avoid)
            except ConvexCyclicError as exc:
                h.update(repr((type(exc).__name__, str(exc))).encode())
                continue
            fields = (cert.alpha, cert.power, cert.peak_point, cert.peak_value, cert.max_modulus, cert.min_power, cert.margin)
            h.update(repr(fields).encode())
            h.update(np.asarray(cert.polynomial.coeffs, dtype=float).tobytes())
    return h.hexdigest()


README_EXAMPLES = (
    ("analyze", '{"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}'),
    (
        "analyze",
        '{"blocks": [{"type": "diag", "value": -2.0}, {"type": "jordan", "k": 2, "lambda": [0.0, 2.0]}, '
        '{"type": "real_jordan", "k": 1, "r": 2.0, "theta": 1.0}]}',
    ),
    ("interpolate", '{"real_nodes": [{"x": -2.0, "targets": [7.0]}]}'),
    ("peak", '{"nodes": [[0.0, 2.0], [-2.0, 0.0]]}'),
    ("orbit", '{"matrix": {"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}, "vector": [1.0, 1.0], "horizon": 3}'),
    (
        "density",
        '{"matrix": {"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}, "vector": [1.0, 1.0], '
        '"targets": [[-4.0, 2.0], [3.0, -5.0]], "poly_budget": 200}',
    ),
)


def cli_digest() -> str:
    h = hashlib.sha256()
    for command, payload in README_EXAMPLES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--input", payload])
        h.update(repr((command, code, out.getvalue())).encode())
    return h.hexdigest()


def _admissibility_nodes(rng: np.random.Generator) -> tuple[list[float], list[complex]]:
    """Up to three real and three complex nodes, each random or placed at one
    of ``check_admissibility``'s thresholds or one rounding step off it."""

    def near(v: float) -> float:
        return float(np.nextafter(v, v + int(rng.integers(-1, 2))))

    xs = [
        float(rng.uniform(-3.0, 2.0)) if rng.uniform() < 0.5 else near(float(rng.choice([-1.0, 0.0, 1.0])))
        for _ in range(int(rng.integers(0, 4)))
    ]
    zs: list[complex] = []
    for _ in range(int(rng.integers(0, 4))):
        turn = complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))  # |turn| rounds to 1 or a step off it
        earlier = [complex(u) for u in xs + zs] or [turn]
        other = earlier[int(rng.integers(len(earlier)))]
        placements = (
            turn * float(rng.uniform(0.5, 3.0)),
            turn,
            complex(0.0, near(1.0)),
            complex(rng.uniform(-3.0, 3.0), math.copysign(near(NODE_TOLERANCE), turn.imag)),
            other.conjugate() + near(NODE_TOLERANCE),  # a conjugate pair at gap NODE_TOLERANCE
            other,  # a repeated node
        )
        zs.append(placements[int(rng.integers(len(placements)))])
    return xs, zs


def admissibility_digest(seed=0, trials=2000) -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xs, zs = _admissibility_nodes(rng)
        problem = InterpolationProblem(tuple(RealNode(x, (0.0,)) for x in xs), tuple(ComplexNode(z, (0j,)) for z in zs))
        report = check_admissibility(problem)
        h.update(repr((report.admissible, [(v.reason, v.nodes) for v in report.violations])).encode())
    return h.hexdigest()


DIGESTS = (
    ("solve", solve_digest),
    ("classify", classify_digest),
    ("density", density_digest),
    ("hull", hull_digest),
    ("peak", peak_digest),
    ("cli", cli_digest),
    ("admissibility", admissibility_digest),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="PATH", help="a checkout whose src/ to digest too and compare")
    args = parser.parse_args()
    # the wide slice's known InfeasibleAtCap ends would log a warning each
    logging.getLogger("convex_cyclic").setLevel(logging.ERROR)
    if args.against is None:
        for name, digest in DIGESTS:
            print(f"{name} {digest()}", flush=True)
        return 0
    src = Path(args.against).resolve() / "src"
    if not (src / "convex_cyclic" / "__init__.py").is_file():
        parser.error(f"no library source at {src / 'convex_cyclic'}")
    # the other checkout runs while this one computes its own digests
    other = subprocess.Popen(
        [sys.executable, __file__], env=dict(os.environ, OUTPUT_DIGEST_SRC=str(src)), stdout=subprocess.PIPE, text=True
    )
    here = {name: digest() for name, digest in DIGESTS}
    out, _ = other.communicate()
    if other.returncode != 0:
        raise SystemExit(f"digesting {src} failed with exit code {other.returncode}")
    there = dict(line.split() for line in out.splitlines())
    differ = False
    for name, _ in DIGESTS:
        same = here[name] == there.get(name)
        differ |= not same
        print(f"{name} {'same' if same else 'DIFFERENT'} {here[name]} {there.get(name)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
