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
  conjugate pair at gap ``NODE_TOLERANCE``, a repeated node;
- ``necessary``: the violations (reasons, nodes, orders and details, in
  order) of ``necessary_target_check`` on 2 000 problems drawn at seed 0,
  their nodes at the realness threshold (``Im u`` at 0, at
  ``+-NODE_TOLERANCE`` or one rounding step past it) with ``Re u`` around 0
  and 1, and their targets around the floors 0 and 1.

A layer is a sequence of entries (one per input: a certificate, a verdict,
a report) and its digest hashes them in order.  Run it on two checkouts to
show that a change leaves every output bit for bit as it was; ``--against
PATH`` does both in one command.  It computes the digests here and, in a
subprocess, on the library in ``PATH/src``, then prints ``same`` or
``DIFFERENT`` per layer, with the indices of the entries that differ, and
exits 1 on any difference.  The digests use the library in the ``src/``
next to this script, or the one the environment variable
``OUTPUT_DIGEST_SRC`` names (the ``--against`` subprocess sets it); with it
set, each line also lists its entries' hashes, comma-separated.  The tool
reads ``bench/inputs.py`` without changing anything there.  One BLAS
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
from typing import Iterable, Iterator

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
    necessary_target_check,
    orbit,
    peaking_polynomial,
    solve,
)
from convex_cyclic import cli  # noqa: E402
from convex_cyclic.acceptance import _peaking_nodes  # noqa: E402
from convex_cyclic.interpolation import DEFAULT_RESIDUAL_TOL, ComplexNode, InterpolationProblem, RealNode  # noqa: E402


def solve_entries(seeds=(0, 1, 2)) -> Iterator[bytes]:
    for seed in seeds:
        for case in inputs.interpolate_round(seed):
            cert = solve(
                InterpolationProblem(
                    tuple(RealNode(x, t) for x, t in case.real_nodes),
                    tuple(ComplexNode(z, t) for z, t in case.complex_nodes),
                )
            )
            entry = repr((cert.status, cert.reason, cert.detail, cert.degree_used, cert.max_residual)).encode()
            if cert.polynomial is not None:
                entry += np.asarray(cert.polynomial.coeffs, dtype=float).tobytes()
            yield entry


def classify_entries(seeds=(0, 1, 2)) -> Iterator[bytes]:
    for seed in seeds:
        for case in inputs.classify_round(seed):
            verdict = classify(MatrixSpec(case.field, case.matrix))
            yield json.dumps(verdict.to_jsonable()).encode()


def density_entries(seeds=(0, 1, 2, 3)) -> Iterator[bytes]:
    for seed in seeds:
        for case in inputs.density_round(seed):
            report = empirical_density_scan(case.matrix, case.x, list(case.targets), poly_budget=case.budget)
            yield repr(report).encode()


def hull_entries(seeds=(0, 1)) -> Iterator[bytes]:
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
                yield repr(result.residual).encode() + result.weights.tobytes()


def peak_entries(seed=0, trials=200) -> Iterator[bytes]:
    rng = np.random.default_rng(seed + 1)  # criterion 2's generator
    for _ in range(trials):
        nodes = _peaking_nodes(rng)
        for avoid in (False, True):
            try:
                cert = peaking_polynomial(nodes, avoid_real_values=avoid)
            except ConvexCyclicError as exc:
                yield repr((type(exc).__name__, str(exc))).encode()
                continue
            fields = (cert.alpha, cert.power, cert.peak_point, cert.peak_value, cert.max_modulus, cert.min_power, cert.margin)
            yield repr(fields).encode() + np.asarray(cert.polynomial.coeffs, dtype=float).tobytes()


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


def cli_entries() -> Iterator[bytes]:
    for command, payload in README_EXAMPLES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--input", payload])
        yield repr((command, code, out.getvalue())).encode()


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


def admissibility_entries(seed=0, trials=2000) -> Iterator[bytes]:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xs, zs = _admissibility_nodes(rng)
        problem = InterpolationProblem(tuple(RealNode(x, (0.0,)) for x in xs), tuple(ComplexNode(z, (0j,)) for z in zs))
        report = check_admissibility(problem)
        yield repr((report.admissible, [(v.reason, v.nodes) for v in report.violations])).encode()


def _necessary_problem(rng: np.random.Generator) -> InterpolationProblem:
    """One to three nodes at ``necessary_target_check``'s realness threshold,
    each with one to three targets around the floors 0 and 1; an exactly real
    node is a ``RealNode`` half the time."""

    def near(v: float) -> float:
        return float(np.nextafter(v, v + int(rng.integers(-1, 2))))

    real_nodes, complex_nodes = [], []
    for _ in range(int(rng.integers(1, 4))):
        x = near(float(rng.choice([0.0, 1.0]))) if rng.uniform() < 0.7 else float(rng.uniform(-1.0, 3.0))
        y = float(rng.choice([0.0, NODE_TOLERANCE, math.nextafter(NODE_TOLERANCE, 1.0)]))
        y *= float(rng.choice([-1.0, 1.0]))
        targets = []
        for _ in range(int(rng.integers(1, 4))):
            # Re w < floor - residual_tol decides; place Re w on that bound, one step off it, or anywhere
            floor = float(rng.choice([0.0, 1.0])) - DEFAULT_RESIDUAL_TOL
            re = near(floor) if rng.uniform() < 0.7 else float(rng.uniform(-1.0, 2.0))
            targets.append(complex(re, float(rng.choice([0.0, 0.0, 2 * DEFAULT_RESIDUAL_TOL]))))
        if y == 0.0 and rng.uniform() < 0.5:
            real_nodes.append(RealNode(x, tuple(w.real for w in targets)))
        else:
            complex_nodes.append(ComplexNode(complex(x, y), tuple(targets)))
    return InterpolationProblem(tuple(real_nodes), tuple(complex_nodes))


def necessary_entries(seed=0, trials=2000) -> Iterator[bytes]:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        violations = necessary_target_check(_necessary_problem(rng))
        yield repr([(v.reason, v.nodes, v.order, v.detail) for v in violations]).encode()


LAYERS = (
    ("solve", solve_entries),
    ("classify", classify_entries),
    ("density", density_entries),
    ("hull", hull_entries),
    ("peak", peak_entries),
    ("cli", cli_entries),
    ("admissibility", admissibility_entries),
    ("necessary", necessary_entries),
)


def digest(entries: Iterable[bytes]) -> tuple[str, list[str]]:
    """The SHA-256 of the entries in order, and each entry's own (16 hex digits)."""
    h = hashlib.sha256()
    each = []
    for entry in entries:
        h.update(entry)
        each.append(hashlib.sha256(entry).hexdigest()[:16])
    return h.hexdigest(), each


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="PATH", help="a checkout whose src/ to digest too and compare")
    args = parser.parse_args()
    # the wide slice's known InfeasibleAtCap ends would log a warning each
    logging.getLogger("convex_cyclic").setLevel(logging.ERROR)
    if args.against is None:
        for name, layer in LAYERS:
            total, each = digest(layer())
            print(f"{name} {total}" + (f" {','.join(each)}" if "OUTPUT_DIGEST_SRC" in os.environ else ""), flush=True)
        return 0
    src = Path(args.against).resolve() / "src"
    if not (src / "convex_cyclic" / "__init__.py").is_file():
        parser.error(f"no library source at {src / 'convex_cyclic'}")
    # the other checkout runs while this one computes its own digests
    other = subprocess.Popen(
        [sys.executable, __file__], env=dict(os.environ, OUTPUT_DIGEST_SRC=str(src)), stdout=subprocess.PIPE, text=True
    )
    here = {name: digest(layer()) for name, layer in LAYERS}
    out, _ = other.communicate()
    if other.returncode != 0:
        raise SystemExit(f"digesting {src} failed with exit code {other.returncode}")
    there = {}
    for line in out.splitlines():
        name, total, each = line.split(" ")
        there[name] = total, each.split(",")
    differ = False
    for name, _ in LAYERS:
        (total, each), (other_total, other_each) = here[name], there[name]
        same = total == other_total
        differ |= not same
        print(f"{name} {'same' if same else 'DIFFERENT'} {total} {other_total}")
        if not same:
            changed = [i for i, (a, b) in enumerate(zip(each, other_each)) if a != b]
            print(f"  {len(changed)} of {len(each)} entries differ ({len(other_each)} there), first: {changed[:50]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
