"""Command line interface.

Subcommands: ``analyze`` (classification verdict), ``interpolate``
(simplex-feasibility certificate), ``peak`` (peaking certificate),
``orbit`` (CSV trace), ``density`` (hull capture report) and ``selftest``
(the full acceptance battery).  Input is inline JSON or a path; output is
canonically serialized JSON (or CSV for orbits) so identical invocations
are byte-identical.  Set ``CONVEX_CYCLIC_LOG`` to a level name for
diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Any

import numpy as np

from . import __version__
from ._jsonutil import complex_pair, dumps_canonical, parse_complex, parse_real
from .convex_poly import DEFAULT_POWER_CAP, peaking_polynomial
from .dynamics import empirical_density_scan, orbit
from .errors import (
    ConvexCyclicError,
    NoPeakWithinCap,
    NotFoundWithinCap,
    OverflowReached,
    ParseError,
)
from .interpolation import STATUS_INFEASIBLE_AT_CAP, InterpolationProblem, solve
from .jordan_forms import DirectSumSpec, build
from .spectral import MatrixSpec, classify

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 4
EXIT_CAP = 3

_CAP_ERRORS = (NoPeakWithinCap, NotFoundWithinCap, OverflowReached)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="inline JSON (starts with '{') or a path to a JSON file")
    common.add_argument("--output", help="write the result here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="convex-cyclic",
        description="Convex-cyclicity analysis, interpolation and orbit-hull scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text in (
        ("analyze", "classify a matrix or canonical direct sum"),
        ("interpolate", "solve a convex-polynomial interpolation problem"),
        ("peak", "construct a peaking polynomial for a node set"),
        ("orbit", "emit an orbit trace as CSV"),
        ("density", "empirical hull-density scan"),
        ("selftest", "run the acceptance battery"),
    ):
        commands[name] = sub.add_parser(name, parents=[common], help=text)
    # every other flag goes only to the subcommands that read it
    for name in ("analyze", "interpolate", "density"):
        commands[name].add_argument("--tol", type=float, help="tolerance override")
    commands["interpolate"].add_argument("--max-degree", type=int, help="interpolation degree cap")
    commands["peak"].add_argument("--threshold", type=float, help="margin goal override")
    commands["orbit"].add_argument("--horizon", type=int, help="orbit length")
    commands["density"].add_argument("--budget", type=int, help="longest orbit prefix (hull generators)")
    commands["selftest"].add_argument("--seed", type=int, default=0, help="seed of the acceptance battery")
    return parser


def _load_json(args: argparse.Namespace) -> Any:
    raw = args.input
    if raw is None:
        raise ParseError("this command requires --input")
    text = raw if raw.lstrip().startswith("{") else None
    if text is None:
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read input file {raw!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON input: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _matrix_from_obj(obj: Any) -> MatrixSpec:
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object describing a matrix")
    if "blocks" in obj:
        return build(DirectSumSpec.from_jsonable(obj))
    return MatrixSpec.from_jsonable(obj)


def _vector_from_obj(obj: Any, matrix: MatrixSpec, key: str = "vector") -> np.ndarray:
    raw = obj.get(key)
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"'{key}' must be a nonempty list")
    if matrix.field == "real":
        return np.array([parse_real(v, key) for v in raw], dtype=float)
    return np.array([parse_complex(v, key) for v in raw], dtype=complex)


def _cmd_analyze(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    matrix = _matrix_from_obj(obj)
    verdict = classify(matrix, tol=args.tol)
    _emit(args, dumps_canonical(verdict.to_jsonable()))
    return EXIT_OK


def _cmd_interpolate(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object describing the problem")
    if args.max_degree is not None:
        obj = dict(obj, max_degree=args.max_degree)
    if args.tol is not None:
        obj = dict(obj, residual_tol=args.tol)
    problem = InterpolationProblem.from_jsonable(obj)
    certificate = solve(problem)
    _emit(args, dumps_canonical(certificate.to_jsonable()))
    return EXIT_CAP if certificate.status == STATUS_INFEASIBLE_AT_CAP else EXIT_OK


def _cmd_peak(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    if not isinstance(obj, dict) or not isinstance(obj.get("nodes"), list) or not obj["nodes"]:
        raise ParseError("expected an object with a nonempty 'nodes' list")
    nodes = [parse_complex(z, "nodes") for z in obj["nodes"]]
    alpha = obj.get("alpha", "auto")
    if not isinstance(alpha, str):
        alpha = parse_real(alpha, "alpha")
    margin_goal = obj.get("margin_goal", 0.0)
    if args.threshold is not None:
        margin_goal = args.threshold
    power_cap = obj.get("power_cap", DEFAULT_POWER_CAP)
    if isinstance(power_cap, bool) or not isinstance(power_cap, int):
        raise ParseError("'power_cap' must be an integer")
    avoid = bool(obj.get("avoid_real_values", False))
    certificate = peaking_polynomial(
        nodes,
        alpha=alpha,
        margin_goal=parse_real(margin_goal, "margin_goal"),
        power_cap=power_cap,
        avoid_real_values=avoid,
    )
    coeffs = certificate.polynomial.coeffs
    payload = {
        "alpha": certificate.alpha,
        "power": certificate.power,
        "min_power": certificate.min_power,
        "peak_point": complex_pair(certificate.peak_point),
        "peak_value": certificate.peak_value,
        "max_modulus": certificate.max_modulus,
        "margin": certificate.margin,
        "polynomial": {
            "degree": certificate.polynomial.degree,
            "coeffs_nonzero": [[int(i), float(c)] for i, c in enumerate(coeffs) if c != 0.0],
        },
    }
    _emit(args, dumps_canonical(payload))
    return EXIT_OK


def _cmd_orbit(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("expected an object with 'matrix' and 'vector'")
    matrix = _matrix_from_obj(obj["matrix"])
    vector = _vector_from_obj(obj, matrix)
    horizon = args.horizon if args.horizon is not None else obj.get("horizon", 20)
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ParseError("'horizon' must be an integer")
    trace = orbit(matrix, vector, horizon)
    lines = []
    n = trace.points.shape[1]
    if matrix.field == "real":
        lines.append(",".join(["n"] + [f"x{i}" for i in range(n)]))
        for step, row in enumerate(trace.points):
            lines.append(",".join([str(step)] + [format(v, ".17g") for v in row]))
    else:
        header = ["n"]
        for i in range(n):
            header += [f"x{i}_re", f"x{i}_im"]
        lines.append(",".join(header))
        for step, row in enumerate(trace.points):
            cells = [str(step)]
            for v in row:
                cells += [format(v.real, ".17g"), format(v.imag, ".17g")]
            lines.append(",".join(cells))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("expected an object with 'matrix', 'vector' and 'targets'")
    matrix = _matrix_from_obj(obj["matrix"])
    vector = _vector_from_obj(obj, matrix)
    raw_targets = obj.get("targets")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise ParseError("'targets' must be a nonempty list of vectors")
    targets = [_vector_from_obj({"vector": item}, matrix) for item in raw_targets]
    budget = args.budget if args.budget is not None else obj.get("poly_budget", 400)
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ParseError("'poly_budget' must be an integer")
    tolerance = args.tol if args.tol is not None else obj.get("tolerance", 1e-6)
    report = empirical_density_scan(
        matrix, vector, targets, poly_budget=budget, tolerance=parse_real(tolerance, "tolerance")
    )
    _emit(args, dumps_canonical(report.to_jsonable()))
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    # the one import inside a function: no other command pays for the battery
    from . import acceptance

    results = acceptance.run_all(seed=args.seed)
    summary = {
        "passed": all(r.passed for r in results),
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    _emit(args, dumps_canonical(summary))
    return EXIT_OK if summary["passed"] else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "interpolate": _cmd_interpolate,
    "peak": _cmd_peak,
    "orbit": _cmd_orbit,
    "density": _cmd_density,
    "selftest": _cmd_selftest,
}


def _error_payload(exc: Exception) -> str:
    return dumps_canonical({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CONVEX_CYCLIC_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            stream=sys.stderr,
            format="%(name)s %(levelname)s %(message)s",
        )
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_PARSE
    except _CAP_ERRORS as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_CAP
    except ConvexCyclicError as exc:
        sys.stderr.write(_error_payload(exc))
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
