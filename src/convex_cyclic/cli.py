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
import math
import os
import sys
from typing import Any

import numpy as np

from . import __version__
from ._jsonutil import complex_pair, dumps_canonical, parse_complex, parse_entries, parse_int, parse_real
from .convex_poly import DEFAULT_POWER_CAP, peaking_polynomial
from .dynamics import empirical_density_scan, orbit
from .errors import (
    ConvexCyclicError,
    NoPeakWithinCap,
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

_CAP_ERRORS = (NoPeakWithinCap, OverflowReached)


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
    for name, text in (
        ("analyze", "classify a matrix or canonical direct sum"),
        ("interpolate", "solve a convex-polynomial interpolation problem"),
        ("peak", "construct a peaking polynomial for a node set"),
        ("orbit", "emit an orbit trace as CSV"),
        ("density", "empirical hull-density scan"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    # every other setting is a key of the request JSON; selftest takes no request
    selftest = sub.add_parser("selftest", parents=[common], help="run the acceptance battery")
    selftest.add_argument("--seed", type=int, default=0, help="seed of the acceptance battery")
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
        return json.loads(text, parse_constant=_finite(float), parse_float=_finite(float), parse_int=_finite(int))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON input: {exc}") from exc


def _finite(parse):
    """A JSON number parser that refuses NaN, infinities and literals beyond the float range."""

    def number(literal: str):
        if not math.isfinite(float(literal)):
            raise ParseError(f"invalid JSON input: {literal} is not a finite number")
        return parse(literal)

    return number


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


def _vector(raw: Any, matrix: MatrixSpec, where: str) -> np.ndarray:
    """A vector of the matrix's dimension and field, named ``where`` in errors."""
    if not isinstance(raw, list) or len(raw) != matrix.dimension:
        raise ParseError(f"'{where}' must be a list of {matrix.dimension} entries")
    return parse_entries(raw, matrix.field, where)


def _cmd_analyze(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    matrix = _matrix_from_obj(obj)
    verdict = classify(matrix)
    _emit(args, dumps_canonical(verdict.to_jsonable()))
    return EXIT_OK


def _cmd_interpolate(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object describing the problem")
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
    if alpha != "auto":
        alpha = parse_real(alpha, "alpha")
    power_cap = parse_int(obj.get("power_cap", DEFAULT_POWER_CAP), "'power_cap'")
    avoid = obj.get("avoid_real_values", False)
    if not isinstance(avoid, bool):
        raise ParseError("'avoid_real_values' must be true or false")
    certificate = peaking_polynomial(
        nodes,
        alpha=alpha,
        margin_goal=parse_real(obj.get("margin_goal", 0.0), "margin_goal"),
        power_cap=power_cap,
        avoid_real_values=avoid,
    )
    coeffs = certificate.polynomial.coeffs
    payload = {
        "alpha": certificate.alpha,
        "power": certificate.power,
        "min_power": certificate.power,
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
    vector = _vector(obj.get("vector"), matrix, "vector")
    horizon = parse_int(obj.get("horizon", 20), "'horizon'")
    # a non-finite step is reported as OverflowReached, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        trace = orbit(matrix, vector, horizon)
    finite = np.all(np.isfinite(trace.points), axis=1)
    if not finite.all():
        raise OverflowReached(int(np.argmin(finite)))
    # a complex point's coordinates view as interleaved real and imaginary parts
    names = [f"x{i}" for i in range(trace.points.shape[1])]
    if matrix.field == "complex":
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]
    lines = [",".join(["n"] + names)]
    for step, row in enumerate(trace.points.view(float)):
        lines.append(",".join([str(step)] + [format(v, ".17g") for v in row]))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    obj = _load_json(args)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ParseError("expected an object with 'matrix', 'vector' and 'targets'")
    matrix = _matrix_from_obj(obj["matrix"])
    vector = _vector(obj.get("vector"), matrix, "vector")
    raw_targets = obj.get("targets")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise ParseError("'targets' must be a nonempty list of vectors")
    targets = [_vector(item, matrix, f"targets[{i}]") for i, item in enumerate(raw_targets)]
    budget = parse_int(obj.get("poly_budget", 400), "'poly_budget'")
    report = empirical_density_scan(matrix, vector, targets, poly_budget=budget)
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
