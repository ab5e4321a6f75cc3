"""Each output checker accepts the program's output and rejects a corrupted copy.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from convex_cyclic import MatrixSpec, classify, empirical_density_scan, solve  # noqa: E402
from convex_cyclic.interpolation import ComplexNode, InterpolationProblem, RealNode  # noqa: E402


def test_verdict_checker_rejects_a_flipped_flag():
    case = inputs.classify_warmup()
    verdict = classify(MatrixSpec(case.field, case.matrix))
    assert checks.check_verdict(case, verdict) == []
    for flag in ("is_cyclic", "is_convex_cyclic", "invariant_convex_sets_are_subspaces"):
        flipped = dataclasses.replace(verdict, **{flag: not getattr(verdict, flag)})
        assert checks.check_verdict(case, flipped)


def test_verdict_checker_rejects_a_moved_eigenvalue():
    case = inputs.classify_warmup()
    verdict = classify(MatrixSpec(case.field, case.matrix))
    infos = list(verdict.eigenstructure.eigenvalues)
    infos[0] = dataclasses.replace(infos[0], value=infos[0].value + 1e-6)
    moved = dataclasses.replace(
        verdict, eigenstructure=dataclasses.replace(verdict.eigenstructure, eigenvalues=tuple(infos))
    )
    assert checks.check_verdict(case, moved)


def test_expected_verdicts_cover_every_reason():
    reasons = set()
    for case in inputs.classify_round(0):
        reasons |= checks.expected_verdict(case)[3]
    assert reasons == {
        checks.NOT_CYCLIC,
        checks.REPEATED,
        checks.IN_DISK,
        checks.REAL,
        checks.NONNEGATIVE_REAL,
        checks.CONJUGATE_PAIR,
    }


def _problem(case):
    return InterpolationProblem(
        tuple(RealNode(x, t) for x, t in case.real_nodes),
        tuple(ComplexNode(z, t) for z, t in case.complex_nodes),
    )


def test_certificate_checker_rejects_a_coefficient_moved_by_1e_6():
    case = inputs.interpolate_warmup()
    problem = _problem(case)
    cert = solve(problem)
    assert checks.check_certificate(case, cert, problem.max_degree, problem.residual_tol) == []
    coeffs = [float(c) for c in cert.polynomial.coeffs]
    for index in (0, len(coeffs) - 1):
        moved = list(coeffs)
        moved[index] += 1e-6
        corrupt = SimpleNamespace(
            status=cert.status, polynomial=SimpleNamespace(coeffs=moved), degree_used=cert.degree_used
        )
        problems = checks.check_certificate(case, corrupt, problem.max_degree, problem.residual_tol)
        assert any("residual" in p for p in problems)
        assert any("sum" in p for p in problems)


def test_rejection_checker_rejects_a_wrong_reason():
    case = next(c for c in inputs.interpolate_round(0) if c.slice == "violator")
    cert = solve(_problem(case))
    assert checks.check_rejection(case, cert) == []
    assert checks.check_rejection(case, dataclasses.replace(cert, reason="ValueAtOne" if case.kind != "ValueAtOne" else "DiskBound"))


def test_density_checker_rejects_an_inside_target_reported_missed():
    case = inputs.density_warmup()
    report = empirical_density_scan(case.matrix, case.x, list(case.targets), poly_budget=case.budget)
    assert checks.check_density(case, report) == []
    inside = case.inside.index(True)
    missed = dataclasses.replace(
        report,
        captured=report.captured - 1,
        fraction=(report.captured - 1) / report.total,
        miss_indices=tuple(sorted(report.miss_indices + (inside,))),
    )
    assert checks.check_density(case, missed)
