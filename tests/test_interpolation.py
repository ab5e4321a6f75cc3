"""Tests for simplex-constrained Hermite interpolation and annihilators."""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from convex_cyclic import interpolation as itp
from convex_cyclic.acceptance import _exact_jet
from convex_cyclic.convex_poly import ConvexPolynomial
from convex_cyclic.errors import ParseError, PreconditionViolated
from convex_cyclic.jordan_forms import JordanBlockSpec, build, matrix_polynomial
from convex_cyclic.spectral import classify


def _exact_within_tol(problem: itp.InterpolationProblem, p: ConvexPolynomial) -> bool:
    """Whether every target jet of the stored coefficients is within
    ``residual_tol`` of its target, decided in rational arithmetic."""
    tol2 = Fraction(problem.residual_tol) ** 2
    jets = [(complex(n.x), n.targets) for n in problem.real_nodes]
    jets += [(n.z, n.targets) for n in problem.complex_nodes]
    for z, targets in jets:
        for order, w in enumerate(targets):
            vr, vi = _exact_jet(p.coeffs, order, z)
            w = complex(w)
            if (vr - Fraction(w.real)) ** 2 + (vi - Fraction(w.imag)) ** 2 > tol2:
                return False
    return True


class TestProblem:
    def test_wire_round_trip(self):
        problem = itp.InterpolationProblem(
            real_nodes=(itp.RealNode(-2.0, (7.0, 1.0)),),
            complex_nodes=(itp.ComplexNode(2j, (3.0 + 1.0j,)),),
            max_degree=64,
            residual_tol=1e-9,
        )
        wire = json.loads(
            '{"real_nodes": [{"x": -2.0, "targets": [7.0, 1.0]}], '
            '"complex_nodes": [{"z": [0.0, 2.0], "targets": [[3.0, 1.0]]}], '
            '"max_degree": 64, "residual_tol": 1e-9}'
        )
        assert itp.InterpolationProblem.from_jsonable(wire) == problem

    def test_constraint_count_doubles_complex_targets(self):
        problem = itp.InterpolationProblem(
            real_nodes=(itp.RealNode(-2.0, (7.0, 1.0)),),
            complex_nodes=(itp.ComplexNode(2j, (3.0 + 1.0j,)),),
        )
        assert problem.constraint_count() == 4

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            itp.InterpolationProblem.from_jsonable([])
        with pytest.raises(ParseError):
            itp.InterpolationProblem.from_jsonable({"real_nodes": [{"targets": [1.0]}]})
        with pytest.raises(ParseError):
            itp.InterpolationProblem.from_jsonable({"real_nodes": [{"x": "a", "targets": []}]})
        with pytest.raises(ParseError):
            itp.InterpolationProblem.from_jsonable({"complex_nodes": [{"z": [1.0], "targets": []}]})
        with pytest.raises(ParseError):
            itp.InterpolationProblem.from_jsonable({"max_degree": "many"})
        # well-typed values that break a precondition are not parse errors
        with pytest.raises(PreconditionViolated):
            itp.InterpolationProblem.from_jsonable({"max_degree": 0})
        with pytest.raises(PreconditionViolated):
            itp.InterpolationProblem.from_jsonable({"residual_tol": 0})

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            itp.RealNode(float("nan"), (1.0,))
        with pytest.raises(PreconditionViolated):
            itp.InterpolationProblem(max_degree=0)
        with pytest.raises(PreconditionViolated):
            itp.InterpolationProblem(residual_tol=0.0)

    def test_residual_tol_must_be_finite(self):
        # an infinite tolerance would let the gate accept any candidate
        for tol in (math.inf, math.nan):
            with pytest.raises(PreconditionViolated):
                itp.InterpolationProblem(residual_tol=tol)

    def test_status_codes_are_exported(self):
        from convex_cyclic import STATUS_FEASIBLE, STATUS_INFEASIBLE_AT_CAP, STATUS_INFEASIBLE_NECESSARY

        assert (STATUS_FEASIBLE, STATUS_INFEASIBLE_NECESSARY, STATUS_INFEASIBLE_AT_CAP) == (
            "Feasible",
            "InfeasibleNecessary",
            "InfeasibleAtCap",
        )


# node placements at or one rounding step off a clause threshold: x = -1,
# |z| = 1, |Im z| = NODE_TOLERANCE, conjugates at gap NODE_TOLERANCE, 0 and 1
_THRESHOLD_REALS = (-1.0, math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0), 0.0, -0.0, 1.0, -2.0, 0.5, 3.0)
_THRESHOLD_COMPLEX = (
    0.6 + 0.8j, cmath.exp(5j / 7), 1j, complex(0.0, math.nextafter(1.0, 2.0)), -1.0 + 0j, 1.0 + 0j, 2.0 + 0j,
    2.0 + 1e-10j, -3.0 - 1e-10j, complex(2.0, math.nextafter(1e-10, 1.0)), 2.0 + 1.0j, 2.0 - 1.0j + 1e-10,
    2.0 - 1.0j, 1.0 + 1e-11 + 1e-11j, 0.5 - 0.5j, -2.0 + 0j,
)


def _threshold_problems(seed, targets):
    """Node sets drawn from the threshold placements, each node with targets ``targets(rng)``."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        xs = [_THRESHOLD_REALS[k] for k in rng.integers(0, len(_THRESHOLD_REALS), int(rng.integers(0, 4)))]
        zs = [_THRESHOLD_COMPLEX[k] for k in rng.integers(0, len(_THRESHOLD_COMPLEX), int(rng.integers(0, 4)))]
        yield itp.InterpolationProblem(
            tuple(itp.RealNode(x, tuple(t.real for t in targets(rng))) for x in xs),
            tuple(itp.ComplexNode(z, targets(rng)) for z in zs),
        )


def _reference_admissibility(problem):
    """The clause loops ``check_admissibility`` ran before ``_node_clauses``."""
    nodes = problem.all_nodes()
    out = [(itp.VIOLATION_DUPLICATE_NODE, (nodes[i], nodes[j])) for i, j in itp.node_pairs(nodes)]
    out += [(itp.VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE, (complex(n.x),)) for n in problem.real_nodes if not n.x < -1.0]
    for node in problem.complex_nodes:
        if abs(node.z.imag) <= itp.NODE_TOLERANCE:
            out.append((itp.VIOLATION_COMPLEX_NODE_REAL, (node.z,)))
        if abs(node.z) <= 1.0:
            out.append((itp.VIOLATION_COMPLEX_NODE_IN_CLOSED_DISK, (node.z,)))
    cplx = [n.z for n in problem.complex_nodes]
    out += [(itp.VIOLATION_CONJUGATE_NODE_PAIR, (cplx[i], cplx[j])) for i, j in itp.node_pairs(cplx, conjugate=True)]
    return out


def _reference_necessary(problem):
    """The checks ``necessary_target_check`` ran before ``_node_clauses``, in
    their order, as ``(reason, nodes, order)``."""
    tol, out = problem.residual_tol, []
    for node in problem.complex_nodes:
        if abs(node.z.imag) <= itp.NODE_TOLERANCE:
            out += [(itp.NECESSARY_REAL_TARGET, (node.z,), j) for j, w in enumerate(node.targets) if abs(w.imag) > tol]
    jets = [(complex(n.x), [complex(t) for t in n.targets]) for n in problem.real_nodes]
    for u, targets in jets + [(n.z, n.targets) for n in problem.complex_nodes]:
        if not targets:
            continue
        if abs(u - 1.0) <= itp.NODE_TOLERANCE and abs(targets[0] - 1.0) > tol:
            out.append((itp.NECESSARY_VALUE_AT_ONE, (u,), 0))
        elif abs(u) <= 1.0 + itp.NODE_TOLERANCE and abs(targets[0]) > 1.0 + tol:
            out.append((itp.NECESSARY_DISK_BOUND, (u,), 0))
    cplx = problem.complex_nodes
    for i, k in itp.node_pairs([n.z for n in cplx], conjugate=True):
        for j in range(min(len(cplx[i].targets), len(cplx[k].targets))):
            if abs(cplx[i].targets[j] - cplx[k].targets[j].conjugate()) > 2 * tol:
                out.append((itp.NECESSARY_CONJUGATE_SYMMETRY, (cplx[i].z, cplx[k].z), j))
    return out


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: itp.RealNode(-2.0, (math.inf,)), PreconditionViolated, "real targets must be finite"),
        (lambda: itp.ComplexNode(complex(math.nan, 2.0), ()), PreconditionViolated, "complex node must be finite"),
        (lambda: itp.ComplexNode(2j, (complex(1.0, -math.inf),)), PreconditionViolated, "complex targets must be finite"),
        (
            lambda: itp.InterpolationProblem.from_jsonable({"real_nodes": [{"x": -2.0, "targets": 7.0}]}),
            ParseError,
            r"real_nodes\[0\]: 'targets' must be a list",
        ),
        (
            lambda: itp.InterpolationProblem.from_jsonable({"complex_nodes": [{"targets": []}]}),
            ParseError,
            r"complex_nodes\[0\]: expected an object",
        ),
        (
            lambda: itp.InterpolationProblem.from_jsonable({"complex_nodes": [{"z": [0.0, 2.0], "targets": "x"}]}),
            ParseError,
            r"complex_nodes\[0\]: 'targets' must be a list",
        ),
    ],
    ids=["real-target", "complex-node", "complex-target", "real-targets-shape", "complex-node-shape", "targets-shape"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestAdmissibility:
    def test_admissible_example(self):
        problem = itp.InterpolationProblem(
            real_nodes=(itp.RealNode(-2.0, (1.0,)),),
            complex_nodes=(itp.ComplexNode(2.0 + 2.0j, (0.0,)),),
        )
        report = itp.check_admissibility(problem)
        assert report.admissible
        assert report.violations == ()

    def test_duplicate_node(self):
        problem = itp.InterpolationProblem(
            real_nodes=(itp.RealNode(-2.0, ()), itp.RealNode(-2.0, ()))
        )
        reasons = [v.reason for v in itp.check_admissibility(problem).violations]
        assert reasons == [itp.VIOLATION_DUPLICATE_NODE]

    def test_real_node_not_below_minus_one(self):
        for x in (-0.5, -1.0, 0.0, 2.0):
            problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(x, ()),))
            reasons = {v.reason for v in itp.check_admissibility(problem).violations}
            assert itp.VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE in reasons

    def test_complex_node_in_closed_disk(self):
        for z in (0.5j, 1.0j, 0.3 + 0.4j):
            problem = itp.InterpolationProblem(complex_nodes=(itp.ComplexNode(z, ()),))
            reasons = {v.reason for v in itp.check_admissibility(problem).violations}
            assert itp.VIOLATION_COMPLEX_NODE_IN_CLOSED_DISK in reasons

    def test_complex_node_real(self):
        problem = itp.InterpolationProblem(complex_nodes=(itp.ComplexNode(2.0 + 0.0j, ()),))
        reasons = {v.reason for v in itp.check_admissibility(problem).violations}
        assert reasons == {itp.VIOLATION_COMPLEX_NODE_REAL}

    def test_conjugate_node_pair(self):
        problem = itp.InterpolationProblem(
            complex_nodes=(itp.ComplexNode(2.0 + 1.0j, ()), itp.ComplexNode(2.0 - 1.0j, ()))
        )
        reasons = {v.reason for v in itp.check_admissibility(problem).violations}
        assert reasons == {itp.VIOLATION_CONJUGATE_NODE_PAIR}

    def test_report_names_the_violating_node(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(-0.5, ()),))
        report = itp.check_admissibility(problem)
        assert report.admissible is False
        assert report.violations == (
            itp.AdmissibilityViolation(itp.VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE, (-0.5 + 0j,)),
        )

    def test_matches_the_clause_loops_it_replaced(self):
        for problem in _threshold_problems(81, lambda rng: ()):
            report = itp.check_admissibility(problem)
            assert [(v.reason, v.nodes) for v in report.violations] == _reference_admissibility(problem)
            assert report.admissible == (not report.violations)

    def test_a_real_node_fails_once_however_many_clauses_it_fails(self):
        # 0.5 is a nonnegative real and in the disk, yet one violation
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(0.5, ()), itp.RealNode(-1.0, ())))
        assert [v.nodes for v in itp.check_admissibility(problem).violations] == [(0.5 + 0j,), (-1.0 + 0j,)]


class TestNecessaryChecks:
    def test_disk_bound(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(0.5, (2.0,)),))
        reasons = [v.reason for v in itp.necessary_target_check(problem)]
        assert reasons == [itp.NECESSARY_DISK_BOUND]
        assert itp.solve(problem).reason == itp.NECESSARY_DISK_BOUND

    def test_value_at_one(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(1.0, (3.0,)),))
        reasons = [v.reason for v in itp.necessary_target_check(problem)]
        assert reasons == [itp.NECESSARY_VALUE_AT_ONE]

    def test_value_exactly_one_at_one_passes(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(1.0, (1.0,)),))
        assert itp.necessary_target_check(problem) == []
        assert itp.solve(problem).status == itp.STATUS_FEASIBLE

    def test_real_target_on_real_entry_of_complex_list(self):
        problem = itp.InterpolationProblem(
            complex_nodes=(itp.ComplexNode(-2.0 + 0.0j, (1.0j,)),)
        )
        reasons = [v.reason for v in itp.necessary_target_check(problem)]
        assert reasons == [itp.NECESSARY_REAL_TARGET]

    def test_conjugate_symmetry(self):
        problem = itp.InterpolationProblem(
            complex_nodes=(
                itp.ComplexNode(2.0 + 2.0j, (3.0 + 1.0j,)),
                itp.ComplexNode(2.0 - 2.0j, (3.0 + 1.0j,)),
            )
        )
        reasons = [v.reason for v in itp.necessary_target_check(problem)]
        assert reasons == [itp.NECESSARY_CONJUGATE_SYMMETRY]

    def test_matches_the_checks_it_replaced(self):
        # targets near 1, on and off the real axis, so that every check fires somewhere
        def targets(rng):
            count = int(rng.integers(0, 3))
            return tuple(complex(rng.choice([1.0, 0.5, 3.0, -2.0]), rng.choice([0.0, 0.0, 1e-9, 0.7])) for _ in range(count))

        reasons = set()
        for problem in _threshold_problems(82, targets):
            found = [(v.reason, v.nodes, v.order) for v in itp.necessary_target_check(problem)]
            expected = _reference_necessary(problem)
            # the nonnegative-node check is new and comes after every other one
            assert found[: len(expected)] == expected
            assert {reason for reason, *_ in found[len(expected) :]} <= {itp.NECESSARY_NONNEGATIVE_NODE}
            reasons.update(reason for reason, *_ in found)
        assert len(reasons) == 5

    def test_conjugate_pair_with_consistent_targets_is_feasible(self):
        problem = itp.InterpolationProblem(
            complex_nodes=(
                itp.ComplexNode(2.0 + 2.0j, (3.0 + 1.0j,)),
                itp.ComplexNode(2.0 - 2.0j, (3.0 - 1.0j,)),
            )
        )
        assert itp.necessary_target_check(problem) == []
        cert = itp.solve(problem)
        assert cert.status == itp.STATUS_FEASIBLE
        assert _exact_within_tol(problem, cert.polynomial)


class TestNonNegativeNodes:
    """At a real node u >= 0 every convex-polynomial has p^(j)(u) >= 0, and p(u) >= 1 at u >= 1."""

    @pytest.mark.parametrize(
        "real_nodes, complex_nodes, order",
        [
            ((itp.RealNode(2.0, (0.5,)),), (), 0),
            ((itp.RealNode(0.5, (-0.1,)),), (), 0),
            ((itp.RealNode(2.0, (3.0, -1.0)),), (), 1),
            ((itp.RealNode(0.0, (-0.5,)),), (), 0),
            ((itp.RealNode(-2.0, (1.0,)), itp.RealNode(3.0, (0.9,))), (), 0),
            ((), (itp.ComplexNode(2.0 + 0j, (0.5,)),), 0),
            # just off the axis, real as for RealTarget; the LPs would escalate to the cap
            ((), (itp.ComplexNode(2.0 + 1e-12j, (0.5,)),), 0),
            ((), (itp.ComplexNode(complex(1.5, -itp.NODE_TOLERANCE), (0.5, -1.0)),), 0),
        ],
    )
    def test_provably_infeasible_targets_are_rejected_before_any_lp(self, monkeypatch, real_nodes, complex_nodes, order):
        problem = itp.InterpolationProblem(real_nodes, complex_nodes)
        (violation,) = itp.necessary_target_check(problem)
        assert (violation.reason, violation.order) == (itp.NECESSARY_NONNEGATIVE_NODE, order)
        monkeypatch.setattr(itp, "_highs_solver", None)  # any LP would now raise
        cert = itp.solve(problem)
        assert (cert.status, cert.reason) == (itp.STATUS_INFEASIBLE_NECESSARY, itp.NECESSARY_NONNEGATIVE_NODE)

    def test_the_node_tolerance_decides_both_real_checks(self):
        # at 1e-10 off the axis a non-real target is a RealTarget and a value
        # below 1 a NonNegativeNode; one rounding step further out neither applies
        cases = (
            (itp.NODE_TOLERANCE, [itp.NECESSARY_REAL_TARGET, itp.NECESSARY_NONNEGATIVE_NODE]),
            (math.nextafter(itp.NODE_TOLERANCE, 1.0), []),
        )
        for imag, reasons in cases:
            problem = itp.InterpolationProblem(complex_nodes=(itp.ComplexNode(complex(3.0, imag), (0.5 + 1e-6j,)),))
            assert [v.reason for v in itp.necessary_target_check(problem)] == reasons

    @pytest.mark.parametrize("u", [1e-10j, complex(1.0, 1e-12)])
    def test_off_the_exact_axis_derivative_targets_are_not_floored(self, u):
        # z^16 is a convex-polynomial; at 1e-10j its 14th derivative is
        # (16!/2) * (1e-10j)^2, about -1.05e-7, below -residual_tol
        jet = tuple(complex(*map(float, _exact_jet([0.0] * 16 + [1.0], j, u))) for j in range(15))
        problem = itp.InterpolationProblem(complex_nodes=(itp.ComplexNode(u, jet),))
        assert itp.NECESSARY_NONNEGATIVE_NODE not in [v.reason for v in itp.necessary_target_check(problem)]

    def test_value_at_one_still_reports_first(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(1.0, (-3.0,)),))
        reasons = [v.reason for v in itp.necessary_target_check(problem)]
        assert reasons == [itp.NECESSARY_VALUE_AT_ONE, itp.NECESSARY_NONNEGATIVE_NODE]
        assert itp.solve(problem).reason == itp.NECESSARY_VALUE_AT_ONE

    def test_targets_on_the_bounds_pass(self):
        for node in (itp.RealNode(2.0, (1.0, 0.0)), itp.RealNode(0.0, (0.0, 0.0, 0.0)), itp.RealNode(0.5, (1e-9 - 1e-8,))):
            assert itp.necessary_target_check(itp.InterpolationProblem(real_nodes=(node,))) == []

    def test_a_node_just_left_of_zero_is_not_checked(self):
        # p = z^11 at u = -1e-11: its tenth derivative 11! * u is far below
        # -residual_tol, so a check with NODE_TOLERANCE slack at 0 would
        # reject targets that p meets
        u = -1e-11
        jets = tuple(math.perm(11, j) * u ** (11 - j) for j in range(11))
        assert jets[10] < -1e-4
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(u, jets),))
        assert itp.necessary_target_check(problem) == []
        assert _exact_within_tol(problem, ConvexPolynomial([0.0] * 11 + [1.0]))


class TestSolve:
    def test_frozen_single_value(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (7.0,)),))
        cert = itp.solve(problem)
        assert cert.status == itp.STATUS_FEASIBLE
        assert cert.is_feasible
        assert cert.degree_used <= problem.max_degree
        assert cert.max_residual <= problem.residual_tol
        assert _exact_within_tol(problem, cert.polynomial)

    def test_frozen_hermite_pair(self):
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (0.0, 1.0)),))
        cert = itp.solve(problem)
        assert cert.status == itp.STATUS_FEASIBLE
        assert cert.degree_used == 4
        assert _exact_within_tol(problem, cert.polynomial)

    def test_hermite_infeasible_at_degree_two(self):
        # the simplex constraint leaves no room below degree three
        problem = itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (0.0, 1.0)),))
        assert itp.solve_at_degree(problem, 2) is None

    def test_empty_problem_is_constant_one(self):
        cert = itp.solve(itp.InterpolationProblem())
        assert cert.status == itp.STATUS_FEASIBLE
        assert cert.degree_used == 0
        assert cert.max_residual == 0.0
        assert np.array_equal(cert.polynomial.coeffs, [1.0])

    def test_infeasible_at_cap_keeps_admissible_nodes(self, caplog):
        # target far beyond what degree four can reach at modulus 1.5
        problem = itp.InterpolationProblem(
            real_nodes=(itp.RealNode(-1.5, (1e6,)),), max_degree=4
        )
        with caplog.at_level("WARNING", logger="convex_cyclic.interpolation"):
            cert = itp.solve(problem)
        assert cert.status == itp.STATUS_INFEASIBLE_AT_CAP
        assert cert.max_degree == 4
        assert not cert.is_feasible
        # an admissible node set at the cap is flagged as a conditioning
        # suspicion, never presented as a disproof of feasibility
        assert any("suspect conditioning" in r.message for r in caplog.records)

    @pytest.mark.xfail(
        strict=True,
        reason="float64 coefficients cannot carry the LP's cancellation: HiGHS is optimal at "
        "degrees 64, 128 and 200 with scaled values up to 1e10 on one 7-column support, but that "
        "point stored in float64 misses the targets by 1.9 and refining it drives a weight to "
        "-6.0e-3, so no candidate reaches the 1e-8 gate and solve ends InfeasibleAtCap",
    )
    def test_narrow_admissible_problem_is_certified(self):
        # a narrow bench problem (interpolate_round seed 91): two real nodes
        # below -1 and one complex node outside the unit disk, admissible
        problem = itp.InterpolationProblem(
            real_nodes=(
                itp.RealNode(-3.2484336555197633, (-8.057966971942916,)),
                itp.RealNode(-2.072553767029889, (-6.187415417413655,)),
            ),
            complex_nodes=(
                itp.ComplexNode(
                    2.035672180851302 + 0.31017299509407675j,
                    (9.226132486744998 + 2.9137671846122237j, -1.449211674109816 - 5.297340795240284j),
                ),
            ),
        )
        cert = itp.solve(problem)
        assert cert.status == itp.STATUS_FEASIBLE
        assert _exact_within_tol(problem, cert.polynomial)

    def test_solver_is_deterministic(self):
        rng = np.random.default_rng(71)
        problem = itp.sample_admissible_problem(rng)
        first = itp.solve(problem)
        second = itp.solve(problem)
        assert first.status == second.status == itp.STATUS_FEASIBLE
        assert np.array_equal(first.polynomial.coeffs, second.polynomial.coeffs)

    def test_sampled_problems_verified_independently(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            problem = itp.sample_admissible_problem(rng)
            cert = itp.solve(problem)
            assert cert.status == itp.STATUS_FEASIBLE
            assert cert.degree_used <= problem.max_degree
            assert cert.max_residual <= problem.residual_tol
            assert _exact_within_tol(problem, cert.polynomial)
            assert np.all(cert.polynomial.coeffs >= 0.0)
            assert float(cert.polynomial.coeffs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_feasibility_survives_degree_doubling(self):
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 50:
            problem = itp.sample_admissible_problem(rng)
            cert = itp.solve(problem)
            assert cert.status == itp.STATUS_FEASIBLE
            doubled = itp.solve_at_degree(problem, 2 * cert.degree_used)
            assert doubled is not None
            assert _exact_within_tol(problem, doubled)
            checked += 1

    def test_certificate_jsonable_shapes(self):
        feasible = itp.solve(
            itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (7.0,)),))
        ).to_jsonable()
        assert feasible["status"] == "Feasible"
        assert all(c >= 0.0 for c in feasible["polynomial"]["coeffs"])
        necessary = itp.solve(
            itp.InterpolationProblem(real_nodes=(itp.RealNode(0.5, (2.0,)),))
        ).to_jsonable()
        assert necessary["status"] == "InfeasibleNecessary"
        assert necessary["reason"] == itp.NECESSARY_DISK_BOUND
        capped = itp.solve(
            itp.InterpolationProblem(real_nodes=(itp.RealNode(-1.5, (1e6,)),), max_degree=4)
        ).to_jsonable()
        assert capped["status"] == "InfeasibleAtCap"
        assert capped["max_degree"] == 4


def _posed_lps(monkeypatch, problem, degrees):
    """The (c, A, b) of every LP solve_at_degree poses at the given degrees."""
    lps = []
    solve_lp = itp._highs_lp

    def recording(c, A, b, solver):
        lps.append((c.copy(), A.copy(), b.copy()))
        return solve_lp(c, A, b, solver)

    with monkeypatch.context() as patch:
        patch.setattr(itp, "_highs_lp", recording)
        for degree in degrees:
            itp.solve_at_degree(problem, degree)
    return lps


def _wide_22_rows() -> itp.InterpolationProblem:
    """5 real and 3 complex nodes with order-2 targets, one modulus band."""
    rng = np.random.default_rng(22)
    return itp.InterpolationProblem(
        tuple(itp.RealNode(x, tuple(rng.uniform(-10, 10, 2))) for x in (-2.1, -2.6, -3.1, -3.6, -4.1)),
        tuple(
            itp.ComplexNode(cmath.rect(m, a), tuple(complex(*rng.uniform(-5, 5, 2)) for _ in range(2)))
            for m, a in ((2.3, 0.9), (3.0, 1.8), (3.7, -2.4))
        ),
    )


class TestHighsLp:
    """The direct HiGHS call must answer exactly as ``linprog(method="highs")``
    with the same options did: same status class, bit-identical point."""

    # a 14-row instance whose degree-32 LP ends in neither status on scipy 1.17
    ROWS14 = itp.InterpolationProblem(
        (
            itp.RealNode(-3.133764120927619, (-6.905888997842469, 3.3167200629204086, 5.008674682345415)),
            itp.RealNode(-2.345031586792506, (2.837780656714415, -1.14785459212853, 4.414099133436853)),
        ),
        (
            itp.ComplexNode(
                -2.8788728112725805 - 1.841823195963359j,
                (0.09111335132213633 + 0.3016478974487963j, -2.5476551680754804 - 0.2169776452178685j),
            ),
            itp.ComplexNode(
                -2.3960342542048862 - 0.37955156062138334j,
                (-2.41295640303655 - 0.0330728275777674j, -3.2885688285899617 + 4.914453892138966j),
            ),
        ),
    )

    @staticmethod
    def _linprog(c, A, b):
        return linprog(
            c=c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
            options={"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-7},
        )

    def test_matches_linprog(self, monkeypatch):
        sampled = itp.sample_admissible_problem(np.random.default_rng(0))
        wide = _wide_22_rows()
        assert wide.constraint_count() == 22 and itp.check_admissibility(wide).admissible
        lps = (
            _posed_lps(monkeypatch, itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (0.0, 1.0)),)), [4])
            + _posed_lps(monkeypatch, sampled, itp._escalation_degrees(sampled)[:2])
            + _posed_lps(monkeypatch, wide, itp._escalation_degrees(wide))
            + _posed_lps(monkeypatch, self.ROWS14, [32])
        )
        seen = set()
        for c, A, b in lps:
            expected = self._linprog(c, A, b)
            status, x = itp._highs_lp(c, A, b, itp._highs_solver())
            if expected.status == 0:
                assert status == itp.LP_OPTIMAL
                assert np.array_equal(x, expected.x)
            elif expected.status == 2:
                assert (status, x) == (itp.LP_INFEASIBLE, None)
            else:
                assert status not in (itp.LP_OPTIMAL, itp.LP_INFEASIBLE) and x is None
            seen.add(expected.status)
        assert {0, 2} <= seen

    def test_first_escalation_degree_proven_infeasible(self, monkeypatch):
        # the sampled narrow problem and the 22-row one both need more than
        # #rows + 2 coefficients
        for problem in (itp.sample_admissible_problem(np.random.default_rng(0)), _wide_22_rows()):
            ((c, A, b),) = _posed_lps(monkeypatch, problem, [problem.constraint_count() + 2])
            assert itp._highs_lp(c, A, b, itp._highs_solver()) == (itp.LP_INFEASIBLE, None)
            assert self._linprog(c, A, b).status == 2

    def test_reused_instance_answers_as_a_fresh_one(self, monkeypatch):
        # every escalation degree of the 22-row problem, in both orders, so
        # each LP follows an infeasible and an optimal one on the instance
        wide = _wide_22_rows()
        lps = _posed_lps(monkeypatch, wide, itp._escalation_degrees(wide))
        solver = itp._highs_solver()
        statuses = set()
        for c, A, b in lps + lps[::-1]:
            status, x = itp._highs_lp(c, A, b, solver)
            fresh_status, fresh_x = itp._highs_lp(c, A, b, itp._highs_solver())
            assert status == fresh_status
            assert (x is None and fresh_x is None) or x.tobytes() == fresh_x.tobytes()
            statuses.add(status)
        assert statuses == {itp.LP_OPTIMAL, itp.LP_INFEASIBLE}

    def test_one_instance_per_solve(self, monkeypatch):
        highs, _ = itp._lp_options()
        make, made, posed = highs._Highs, [], []
        solve_lp = itp._highs_lp

        def counting():
            made.append(1)
            return make()

        def recording(c, A, b, solver):
            posed.append(solver)
            return solve_lp(c, A, b, solver)

        monkeypatch.setattr(highs, "_Highs", counting)
        monkeypatch.setattr(itp, "_highs_lp", recording)
        wide = _wide_22_rows()
        sampled = itp.sample_admissible_problem(np.random.default_rng(0))
        # both need more than one LP: the 22-row problem ends InfeasibleAtCap,
        # the sampled one's first escalation degree is infeasible
        for problem, status in ((wide, itp.STATUS_INFEASIBLE_AT_CAP), (sampled, itp.STATUS_FEASIBLE)):
            made.clear()
            posed.clear()
            assert itp.solve(problem).status == status
            assert len(made) == 1
            assert len(posed) >= 2 and all(solver is posed[0] for solver in posed)
        made.clear()
        itp.solve_at_degree(wide, 48)
        assert len(made) == 1

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError):
            itp._highs_lp(np.ones(2), np.array([[1.0, np.nan]]), np.ones(1), itp._highs_solver())
        with pytest.raises(ValueError):
            itp._highs_lp(np.ones(1), np.ones((1, 2)), np.ones(1), itp._highs_solver())
        with pytest.raises(ValueError):
            itp._highs_lp(np.ones(2), np.ones((1, 2)), np.ones(2), itp._highs_solver())


class TestSingleRoute:
    """One route from the LP to a certificate: an LP that ends neither
    optimal nor infeasible yields no candidate, and the polished point of an
    optimal LP must clear the residual gate."""

    PROBLEM = itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (0.0, 1.0)),))

    # rows22 case of the benchmark's fixed wide slice (bench/inputs.py,
    # interpolate_round(0), wide case 29)
    WIDE = itp.InterpolationProblem(
        real_nodes=(
            itp.RealNode(-3.5316042673422885, (-2.412341926023222, -5.866336645075552)),
            itp.RealNode(-3.2100414959102666, (8.218565210848688, 3.245679386377587)),
            itp.RealNode(-2.892696320080612, (-0.39722043843795163, -9.800561535909116)),
            itp.RealNode(-2.485515911811998, (3.7341175087252854, -2.1189858283846252)),
            itp.RealNode(-2.1223172562686052, (-4.024485131618021, -5.766258631538797)),
        ),
        complex_nodes=(
            itp.ComplexNode(
                2.1903035389108116 - 2.773878574614328j,
                (-1.6053104507391889 + 0.17722604928287808j, 4.02566818992529 + 4.966578670712328j),
            ),
            itp.ComplexNode(
                -0.25125396943873435 + 2.3646830298967263j,
                (1.5614850926205532 - 6.129568058630362j, 3.3736403755121462 + 9.062656463848821j),
            ),
            itp.ComplexNode(
                2.7473046939230095 + 0.9471365284434808j,
                (5.23182590951287 + 2.8627517072911037j, 0.40776381567387504 - 1.5188883039314034j),
            ),
        ),
    )

    def test_unknown_lp_status_escalates_without_nnls(self, monkeypatch, caplog):
        # with the LP stubbed out, no compiled solver (NNLS included) may load
        calls = []
        monkeypatch.setattr(itp, "_highs_lp", lambda c, A, b, solver: ("Unknown", None))
        monkeypatch.setattr(itp, "_highs_solver", lambda: None)
        monkeypatch.setattr(itp, "_scipy_extension", calls.append)
        with caplog.at_level("DEBUG", logger="convex_cyclic.interpolation"):
            assert itp.solve_at_degree(self.PROBLEM, 4) is None
            capped = itp.solve(itp.InterpolationProblem(self.PROBLEM.real_nodes, max_degree=16))
        assert calls == []
        assert capped.status == itp.STATUS_INFEASIBLE_AT_CAP
        messages = [r.getMessage() for r in caplog.records]
        assert "degree 4: LP status Unknown, no candidate at this degree" in messages
        assert not any("fallback" in m for m in messages)
        # solve moved through every escalation degree up to the cap
        assert [m for m in messages if m.endswith("escalating")] == [
            f"degree {d} infeasible or unverified, escalating" for d in (4, 8, 16)
        ]

    def test_the_residual_gates_the_polish(self, monkeypatch):
        polished = []
        polish = itp._polish

        def recording(*args):
            polished.append(polish(*args))
            return polished[-1]

        monkeypatch.setattr(itp, "_polish", recording)
        assert itp.solve_at_degree(self.PROBLEM, 4) is polished[0][0]
        assert polished[0][1] <= self.PROBLEM.residual_tol
        # the same polished candidate, measured just above the tolerance
        above = math.nextafter(self.PROBLEM.residual_tol, math.inf)
        monkeypatch.setattr(itp, "_polish", lambda *args: (recording(*args)[0], above))
        assert itp.solve_at_degree(self.PROBLEM, 4) is None
        assert len(polished) == 2 and all(c is not None for c in polished)

    def test_an_optimal_lp_builds_the_longdouble_rows_once(self, monkeypatch):
        # the refinement's rows also gate the candidate and give max_residual
        dtypes, polished = [], []
        jet_rows, polish = itp._jet_rows, itp._polish

        def counting(problem, columns, dtype, scale):
            dtypes.append(dtype)
            return jet_rows(problem, columns, dtype, scale)

        def recording(*args):
            polished.append(polish(*args))
            return polished[-1]

        monkeypatch.setattr(itp, "_jet_rows", counting)
        monkeypatch.setattr(itp, "_polish", recording)
        cert = itp.solve(self.PROBLEM)
        # degree 4 is the first escalation degree, and its LP is optimal
        assert cert.degree_used == 4
        assert dtypes.count(np.clongdouble) == 1
        assert polished == [(cert.polynomial, cert.max_residual)]

    def test_lp_point_start_certifies_wide_case_at_degree_96(self):
        # the refinement needs the LP point as its start: from a nonnegative
        # least-squares refit of the same support it certifies only at 200
        assert self.WIDE.constraint_count() == 22
        cert = itp.solve(self.WIDE)
        assert cert.status == itp.STATUS_FEASIBLE
        assert cert.degree_used == 96
        # float64 re-evaluation of this polynomial reads 1.2e-8; the exact
        # residual is within the tolerance
        assert _exact_within_tol(self.WIDE, cert.polynomial)


class TestSingleGate:
    """On every polished candidate along the route of ``solve``, the gate
    accepts exactly when the exact rational residual is within tolerance."""

    # rows22 case of the benchmark's fixed wide slice (bench/inputs.py,
    # interpolate_round(0), wide case 28)
    ROWS22 = itp.InterpolationProblem(
        real_nodes=(
            itp.RealNode(-3.5576563492368884, (9.724426313204539, -4.642729874002612)),
            itp.RealNode(-3.1609560063969306, (-1.5862547897097823, -3.134989961977941)),
            itp.RealNode(-2.803549528355524, (9.269025985857354, -5.333258155141422)),
            itp.RealNode(-2.4935907759645852, (7.165092083135583, -0.173425663811706)),
            itp.RealNode(-2.159851612517686, (-8.319853490696797, 6.527394546538417)),
        ),
        complex_nodes=(
            itp.ComplexNode(
                0.29643849092888985 + 3.2909032061495007j,
                (-1.4323461458350693 - 3.9556833525585025j, -0.029783801177495055 + 0.022206478729379267j),
            ),
            itp.ComplexNode(
                1.4739123156166178 + 2.430415351002094j,
                (-1.4919462164653812 + 0.31757871691239786j, 6.825791290757677 - 0.931255176614317j),
            ),
            itp.ComplexNode(
                2.8861087358935613 - 1.5619358072056033j,
                (2.5361948284801588 - 4.8081247682929344j, 1.0576290803753372 + 4.725098145904646j),
            ),
        ),
    )

    def test_gate_matches_exact_decision(self, monkeypatch):
        polish, certify = itp._polish, itp._certify
        polished, decisions = [], []

        def recording_polish(*args):
            polished.append(polish(*args))
            return polished[-1]

        def recording_certify(problem, degree, solver):
            polished.clear()
            found = certify(problem, degree, solver)
            decisions.extend(
                (degree, c is found, _exact_within_tol(problem, c[0])) for c in polished if c is not None
            )
            return found

        monkeypatch.setattr(itp, "_polish", recording_polish)
        monkeypatch.setattr(itp, "_certify", recording_certify)
        rng = np.random.default_rng(0)
        for problem in [itp.sample_admissible_problem(rng) for _ in range(40)]:
            assert itp.solve(problem).status == itp.STATUS_FEASIBLE
        # TestHighsLp.ROWS14 is wide case 23: a float64 Horner gate rejected
        # its candidates at degrees 128 and 200, exact residuals 5.5e-9 and
        # 1.6e-9, and the solve ended InfeasibleAtCap
        for problem in (TestHighsLp.ROWS14, self.ROWS22):
            decisions.clear()
            cert = itp.solve(problem)
            assert [d for d in decisions if d[1] != d[2]] == []
            assert (cert.status, cert.degree_used) == (itp.STATUS_FEASIBLE, 200)
        assert len(decisions) > 0


class TestOverflowingRows:
    """Powers of the largest node overflow float64 long before their
    scaled row entries do; the solve must still end in a certificate."""

    @pytest.mark.parametrize(
        "nodes",
        [
            (itp.RealNode(-40.0, (1.0,)), itp.RealNode(-1.5, (1e6,))),
            (itp.RealNode(-1000.0, (1.0,)), itp.RealNode(-1.2, (50.0,))),
            (itp.RealNode(-200.0, (0.5, 0.0)), itp.RealNode(-1.1, (3.0,))),
        ],
    )
    def test_admissible_problem_gets_a_certificate(self, nodes):
        problem = itp.InterpolationProblem(real_nodes=nodes)
        assert itp.check_admissibility(problem).admissible
        d = problem.max_degree
        scale = max(abs(u) for u in problem.all_nodes())
        rows, _ = itp._jet_rows(problem, np.arange(d + 1), complex, scale)
        assert np.all(np.isfinite(rows))
        # the value row at the largest node is (u / scale)**i = (-1)**i
        assert np.allclose(rows[0], (-1.0) ** np.arange(problem.max_degree + 1), rtol=0.0, atol=1e-12)
        cert = itp.solve(problem)
        assert cert.status in (itp.STATUS_FEASIBLE, itp.STATUS_INFEASIBLE_AT_CAP)


def _exact(x) -> Fraction:
    return Fraction(*x.as_integer_ratio())


class TestJetRows:
    """One row builder serves the scaled float LP and the raw longdouble
    refinement and gate."""

    PROBLEM = itp.InterpolationProblem(
        real_nodes=(itp.RealNode(-2.5, (1.0, -2.0, 0.5)),),
        complex_nodes=(itp.ComplexNode(1.5 + 2.25j, (3.0 - 1.0j, 0.25j, -4.0)),),
    )

    def test_longdouble_rows_match_exact_jets(self):
        columns = np.arange(41)
        rows, rhs = itp._jet_rows(self.PROBLEM, columns, np.clongdouble, 1.0)
        assert rows.dtype == rhs.dtype == np.longdouble
        eps = _exact(np.finfo(np.longdouble).eps)
        expected, bounds, targets = [], [], []
        # real nodes first, then complex ones, each target order by order
        jets = [(complex(n.x), j, complex(t), True) for n in self.PROBLEM.real_nodes for j, t in enumerate(n.targets)]
        jets += [(n.z, j, t, False) for n in self.PROBLEM.complex_nodes for j, t in enumerate(n.targets)]
        for u, order, target, is_real in jets:
            re, im = Fraction(u.real), Fraction(u.imag)
            row_re, row_im, bound = [], [], []
            for i in columns:
                k = int(i) - order
                falling = math.perm(int(i), order) if k >= 0 else 0
                # (re + i im)**k in exact arithmetic
                p_re, p_im = Fraction(1), Fraction(0)
                for _ in range(max(k, 0)):
                    p_re, p_im = p_re * re - p_im * im, p_re * im + p_im * re
                row_re.append(falling * p_re)
                row_im.append(falling * p_im)
                bound.append(8 * (k + 1) * eps * falling * Fraction(abs(u)) ** max(k, 0))
            expected.append(row_re)
            bounds.append(bound)
            targets.append(target.real)
            if not is_real:
                expected.append(row_im)
                bounds.append(bound)
                targets.append(target.imag)
        expected.append([Fraction(1)] * len(columns))
        bounds.append([Fraction(0)] * len(columns))
        targets.append(1.0)
        assert rows.shape == (len(expected), len(columns))
        for got, want, tol in zip(rows, expected, bounds):
            for g, w, t in zip(got, want, tol):
                assert abs(_exact(g) - w) <= t
        assert [float(t) for t in rhs] == targets

    def test_scaled_rows_are_raw_rows_times_column_scale(self):
        problem = itp.sample_admissible_problem(np.random.default_rng(4))
        scale = max(abs(u) for u in problem.all_nodes())
        columns = np.arange(problem.max_degree + 1)
        raw, raw_rhs = itp._jet_rows(problem, columns, complex, 1.0)
        scaled, rhs = itp._jet_rows(problem, columns, complex, scale)
        assert problem.complex_nodes and np.all(np.isfinite(raw))
        assert np.array_equal(scaled, raw * scale ** (-columns.astype(float)))
        assert np.array_equal(rhs, raw_rhs)

    @staticmethod
    def _per_target_rows(problem, columns, dtype, scale):
        """The row builder as it was before one vectorized pass served all
        targets: one row (two for a complex target) at a time."""
        col_scale = scale ** (-columns.astype(float))
        rows, rhs = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for u, order, target, is_real in itp._targets(problem):
                z = dtype(u)
                powers = np.zeros(len(columns), dtype=dtype)
                used = columns >= order
                i = columns[used]
                falling = np.ones(len(i))
                for t in range(order):
                    falling *= i - t
                powers[used] = falling * np.power(z, i - order)
                scaled = powers * col_scale
                bad = ~np.isfinite(scaled)
                if bad.any():
                    k = bad[used]
                    scaled[bad] = falling[k] * np.power(z / scale, (i - order)[k]) * scale ** (-order)
                rows += [scaled.real] if is_real else [scaled.real, scaled.imag]
                rhs += [target.real] if is_real else [target.real, target.imag]
        real = np.finfo(dtype).dtype
        return np.array(rows + [col_scale], dtype=real), np.array(rhs + [1.0], dtype=real)

    @pytest.mark.parametrize("dtype", [complex, np.clongdouble], ids=["complex", "clongdouble"])
    def test_one_pass_matches_the_per_target_rows(self, dtype):
        # nodes of modulus 250 and 1e30 overflow u**i, so their entries are
        # rebuilt from u / scale; the node 0 and a support that skips
        # columns give exact zeros; an empty problem gives the simplex row
        problems = [
            self.PROBLEM,
            itp.sample_admissible_problem(np.random.default_rng(4)),
            itp.InterpolationProblem(
                (itp.RealNode(-300.0, (1.0, 2.0, 3.0)), itp.RealNode(0.0, (0.5, 1.0))),
                (itp.ComplexNode(250 * cmath.exp(2j), (1 + 1j, 2 - 1j, 0.5j)),),
            ),
            itp.InterpolationProblem((), (itp.ComplexNode(1e30 + 1e30j, (1j, 2.0, 3.0, 4.0)),)),
            itp.InterpolationProblem(),
        ]
        for problem in problems:
            scale = max([1.0] + [abs(u) for u in problem.all_nodes()])
            for columns in (np.arange(1200), np.array([0, 3, 7, 150, 199, 640])):
                for s in (1.0, scale):
                    rows, rhs = itp._jet_rows(problem, columns, dtype, s)
                    want_rows, want_rhs = self._per_target_rows(problem, columns, dtype, s)
                    for got, want in ((rows, want_rows), (rhs, want_rhs)):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        # equal values, NaNs and signs of zero: longdouble
                        # padding bytes make a byte comparison meaningless
                        assert np.array_equal(got, want, equal_nan=True)
                        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSampler:
    def test_deterministic_per_seed(self):
        a = itp.sample_admissible_problem(np.random.default_rng(9))
        b = itp.sample_admissible_problem(np.random.default_rng(9))
        assert a == b

    def test_documented_bounds_hold(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            problem = itp.sample_admissible_problem(rng)
            assert itp.check_admissibility(problem).admissible
            assert 1 <= problem.constraint_count() <= itp.SAMPLE_ROW_BUDGET
            for node in problem.real_nodes:
                assert -5.0 <= node.x < -1.5
                assert 1 <= len(node.targets) <= 3
                assert all(abs(t) <= 10.0 for t in node.targets)
            for node in problem.complex_nodes:
                assert 1.5 <= abs(node.z) <= 4.0
                assert abs(node.z.imag) > 0.1
                assert 1 <= len(node.targets) <= 3
                assert all(abs(t) <= 10.0 for t in node.targets)
            nodes = problem.all_nodes()
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    assert abs(nodes[i] - nodes[j]) >= 0.5
                    assert abs(nodes[i] - nodes[j].conjugate()) >= 0.5


class TestAnnihilator:
    def test_vanishing_with_value_node(self):
        cert = itp.vanishing_annihilator([(-2.0, 2)], value_nodes=[(-3.0, 4.0)])
        assert cert.status == itp.STATUS_FEASIBLE
        targets = (itp.RealNode(-2.0, (0.0, 0.0)), itp.RealNode(-3.0, (4.0,)))
        assert _exact_within_tol(itp.InterpolationProblem(real_nodes=targets), cert.polynomial)

    def test_annihilates_the_matching_jordan_block(self):
        cert = itp.vanishing_annihilator([(-2.0, 2)], value_nodes=[(-3.0, 4.0)])
        image = matrix_polynomial(cert.polynomial, build(JordanBlockSpec(2, -2.0)))
        assert float(np.max(np.abs(image))) <= 1e-7

    def test_one_polynomial_splits_a_direct_sum(self):
        # the paper's direct-sum step: p keeps diag(-3, -4) convex-cyclic
        # and annihilates J2(-2), so diag(-3, -4) + J2(-2) reduces to its first summand
        cert = itp.vanishing_annihilator([(-2.0, 2)], value_nodes=[(-3.0, -2.5), (-4.0, -3.5)])
        assert cert.status == itp.STATUS_FEASIBLE
        assert classify(matrix_polynomial(cert.polynomial, np.diag([-3.0, -4.0]))).is_convex_cyclic
        image = matrix_polynomial(cert.polynomial, build(JordanBlockSpec(2, -2.0)))
        assert float(np.max(np.abs(image))) <= 1e-7

    def test_complex_vanishing_node(self):
        cert = itp.vanishing_annihilator([(2.0 + 2.0j, 1)])
        assert cert.status == itp.STATUS_FEASIBLE
        targets = (itp.ComplexNode(2.0 + 2.0j, (0.0,)),)
        assert _exact_within_tol(itp.InterpolationProblem(complex_nodes=targets), cert.polynomial)

    def test_inadmissible_node_reports_reason(self):
        cert = itp.vanishing_annihilator([(-0.5, 1)])
        assert cert.status == itp.STATUS_INFEASIBLE_NECESSARY
        assert cert.reason == itp.VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE

    def test_order_must_be_positive(self):
        with pytest.raises(PreconditionViolated):
            itp.vanishing_annihilator([(-2.0, 0)])

    def test_a_non_real_value_at_a_real_node_is_refused(self):
        # dropping the imaginary part would return Feasible with p(-3) = 1
        cert = itp.vanishing_annihilator([(-2.0, 1)], [(-3.0, 1 + 1j)])
        assert (cert.status, cert.reason) == (itp.STATUS_INFEASIBLE_NECESSARY, itp.NECESSARY_REAL_TARGET)
        assert cert.detail == "real node requires real targets"

    def test_a_node_within_the_node_tolerance_of_the_axis_is_real(self):
        # as for RealTarget: |Im u| <= NODE_TOLERANCE is real, and so is a value within residual_tol of real
        cert = itp.vanishing_annihilator([(complex(-2.0, itp.NODE_TOLERANCE), 1)], [(-3.0 - 1e-11j, 4.0 + 1e-9j)])
        assert cert.status == itp.STATUS_FEASIBLE
        targets = (itp.RealNode(-2.0, (0.0,)), itp.RealNode(-3.0, (4.0,)))
        assert _exact_within_tol(itp.InterpolationProblem(real_nodes=targets), cert.polynomial)
        # one rounding step further out the node is complex
        z = complex(-2.0, math.nextafter(itp.NODE_TOLERANCE, 1.0))
        cert = itp.vanishing_annihilator([(z, 1)])
        assert cert.status == itp.STATUS_FEASIBLE
        targets = (itp.ComplexNode(z, (0.0,)),)
        assert _exact_within_tol(itp.InterpolationProblem(complex_nodes=targets), cert.polynomial)

    @pytest.mark.parametrize(
        "nodes, message",
        [([(math.inf, 1), (math.inf, 1)], "real node"), ([(complex(math.inf, 1.0), 1), (math.inf, 1)], "complex node")],
    )
    def test_non_finite_nodes_are_refused_by_their_type(self, nodes, message):
        with pytest.raises(PreconditionViolated, match=f"{message} must be finite"):
            itp.vanishing_annihilator(nodes)

    def test_admissibility_reports_before_a_real_target(self):
        cert = itp.vanishing_annihilator([(-0.5, 1)], [(-3.0, 1j)])
        assert cert.reason == itp.VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE
