"""Interpolation by convex-polynomials as linear feasibility over the simplex.

Value and derivative targets at real and complex nodes become equality rows
in the monomial coefficients; together with nonnegativity and the unit-sum
row this is a linear feasibility problem at each degree of a ladder that
escalates geometrically up to the cap.  One build at the ladder's last
degree poses every LP: a degree's LP is its column prefix.  Each degree has
one route to a certificate.  HiGHS solves the LP with a mass-minimizing
objective that keeps coefficient weight at low degrees; mixed-precision
refinement polishes the optimal point on its support, starting from the
point itself; and the polished coefficients make a Feasible certificate
only after their residual clears the tolerance.  The residual is measured
once, in extended precision, on the refinement's own jet rows, and that
same measurement is the reported ``max_residual``.  One row kernel builds
every jet constraint: the LP's scaled float rows, once per ladder, and the
raw longdouble rows, once per candidate, that refinement and the
measurement apply to the coefficients.  Any other outcome (an infeasible
LP, an LP that ends without an optimum, a candidate that fails the gate)
moves on to the next degree.
Node sets with distinct real nodes below -1 and distinct non-real complex
nodes outside the closed unit disk with no conjugate pairs are admissible:
for those, every target assignment is feasible at some degree.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ._jsonutil import parse_complex, parse_int, parse_real
from ._solvers import LP_INFEASIBLE, LP_OPTIMAL, _highs_lp
from .convex_poly import NODE_TOLERANCE, ConvexPolynomial, node_pairs, _falling, _node_clauses, _pair_gaps
from .errors import ParseError, PreconditionViolated, _require_int, _require_number

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "DEFAULT_RESIDUAL_TOL",
    "RealNode",
    "ComplexNode",
    "InterpolationProblem",
    "AdmissibilityViolation",
    "AdmissibilityReport",
    "NecessaryViolation",
    "InterpolationCertificate",
    "VIOLATION_DUPLICATE_NODE",
    "VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE",
    "VIOLATION_COMPLEX_NODE_IN_CLOSED_DISK",
    "VIOLATION_COMPLEX_NODE_REAL",
    "VIOLATION_CONJUGATE_NODE_PAIR",
    "NECESSARY_DISK_BOUND",
    "NECESSARY_VALUE_AT_ONE",
    "NECESSARY_REAL_TARGET",
    "NECESSARY_CONJUGATE_SYMMETRY",
    "NECESSARY_NONNEGATIVE_NODE",
    "STATUS_FEASIBLE",
    "STATUS_INFEASIBLE_NECESSARY",
    "STATUS_INFEASIBLE_AT_CAP",
    "check_admissibility",
    "necessary_target_check",
    "solve_at_degree",
    "solve",
    "vanishing_annihilator",
    "sample_admissible_problem",
]

logger = logging.getLogger("convex_cyclic.interpolation")

DEFAULT_MAX_DEGREE = 200
DEFAULT_RESIDUAL_TOL = 1e-8

VIOLATION_DUPLICATE_NODE = "DuplicateNode"
VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE = "RealNodeNotBelowMinusOne"
VIOLATION_COMPLEX_NODE_IN_CLOSED_DISK = "ComplexNodeInClosedDisk"
VIOLATION_COMPLEX_NODE_REAL = "ComplexNodeReal"
VIOLATION_CONJUGATE_NODE_PAIR = "ConjugateNodePair"

NECESSARY_DISK_BOUND = "DiskBound"
NECESSARY_VALUE_AT_ONE = "ValueAtOne"
NECESSARY_REAL_TARGET = "RealTarget"
NECESSARY_CONJUGATE_SYMMETRY = "ConjugateSymmetry"
NECESSARY_NONNEGATIVE_NODE = "NonNegativeNode"
_REAL_TARGET_DETAIL = "real node requires real targets"

STATUS_FEASIBLE = "Feasible"
STATUS_INFEASIBLE_NECESSARY = "InfeasibleNecessary"
STATUS_INFEASIBLE_AT_CAP = "InfeasibleAtCap"


def _read_jet(node: Any, point: str, kind: type) -> None:
    """Store a node's point and sequence of targets, each read by ``errors._require_number``."""
    field = "real" if kind is float else "complex"
    object.__setattr__(node, point, _require_number(getattr(node, point), f"{field} node", kind))
    if not isinstance(node.targets, Iterable):
        raise PreconditionViolated(f"{field} targets must be a sequence of numbers")
    object.__setattr__(node, "targets", tuple(_require_number(t, f"{field} targets", kind) for t in node.targets))


@dataclass(frozen=True)
class RealNode:
    """Real node with derivative targets; ``targets[j]`` constrains the j-th derivative."""

    x: float
    targets: tuple[float, ...]

    def __post_init__(self):
        _read_jet(self, "x", float)


@dataclass(frozen=True)
class ComplexNode:
    """Complex node with derivative targets, contiguous from order zero."""

    z: complex
    targets: tuple[complex, ...]

    def __post_init__(self):
        _read_jet(self, "z", complex)


@dataclass(frozen=True)
class InterpolationProblem:
    real_nodes: tuple[RealNode, ...] = ()
    complex_nodes: tuple[ComplexNode, ...] = ()
    max_degree: int = DEFAULT_MAX_DEGREE
    residual_tol: float = DEFAULT_RESIDUAL_TOL

    def __post_init__(self):
        object.__setattr__(self, "real_nodes", tuple(self.real_nodes))
        object.__setattr__(self, "complex_nodes", tuple(self.complex_nodes))
        object.__setattr__(self, "max_degree", _require_int(self.max_degree, "max_degree", 1))
        object.__setattr__(self, "residual_tol", _require_number(self.residual_tol, "residual_tol"))
        if not self.residual_tol > 0:
            raise PreconditionViolated("residual_tol must be positive and finite")

    def all_nodes(self) -> list[complex]:
        return [complex(n.x) for n in self.real_nodes] + [n.z for n in self.complex_nodes]

    def constraint_count(self) -> int:
        """Number of scalar equality rows (complex targets count twice)."""
        return sum(1 if is_real else 2 for *_, is_real in _targets(self))

    @staticmethod
    def from_jsonable(obj: Any) -> "InterpolationProblem":
        if not isinstance(obj, dict):
            raise ParseError("interpolation problem must be an object")
        nodes: dict[str, list] = {"real_nodes": [], "complex_nodes": []}
        readers = (("real_nodes", "x", parse_real, RealNode), ("complex_nodes", "z", parse_complex, ComplexNode))
        for key, point, parse, node in readers:
            items = obj.get(key, [])
            if not isinstance(items, list):
                raise ParseError(f"'{key}' must be a list")
            for i, item in enumerate(items):
                where = f"{key}[{i}]"
                if not isinstance(item, dict) or point not in item:
                    raise ParseError(f"{where}: expected an object with '{point}' and 'targets'")
                targets = item.get("targets", [])
                if not isinstance(targets, list):
                    raise ParseError(f"{where}: 'targets' must be a list")
                nodes[key].append(node(parse(item[point], where), tuple(parse(t, where) for t in targets)))
        max_degree = parse_int(obj.get("max_degree", DEFAULT_MAX_DEGREE), "'max_degree'")
        residual_tol = parse_real(obj.get("residual_tol", DEFAULT_RESIDUAL_TOL), "residual_tol")
        return InterpolationProblem(tuple(nodes["real_nodes"]), tuple(nodes["complex_nodes"]), max_degree, residual_tol)


@dataclass(frozen=True)
class AdmissibilityViolation:
    reason: str
    nodes: tuple[complex, ...]


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[AdmissibilityViolation, ...]


def check_admissibility(problem: InterpolationProblem) -> AdmissibilityReport:
    """Check the node-set condition under which every target choice is feasible.

    Admissible means: all nodes pairwise distinct, real nodes strictly below
    -1, complex nodes non-real and strictly outside the closed unit disk,
    and no conjugate pair among the complex nodes.  The last three are
    ``convex_poly._node_clauses``: real nodes in the real field at
    tolerance 0 (failing a clause is exactly ``x >= -1``, one violation per
    node), complex nodes in the complex field at ``NODE_TOLERANCE`` with
    the exact disk.  Violations come as duplicates, real nodes, then per
    complex node realness before the disk, then conjugate pairs.
    """
    nodes = problem.all_nodes()
    violations = [
        AdmissibilityViolation(VIOLATION_DUPLICATE_NODE, (nodes[i], nodes[j])) for i, j in node_pairs(nodes)
    ]
    n_real = len(problem.real_nodes)
    failed, _ = _node_clauses(nodes[:n_real], False, 0.0, 0.0)
    for i in dict.fromkeys(i for _, (i,) in failed):
        violations.append(AdmissibilityViolation(VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE, (nodes[i],)))
    cplx = nodes[n_real:]
    failed, _ = _node_clauses(cplx, True, NODE_TOLERANCE, 0.0)
    reasons = {
        "real": VIOLATION_COMPLEX_NODE_REAL,
        "disk": VIOLATION_COMPLEX_NODE_IN_CLOSED_DISK,
        "pair": VIOLATION_CONJUGATE_NODE_PAIR,
    }
    for clause, points in failed:
        violations.append(AdmissibilityViolation(reasons[clause], tuple(cplx[i] for i in points)))
    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class NecessaryViolation:
    """A target assignment no convex-polynomial of any degree can satisfy."""

    reason: str
    nodes: tuple[complex, ...]
    order: int
    detail: str


def necessary_target_check(problem: InterpolationProblem) -> list[NecessaryViolation]:
    """Degree-independent rejections from convex-polynomial membership.

    Checks, in this order: real entries of the complex list need real
    targets at every order; the node 1 has value exactly 1; value targets
    at nodes in the closed unit disk stay in the closed unit disk;
    conjugate node pairs in the complex list need conjugate targets order
    by order; at an exactly real node ``u >= 0`` every derivative target
    is nonnegative, and at a real node with ``Re u >= 1`` the real part of
    the value target is at least 1.  The real axis, the disk and the
    conjugate pairs are one ``convex_poly._node_clauses`` call in the
    complex field at ``NODE_TOLERANCE``: a node is real when ``|Im u| <=
    NODE_TOLERANCE``, for ``RealTarget`` and ``NonNegativeNode`` alike.
    Off the exact axis only the value floor holds: at ``u = x + iy`` with
    ``x >= 1`` a convex-polynomial of degree ``d`` has ``Re p(u) >= 1 -
    (d*y)**2/2``, within ``residual_tol`` of 1 for every degree below
    ``sqrt(2*residual_tol)/|y|`` (over 10^6 at the defaults), while near
    ``Re u = 0`` its derivatives can be negative (``Re (iy)^2 = -y^2``).
    Targets are compared at ``residual_tol``.
    """
    tol = problem.residual_tol
    nodes = problem.all_nodes()
    n_real = len(problem.real_nodes)
    targets = [[complex(t) for t in n.targets] for n in problem.real_nodes] + [n.targets for n in problem.complex_nodes]
    failed, _ = _node_clauses(nodes, True, NODE_TOLERANCE, NODE_TOLERANCE)
    on_axis = [i for clause, (i, *_) in failed if clause == "real"]
    in_disk = {i for clause, (i, *_) in failed if clause == "disk"}
    # a real node's targets are real by type, and only complex nodes pair
    out = [
        NecessaryViolation(NECESSARY_REAL_TARGET, (nodes[i],), j, _REAL_TARGET_DETAIL)
        for i in on_axis
        if i >= n_real
        for j, w in enumerate(targets[i])
        if abs(w.imag) > tol
    ]
    for i, (u, ts) in enumerate(zip(nodes, targets)):
        if not ts:
            continue
        if abs(u - 1.0) <= NODE_TOLERANCE and abs(ts[0] - 1.0) > tol:
            out.append(NecessaryViolation(NECESSARY_VALUE_AT_ONE, (u,), 0, "every convex-polynomial fixes the node 1"))
        elif i in in_disk and abs(ts[0]) > 1.0 + tol:
            detail = "values on the closed unit disk stay in the closed unit disk"
            out.append(NecessaryViolation(NECESSARY_DISK_BOUND, (u,), 0, detail))
    for i, k in (points for clause, points in failed if clause == "pair" and points[0] >= n_real):
        for j in range(min(len(targets[i]), len(targets[k]))):
            if abs(targets[i][j] - targets[k][j].conjugate()) > 2 * tol:
                detail = "conjugate nodes require conjugate targets"
                out.append(NecessaryViolation(NECESSARY_CONJUGATE_SYMMETRY, (nodes[i], nodes[k]), j, detail))
    for i in on_axis:
        u, ts = nodes[i], targets[i]
        if u.imag != 0.0:
            ts = ts[:1] if u.real >= 1.0 else []
        elif u.real < 0.0:
            continue
        for j, w in enumerate(ts):
            floor = 1.0 if j == 0 and u.real >= 1.0 else 0.0
            if w.real < floor - tol:
                detail = "values at nodes >= 1 are at least 1" if floor else "jets at nonnegative nodes are nonnegative"
                out.append(NecessaryViolation(NECESSARY_NONNEGATIVE_NODE, (u,), j, detail))
    return out


@dataclass(frozen=True)
class InterpolationCertificate:
    """Outcome of a solve: feasible with a verified polynomial, or why not."""

    status: str
    polynomial: ConvexPolynomial | None = None
    degree_used: int | None = None
    max_residual: float | None = None
    reason: str | None = None
    detail: str | None = None
    max_degree: int | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status == STATUS_FEASIBLE

    def to_jsonable(self) -> dict:
        out: dict[str, Any] = {"status": self.status}
        if self.status == STATUS_FEASIBLE:
            assert self.polynomial is not None
            out["polynomial"] = {"coeffs": [float(c) for c in self.polynomial.coeffs]}
            out["degree_used"] = self.degree_used
            out["max_residual"] = self.max_residual
        elif self.status == STATUS_INFEASIBLE_NECESSARY:
            out["reason"] = self.reason
            out["detail"] = self.detail
        else:
            out["max_degree"] = self.max_degree
        return out


def _targets(problem: InterpolationProblem) -> list[tuple[complex, int, complex, bool]]:
    """Every jet target as ``(node, order, target, is_real)``, real nodes
    first: the order of the constraint rows."""
    out = [(complex(n.x), j, complex(y), True) for n in problem.real_nodes for j, y in enumerate(n.targets)]
    out += [(n.z, j, w, False) for n in problem.complex_nodes for j, w in enumerate(n.targets)]
    return out


def _jet_rows(
    problem: InterpolationProblem, columns: np.ndarray, dtype: type, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equality rows and right-hand sides over the monomial ``columns``,
    computed in the complex type ``dtype``; the simplex row comes last.

    The target of order j at node u constrains the j-th derivative, so its
    row holds ``falling(i, j) * u**(i - j) * scale**(-i)`` in column i: the
    columns carry the substitution ``a_i = scale**(-i) * b_i``.  A real
    target takes the real part, a complex one the real and the imaginary
    part as two rows.  ``scale = max(1, max node modulus)`` keeps every
    coefficient polynomially bounded regardless of degree and every entry
    finite; ``scale = 1`` gives the raw rows exactly.
    """
    columns = np.asarray(columns)
    col_scale = scale ** (-columns.astype(float))
    targets = _targets(problem)
    nodes = np.array([u for u, *_ in targets], dtype=dtype)
    orders = np.array([order for _, order, *_ in targets], dtype=int)
    exponent = columns - orders[:, None]
    used = exponent >= 0
    falling = _falling(columns, orders.max(initial=0))[orders]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.where(used, falling * np.power(nodes[:, None], np.where(used, exponent, 0)), 0)
        scaled = powers * col_scale
        # u**(i - order) overflows long before its scaled entry does;
        # rebuild exactly those entries from powers of u / scale
        bad = ~np.isfinite(scaled)
        for k in np.flatnonzero(bad.any(axis=1)):
            (u, order, *_), cols = targets[k], bad[k]
            # dtype(u), not nodes[k]: for dtype=complex it divides in Python's complex arithmetic
            scaled[k, cols] = falling[k, cols] * np.power(dtype(u) / scale, exponent[k, cols]) * scale ** (-order)
    keep = np.array([(True, not is_real) for *_, is_real in targets], dtype=bool).reshape(-1)
    real = np.finfo(dtype).dtype
    parts = scaled.view(real).reshape(len(targets), len(columns), 2).transpose(0, 2, 1)
    rhs = np.array([w for _, _, w, _ in targets], dtype=dtype).view(real)[keep]
    return np.vstack([parts.reshape(-1, len(columns))[keep], col_scale]), np.append(rhs, 1.0)


def _polish(
    problem: InterpolationProblem,
    eq_rows: np.ndarray,
    row_norm: np.ndarray,
    b: np.ndarray,
) -> tuple[ConvexPolynomial, float] | None:
    """Drive the stored float64 coefficients of the LP's optimal point ``b``
    to their smallest true residual, and measure it.

    The start is the LP point itself on its support; mixed-precision
    refinement then iterates on the float64-rounded monomial coefficients,
    with residuals measured against the longdouble jet rows, so the fixed
    point is limited only by the rounding of the delivered vector.  It takes
    at most four steps and stops at that fixed point: once the rounded
    vector repeats, every later step would repeat the last one.  A
    refined weight that turns negative gives no candidate, and neither do
    weights whose total vanishes or leaves float range.  Otherwise the
    result is the polynomial and its largest per-target residual: the same
    longdouble rows applied to its stored coefficients.  Plain float64
    evaluation carries rounding of order eps times the coefficient mass,
    which near residual_tol can mask a true violation as easily as
    manufacture one; the measurement is extended only where
    ``np.longdouble`` is wider than float64 (x87 extended on x86-64).
    """
    # an optimal point meets the simplex row, so its largest weight is positive
    support = np.flatnonzero(b > b.max() * 1e-14)
    sub_eq = eq_rows[:, support]
    # the simplex row, of norm scale**0 = 1, holds the column scale scale**(-i)
    col_scale = eq_rows[-1, support]
    raw_ld, rhs_ld = _jet_rows(problem, support, np.clongdouble, 1.0)
    norm_ld = np.asarray(row_norm, dtype=np.longdouble)
    a_sup = np.asarray(b[support] * col_scale, dtype=np.longdouble)
    previous = None
    for _ in range(4):
        a64 = np.where(np.asarray(a_sup, dtype=float) > 0.0, np.asarray(a_sup, dtype=float), 0.0)
        if previous is not None and np.array_equal(a64, previous):
            break  # a step from the same float64 point repeats the last one
        previous = a64
        r_eq = np.asarray((rhs_ld - raw_ld @ a64.astype(np.longdouble)) / norm_ld, dtype=float)
        delta, *_ = np.linalg.lstsq(sub_eq, r_eq, rcond=None)
        a_sup = a64.astype(np.longdouble) + (delta * col_scale).astype(np.longdouble)
    final = np.asarray(a_sup, dtype=float)
    if not np.all(final >= 0.0):
        return None
    a = np.zeros(len(b))
    a[support] = np.where(final > 0.0, final, 0.0)  # -0.0 becomes 0.0
    total = a.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    p = ConvexPolynomial(a / total)
    # construction renormalizes and strips trailing zeros: measure the
    # stored vector, zero-padded back to the support (zeros add exact zeros)
    stored = np.zeros(len(b), dtype=np.longdouble)
    stored[: len(p.coeffs)] = p.coeffs
    r = np.asarray(raw_ld[:-1] @ stored[support] - rhs_ld[:-1], dtype=float)
    worst, k = 0.0, 0
    for *_, is_real in _targets(problem):
        worst = max(worst, abs(r[k]) if is_real else math.hypot(r[k], r[k + 1]))
        k += 1 if is_real else 2
    return p, worst


def solve_at_degree(problem: InterpolationProblem, degree: int) -> ConvexPolynomial | None:
    """Feasibility at one fixed degree; verified polynomial or None."""
    found = _certify(problem, [degree])
    return None if found is None else found[0]


def _certify(problem: InterpolationProblem, degrees: list[int]) -> tuple[ConvexPolynomial, float, int] | None:
    """The first verified ``(polynomial, residual, degree)`` along the
    ascending ``degrees``, or None.

    The jet rows, right-hand sides and objective are built once, at the last
    degree; each entry depends on its own column only, so a degree's LP reads
    their column prefix, bit for bit its own build.  Per degree one route:
    LP inputs (objective, normalized rows and right-hand sides) past float
    range give no candidate; otherwise the LP, posed on this thread's HiGHS
    instance, proves the degree infeasible, ends with any other status
    (neither gives a candidate), or returns an optimal point that
    ``_polish`` refines on its support and measures.  The candidate counts
    only if that residual stays within ``residual_tol``.  Each degree
    without one logs an escalation record.
    """
    top = degrees[-1]
    scale = max([1.0] + [abs(u) for u in problem.all_nodes()])
    rows, rhs = _jet_rows(problem, np.arange(top + 1), complex, scale)

    # the objective tracks coefficient mass through value and jet rows at
    # the largest node; minimizing it keeps the cancellation that float64
    # storage of the answer must survive as small as the instance allows
    max_order = max([0] + [j for _, j, _, _ in _targets(problem)])
    falling = _falling(np.arange(top + 1), max_order)
    try:  # Python's float pow: numpy's vectorized power rounds differently
        with np.errstate(over="ignore"):  # a mass past float range is an inf weight
            weight = sum((falling[order] / scale**order for order in range(1, max_order + 1)), np.ones(top + 1))
    except OverflowError:  # scale**order past float range
        weight = np.full(top + 1, np.inf)
    for degree in degrees:
        cols = rows[:, : degree + 1]
        row_norm = np.maximum(np.abs(cols).max(axis=1), 1e-300)  # inf or nan for a row that is not finite
        with np.errstate(over="ignore", invalid="ignore"):  # a right-hand side may leave float range here
            eq_rows, eq_rhs = cols / row_norm[:, None], rhs / row_norm
        c = weight[: degree + 1]
        if not all(np.isfinite(x).all() for x in (c, eq_rows, eq_rhs)):  # every input of the LP
            logger.debug("degree %d: jet rows or objective leave float range, no candidate at this degree", degree)
        else:
            status, b = _highs_lp(c, eq_rows, eq_rhs)
            if status == LP_OPTIMAL:
                candidate = _polish(problem, eq_rows, row_norm, b)
                if candidate is not None and candidate[1] <= problem.residual_tol:
                    return (*candidate, degree)
            elif status != LP_INFEASIBLE:  # infeasible is a proof; anything else is not
                logger.debug("degree %d: LP status %s, no candidate at this degree", degree, status)
        logger.debug("degree %d infeasible or unverified, escalating", degree)
    return None


def _escalation_degrees(problem: InterpolationProblem) -> list[int]:
    degrees = [min(max(1, problem.constraint_count() + 2), problem.max_degree)]
    while degrees[-1] < problem.max_degree:
        degrees.append(min(2 * degrees[-1], problem.max_degree))
    return degrees


def solve(problem: InterpolationProblem) -> InterpolationCertificate:
    """Find a convex-polynomial meeting all targets, or say why none can.

    Necessary target checks run first (degree-independent rejections);
    then degrees escalate geometrically from ``#constraints + 2`` to
    ``max_degree``.  The reported certificate is the first (smallest
    escalation degree) verified solution.
    """
    violations = necessary_target_check(problem)
    if violations:
        v = violations[0]
        return InterpolationCertificate(status=STATUS_INFEASIBLE_NECESSARY, reason=v.reason, detail=v.detail)
    if problem.constraint_count() == 0:
        found = ConvexPolynomial([1.0]), 0.0, 0  # no target: the constant 1, exact at degree 0
    else:
        found = _certify(problem, _escalation_degrees(problem))
    if found is not None:
        p, residual, degree = found
        return InterpolationCertificate(status=STATUS_FEASIBLE, polynomial=p, degree_used=degree, max_residual=residual)
    if check_admissibility(problem).admissible:
        # admissible node sets are feasible for every target at some degree,
        # so exhausting the cap flags a conditioning problem, not a disproof
        logger.warning(
            "admissible node set exhausted the degree cap %d; suspect conditioning, not infeasibility",
            problem.max_degree,
        )
    return InterpolationCertificate(status=STATUS_INFEASIBLE_AT_CAP, max_degree=problem.max_degree)


def vanishing_annihilator(
    vanish_nodes: Iterable[tuple[complex, int]],
    value_nodes: Iterable[tuple[complex, complex]] = (),
) -> InterpolationCertificate:
    """Convex-polynomial vanishing to prescribed orders while hitting values.

    ``vanish_nodes`` lists ``(node, order)`` pairs: the polynomial and its
    first ``order - 1`` derivatives vanish there.  ``value_nodes`` lists
    ``(node, value)`` pairs on a disjoint node set.  A node with ``|Im u| <=
    NODE_TOLERANCE`` (the realness clause of ``convex_poly._node_clauses``,
    as for ``RealTarget``) becomes a real node.  The combined node set must
    be admissible; violations surface as InfeasibleNecessary with the
    admissibility reason code, and then a value at a real node whose
    imaginary part exceeds the residual tolerance as ``RealTarget``.  The
    problem's degree cap and residual tolerance are the defaults of
    ``InterpolationProblem``.
    """
    read = functools.partial(_require_number, kind=complex)
    jets = [(read(u, "vanishing node"), _require_int(k, "vanishing order", 1) * [0j]) for u, k in vanish_nodes]
    jets += [(read(u, "value node"), [read(w, "value")]) for u, w in value_nodes]
    failed, _ = _node_clauses([u for u, _ in jets], True, NODE_TOLERANCE, 0.0)
    on_axis = {i for clause, (i, *_) in failed if clause == "real"}
    nodes = [
        RealNode(u.real, tuple(t.real for t in ts)) if i in on_axis else ComplexNode(u, tuple(ts))
        for i, (u, ts) in enumerate(jets)
    ]
    problem = InterpolationProblem(
        tuple(n for n in nodes if isinstance(n, RealNode)), tuple(n for n in nodes if isinstance(n, ComplexNode))
    )
    report = check_admissibility(problem)
    if not report.admissible:
        v = report.violations[0]
        return InterpolationCertificate(
            status=STATUS_INFEASIBLE_NECESSARY,
            reason=v.reason,
            detail="combined node set is not admissible",
        )
    if any(abs(t.imag) > problem.residual_tol for i in on_axis for t in jets[i][1]):
        return InterpolationCertificate(
            status=STATUS_INFEASIBLE_NECESSARY, reason=NECESSARY_REAL_TARGET, detail=_REAL_TARGET_DETAIL
        )
    return solve(problem)


SAMPLE_ROW_BUDGET = 6


def sample_admissible_problem(rng: np.random.Generator) -> InterpolationProblem:
    """Random admissible problem at the scale the solver certifies.

    Bounds: up to 3 real nodes in [-5, -1.5]; up to 2 complex nodes with
    modulus in [1.5, 4] and argument at least 0.15 away from the real
    axis; derivative orders at most 2; target magnitudes at most 10;
    pairwise node separation (conjugates included) at least 0.5.

    Two further bounds keep the instances inside what float64 coefficient
    storage and re-evaluation can resolve at the default residual_tol.
    All node moduli stay inside one band [rho, 1.7 rho]: constraints at a
    node of much smaller modulus than the largest one force coefficient
    mass growing like (modulus ratio)**degree, canceling at the large
    node.  And the total number of scalar constraint rows (one per real
    target, two per complex target) is capped at SAMPLE_ROW_BUDGET: the
    minimal feasible mass also climbs steeply with the row count, crossing
    1e7 near ten rows even inside the band.
    """
    while True:
        n_real = int(rng.integers(0, 4))
        n_cplx = int(rng.integers(0, 3))
        if 1 <= n_real + 2 * n_cplx <= SAMPLE_ROW_BUDGET:
            break
    # more real nodes need a wider band to honor the separation
    rho = float(rng.uniform(1.5 + 0.2 * n_real, 2.35))
    band_lo, band_hi = rho, min(1.7 * rho, 4.0)
    for _ in range(10000):
        xs = [-float(rng.uniform(band_lo, band_hi)) for _ in range(n_real)]
        zs = []
        for _ in range(n_cplx):
            modulus = float(rng.uniform(band_lo, band_hi))
            angle = float(rng.uniform(0.15, math.pi - 0.15))
            if rng.uniform() < 0.5:
                angle = -angle
            zs.append(modulus * complex(math.cos(angle), math.sin(angle)))
        nodes = [complex(x) for x in xs] + zs
        if all(np.all(_pair_gaps(nodes, conjugate)[2] >= 0.5) for conjugate in (False, True)):
            break
    else:
        raise PreconditionViolated("sampler failed to place separated nodes")

    # one value target per node, then extra derivative orders while the
    # row budget allows (a real order costs one row, a complex order two)
    orders = [1] * (n_real + n_cplx)
    budget = SAMPLE_ROW_BUDGET - (n_real + 2 * n_cplx)
    for k in rng.permutation(n_real + n_cplx):
        cost = 1 if k < n_real else 2
        extra = int(rng.integers(0, 3))
        while extra > 0 and orders[k] < 3 and budget >= cost:
            orders[k] += 1
            budget -= cost
            extra -= 1

    def real_targets(count: int) -> tuple[float, ...]:
        return tuple(float(rng.uniform(-10.0, 10.0)) for _ in range(count))

    def complex_targets(count: int) -> tuple[complex, ...]:
        out = []
        for _ in range(count):
            r = float(rng.uniform(0.0, 10.0))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            out.append(r * complex(math.cos(phi), math.sin(phi)))
        return tuple(out)

    return InterpolationProblem(
        tuple(RealNode(float(x), real_targets(orders[i])) for i, x in enumerate(sorted(xs))),
        tuple(ComplexNode(z, complex_targets(orders[n_real + i])) for i, z in enumerate(zs)),
    )
