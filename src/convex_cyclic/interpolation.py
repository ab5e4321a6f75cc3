"""Interpolation by convex-polynomials as linear feasibility over the simplex.

Value and derivative targets at real and complex nodes become equality rows
in the monomial coefficients; together with nonnegativity and the unit-sum
row this is a linear feasibility problem, posed per degree.  Each degree has
one route to a certificate.  HiGHS solves the LP with a mass-minimizing
objective that keeps coefficient weight at low degrees; mixed-precision
refinement polishes the optimal point on its support, starting from the
point itself; and the polished coefficients make a Feasible certificate
only after their residual clears the tolerance.  The residual is measured
once, in extended precision, on the refinement's own jet rows, and that
same measurement is the reported ``max_residual``.  One row kernel builds
every jet constraint: the LP's scaled float rows, and the raw longdouble
rows, built once per candidate, that refinement and the measurement apply
to the coefficients.  Any other outcome (an infeasible LP, an LP that ends
without an optimum, a candidate that fails the gate) moves on to the next
degree; degrees escalate geometrically up to the cap.
One HiGHS instance, driven through scipy's bindings, serves every degree
of a solve with the options and status reading of ``linprog(method="highs",
options={"presolve": False})``, bit for bit, without the wrapper's per-call
option validation, sparse conversion and result assembly; presolve removes
nothing from these small dense LPs.  The compiled HiGHS bindings are
loaded alone at the first LP, and ``scipy.optimize`` itself never is, so a
cold solve pays only for them.  Node sets with distinct real nodes below -1
and distinct non-real complex nodes outside the closed unit disk with no
conjugate pairs are admissible: for those, every target assignment is
feasible at some degree.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ._jsonutil import parse_complex, parse_int, parse_real
from .convex_poly import NODE_TOLERANCE, ConvexPolynomial, node_pairs, _node_clauses, _pair_gaps
from .errors import ParseError, PreconditionViolated, _require_int

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


@dataclass(frozen=True)
class RealNode:
    """Real node with derivative targets; ``targets[j]`` constrains the j-th derivative."""

    x: float
    targets: tuple[float, ...]

    def __post_init__(self):
        x = float(self.x)
        if not math.isfinite(x):
            raise PreconditionViolated("real node must be finite")
        targets = tuple(float(t) for t in self.targets)
        if not all(math.isfinite(t) for t in targets):
            raise PreconditionViolated("real targets must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class ComplexNode:
    """Complex node with derivative targets, contiguous from order zero."""

    z: complex
    targets: tuple[complex, ...]

    def __post_init__(self):
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise PreconditionViolated("complex node must be finite")
        targets = tuple(complex(t) for t in self.targets)
        if not all(math.isfinite(t.real) and math.isfinite(t.imag) for t in targets):
            raise PreconditionViolated("complex targets must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "targets", targets)


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
        if not 0 < self.residual_tol < math.inf:
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
        real_nodes = []
        for i, item in enumerate(obj.get("real_nodes", [])):
            where = f"real_nodes[{i}]"
            if not isinstance(item, dict) or "x" not in item:
                raise ParseError(f"{where}: expected an object with 'x' and 'targets'")
            targets = item.get("targets", [])
            if not isinstance(targets, list):
                raise ParseError(f"{where}: 'targets' must be a list")
            real_nodes.append(
                RealNode(parse_real(item["x"], where), tuple(parse_real(t, where) for t in targets))
            )
        complex_nodes = []
        for i, item in enumerate(obj.get("complex_nodes", [])):
            where = f"complex_nodes[{i}]"
            if not isinstance(item, dict) or "z" not in item:
                raise ParseError(f"{where}: expected an object with 'z' and 'targets'")
            targets = item.get("targets", [])
            if not isinstance(targets, list):
                raise ParseError(f"{where}: 'targets' must be a list")
            complex_nodes.append(
                ComplexNode(
                    parse_complex(item["z"], where),
                    tuple(parse_complex(t, where) for t in targets),
                )
            )
        max_degree = parse_int(obj.get("max_degree", DEFAULT_MAX_DEGREE), "'max_degree'")
        residual_tol = parse_real(obj.get("residual_tol", DEFAULT_RESIDUAL_TOL), "residual_tol")
        return InterpolationProblem(tuple(real_nodes), tuple(complex_nodes), max_degree, residual_tol)


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
    # row j of the table holds falling(i, j) = i (i - 1) ... (i - j + 1)
    steps = np.ones((orders.max(initial=0) + 1, len(columns)))
    steps[1:] = columns - np.arange(len(steps) - 1)[:, None]
    falling = np.cumprod(steps, axis=0)[orders]
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
    col_scale: np.ndarray,
    b: np.ndarray,
) -> tuple[ConvexPolynomial, float] | None:
    """Drive the stored float64 coefficients of the LP's optimal point ``b``
    to their smallest true residual, and measure it.

    The start is the LP point itself on its support; mixed-precision
    refinement then iterates on the float64-rounded monomial coefficients,
    with residuals measured against the longdouble jet rows, so the fixed
    point is limited only by the rounding of the delivered vector.  A
    refined weight that turns negative gives no candidate.  Otherwise the
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
    raw_ld, rhs_ld = _jet_rows(problem, support, np.clongdouble, 1.0)
    norm_ld = np.asarray(row_norm, dtype=np.longdouble)
    a_sup = np.asarray(b[support] * col_scale[support], dtype=np.longdouble)
    for _ in range(4):
        a64 = np.where(np.asarray(a_sup, dtype=float) > 0.0, np.asarray(a_sup, dtype=float), 0.0)
        r_eq = np.asarray((rhs_ld - raw_ld @ a64.astype(np.longdouble)) / norm_ld, dtype=float)
        delta, *_ = np.linalg.lstsq(sub_eq, r_eq, rcond=None)
        a_sup = a64.astype(np.longdouble) + (delta * col_scale[support]).astype(np.longdouble)
    final = np.asarray(a_sup, dtype=float)
    if not np.all(final >= 0.0):
        return None
    a = np.zeros(len(col_scale))
    a[support] = np.where(final > 0.0, final, 0.0)  # -0.0 becomes 0.0
    total = a.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    p = ConvexPolynomial(a / total)
    # construction renormalizes and strips trailing zeros: measure the
    # stored vector, zero-padded back to the support (zeros add exact zeros)
    stored = np.zeros(len(col_scale), dtype=np.longdouble)
    stored[: len(p.coeffs)] = p.coeffs
    r = np.asarray(raw_ld[:-1] @ stored[support] - rhs_ld[:-1], dtype=float)
    worst, k = 0.0, 0
    for *_, is_real in _targets(problem):
        worst = max(worst, abs(r[k]) if is_real else math.hypot(r[k], r[k + 1]))
        k += 1 if is_real else 2
    return p, worst


def _scipy_extension(name: str) -> Any:
    """The compiled module ``scipy.<name>``, loaded without running the package
    ``__init__`` above it (``scipy.optimize``'s takes 0.28 s) and registered in
    ``sys.modules``, so a later ``import scipy.optimize`` reuses it."""
    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    root = importlib.util.find_spec("scipy")
    *package, leaf = name.split(".")
    directory = root and os.path.join(root.submodule_search_locations[0], *package)
    spec = directory and importlib.machinery.PathFinder.find_spec(leaf, [directory])
    if spec is None:
        raise ImportError(f"No module named {full!r}", name=full)
    sys.modules[full] = module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"


@functools.cache
def _lp_options() -> tuple[Any, Any]:
    """scipy's compiled HiGHS bindings and linprog's options for this LP but
    presolve (it removes nothing from these small dense LPs and cost a
    quarter of each LP), loaded at the first LP without ``scipy.optimize``."""
    highs = _scipy_extension("optimize._highspy._core")

    options = highs.HighsOptions()
    options.presolve = "off"
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-7
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return highs, options


def _highs_solver() -> Any:
    """A HiGHS instance holding the options of ``_lp_options``, for one solve's LPs."""
    highs, options = _lp_options()
    solver = highs._Highs()
    solver.passOptions(options)
    return solver


def _highs_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray, solver: Any) -> tuple[str, np.ndarray | None]:
    """Minimize ``c @ x`` subject to ``A x = b``, ``x >= 0``, on ``solver``.

    Same model, status reading and options as ``linprog(method="highs")``
    with ``presolve=False``.  ``passModel`` clears the instance's previous
    model and solver state, so a reused instance answers as a fresh one.
    Returns ``(LP_OPTIMAL, x)``, ``(LP_INFEASIBLE, None)``, or HiGHS's text
    for any other status with ``None``.  linprog's own check of an optimal
    point (bounds and rows within 3e-4) is left out: every candidate faces
    the residual gate of ``solve_at_degree``, far tighter.
    """
    m, n = A.shape
    # HiGHS reads n costs and m right-hand sides through raw pointers
    c, b = np.ascontiguousarray(c, dtype=float), np.ascontiguousarray(b, dtype=float)
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("LP costs and right-hand sides must match the constraint matrix")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("LP input must not contain inf or nan")
    nonzero = A.T != 0  # CSC, column by column, explicit zeros dropped
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=start[1:])
    index = np.nonzero(nonzero)[1].astype(np.int32)
    value = A.T[nonzero]
    highs, _ = _lp_options()
    solver.passModel(
        n, m, len(value), int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
        c, np.zeros(n), np.full(n, highs.kHighsInf), b, b, start, index, value,
        np.zeros(n, dtype=np.int32),  # every column continuous
    )
    solver.run()
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kOptimal:
        return LP_OPTIMAL, np.array(solver.getSolution().col_value)
    if status == highs.HighsModelStatus.kInfeasible:
        return LP_INFEASIBLE, None
    return solver.modelStatusToString(status), None


def solve_at_degree(problem: InterpolationProblem, degree: int) -> ConvexPolynomial | None:
    """Feasibility at one fixed degree; verified polynomial or None."""
    found = _certify(problem, degree, _highs_solver())
    return None if found is None else found[0]


def _certify(problem: InterpolationProblem, degree: int, solver: Any) -> tuple[ConvexPolynomial, float] | None:
    """Verified polynomial at one fixed degree with its residual, or None.

    One route: the LP, posed on ``solver``, either proves the degree
    infeasible, ends with any other non-optimal status (both give None, and
    ``solve`` escalates), or returns an optimal point that ``_polish``
    refines on its support and measures.  The candidate counts as feasible
    only if that residual stays within ``residual_tol``.
    """
    scale = max([1.0] + [abs(u) for u in problem.all_nodes()])
    rows, rhs = _jet_rows(problem, np.arange(degree + 1), complex, scale)
    row_norm = np.maximum(np.abs(rows).max(axis=1), 1e-300)
    eq_rows = rows / row_norm[:, None]
    eq_rhs = rhs / row_norm
    col_scale = rows[-1]  # the simplex row holds scale**(-i)

    # the objective tracks coefficient mass through value and jet rows at
    # the largest node; minimizing it keeps the cancellation that float64
    # storage of the answer must survive as small as the instance allows
    idx = np.arange(degree + 1, dtype=float)
    max_order = max([1] + [j + 1 for _, j, _, _ in _targets(problem)])
    weight = np.ones(degree + 1)
    for order in range(1, max_order):
        ff = np.ones(degree + 1)
        for t in range(order):
            ff *= np.maximum(idx - t, 0.0)
        weight = weight + ff / scale**order
    status, b = _highs_lp(weight, eq_rows, eq_rhs, solver)
    if status != LP_OPTIMAL:
        if status != LP_INFEASIBLE:  # infeasible is a proof; anything else is not
            logger.debug("degree %d: LP status %s, no candidate at this degree", degree, status)
        return None

    candidate = _polish(problem, eq_rows, row_norm, col_scale, b)
    if candidate is not None and candidate[1] <= problem.residual_tol:
        return candidate
    return None


def _escalation_degrees(problem: InterpolationProblem) -> list[int]:
    start = max(1, problem.constraint_count() + 2)
    degrees = []
    d = min(start, problem.max_degree)
    while True:
        degrees.append(d)
        if d >= problem.max_degree:
            break
        d = min(2 * d, problem.max_degree)
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
        return InterpolationCertificate(
            status=STATUS_INFEASIBLE_NECESSARY, reason=v.reason, detail=v.detail
        )
    if problem.constraint_count() == 0:
        return InterpolationCertificate(
            status=STATUS_FEASIBLE, polynomial=ConvexPolynomial([1.0]), degree_used=0, max_residual=0.0
        )
    solver = _highs_solver()  # one instance for every degree's LP
    for degree in _escalation_degrees(problem):
        found = _certify(problem, degree, solver)
        if found is not None:
            p, residual = found
            return InterpolationCertificate(
                status=STATUS_FEASIBLE, polynomial=p, degree_used=degree, max_residual=residual
            )
        logger.debug("degree %d infeasible or unverified, escalating", degree)
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
    jets = [(complex(u), [0j] * _require_int(order, "vanishing order", 1)) for u, order in vanish_nodes]
    jets += [(complex(u), [complex(value)]) for u, value in value_nodes]
    failed, _ = _node_clauses([u for u, _ in jets], True, NODE_TOLERANCE, 0.0, pair_clause=False)
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
