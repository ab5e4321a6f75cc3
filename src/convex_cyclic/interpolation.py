"""Interpolation by convex-polynomials as linear feasibility over the simplex.

Value and derivative targets at real and complex nodes become equality rows
in the monomial coefficients; together with nonnegativity and the unit-sum
row this is a linear feasibility problem solved per degree (HiGHS, with a
mass-minimizing objective that keeps coefficient weight at low degrees) and
polished by nonnegative least squares on the support.  HiGHS is driven
directly through scipy's bindings, with exactly the options and status
reading of ``scipy.optimize.linprog(method="highs")``: the answers are the
same bit for bit, without the wrapper's per-call option validation, sparse
conversion and result assembly, which cost about twice the solve itself on
these small LPs.  ``scipy.optimize`` (the HiGHS bindings and NNLS) is
loaded at the first LP, not with the module, so only callers that
interpolate pay for it.  A Feasible certificate is issued only after
the delivered coefficients clear the residual tolerance under two
independent measurements, the double-precision polynomial algebra that
is reported and an extended-precision jet evaluation that rounding in
the first cannot fool.  Degrees escalate
geometrically up to the cap.  Node sets with distinct real nodes below -1
and distinct non-real complex nodes outside the closed unit disk with no
conjugate pairs are admissible: for those, every target assignment is
feasible at some degree.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from . import convex_poly
from ._jsonutil import complex_pair, parse_complex, parse_real
from .convex_poly import NODE_TOLERANCE, ConvexPolynomial
from .dynamics import nnls
from .errors import ParseError, PreconditionViolated

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
        if not (isinstance(self.max_degree, int) and self.max_degree >= 1):
            raise PreconditionViolated("max_degree must be an integer >= 1")
        if not self.residual_tol > 0:
            raise PreconditionViolated("residual_tol must be positive")

    def all_nodes(self) -> list[complex]:
        return [complex(n.x) for n in self.real_nodes] + [n.z for n in self.complex_nodes]

    def constraint_count(self) -> int:
        """Number of scalar equality rows (complex targets count twice)."""
        real = sum(len(n.targets) for n in self.real_nodes)
        cplx = sum(len(n.targets) for n in self.complex_nodes)
        return real + 2 * cplx

    def to_jsonable(self) -> dict:
        return {
            "real_nodes": [{"x": n.x, "targets": list(n.targets)} for n in self.real_nodes],
            "complex_nodes": [
                {"z": complex_pair(n.z), "targets": [complex_pair(t) for t in n.targets]}
                for n in self.complex_nodes
            ],
            "max_degree": self.max_degree,
            "residual_tol": self.residual_tol,
        }

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
        max_degree = obj.get("max_degree", DEFAULT_MAX_DEGREE)
        if isinstance(max_degree, bool) or not isinstance(max_degree, int):
            raise ParseError("'max_degree' must be an integer")
        residual_tol = obj.get("residual_tol", DEFAULT_RESIDUAL_TOL)
        try:
            return InterpolationProblem(
                tuple(real_nodes), tuple(complex_nodes), max_degree, parse_real(residual_tol, "residual_tol")
            )
        except PreconditionViolated as exc:
            raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class AdmissibilityViolation:
    reason: str
    nodes: tuple[complex, ...]

    def to_jsonable(self) -> dict:
        return {"reason": self.reason, "nodes": [complex_pair(z) for z in self.nodes]}


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[AdmissibilityViolation, ...]

    def to_jsonable(self) -> dict:
        return {
            "admissible": self.admissible,
            "violations": [v.to_jsonable() for v in self.violations],
        }


def check_admissibility(problem: InterpolationProblem) -> AdmissibilityReport:
    """Check the node-set condition under which every target choice is feasible.

    Admissible means: all nodes pairwise distinct, real nodes strictly below
    -1, complex nodes non-real and strictly outside the closed unit disk,
    and no conjugate pair among the complex nodes.
    """
    violations: list[AdmissibilityViolation] = []
    nodes = problem.all_nodes()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if abs(nodes[i] - nodes[j]) <= NODE_TOLERANCE:
                violations.append(
                    AdmissibilityViolation(VIOLATION_DUPLICATE_NODE, (nodes[i], nodes[j]))
                )
    for node in problem.real_nodes:
        if not node.x < -1.0:
            violations.append(
                AdmissibilityViolation(VIOLATION_REAL_NODE_NOT_BELOW_MINUS_ONE, (complex(node.x),))
            )
    for node in problem.complex_nodes:
        if abs(node.z.imag) <= NODE_TOLERANCE:
            violations.append(AdmissibilityViolation(VIOLATION_COMPLEX_NODE_REAL, (node.z,)))
        if abs(node.z) <= 1.0:
            violations.append(AdmissibilityViolation(VIOLATION_COMPLEX_NODE_IN_CLOSED_DISK, (node.z,)))
    cplx = [n.z for n in problem.complex_nodes]
    for i in range(len(cplx)):
        for j in range(i + 1, len(cplx)):
            if abs(cplx[i] - cplx[j].conjugate()) <= NODE_TOLERANCE:
                violations.append(
                    AdmissibilityViolation(VIOLATION_CONJUGATE_NODE_PAIR, (cplx[i], cplx[j]))
                )
    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class NecessaryViolation:
    """A target assignment no convex-polynomial of any degree can satisfy."""

    reason: str
    nodes: tuple[complex, ...]
    order: int
    detail: str

    def to_jsonable(self) -> dict:
        return {
            "reason": self.reason,
            "nodes": [complex_pair(z) for z in self.nodes],
            "order": self.order,
            "detail": self.detail,
        }


def necessary_target_check(problem: InterpolationProblem) -> list[NecessaryViolation]:
    """Degree-independent rejections from convex-polynomial membership.

    Checks: real nodes (including real entries of the complex list) need
    real targets at every order; the node 1 has value exactly 1; value
    targets at nodes in the closed unit disk stay in the closed unit disk;
    conjugate node pairs need conjugate targets order by order.
    """
    tol = problem.residual_tol
    out: list[NecessaryViolation] = []

    for node in problem.complex_nodes:
        if abs(node.z.imag) <= NODE_TOLERANCE:
            for j, w in enumerate(node.targets):
                if abs(w.imag) > tol:
                    out.append(
                        NecessaryViolation(
                            NECESSARY_REAL_TARGET,
                            (node.z,),
                            j,
                            "real node requires real targets",
                        )
                    )

    def value_checks(u: complex, targets: Sequence[complex]):
        if not targets:
            return
        w = complex(targets[0])
        if abs(u - 1.0) <= NODE_TOLERANCE and abs(w - 1.0) > tol:
            out.append(
                NecessaryViolation(
                    NECESSARY_VALUE_AT_ONE, (u,), 0, "every convex-polynomial fixes the node 1"
                )
            )
        elif abs(u) <= 1.0 + NODE_TOLERANCE and abs(w) > 1.0 + tol:
            out.append(
                NecessaryViolation(
                    NECESSARY_DISK_BOUND,
                    (u,),
                    0,
                    "values on the closed unit disk stay in the closed unit disk",
                )
            )

    for node in problem.real_nodes:
        value_checks(complex(node.x), [complex(t) for t in node.targets])
    for node in problem.complex_nodes:
        value_checks(node.z, node.targets)

    cplx = problem.complex_nodes
    for i in range(len(cplx)):
        for k in range(i + 1, len(cplx)):
            if abs(cplx[i].z - cplx[k].z.conjugate()) <= NODE_TOLERANCE:
                shared = min(len(cplx[i].targets), len(cplx[k].targets))
                for j in range(shared):
                    if abs(cplx[i].targets[j] - cplx[k].targets[j].conjugate()) > 2 * tol:
                        out.append(
                            NecessaryViolation(
                                NECESSARY_CONJUGATE_SYMMETRY,
                                (cplx[i].z, cplx[k].z),
                                j,
                                "conjugate nodes require conjugate targets",
                            )
                        )
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


def _constraint_rows(problem: InterpolationProblem, degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Scaled equality rows (simplex row last) for the given degree.

    Columns carry the substitution ``a_i = scale**(-i) * b_i`` with
    ``scale = max(1, max node modulus)``, which keeps every coefficient
    polynomially bounded regardless of degree.
    """
    nodes = problem.all_nodes()
    scale = max([1.0] + [abs(u) for u in nodes])
    idx = np.arange(degree + 1, dtype=float)
    col_scale = scale ** (-idx)

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def add(u: complex, order: int, target: complex, is_real: bool):
        powers = np.zeros(degree + 1, dtype=complex)
        i = np.arange(order, degree + 1)
        falling = np.ones(len(i))
        for t in range(order):
            falling *= i - t
        powers[order:] = falling * np.power(complex(u), i - order)
        scaled = powers * col_scale
        if is_real:
            rows.append(scaled.real)
            rhs.append(float(target.real))
        else:
            rows.append(scaled.real)
            rhs.append(float(target.real))
            rows.append(scaled.imag)
            rhs.append(float(target.imag))

    for node in problem.real_nodes:
        for j, y in enumerate(node.targets):
            add(complex(node.x), j, complex(y), True)
    for node in problem.complex_nodes:
        for j, w in enumerate(node.targets):
            add(node.z, j, w, False)

    rows.append(col_scale.copy())
    rhs.append(1.0)
    return np.array(rows), np.array(rhs), scale


def _verify(problem: InterpolationProblem, p: ConvexPolynomial) -> float:
    """Largest constraint residual, measured through the polynomial algebra."""
    worst = 0.0

    def horner(coeffs: np.ndarray, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for a in coeffs[::-1]:
            acc = acc * z + complex(a)
        return acc

    for node in problem.real_nodes:
        for j, y in enumerate(node.targets):
            value = horner(convex_poly.derivative(p, j), complex(node.x))
            worst = max(worst, abs(value - y))
    for node in problem.complex_nodes:
        for j, w in enumerate(node.targets):
            value = horner(convex_poly.derivative(p, j), node.z)
            worst = max(worst, abs(value - w))
    return worst


def _verify_extended(problem: InterpolationProblem, p: ConvexPolynomial) -> float:
    """Largest constraint residual with jets evaluated in longdouble.

    Plain float64 evaluation carries rounding of order eps times the
    coefficient mass, which near residual_tol can mask a true violation as
    easily as manufacture one; the extended measurement pins the gate to
    the polynomial itself.
    """
    worst = 0.0

    def jet(order: int, z: complex) -> complex:
        zl = np.clongdouble(z)
        acc = np.clongdouble(0.0)
        for i in range(len(p.coeffs) - 1, order - 1, -1):
            ff = 1.0
            for t in range(order):
                ff *= i - t
            acc = acc * zl + np.longdouble(ff) * np.longdouble(p.coeffs[i])
        return complex(acc)

    for node in problem.real_nodes:
        for j, y in enumerate(node.targets):
            worst = max(worst, abs(jet(j, complex(node.x)) - y))
    for node in problem.complex_nodes:
        for j, w in enumerate(node.targets):
            worst = max(worst, abs(jet(j, node.z) - w))
    return worst


def _to_polynomial(a: np.ndarray) -> ConvexPolynomial | None:
    a = np.where(a > 0.0, a, 0.0)
    total = a.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    return ConvexPolynomial(a / total)


def _jet_rows_longdouble(
    problem: InterpolationProblem, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw constraint rows over the given monomial columns, in longdouble.

    Row order matches _constraint_rows exactly (simplex row last) so the
    same row equilibration applies.  Extended precision here lets iterative
    refinement measure residuals of a float64 coefficient vector below the
    float64 rounding floor of the constraint mass.
    """
    rows: list[np.ndarray] = []
    rhs: list[np.longdouble] = []

    def add(u: complex, order: int, target: complex, is_real: bool) -> None:
        zl = np.clongdouble(u)
        vals = np.zeros(len(indices), dtype=np.clongdouble)
        for k, i in enumerate(indices):
            if i < order:
                continue
            ff = 1.0
            for t in range(order):
                ff *= i - t
            vals[k] = np.longdouble(ff) * zl ** int(i - order)
        rows.append(np.asarray(vals.real, dtype=np.longdouble))
        rhs.append(np.longdouble(target.real))
        if not is_real:
            rows.append(np.asarray(vals.imag, dtype=np.longdouble))
            rhs.append(np.longdouble(target.imag))

    for node in problem.real_nodes:
        for j, y in enumerate(node.targets):
            add(complex(node.x), j, complex(y), True)
    for node in problem.complex_nodes:
        for j, w in enumerate(node.targets):
            add(node.z, j, w, False)
    rows.append(np.ones(len(indices), dtype=np.longdouble))
    rhs.append(np.longdouble(1.0))
    return np.array(rows), np.array(rhs)


def _polish(
    problem: InterpolationProblem,
    eq_rows: np.ndarray,
    eq_rhs: np.ndarray,
    row_norm: np.ndarray,
    col_scale: np.ndarray,
    support: np.ndarray,
) -> np.ndarray | None:
    """Drive the stored float64 coefficients to their smallest true residual.

    NNLS on the support gives a nonnegative start; mixed-precision
    refinement then iterates on the float64-rounded monomial coefficients
    themselves, with residuals measured in longdouble, so the fixed point
    is limited only by the rounding of the delivered vector.  Columns whose
    weight turns negative are dropped and the refit restarts.
    """
    support = np.asarray(support, dtype=int)
    norm_ld = np.asarray(row_norm, dtype=np.longdouble)
    for _ in range(4):
        if len(support) == 0:
            return None
        try:
            y, _ = nnls(eq_rows[:, support], eq_rhs)
        except Exception:
            return None
        active = support[y > 0.0]
        if len(active) == 0:
            return None
        sub_eq = eq_rows[:, active]
        raw_ld, rhs_ld = _jet_rows_longdouble(problem, active)
        a_sup = np.asarray(y[y > 0.0] * col_scale[active], dtype=np.longdouble)
        for _ in range(4):
            a64 = np.where(np.asarray(a_sup, dtype=float) > 0.0, np.asarray(a_sup, dtype=float), 0.0)
            r_eq = np.asarray((rhs_ld - raw_ld @ a64.astype(np.longdouble)) / norm_ld, dtype=float)
            delta, *_ = np.linalg.lstsq(sub_eq, r_eq, rcond=None)
            a_sup = a64.astype(np.longdouble) + (delta * col_scale[active]).astype(np.longdouble)
        final = np.asarray(a_sup, dtype=float)
        if np.all(final >= 0.0):
            out = np.zeros(len(col_scale))
            out[active] = final
            return out
        support = active[final > 0.0]
    return None


LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"


@functools.cache
def _lp_options() -> tuple[Any, Any]:
    """scipy's HiGHS bindings and the options ``linprog(method="highs")``
    sets for this LP, both loaded at the first LP rather than with the
    package."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on"
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-7
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return highs, options


def _highs_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple[str, np.ndarray | None]:
    """Minimize ``c @ x`` subject to ``A x = b``, ``x >= 0``, with HiGHS.

    Same model, options and status reading as ``linprog(method="highs")``,
    without its per-call option validation, sparse conversion and result
    assembly.  Returns ``(LP_OPTIMAL, x)``, ``(LP_INFEASIBLE, None)``, or
    HiGHS's text for any other status with ``None``.  linprog's own check of
    an optimal point (bounds and rows within 3e-4) is left out: every
    candidate faces the residual gate of ``solve_at_degree``, far tighter.
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
    highs, options = _lp_options()
    solver = highs._Highs()
    solver.passOptions(options)
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
    """Feasibility at one fixed degree; verified polynomial or None.

    Infeasibility at a degree is decided by the LP; a candidate counts as
    feasible only if its independently re-evaluated residuals stay within
    ``residual_tol``.
    """
    rows, rhs, scale = _constraint_rows(problem, degree)
    row_norm = np.maximum(np.abs(rows).max(axis=1), 1e-300)
    eq_rows = rows / row_norm[:, None]
    eq_rhs = rhs / row_norm

    idx = np.arange(degree + 1, dtype=float)
    col_scale = scale ** (-idx)

    def checked(a: np.ndarray | None) -> ConvexPolynomial | None:
        if a is None:
            return None
        p = _to_polynomial(np.asarray(a, dtype=float))
        if p is None:
            return None
        # both measurements must clear the tolerance: the float64 algebra
        # is the reported figure, the extended one cannot be fooled by
        # evaluation rounding
        if _verify(problem, p) <= problem.residual_tol and (
            _verify_extended(problem, p) <= problem.residual_tol
        ):
            return p
        return None

    # the objective tracks coefficient mass through value and jet rows at
    # the largest node; minimizing it keeps the cancellation that float64
    # storage of the answer must survive as small as the instance allows
    max_order = max([1] + [len(n.targets) for n in problem.real_nodes]
                    + [len(n.targets) for n in problem.complex_nodes])
    weight = np.ones(degree + 1)
    for order in range(1, max_order):
        ff = np.ones(degree + 1)
        for t in range(order):
            ff *= np.maximum(idx - t, 0.0)
        weight = weight + ff / scale**order
    status, b = _highs_lp(weight, eq_rows, eq_rhs)
    if status == LP_INFEASIBLE:  # proven infeasible at this degree
        return None
    if status != LP_OPTIMAL:
        logger.debug("degree %d: LP status %s, trying NNLS fallback", degree, status)
        b_fallback = _weighted_nnls(eq_rows, eq_rhs)
        return checked(b_fallback * col_scale if b_fallback is not None else None)

    support = np.nonzero(b > b.max() * 1e-14)[0] if b.max() > 0 else np.arange(len(b))
    p = checked(_polish(problem, eq_rows, eq_rhs, row_norm, col_scale, support))
    if p is not None:
        return p
    p = checked(b * col_scale)
    if p is not None:
        return p
    logger.debug("degree %d: LP point failed verification, trying NNLS fallback", degree)
    b_fallback = _weighted_nnls(eq_rows, eq_rhs)
    return checked(b_fallback * col_scale if b_fallback is not None else None)


def _weighted_nnls(eq_rows: np.ndarray, eq_rhs: np.ndarray) -> np.ndarray | None:
    """Full-column NNLS with the simplex row upweighted; fallback path."""
    weights = np.ones(len(eq_rhs))
    weights[-1] = 1e3
    try:
        b, _ = nnls(eq_rows * weights[:, None], eq_rhs * weights)
    except Exception:
        return None
    return b


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
            status=STATUS_FEASIBLE,
            polynomial=ConvexPolynomial([1.0]),
            degree_used=0,
            max_residual=0.0,
        )
    for degree in _escalation_degrees(problem):
        p = solve_at_degree(problem, degree)
        if p is not None:
            return InterpolationCertificate(
                status=STATUS_FEASIBLE,
                polynomial=p,
                degree_used=degree,
                max_residual=_verify(problem, p),
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
    max_degree: int = DEFAULT_MAX_DEGREE,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> InterpolationCertificate:
    """Convex-polynomial vanishing to prescribed orders while hitting values.

    ``vanish_nodes`` lists ``(node, order)`` pairs: the polynomial and its
    first ``order - 1`` derivatives vanish there.  ``value_nodes`` lists
    ``(node, value)`` pairs on a disjoint node set.  The combined node set
    must be admissible; violations surface as InfeasibleNecessary with the
    admissibility reason code.
    """
    real_nodes: list[RealNode] = []
    complex_nodes: list[ComplexNode] = []

    def push(u: complex, targets: list[complex]):
        u = complex(u)
        if abs(u.imag) <= NODE_TOLERANCE:
            real_nodes.append(RealNode(u.real, tuple(t.real for t in targets)))
        else:
            complex_nodes.append(ComplexNode(u, tuple(targets)))

    for u, order in vanish_nodes:
        if not (isinstance(order, int) and order >= 1):
            raise PreconditionViolated("vanishing order must be an integer >= 1")
        push(u, [0.0 + 0.0j] * order)
    for u, value in value_nodes:
        push(u, [complex(value)])

    problem = InterpolationProblem(
        tuple(real_nodes), tuple(complex_nodes), max_degree, residual_tol
    )
    report = check_admissibility(problem)
    if not report.admissible:
        v = report.violations[0]
        return InterpolationCertificate(
            status=STATUS_INFEASIBLE_NECESSARY,
            reason=v.reason,
            detail="combined node set is not admissible",
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
        ok = all(
            abs(nodes[i] - nodes[j]) >= 0.5 and abs(nodes[i] - nodes[j].conjugate()) >= 0.5
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        )
        if ok:
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
