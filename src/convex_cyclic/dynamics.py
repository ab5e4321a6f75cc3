"""Orbit dynamics: growth witnesses and empirical hull-density scans.

The membership question "is a target in the closed convex hull of the
convex-polynomial images of a vector" is settled empirically.  Those
images are exactly the convex hull of the orbit x, Tx, T^2 x, ..., so a
hull test by nonnegative least squares against a finite orbit prefix
decides it; its kernel, scipy's compiled ``_slsqplib``, is loaded alone at
the first hull test, never ``scipy.optimize``.  Growth witnesses certify
unboundedness of functionals along orbits, which is the separation-based
obstruction to such capture ever failing on admissible matrices.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Union

import numpy as np

from .convex_poly import ConvexPolynomial
from .errors import (
    DimensionMismatch,
    OverflowReached,
    PreconditionViolated,
    PremiseViolated,
    ZeroFunctional,
)
from .interpolation import _scipy_extension
from .jordan_forms import DirectSumSpec, build, convex_cyclic_vector_test, matrix_polynomial
from .spectral import MatrixSpec, _coerce_matrix, classify

__all__ = [
    "OVERFLOW_LIMIT",
    "OrbitTrace",
    "GrowthWitness",
    "Bounded",
    "HullQuery",
    "HullResult",
    "DensityReport",
    "orbit",
    "growth_witness",
    "hull_contains",
    "empirical_density_scan",
    "direct_sum_vector",
]

logger = logging.getLogger("convex_cyclic.dynamics")

OVERFLOW_LIMIT = 1e300

MatrixLike = Union[MatrixSpec, np.ndarray, Sequence[Sequence[float]]]


def _vector(x: Any, dimension: int, is_complex: bool) -> np.ndarray:
    arr = np.asarray(x, dtype=complex if is_complex or np.iscomplexobj(np.asarray(x)) else float)
    arr = np.atleast_1d(arr)
    if arr.ndim != 1 or len(arr) != dimension:
        raise DimensionMismatch(dimension, arr.shape[0] if arr.ndim == 1 else -1)
    if is_complex:
        return arr.astype(complex)
    if np.iscomplexobj(arr):
        raise PreconditionViolated("real matrix requires a real vector")
    return arr.astype(float)


@dataclass(frozen=True)
class OrbitTrace:
    """Iterates ``points[n] = T^n x`` for n = 0 .. horizon."""

    points: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.points) - 1


def orbit(matrix: MatrixLike, x: Any, horizon: int) -> OrbitTrace:
    """Forward orbit of ``x`` under the matrix, horizon + 1 points."""
    if not (isinstance(horizon, int) and horizon >= 0):
        raise PreconditionViolated("horizon must be an integer >= 0")
    T = _coerce_matrix(matrix).entries
    v = _vector(x, T.shape[0], np.iscomplexobj(T))
    points = np.empty((horizon + 1, len(v)), dtype=T.dtype)
    points[0] = v
    for n in range(horizon):
        points[n + 1] = T @ points[n]
    return OrbitTrace(points)


@dataclass(frozen=True)
class GrowthWitness:
    """First orbit index where the functional's real part beats the threshold."""

    index: int
    value: float
    threshold: float

    def to_jsonable(self) -> dict:
        return {"witnessed": True, "index": self.index, "value": self.value, "threshold": self.threshold}


@dataclass(frozen=True)
class Bounded:
    """No index up to max_n beat the threshold; best value observed."""

    max_observed: float
    max_n: int

    def to_jsonable(self) -> dict:
        return {"witnessed": False, "max_observed": self.max_observed, "max_n": self.max_n}


def growth_witness(
    matrix: MatrixLike, x: Any, functional: Any, threshold: float, max_n: int = 2000
) -> GrowthWitness | Bounded:
    """Scan Re<T^n x, f> for n = 0 .. max_n against the threshold.

    The pairing conjugates the functional in the complex case.  Raises
    ZeroFunctional for f = 0 and OverflowReached if the orbit leaves the
    representable range before any witness appears.
    """
    T = _coerce_matrix(matrix).entries
    is_complex = np.iscomplexobj(T)
    v = _vector(x, T.shape[0], is_complex)
    f = _vector(functional, T.shape[0], is_complex)
    if not np.any(f != 0):
        raise ZeroFunctional()
    if not (isinstance(max_n, int) and max_n >= 0):
        raise PreconditionViolated("max_n must be an integer >= 0")

    best = -math.inf
    # overflow is detected through the isfinite checks below, so numpy's
    # warnings would only duplicate the OverflowReached signal
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_n + 1):
            if is_complex:
                value = float(np.vdot(f, v).real)
            else:
                value = float(f @ v)
            if math.isfinite(value) and value > threshold:
                return GrowthWitness(index=n, value=value, threshold=float(threshold))
            if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > OVERFLOW_LIMIT:
                raise OverflowReached(n)
            if math.isfinite(value):
                best = max(best, value)
            if n < max_n:
                v = T @ v
    return Bounded(max_observed=best, max_n=max_n)


def _embed(v: np.ndarray) -> np.ndarray:
    """Real coordinates of a vector; complex entries interleave as (re, im)."""
    if np.iscomplexobj(v):
        out = np.empty(2 * len(v))
        out[0::2] = v.real
        out[1::2] = v.imag
        return out
    return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class HullQuery:
    points: tuple
    target: Any
    tolerance: float = 1e-6


@dataclass(frozen=True)
class HullResult:
    contained: bool
    residual: float
    weights: np.ndarray


@dataclass(frozen=True)
class _HullBasis:
    """The target-independent half of a hull solve over G's columns."""

    points: np.ndarray  # G in units of ``scale``
    scale: float  # the power of two just above ``peak``
    peak: float  # largest entry magnitude of G, at least 1
    norms: np.ndarray  # column 2-norms of ``points``, zero columns 0
    unit: np.ndarray  # ``points`` on unit-norm columns, zero columns as they are


def _hull_basis(G: np.ndarray) -> _HullBasis:
    peak = np.max(np.abs(G), initial=1.0)
    scale = math.ldexp(1.0, math.frexp(peak)[1])
    points = G / scale
    norms = np.linalg.norm(points, axis=0)
    return _HullBasis(points, scale, peak, norms, points / np.where(norms > 0, norms, 1.0))


def nnls(A: np.ndarray, b: np.ndarray, maxiter: int | None = None) -> tuple[np.ndarray, float]:
    """``scipy.optimize.nnls`` on a 1-D ``b``, checks and answers bit for bit, from the
    compiled ``_slsqplib`` alone; ``RuntimeError`` when ``maxiter`` (3 per column) runs out."""
    A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError(f"NNLS needs a 2-D A and a 1-D b of matching rows, got {A.shape} and {b.shape}")
    x, rnorm, info = _scipy_extension("optimize._slsqplib").nnls(A, b, maxiter or 3 * A.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


def _hull_solve(basis: _HullBasis, target: np.ndarray, tolerance: float) -> HullResult:
    """Is the embedded target within ``tolerance`` of the hull of G's columns?

    ``_hull_basis(G)`` does the work that depends on G alone (peak, column
    norms, unit-norm columns), once per generator matrix; this does the
    rest, once per target.  The unit-sum constraint rides along as a
    heavily weighted extra row; the decision uses the true Euclidean
    distance after renormalizing the weights, so the verdict never depends
    on the penalty weight or on the column scaling.

    The solve runs in units of ``s``, a power of two above every entry of
    G and of the target, so scaling rounds exactly and keeps norms and the
    weighted row finite up to the float range.  ``s`` is the basis's own
    scale unless the target outgrows G; then ``r = basis.scale / s`` is a
    power of two too, and ``(G/s) / (norms·r) == G/norms``, ``norm(G/s) ==
    norms·r`` and ``(G/s) @ w == ((G/basis.scale) @ w)·r`` hold exactly, so
    sharing the basis changes no bit of the result while no scaled entry
    (nor its square, inside the column norms) leaves the normal range.
    """
    peak = max(basis.peak, np.max(np.abs(target), initial=1.0))
    s = math.ldexp(1.0, math.frexp(peak)[1])
    r = basis.scale / s
    target = target / s
    # NNLS runs on unit-norm columns (zero columns stay as they are): its
    # residual otherwise grows with the generator magnitudes and swamps an
    # absolute tolerance.  The weight must dominate the target scale but
    # stay far below 1 / eps times the tolerance, or rounding in the
    # weighted row alone would swamp the residual decision.
    norms = np.where(basis.norms > 0, basis.norms * r, 1.0)
    weight = 1e3 * max(1.0 / s, float(np.linalg.norm(target)))
    A = np.vstack([basis.unit, weight / norms])
    b = np.append(target, weight)
    # scipy's default cap of 3 iterations per column is too small for long,
    # nearly collinear orbit prefixes and raises instead of answering
    u, _ = nnls(A, b, maxiter=10 * A.shape[1])
    w = u / norms
    total = w.sum()
    if total > 0:
        w = w / total
    residual = s * float(np.linalg.norm((basis.points @ w) * r - target))
    return HullResult(contained=residual <= tolerance, residual=residual, weights=w)


def hull_contains(query: HullQuery) -> HullResult:
    """Convex-hull membership of the query target by nonnegative least squares."""
    pts = [_embed(np.atleast_1d(np.asarray(p))) for p in query.points]
    if not pts:
        raise PreconditionViolated("hull query needs at least one point")
    target = _embed(np.atleast_1d(np.asarray(query.target)))
    dims = {len(p) for p in pts} | {len(target)}
    if len(dims) != 1:
        raise DimensionMismatch(len(target), len(pts[0]))
    return _hull_solve(_hull_basis(np.column_stack(pts)), target, query.tolerance)


@dataclass(frozen=True)
class DensityReport:
    """Capture counts, the orbit length used, and why the orbit stopped
    (``budget``, ``norm_cap`` or ``overflow``; ``budget`` when no targets)."""

    total: int
    captured: int
    fraction: float
    miss_indices: tuple[int, ...]
    generators_used: int
    stop_reason: str = "budget"

    def to_jsonable(self) -> dict:
        return {
            "total": self.total,
            "captured": self.captured,
            "fraction": self.fraction,
            "miss_indices": list(self.miss_indices),
            "generators_used": self.generators_used,
            "stop_reason": self.stop_reason,
        }


def _generator_points(
    T: np.ndarray, x: np.ndarray, budget: int, norm_cap: float
) -> tuple[list[np.ndarray], str]:
    """The orbit prefix x, Tx, T^2 x, ... and why it stopped.

    The convex-polynomial images of x are exactly the convex hull of its
    orbit, so no other generator can enlarge the hull.  The prefix holds at
    most ``budget`` points and ends before a non-finite point or one with
    an entry beyond ``norm_cap``.
    """
    points = [x.copy()]
    while len(points) < budget:
        nxt = T @ points[-1]
        if not np.all(np.isfinite(nxt)):
            return points, "overflow"
        if np.max(np.abs(nxt)) > norm_cap:
            return points, "norm_cap"
        points.append(nxt)
    return points, "budget"


def empirical_density_scan(
    matrix: MatrixLike,
    x: Any,
    targets: Iterable[Any],
    poly_budget: int = 400,
    tolerance: float = 1e-6,
) -> DensityReport:
    """Fraction of targets in the hull of the orbit prefix of x (at most
    ``poly_budget`` points, cut at 1e7 times the largest input norm).

    Targets live in the matrix's own space (complex coordinates allowed
    for complex matrices); the hull test runs in interleaved real
    coordinates.  An empty target list counts as fully captured.
    """
    if not (isinstance(poly_budget, int) and poly_budget >= 1):
        raise PreconditionViolated("poly_budget must be an integer >= 1")
    T = _coerce_matrix(matrix).entries
    is_complex = np.iscomplexobj(T)
    v = _vector(x, T.shape[0], is_complex)
    embedded = [
        _embed(_vector(t, T.shape[0], is_complex or np.iscomplexobj(np.asarray(t)))) for t in targets
    ]
    if not embedded:
        return DensityReport(total=0, captured=0, fraction=1.0, miss_indices=(), generators_used=0)

    # overflow shows as a non-finite orbit point or an infinite norm cap
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max([1.0, float(np.linalg.norm(v))] + [float(np.linalg.norm(t)) for t in embedded])
        generators, stop_reason = _generator_points(T, v, poly_budget, norm_cap=1e7 * scale)
    basis = _hull_basis(np.column_stack([_embed(p) for p in generators]))
    misses = []
    for i, t in enumerate(embedded):
        result = _hull_solve(basis, t, tolerance)
        if not result.contained:
            misses.append(i)
            logger.debug("target %d missed, residual %.3e", i, result.residual)
    captured = len(embedded) - len(misses)
    return DensityReport(
        total=len(embedded),
        captured=captured,
        fraction=captured / len(embedded),
        miss_indices=tuple(misses),
        generators_used=len(generators),
        stop_reason=stop_reason,
    )


def direct_sum_vector(
    summands: Sequence[tuple[DirectSumSpec | MatrixSpec, Any]],
    polynomial: ConvexPolynomial,
    radius_tol: float = 1e-6,
) -> np.ndarray:
    """Assemble the candidate vector for a direct sum of one or two summands.

    With one summand the vector passes through after the coordinate test.
    With two, the polynomial must turn the first summand convex-cyclic and
    annihilate the second (spectral radius of its image within
    ``radius_tol`` of zero, relative to the image's scale); each block's
    vector is checked coordinatewise, and the concatenation is returned.
    """
    summands = list(summands)
    if not 1 <= len(summands) <= 2:
        raise PreconditionViolated("expected one or two summands")

    def canonical(desc) -> DirectSumSpec:
        if isinstance(desc, DirectSumSpec):
            return desc
        raise PreconditionViolated("summand descriptors must be canonical direct sums")

    specs = [canonical(d) for d, _ in summands]
    vectors = []
    for spec, vec in zip(specs, (v for _, v in summands)):
        matrix = build(spec)
        checked = _vector(vec, matrix.dimension, matrix.field == "complex")
        if not convex_cyclic_vector_test(spec, checked):
            raise PremiseViolated("vector has a zero coordinate in a leading block position")
        vectors.append(checked)

    if len(summands) == 2:
        first_image = matrix_polynomial(polynomial, build(specs[0]))
        verdict = classify(first_image)
        if not verdict.is_convex_cyclic:
            raise PremiseViolated("first summand is not convex-cyclic under the polynomial")
        second_image = matrix_polynomial(polynomial, build(specs[1]))
        radius = float(np.max(np.abs(np.linalg.eigvals(second_image.astype(complex)))))
        scale = max(1.0, float(np.linalg.norm(second_image, 2)))
        if radius > radius_tol * scale:
            raise PremiseViolated("second summand image is not nilpotent within tolerance")
    if len(vectors) == 1:
        return vectors[0]
    if np.iscomplexobj(vectors[0]) != np.iscomplexobj(vectors[1]):
        vectors = [v.astype(complex) for v in vectors]
    return np.concatenate(vectors)
