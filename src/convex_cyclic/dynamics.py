"""Orbit dynamics: growth witnesses and empirical hull-density scans.

The membership question "is a target in the closed convex hull of the
convex-polynomial images of a vector" is settled empirically.  Those
images are exactly the convex hull of the orbit x, Tx, T^2 x, ..., so a
hull test by nonnegative least squares against a finite orbit prefix
decides it, up to ``HULL_RTOL * max(1, |t|)`` for a target t; its kernel,
scipy's compiled ``_slsqplib``, is loaded alone at the first hull test,
never ``scipy.optimize``.  Growth witnesses certify unboundedness of
functionals along orbits, which is the separation-based obstruction to
such capture ever failing on admissible matrices.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Union

import numpy as np

from .errors import OverflowReached, PreconditionViolated, ZeroFunctional, _require_int
from .interpolation import _scipy_extension
from .spectral import MatrixSpec, _coerce_matrix, _vectors

__all__ = [
    "OVERFLOW_LIMIT",
    "HULL_RTOL",
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
]

logger = logging.getLogger("convex_cyclic.dynamics")

OVERFLOW_LIMIT = 1e300
HULL_RTOL = 1e-6
_FLOAT_MAX = np.finfo(float).max / 2
# Below this Euclidean length, sqrt(tiny), the sum of squares is subnormal
# and squares that underflowed may have shrunk it.
_SQUARES_EXACT = 2.0**-511


def _length(v: np.ndarray) -> float:
    """``sqrt(v @ v)``, or ``hypot``'s scaled length where underflowing squares may have shrunk it."""
    length = math.sqrt(v @ v)
    return length if length >= _SQUARES_EXACT else math.hypot(*v.tolist())


MatrixLike = Union[MatrixSpec, np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True)
class OrbitTrace:
    """Iterates ``points[n] = T^n x`` for n = 0 .. horizon."""

    points: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.points) - 1


def orbit(matrix: MatrixLike, x: Any, horizon: int) -> OrbitTrace:
    """Forward orbit of ``x`` under the matrix, horizon + 1 points."""
    horizon = _require_int(horizon, "horizon", 0)
    T = _coerce_matrix(matrix).entries
    v = _vectors([x], T.shape[0], np.iscomplexobj(T))[0]
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


@dataclass(frozen=True)
class Bounded:
    """No index up to max_n beat the threshold; best value observed."""

    max_observed: float
    max_n: int


def growth_witness(
    matrix: MatrixLike, x: Any, functional: Any, threshold: float, max_n: int = 2000
) -> GrowthWitness | Bounded:
    """Scan Re<T^n x, f> for n = 0 .. max_n against the threshold.

    The pairing conjugates the functional in the complex case.  Raises
    ZeroFunctional for f = 0, PreconditionViolated for a threshold that is
    not finite, and OverflowReached if the orbit leaves the representable
    range before any witness appears.
    """
    T = _coerce_matrix(matrix).entries
    v, f = _vectors([x, functional], T.shape[0], np.iscomplexobj(T))
    if not np.any(f != 0):
        raise ZeroFunctional()
    max_n = _require_int(max_n, "max_n", 0)
    if not math.isfinite(threshold):
        raise PreconditionViolated("threshold must be finite")

    best = -math.inf
    # overflow is detected through the isfinite checks below, so numpy's
    # warnings would only duplicate the OverflowReached signal
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_n + 1):
            value = float(np.vdot(f, v).real)
            if math.isfinite(value) and value > threshold:
                return GrowthWitness(index=n, value=value, threshold=float(threshold))
            if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > OVERFLOW_LIMIT:
                raise OverflowReached(n)
            if math.isfinite(value):
                best = max(best, value)
            if n < max_n:
                v = T @ v
    return Bounded(max_observed=best, max_n=max_n)


@dataclass(frozen=True)
class HullQuery:
    points: tuple
    target: Any


@dataclass(frozen=True)
class HullResult:
    contained: bool
    residual: float
    weights: np.ndarray


def _hull_solve(G: np.ndarray, targets: np.ndarray) -> list[HullResult]:
    """Is each embedded target t, a row of ``targets``, within
    ``HULL_RTOL * max(1, |t|)`` of the hull of G's columns?

    G's peak, column norms and unit-norm columns are computed once; per
    target only the weighted unit-sum row and the right-hand side of one
    preallocated NNLS system change.  The verdict uses the true Euclidean
    distance after renormalizing the weights, so it never depends on the
    penalty weight or on the column scaling.

    Each solve runs in units of ``s``, the least power of two above every
    entry of G and of its target but at most 2**1023, so scaling rounds
    exactly and keeps entries below 2 and norms finite.  ``s`` is G's own ``scale``
    unless the target outgrows G; then ``r = scale / s`` is a power of two
    too, and ``(G/s) / (norms·r) == G/norms``, ``norm(G/s) == norms·r`` and
    ``(G/s) @ w == ((G/scale) @ w)·r`` hold exactly, so sharing the unit
    columns changes no bit of the result while no scaled entry (nor its
    square, inside the column norms) leaves the normal range.  The verdict
    compares in units of ``s`` too; only the residual may round to infinity.
    Far below the largest entry, squares underflow instead: a column norm,
    target size or distance shorter than ``_SQUARES_EXACT`` is measured
    again by ``math.hypot``.
    """
    peak = np.max(np.abs(G), initial=1.0)
    scale = math.ldexp(1.0, min(math.frexp(peak)[1], 1023))
    points = G / scale
    norms = np.linalg.norm(points, axis=0)
    for k in np.flatnonzero(norms < _SQUARES_EXACT):
        norms[k] = math.hypot(*points[:, k].tolist())
    nonzero = norms > 0
    # NNLS runs on unit-norm columns (zero columns stay as they are): its
    # residual otherwise grows with the generator magnitudes
    unit_norms = np.where(nonzero, norms, 1.0)
    dim, count = G.shape
    A, b = np.empty((dim + 1, count)), np.empty(dim + 1)
    A[:dim] = points / unit_norms
    # scipy's default cap of 3 iterations per column is too small for long,
    # nearly collinear orbit prefixes and raises instead of answering
    nnls, cap = _scipy_extension("optimize._slsqplib").nnls, 10 * count
    results = []
    for t, t_peak in zip(targets, np.max(np.abs(targets), axis=1, initial=1.0).tolist()):
        s = math.ldexp(1.0, min(math.frexp(max(peak, t_peak))[1], 1023))
        r = scale / s
        t = t / s
        # max(1, |t|) in units of s scales the verdict and the unit-sum row's
        # weight, whose rounding (eps times it) stays far below HULL_RTOL * size
        size = max(1.0 / s, _length(t))
        col = unit_norms if r == 1.0 else np.where(nonzero, norms * r, 1.0)
        # a column shorter than 1e-305 * size enters NNLS at that length, so
        # its unit-sum weight stays finite; the verdict uses the true point
        col = np.maximum(col, 1e3 * size / _FLOAT_MAX)
        np.divide(1e3 * size, col, out=A[dim])
        b[:dim], b[dim] = t, 1e3 * size
        u, _, info = nnls(A, b, cap)
        if info == 3:
            raise RuntimeError("NNLS reached its iteration cap")
        w = u / col
        total = w.sum()
        if total > 0:
            w = w / total
        gap = (points @ w) * r - t
        distance = _length(gap)
        results.append(HullResult(contained=distance <= HULL_RTOL * size, residual=s * distance, weights=w))
    return results


def hull_contains(query: HullQuery) -> HullResult:
    """Convex-hull membership of the query target by nonnegative least squares; points
    and target are finite vectors of one length, complex if any point is."""
    if len(query.points) == 0:
        raise PreconditionViolated("hull query needs at least one point")
    n, is_complex = len(np.atleast_1d(np.asarray(query.points[0]))), any(np.iscomplexobj(p) for p in query.points)
    rows = _vectors([*query.points, query.target], n, is_complex).view(float)
    return _hull_solve(rows[:-1].T.copy(), rows[-1:])[0]


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
    limit = min(norm_cap, np.finfo(float).max)  # finite, so an infinite cap stops an infinite entry
    while len(points) < budget:
        nxt = T @ points[-1]
        peak = np.max(np.abs(nxt))
        if not peak <= limit:
            if not np.all(np.isfinite(nxt)):
                return points, "overflow"
            if peak > norm_cap:
                return points, "norm_cap"
        points.append(nxt)
    return points, "budget"


def empirical_density_scan(
    matrix: MatrixLike,
    x: Any,
    targets: Iterable[Any],
    poly_budget: int = 400,
) -> DensityReport:
    """Fraction of targets in the hull of the orbit prefix of x (at most
    ``poly_budget`` points, cut at 1e7 times the largest input norm).

    Targets are finite vectors of the matrix's own space (complex entries only for
    complex matrices); the hull test runs in interleaved real coordinates.
    A target t counts as captured when its hull residual is at most
    ``HULL_RTOL * max(1, |t|)``.  An empty target list counts as fully
    captured.
    """
    poly_budget = _require_int(poly_budget, "poly_budget", 1)
    T = _coerce_matrix(matrix).entries
    is_complex = np.iscomplexobj(T)
    v = _vectors([x], T.shape[0], is_complex)[0]
    embedded = _vectors(targets, T.shape[0], is_complex).view(float)
    if not len(embedded):
        return DensityReport(total=0, captured=0, fraction=1.0, miss_indices=(), generators_used=0)

    # overflow shows as a non-finite orbit point or an infinite norm cap
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max([1.0, float(np.linalg.norm(v))] + [float(np.linalg.norm(t)) for t in embedded])
        generators, stop_reason = _generator_points(T, v, poly_budget, norm_cap=1e7 * scale)
    results = _hull_solve(np.column_stack([p.view(float) for p in generators]), embedded)
    misses = []
    for i, result in enumerate(results):
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
