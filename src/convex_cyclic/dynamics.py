"""Orbit dynamics: growth witnesses and empirical hull-density scans.

The membership question "is a target in the closed convex hull of the
convex-polynomial images of a vector" is settled empirically.  Those
images are exactly the convex hull of the orbit x, Tx, T^2 x, ..., so a
hull test by nonnegative least squares against a finite orbit prefix
decides it, up to ``HULL_RTOL * max(1, |t|)`` for a target t, with the
NNLS kernel of ``_solvers``.  One chunked builder makes the orbits of
``orbit`` and of every scan, and a scan's hull test is one array-wide pass
around its NNLS solves, so a scan costs little more than those solves.
Growth witnesses, which step ``T @ v`` themselves to stop at the first
witness, certify unboundedness of functionals along orbits, which is the
separation-based obstruction to such capture ever failing on admissible
matrices.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Union

import numpy as np

from ._solvers import _nnls
from .errors import OverflowReached, PreconditionViolated, ZeroFunctional, _require_array, _require_int, _require_number
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


def _lengths(rows: np.ndarray) -> np.ndarray:
    """``sqrt(v @ v)`` of each row v, or ``hypot``'s scaled length where
    underflowing squares may have shrunk it; one BLAS dot per row, since a
    batched sum of squares rounds differently."""
    lengths = np.sqrt([v.dot(v) for v in rows])
    for k in np.flatnonzero(lengths < _SQUARES_EXACT):
        lengths[k] = math.hypot(*rows[k].tolist())
    return lengths


MatrixLike = Union[MatrixSpec, np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True)
class OrbitTrace:
    """Iterates ``points[n] = T^n x`` for n = 0 .. horizon."""

    points: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.points) - 1


def _orbit_points(T: np.ndarray, x: np.ndarray, count: int, norm_cap: float | None = None) -> tuple[np.ndarray, str]:
    """The orbit x, Tx, T^2 x, ... as rows, and why they stopped.

    Without ``norm_cap`` the rows are all ``count`` points, whatever their
    values.  With it they end before the first point that is not finite
    (``overflow``) or has an entry beyond ``norm_cap`` (``norm_cap``), else
    at ``count`` (``budget``).  Steps run in chunks, rows 1-15 and then
    chunks of doubling length (16-31, 32-63, ...), each ``T @ row`` written
    in place, and a capped buffer doubles with them, so a large ``count``
    allocates only what the orbit reaches; the cap is checked once per
    chunk, on every row of it.
    """
    # finite, so an infinite cap still stops an infinite entry
    limit = None if norm_cap is None else min(norm_cap, np.finfo(float).max)
    P = np.empty((count if limit is None else min(count, 16), len(x)), dtype=T.dtype)
    P[0] = x
    n = 1
    while n < count:
        end = min(max(2 * n, 16), count)
        if end > len(P):
            P = np.concatenate([P, np.empty((end - len(P), len(x)), dtype=T.dtype)])
        for k in range(n, end):
            T.dot(P[k - 1], out=P[k])  # the BLAS matrix-vector product of ``T @ row``, without its dispatch
        if limit is not None:
            stop = np.flatnonzero(~(np.abs(P[n:end]).max(axis=1) <= limit))
            if len(stop):
                k = n + int(stop[0])
                return P[:k], "norm_cap" if np.all(np.isfinite(P[k])) else "overflow"
        n = end
    return P[:count], "budget"


def orbit(matrix: MatrixLike, x: Any, horizon: int) -> OrbitTrace:
    """Forward orbit of ``x`` under the matrix, horizon + 1 points."""
    horizon = _require_int(horizon, "horizon", 0)
    T = _coerce_matrix(matrix).entries
    v = _vectors([x], T.shape[0], np.iscomplexobj(T))[0]
    return OrbitTrace(_orbit_points(T, v, horizon + 1)[0])


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
    threshold = _require_number(threshold, "threshold")

    best = -math.inf
    # overflow is detected through the isfinite checks below, so numpy's
    # warnings would only duplicate the OverflowReached signal
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_n + 1):
            value = float(np.vdot(f, v).real)
            if math.isfinite(value) and value > threshold:
                return GrowthWitness(index=n, value=value, threshold=threshold)
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


def _hull_solve(G: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Is each embedded target t, a row of ``targets``, within
    ``HULL_RTOL * max(1, |t|)`` of the hull of G's columns?  Returns the
    verdicts, the residuals and the weights, one row per target.

    Array-wide passes compute everything around the solves: G's peak,
    column norms and unit-norm columns, and for all targets at once their
    units, scaled targets (the right-hand sides), unit-sum rows and column
    scales.  ``_solvers._nnls`` only writes a target's unit-sum row into one
    NNLS system and solves it into one weight matrix, renormalized afterwards in
    one pass.  The verdict uses the true Euclidean distance after
    renormalizing, so it never depends on the penalty weight or on the
    column scaling; each target's gap comes from one matrix-vector product,
    since a batched product rounds differently.

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
    dim, count = G.shape
    t_peak = np.max(np.abs(targets), axis=1, initial=1.0)
    s = np.ldexp(1.0, np.minimum(np.frexp(np.maximum(peak, t_peak))[1], 1023))
    r = scale / s
    b = np.empty((len(targets), dim + 1))  # right-hand sides: the target and the unit-sum weight
    t = np.divide(targets, s[:, None], out=b[:, :dim])
    # max(1, |t|) in units of s scales the verdict and the unit-sum row's
    # weight, whose rounding (eps times it) stays far below HULL_RTOL * size
    size = np.maximum(1.0 / s, _lengths(t))
    b[:, dim] = 1e3 * size
    # NNLS runs on unit-norm columns (zero columns stay as they are): its
    # residual otherwise grows with the generator magnitudes.  A column
    # shorter than 1e-305 * size enters NNLS at that length, so its unit-sum
    # weight stays finite; the verdict uses the true point
    col = np.maximum(np.where(nonzero, norms * r[:, None], 1.0), b[:, dim:] / _FLOAT_MAX)
    unit_sums = b[:, dim:] / col
    A = np.empty((dim + 1, count))
    A[:dim] = points / np.where(nonzero, norms, 1.0)
    w = _nnls(A, unit_sums, b)
    w /= col
    total = w.sum(axis=1, keepdims=True)
    np.divide(w, total, out=w, where=total > 0)
    gaps = np.empty_like(t)
    for wi, gap in zip(w, gaps):
        points.dot(wi, out=gap)
    gaps *= r[:, None]
    gaps -= t
    distance = _lengths(gaps)
    with np.errstate(over="ignore"):  # only the residual may round to infinity
        residual = s * distance
    return distance <= HULL_RTOL * size, residual, w


def hull_contains(query: HullQuery) -> HullResult:
    """Convex-hull membership of the query target by nonnegative least squares; points (each
    read by ``errors._require_array``) and target are finite vectors of one length, complex if any point is."""
    if len(query.points) == 0:
        raise PreconditionViolated("hull query needs at least one point")
    points = [np.atleast_1d(_require_array(p, "vector entries")) for p in query.points]
    rows = _vectors([*points, query.target], len(points[0]), any(p.dtype.kind == "c" for p in points)).view(float)
    (contained,), (residual,), (weights,) = _hull_solve(rows[:-1].T.copy(), rows[-1:])
    return HullResult(contained=bool(contained), residual=float(residual), weights=weights)


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
        scale = max(1.0, float(np.linalg.norm(v)), float(_lengths(embedded).max()))
        generators, stop_reason = _orbit_points(T, v, poly_budget, norm_cap=1e7 * scale)
    contained, residuals, _ = _hull_solve(np.ascontiguousarray(generators.view(float).T), embedded)
    misses = np.flatnonzero(~contained).tolist()
    for i in misses:
        logger.debug("target %d missed, residual %.3e", i, residuals[i])
    captured = len(embedded) - len(misses)
    return DensityReport(
        total=len(embedded),
        captured=captured,
        fraction=captured / len(embedded),
        miss_indices=tuple(misses),
        generators_used=len(generators),
        stop_reason=stop_reason,
    )
