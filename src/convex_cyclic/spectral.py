"""Spectral analysis and the convex-cyclicity decision.

A matrix is classified from its eigenstructure alone.  Over the complex
field, convex-cyclicity requires cyclicity, every eigenvalue outside the
closed unit disk, no real eigenvalue and no conjugate pair among the
eigenvalues.  Over the real field it requires cyclicity and every eigenvalue
outside both the closed unit disk and the nonnegative reals (conjugate pairs
are then permitted).  Dropping the cyclicity requirement in either case
characterizes the matrices whose invariant closed convex sets with nonempty
orbit interaction are all subspaces, so the verdict reports that property
separately.  Decisions near the spectral boundary are taken conservatively
and flagged as borderline rather than decided silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Sequence

import numpy as np

from ._jsonutil import complex_pair, parse_complex, parse_real
from .convex_poly import _node_clauses, _pair_gaps
from .errors import DimensionMismatch, NonSquare, ParseError, PreconditionViolated

__all__ = [
    "MatrixSpec",
    "EigenvalueInfo",
    "Eigenstructure",
    "FailedCondition",
    "ConvexCyclicVerdict",
    "REASON_NOT_CYCLIC",
    "REASON_IN_CLOSED_DISK",
    "REASON_REAL_EIGENVALUE",
    "REASON_NONNEGATIVE_REAL",
    "REASON_CONJUGATE_PAIR",
    "REASON_REPEATED_EIGENVALUE",
    "default_tolerance",
    "eigenstructure",
    "is_cyclic",
    "classify",
]

REASON_NOT_CYCLIC = "NotCyclic"
REASON_IN_CLOSED_DISK = "EigenvalueInClosedDisk"
REASON_REAL_EIGENVALUE = "RealEigenvalue"
REASON_NONNEGATIVE_REAL = "NonNegativeRealEigenvalue"
REASON_CONJUGATE_PAIR = "ConjugatePair"
REASON_REPEATED_EIGENVALUE = "RepeatedEigenvalue"

_REASON_ORDER = {
    REASON_NOT_CYCLIC: 0,
    REASON_REPEATED_EIGENVALUE: 1,
    REASON_IN_CLOSED_DISK: 2,
    REASON_REAL_EIGENVALUE: 3,
    REASON_NONNEGATIVE_REAL: 4,
    REASON_CONJUGATE_PAIR: 5,
}


@dataclass(frozen=True, eq=False)
class MatrixSpec:
    """A square matrix together with its scalar field tag.

    ``field`` is ``"real"`` or ``"complex"``; real matrices must have
    exactly zero imaginary parts.  The tag decides which classification
    rules apply, not the storage dtype.
    """

    field: str
    entries: np.ndarray

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise PreconditionViolated(f"unknown field tag {self.field!r}")
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSquare(arr.shape)
        if arr.shape[0] < 1:
            raise PreconditionViolated("matrix must be at least 1x1")
        if not np.all(np.isfinite(arr.real)) or (np.iscomplexobj(arr) and not np.all(np.isfinite(arr.imag))):
            raise PreconditionViolated("matrix entries must be finite")
        if self.field == "real":
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0.0):
                    raise PreconditionViolated("real field requires exactly real entries")
                arr = arr.real
            arr = arr.astype(float)
        else:
            arr = arr.astype(complex)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_jsonable(obj: Any) -> "MatrixSpec":
        if not isinstance(obj, dict):
            raise ParseError("matrix spec must be an object")
        field = obj.get("field")
        if field not in ("real", "complex"):
            raise ParseError(f"matrix 'field' must be 'real' or 'complex', got {field!r}")
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ParseError("matrix 'rows' must be a nonempty list of lists")
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParseError(f"rows[{i}] must be a list")
            if field == "real":
                parsed.append([parse_real(x, f"rows[{i}]") for x in row])
            else:
                parsed.append([parse_complex(x, f"rows[{i}]") for x in row])
        lengths = {len(r) for r in parsed}
        if lengths != {len(rows)}:
            raise ParseError("matrix rows must form a square array")
        return MatrixSpec(field, np.array(parsed, dtype=float if field == "real" else complex))


def _coerce_matrix(matrix: MatrixSpec | np.ndarray | Sequence) -> MatrixSpec:
    if isinstance(matrix, MatrixSpec):
        return matrix
    arr = np.asarray(matrix)
    field = "complex" if np.iscomplexobj(arr) else "real"
    return MatrixSpec(field, arr)


def _vectors(rows: Any, dimension: int, is_complex: bool) -> np.ndarray:
    """The one check of the package's vectors: ``rows`` stacked as finite
    complex or float vectors of length ``dimension`` (a scalar row has
    length one; a real field refuses complex entries).  Every row's length
    is checked first, then the stacked rows' field, then their finiteness:
    one bad row raises what it raises alone, and among several bad rows a
    wrong length wins.  ``.view(float)`` gives real coordinates."""
    shaped = [np.atleast_1d(np.asarray(row)) for row in rows]
    for row in shaped:
        if row.ndim != 1 or len(row) != dimension:
            raise DimensionMismatch(dimension, len(row) if row.ndim == 1 else -1)
    arr = np.array(shaped).reshape(len(shaped), dimension)
    if np.iscomplexobj(arr) and not is_complex:
        raise PreconditionViolated("real field requires a real vector")
    arr = arr.astype(complex if is_complex else float)
    if not np.all(np.isfinite(arr)):
        raise PreconditionViolated("vector entries must be finite")
    return arr


def default_tolerance(matrix: MatrixSpec | np.ndarray) -> float:
    """The spectral tolerance, ``1e-9 * max(1, ||T||_2)``: the eigensolver's rounding scale."""
    spec = _coerce_matrix(matrix)
    return 1e-9 * max(1.0, float(np.linalg.norm(spec.entries, 2)))


@dataclass(frozen=True)
class EigenvalueInfo:
    value: complex
    algebraic_mult: int
    geometric_mult: int


@dataclass(frozen=True)
class Eigenstructure:
    """Clustered eigenvalues with multiplicities.

    Every cluster gets an entry, sorted by real then imaginary part
    (conjugate partners of a real matrix are listed separately so that
    algebraic multiplicities sum to the dimension).
    """

    field: str
    eigenvalues: tuple[EigenvalueInfo, ...]
    tol: float

    @property
    def dimension(self) -> int:
        return sum(info.algebraic_mult for info in self.eigenvalues)


def _cluster(values: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage clustering of points in the plane.

    Groups come in order of their smallest index, members ascending.
    """
    n = len(values)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    first, second, gaps = _pair_gaps(values)
    close = gaps <= radius
    for i, j in zip(first[close].tolist(), second[close].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def eigenstructure(matrix: MatrixSpec | np.ndarray) -> Eigenstructure:
    """Cluster the spectrum and compute multiplicities.

    The tolerance ``tol`` is ``default_tolerance(T)``, the scale of the
    eigensolver's rounding, and is reported as ``Eigenstructure.tol``; a
    matrix whose 2-norm overflows has none and is refused.  Eigenvalues
    come from one eigenvalue-only solve: the real solver on the entries of
    a real-field matrix, so that its real eigenvalues are exactly real and
    its complex ones come in exactly conjugate pairs, and the complex
    solver otherwise.  Eigenvalues within ``tol`` of each other are merged
    (single linkage) and reported at their mean.  A single eigenvalue has
    geometric multiplicity one; for a repeated cluster it is the kernel
    dimension of ``T - lambda*I`` measured by singular values against the
    threshold ``tol * max(1, sigma_max)``, capped by the cluster size.
    """
    spec = _coerce_matrix(matrix)
    tol = default_tolerance(spec)
    if not tol < np.inf:
        raise PreconditionViolated("matrix 2-norm is not finite, so no spectral tolerance scales with it")
    n = spec.dimension
    raw = np.linalg.eigvals(spec.entries).astype(complex)
    infos = []
    for group in _cluster(raw, tol):
        if len(group) == 1:
            infos.append(EigenvalueInfo(complex(raw[group[0]]), 1, 1))
            continue
        value = complex(np.mean(raw[group]))
        sigma = np.linalg.svd(spec.entries - value * np.eye(n), compute_uv=False)
        rank = int(np.sum(sigma > tol * max(1.0, float(sigma[0]))))
        infos.append(EigenvalueInfo(value, len(group), min(max(1, n - rank), len(group))))
    infos.sort(key=lambda info: (info.value.real, info.value.imag))
    return Eigenstructure(field=spec.field, eigenvalues=tuple(infos), tol=tol)


def is_cyclic(structure: Eigenstructure | MatrixSpec | np.ndarray) -> bool:
    """Cyclic exactly when every eigenvalue has geometric multiplicity one."""
    if not isinstance(structure, Eigenstructure):
        structure = eigenstructure(structure)
    return all(info.geometric_mult == 1 for info in structure.eigenvalues)


@dataclass(frozen=True)
class FailedCondition:
    """One violated clause with the offending eigenvalue(s)."""

    reason: str
    eigenvalues: tuple[complex, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "reason": self.reason,
            "eigenvalues": [complex_pair(z) for z in self.eigenvalues],
        }


@dataclass(frozen=True)
class ConvexCyclicVerdict:
    field: str
    is_cyclic: bool
    is_convex_cyclic: bool
    invariant_convex_sets_are_subspaces: bool
    failed_conditions: tuple[FailedCondition, ...]
    borderline: bool
    tolerances_used: dict[str, float]
    eigenstructure: Eigenstructure = dataclass_field(repr=False)

    def to_jsonable(self) -> dict:
        return {
            "field": self.field,
            "is_cyclic": self.is_cyclic,
            "is_convex_cyclic": self.is_convex_cyclic,
            "invariant_convex_sets_are_subspaces": self.invariant_convex_sets_are_subspaces,
            "borderline": self.borderline,
            "failed_conditions": [c.to_jsonable() for c in self.failed_conditions],
            "eigenvalues": [
                {
                    "value": complex_pair(info.value),
                    "algebraic_mult": info.algebraic_mult,
                    "geometric_mult": info.geometric_mult,
                }
                for info in self.eigenstructure.eigenvalues
            ],
            "tolerances_used": dict(self.tolerances_used),
        }


def _sort_failures(failures: list[FailedCondition]) -> tuple[FailedCondition, ...]:
    def key(c: FailedCondition):
        values = tuple((z.real, z.imag) for z in c.eigenvalues)
        return (_REASON_ORDER.get(c.reason, 99), values)

    return tuple(sorted(failures, key=key))


def classify(matrix: MatrixSpec | np.ndarray) -> ConvexCyclicVerdict:
    """Decide convex-cyclicity and the invariant-convex-set property.

    The eigenvalue clauses are ``convex_poly._node_clauses`` with ``tol``
    the eigenstructure's tolerance: an eigenvalue counts as inside the
    closed unit disk when ``|lambda| <= 1 + tol``, as real when
    ``|Im lambda| <= tol``, as on the nonnegative reals when additionally
    ``Re lambda >= -tol``, and two eigenvalues form a conjugate pair when
    ``|a - conj(b)| <= tol``.  ``borderline`` is read off the clauses'
    margins: a modulus within ``2 * tol`` of 1, a nonzero ``|Im lambda|``
    within ``2 * tol``, an eigenvalue within ``2 * tol`` of 0 on both axes
    (real field) or an unpaired conjugate gap within ``2 * tol`` (complex
    field).
    """
    spec = _coerce_matrix(matrix)
    structure = eigenstructure(spec)
    tol = structure.tol
    infos = structure.eigenvalues

    failures: list[FailedCondition] = []
    cyclic = True
    for info in infos:
        if info.geometric_mult >= 2:
            cyclic = False
            failures.append(FailedCondition(REASON_REPEATED_EIGENVALUE, (info.value,)))
    if not cyclic:
        failures.append(FailedCondition(REASON_NOT_CYCLIC))

    complex_field = spec.field == "complex"
    values = [info.value for info in infos]
    failed, (moduli, imag, real, pairs) = _node_clauses(values, complex_field, tol, tol)
    real_reason = REASON_REAL_EIGENVALUE if complex_field else REASON_NONNEGATIVE_REAL
    reasons = {"real": real_reason, "disk": REASON_IN_CLOSED_DISK, "pair": REASON_CONJUGATE_PAIR}
    failures += [FailedCondition(reasons[clause], tuple(values[i] for i in points)) for clause, points in failed]
    eigen_ok = not failed
    band = 2 * tol
    borderline = any(
        abs(m - 1.0) <= band or 0.0 < y <= band or (not complex_field and y <= band and abs(x) <= band)
        for m, y, x in zip(moduli, imag, real)
    ) or (complex_field and bool(np.any((pairs[2] > tol) & (pairs[2] <= band))))

    return ConvexCyclicVerdict(
        field=spec.field,
        is_cyclic=cyclic,
        is_convex_cyclic=cyclic and eigen_ok,
        invariant_convex_sets_are_subspaces=eigen_ok,
        failed_conditions=_sort_failures(failures),
        borderline=borderline,
        tolerances_used={
            "tol": tol,
            "disk_threshold": 1.0 + tol,
            "realness_threshold": tol,
            "conjugate_threshold": tol,
            "borderline_band": 2.0 * tol,
        },
        eigenstructure=structure,
    )
