"""Canonical blocks: Jordan blocks, 2x2 rotation-scaling blocks, direct sums.

Lower-triangular convention throughout: a Jordan block carries its
eigenvalue on the diagonal and ones on the subdiagonal; a real block of
half-dimension ``k`` carries ``r * R(theta)`` rotation cells on the diagonal
and 2x2 identity cells on the block subdiagonal.  A closed form is provided
for polynomials of Jordan blocks (Toeplitz in the derivatives), plus the
complexification map pairing adjacent real coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, Union

import numpy as np

from ._jsonutil import parse_complex, parse_int, parse_real
from .convex_poly import derivative, horner
from .errors import OddLength, ParseError, PreconditionViolated, _require_int
from .spectral import MatrixSpec, _coerce_matrix, _vectors

__all__ = [
    "JordanBlockSpec",
    "RealJordanBlockSpec",
    "DiagonalEntrySpec",
    "DirectSumSpec",
    "BlockSpec",
    "build",
    "convex_cyclic_vector_test",
    "poly_on_jordan_block",
    "matrix_polynomial",
    "complexify",
    "rotation",
]


@dataclass(frozen=True)
class JordanBlockSpec:
    """Jordan block of dimension ``size`` with the given eigenvalue."""

    size: int
    eigenvalue: complex

    def __post_init__(self):
        object.__setattr__(self, "size", _require_int(self.size, "Jordan block size", 1))
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    @property
    def dimension(self) -> int:
        return self.size

    @property
    def is_real(self) -> bool:
        return self.eigenvalue.imag == 0.0


@dataclass(frozen=True)
class RealJordanBlockSpec:
    """Real block of dimension ``2 * size`` for the pair ``modulus * exp(+-i*angle)``."""

    size: int
    modulus: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "size", _require_int(self.size, "real block size", 1))
        if not self.modulus >= 0.0:
            raise PreconditionViolated("real block modulus must be nonnegative")
        if not math.isfinite(self.angle):
            raise PreconditionViolated("real block angle must be finite")
        object.__setattr__(self, "modulus", float(self.modulus))
        object.__setattr__(self, "angle", float(self.angle))

    @property
    def dimension(self) -> int:
        return 2 * self.size

    @property
    def is_real(self) -> bool:
        return True


@dataclass(frozen=True)
class DiagonalEntrySpec:
    """A 1x1 block."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    @property
    def dimension(self) -> int:
        return 1

    @property
    def is_real(self) -> bool:
        return self.value.imag == 0.0


BlockSpec = Union[JordanBlockSpec, RealJordanBlockSpec, DiagonalEntrySpec]


@dataclass(frozen=True)
class DirectSumSpec:
    """Ordered direct sum of canonical blocks."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise PreconditionViolated("direct sum needs at least one block")
        for b in blocks:
            if not isinstance(b, BlockSpec):
                raise PreconditionViolated(f"unsupported block type {type(b).__name__}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    @property
    def is_real(self) -> bool:
        return all(b.is_real for b in self.blocks)

    @staticmethod
    def from_jsonable(obj: Any) -> "DirectSumSpec":
        if not isinstance(obj, dict) or "blocks" not in obj:
            raise ParseError("direct sum spec must be an object with a 'blocks' list")
        raw = obj["blocks"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("'blocks' must be a nonempty list")
        blocks: list[BlockSpec] = []
        for i, item in enumerate(raw):
            where = f"blocks[{i}]"
            if not isinstance(item, dict) or "type" not in item:
                raise ParseError(f"{where}: expected an object with a 'type' tag")
            kind = item["type"]
            try:
                if kind == "jordan":
                    blocks.append(
                        JordanBlockSpec(parse_int(item["k"], f"{where}: 'k'"), parse_complex(item["lambda"], where))
                    )
                elif kind == "real_jordan":
                    blocks.append(
                        RealJordanBlockSpec(
                            parse_int(item["k"], f"{where}: 'k'"),
                            parse_real(item["r"], where),
                            parse_real(item["theta"], where),
                        )
                    )
                elif kind == "diag":
                    blocks.append(DiagonalEntrySpec(parse_complex(item["value"], where)))
                else:
                    raise ParseError(f"{where}: unknown block type {kind!r}")
            except KeyError as exc:
                raise ParseError(f"{where}: missing field {exc.args[0]!r}") from exc
        return DirectSumSpec(tuple(blocks))


def rotation(angle: float) -> np.ndarray:
    """The 2x2 rotation matrix R(angle)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _build_block(block: BlockSpec, dtype) -> np.ndarray:
    if isinstance(block, JordanBlockSpec):
        out = np.zeros((block.size, block.size), dtype=dtype)
        lam = block.eigenvalue if dtype == complex else block.eigenvalue.real
        np.fill_diagonal(out, lam)
        for i in range(block.size - 1):
            out[i + 1, i] = 1.0
        return out
    if isinstance(block, RealJordanBlockSpec):
        k = block.size
        out = np.zeros((2 * k, 2 * k), dtype=dtype)
        cell = block.modulus * rotation(block.angle)
        for i in range(k):
            out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = cell
        for i in range(k - 1):
            out[2 * i + 2 : 2 * i + 4, 2 * i : 2 * i + 2] = np.eye(2)
        return out
    value = block.value if dtype == complex else block.value.real
    return np.array([[value]], dtype=dtype)


def _direct_sum(spec: Any) -> DirectSumSpec:
    """A single block as a one-block direct sum; anything but a canonical descriptor is refused."""
    if isinstance(spec, BlockSpec):
        return DirectSumSpec((spec,))
    if not isinstance(spec, DirectSumSpec):
        raise PreconditionViolated(f"expected a canonical block or direct sum, got {type(spec).__name__}")
    return spec


def build(spec: BlockSpec | DirectSumSpec) -> MatrixSpec:
    """Materialize a canonical descriptor as a matrix.

    The field tag is real exactly when every block has real entries
    (real eigenvalues, real diagonal values, or rotation-scaling blocks).
    """
    spec = _direct_sum(spec)
    field = "real" if spec.is_real else "complex"
    dtype = float if field == "real" else complex
    n = spec.dimension
    out = np.zeros((n, n), dtype=dtype)
    pos = 0
    for block in spec.blocks:
        d = block.dimension
        out[pos : pos + d, pos : pos + d] = _build_block(block, dtype)
        pos += d
    return MatrixSpec(field, out)


def convex_cyclic_vector_test(canonical: Any, vector: Sequence[complex]) -> bool:
    """Blockwise test for convex-cyclic vectors of a canonical direct sum.

    For a convex-cyclic canonical matrix the convex-cyclic vectors are
    exactly those with a nonzero coordinate for every diagonal entry, a
    nonzero first coordinate for every Jordan block, and a nonzero first
    coordinate pair for every 2x2-cell real block.  Zero tests are exact;
    the answer is only meaningful when the built matrix is convex-cyclic.
    The vector is checked as ``spectral._vectors`` checks an orbit's start,
    in the built matrix's field.
    """
    canonical = _direct_sum(canonical)
    arr = _vectors([vector], canonical.dimension, not canonical.is_real)[0]
    pos = 0
    for block in canonical.blocks:
        lead = 2 if isinstance(block, RealJordanBlockSpec) else 1
        if not np.any(arr[pos : pos + lead]):
            return False
        pos += block.dimension
    return True


def poly_on_jordan_block(p: Sequence[float], eigenvalue: complex, size: int) -> np.ndarray:
    """Closed form for ``p(J)`` on a lower-triangular Jordan block.

    The result is lower-triangular Toeplitz: entry ``(i, j)`` for ``i >= j``
    equals the ``(i - j)``-th derivative of ``p`` at the eigenvalue divided
    by ``(i - j)!``.  Derivative coefficients come from exact index shifts,
    so ``p(J) == 0`` exactly when ``p`` has a zero of order ``size`` there.
    """
    size = _require_int(size, "block size", 1)
    lam = complex(eigenvalue)
    out = np.zeros((size, size), dtype=complex)
    for d in range(size):
        value = horner(derivative(p, d), lam) / math.factorial(d)
        for i in range(d, size):
            out[i, i - d] = value
    return out


def matrix_polynomial(p: Sequence[float], matrix: MatrixSpec | np.ndarray) -> np.ndarray:
    """Dense Horner evaluation of a polynomial at a matrix."""
    entries = _coerce_matrix(matrix).entries
    coeffs = np.asarray(getattr(p, "coeffs", p))
    n = entries.shape[0]
    dtype = np.result_type(entries.dtype, coeffs.dtype)
    eye = np.eye(n, dtype=dtype)
    acc = coeffs[-1] * eye
    for a in coeffs[-2::-1]:
        acc = acc @ entries + a * eye
    return acc


def complexify(x: Sequence[float]) -> np.ndarray:
    """Pair adjacent real coordinates into complex ones.

    ``(x1, x2, ..., x_{2n-1}, x_{2n}) -> (x1 + i*x2, ..., x_{2n-1} + i*x_{2n})``.
    A linear isometry; it intertwines a real block of half-dimension ``k``
    with the Jordan block of dimension ``k`` at ``modulus * exp(i*angle)``.
    """
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PreconditionViolated("complexify expects a real vector") from exc
    if arr.ndim != 1:
        raise PreconditionViolated("complexify expects a 1-d vector")
    if arr.size % 2 != 0:
        raise OddLength(arr.size)
    return arr[0::2] + 1j * arr[1::2]
