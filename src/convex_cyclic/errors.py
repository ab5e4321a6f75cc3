"""Exception hierarchy shared by all modules.

Every error carries enough structured state for a caller (or the CLI) to
produce a stable reason code without parsing the message text.  Each kind
of operand has one check here: counts ``_require_int``, real and complex
scalars ``_require_number``, matrices, vectors and coefficients ``_require_array``.
"""

from __future__ import annotations

import cmath
import contextlib
import numbers
import operator
from typing import Any

import numpy as np

__all__ = [
    "ConvexCyclicError",
    "ParseError",
    "PreconditionViolated",
    "NegativeCoefficient",
    "SumNotOne",
    "NoPeakWithinCap",
    "AlphaGridExhausted",
    "NonSquare",
    "DimensionMismatch",
    "OddLength",
    "ZeroFunctional",
    "OverflowReached",
]


class ConvexCyclicError(Exception):
    """Base class for all package errors."""


class ParseError(ConvexCyclicError):
    """Malformed wire input (JSON shape, field types, tags)."""


class PreconditionViolated(ConvexCyclicError):
    """A documented operation precondition does not hold.

    ``which`` is a short stable description of the violated clause.
    """

    def __init__(self, which: str):
        self.which = which
        super().__init__(which)


def _require_int(value: Any, name: str, minimum: int) -> int:
    """``value`` as an int: any integer type (``operator.index``) but a bool, at least ``minimum``."""
    if type(value).__name__ not in ("bool", "bool_"):  # Python's and numpy's booleans
        with contextlib.suppress(TypeError):
            if (count := operator.index(value)) >= minimum:
                return count
    raise PreconditionViolated(f"{name} must be an integer >= {minimum}")


def _require_number(value: Any, name: str, kind: type = float) -> float | complex:
    """``value`` as a finite ``kind``: any real number type for ``float``, any
    complex one for ``complex`` (numpy's included), but a bool."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real if kind is float else numbers.Complex):
        try:
            number = kind(value)
        except OverflowError:  # an int or a Fraction beyond float range
            pass
        else:
            if cmath.isfinite(number):
                return number
    raise PreconditionViolated(f"{name} must be finite")


def _holds_bool(value: Any) -> bool:
    """Whether ``value`` is or holds, in lists and tuples at any depth, a
    boolean or a boolean array: numpy reads one beside numbers as a number."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) or isinstance(value, np.ndarray) and value.dtype.kind == "b"


def _require_array(value: Any, name: str, kind: type | None = None) -> np.ndarray:
    """``value`` as a homogeneous (not ragged) array of finite integers, floats
    or, unless ``kind`` is ``float``, complex numbers, never booleans: as
    ``kind``, or else as float64 or complex128 with a wider type kept."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged operand has no array form
        arr = None
    numeric = arr is not None and arr.dtype.kind in ("iuf" if kind is float else "iufc")
    # an operand that is not its own array form may hold booleans numpy read as numbers
    if numeric and (arr is value or not _holds_bool(value)):
        arr = arr.astype(kind or np.result_type(arr, float), copy=False)
        if np.isfinite(arr).all():  # both parts of a complex entry
            return arr
    raise PreconditionViolated(f"{name} must be finite")


class NegativeCoefficient(ConvexCyclicError):
    """Coefficient vector has a negative entry at ``index``."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"coefficient {index} is negative ({value!r})")


class SumNotOne(ConvexCyclicError):
    """Coefficient sum differs from 1 beyond the construction tolerance."""

    def __init__(self, actual_sum: float):
        self.actual_sum = actual_sum
        super().__init__(f"coefficients sum to {actual_sum!r}, not 1")


class NoPeakWithinCap(ConvexCyclicError):
    """The peak-power scan hit its cap without a verified strict peak."""

    def __init__(self, power_cap: int, detail: str = ""):
        self.power_cap = power_cap
        msg = f"no strict peak found up to power {power_cap}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class AlphaGridExhausted(NoPeakWithinCap):
    """Realness-avoidance retries ran out of grid values."""

    def __init__(self, power_cap: int, grid_size: int):
        self.grid_size = grid_size
        super().__init__(power_cap, f"{grid_size} alpha grid values exhausted")


class NonSquare(ConvexCyclicError):
    """Matrix input is not square."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"matrix of shape {self.shape} is not square")


class DimensionMismatch(ConvexCyclicError):
    """Vector length does not match the operator dimension."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected dimension {expected}, got {got}")


class OddLength(ConvexCyclicError):
    """Complexification needs an even-length real vector."""

    def __init__(self, length: int):
        self.length = length
        super().__init__(f"vector length {length} is odd")


class ZeroFunctional(ConvexCyclicError):
    """Growth witnesses are only defined for nonzero functionals."""

    def __init__(self):
        super().__init__("functional must be nonzero")


class OverflowReached(ConvexCyclicError):
    """An orbit left double range at step ``index``."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"orbit magnitude left float range at step {index}")
