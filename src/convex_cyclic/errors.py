"""Exception hierarchy shared by all modules.

Every error carries enough structured state for a caller (or the CLI) to
produce a stable reason code without parsing the message text.
"""

from __future__ import annotations

__all__ = [
    "ConvexCyclicError",
    "ParseError",
    "PreconditionViolated",
    "NegativeCoefficient",
    "SumNotOne",
    "NoPeakWithinCap",
    "AlphaGridExhausted",
    "ThetaMultipleOfPi",
    "ZeroCoefficient",
    "NotFoundWithinCap",
    "NonSquare",
    "DimensionMismatch",
    "OddLength",
    "NotCanonicalForm",
    "ZeroFunctional",
    "OverflowReached",
    "PremiseViolated",
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


class ThetaMultipleOfPi(ConvexCyclicError):
    """Growth scans require an angle that is not an integer multiple of pi."""

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(f"theta={theta!r} is an integer multiple of pi")


class ZeroCoefficient(ConvexCyclicError):
    """Growth scans require a nonzero rotating coefficient."""

    def __init__(self):
        super().__init__("rotating coefficient must be nonzero")


class NotFoundWithinCap(ConvexCyclicError):
    """A threshold-crossing scan exhausted its index cap."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        super().__init__(f"no index up to {max_n} crossed the threshold")


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


class NotCanonicalForm(ConvexCyclicError):
    """Operation expects a canonical direct-sum descriptor."""

    def __init__(self, detail: str):
        super().__init__(detail)


class ZeroFunctional(ConvexCyclicError):
    """Growth witnesses are only defined for nonzero functionals."""

    def __init__(self):
        super().__init__("functional must be nonzero")


class OverflowReached(ConvexCyclicError):
    """An orbit scan left double range before reaching its threshold."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"orbit magnitude left float range at step {index}")


class PremiseViolated(ConvexCyclicError):
    """A direct-sum assembly premise failed.

    ``which`` is a short stable description of the failed premise.
    """

    def __init__(self, which: str):
        self.which = which
        super().__init__(which)
