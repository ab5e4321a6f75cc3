"""Convex-polynomials: simplex-coefficient polynomials and their algebra.

A convex-polynomial has nonnegative coefficients that sum to one on the
monomial basis.  The class is closed under multiplication and composition,
fixes ``z = 1``, maps the closed unit disk into itself and commutes with
complex conjugation.  On top of the algebra this module constructs peaking
polynomials ``z^m (alpha*z + 1 - alpha)`` for admissible node sets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlphaGridExhausted,
    NegativeCoefficient,
    NoPeakWithinCap,
    PreconditionViolated,
    SumNotOne,
    _require_int,
)

__all__ = [
    "SUM_TOLERANCE",
    "NODE_TOLERANCE",
    "DEFAULT_POWER_CAP",
    "ConvexPolynomial",
    "PeakingCertificate",
    "horner",
    "evaluate",
    "derivative",
    "node_pairs",
    "multiply",
    "compose",
    "peaking_polynomial",
]

# Construction tolerance on the coefficient sum; nonnegativity is exact.
SUM_TOLERANCE = 1e-12

# Absolute tolerance for node equality / conjugacy checks.
NODE_TOLERANCE = 1e-10

# Default cap for the peak-power scan.
DEFAULT_POWER_CAP = 10000

# Largest magnitude a certificate value may take; beyond this the scan
# reports the cap instead of returning non-representable numbers.
_LOG_VALUE_MAX = math.log(1e300)

# Realness-avoidance retries draw from a grid of this many alpha values.
_ALPHA_GRID_SIZE = 16


@dataclass(frozen=True, eq=False)
class ConvexPolynomial:
    """Polynomial with nonnegative coefficients summing to one.

    Coefficients are ascending (``coeffs[k]`` multiplies ``z**k``).
    Construction validates and canonicalizes: every entry must be exactly
    nonnegative, the sum must be within ``SUM_TOLERANCE`` of one, and the
    stored vector is renormalized and stripped of trailing zeros.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionViolated("coefficients must be a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise PreconditionViolated("coefficients must be finite")
        for index, value in enumerate(arr):
            if value < 0.0:
                raise NegativeCoefficient(index, float(value))
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise SumNotOne(total)
        arr = arr / total
        nonzero = np.nonzero(arr)[0]
        end = int(nonzero[-1]) + 1 if nonzero.size else 1
        arr = arr[:end].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex | float) -> complex | float:
        return evaluate(self, z)

    def __repr__(self) -> str:
        body = ", ".join(format(c, ".6g") for c in self.coeffs)
        return f"ConvexPolynomial([{body}])"


def horner(coeffs: Sequence[complex], z: complex | float) -> complex | float:
    """Evaluate the ascending coefficient vector ``coeffs`` at ``z``.

    Horner's scheme in Python scalars: a float for real ``z``, a complex
    number for complex ``z`` (every step adds the coefficient as a complex
    number).  The single Horner kernel of the package, serving
    ``evaluate`` and ``jordan_forms``: interpolation measures candidates on
    its refinement's longdouble jet rows instead, and the rational
    reference ``acceptance._exact_jet`` stays apart on purpose.
    """
    if isinstance(z, complex):
        acc: complex | float = 0.0 + 0.0j
        for a in np.asarray(coeffs)[::-1]:
            acc = acc * z + complex(a)
        return acc
    z = float(z)
    acc = 0.0
    for a in np.asarray(coeffs)[::-1]:
        acc = acc * z + a
    return acc


def evaluate(p: ConvexPolynomial, z: complex | float) -> complex | float:
    """Evaluate ``p`` at ``z`` by Horner's scheme.

    Returns a float for real ``z`` and a complex number otherwise; the
    scheme commutes with conjugation exactly, so ``p(conj(z)) == conj(p(z))``.
    """
    return horner(p.coeffs, z)


def derivative(p: ConvexPolynomial | Sequence[complex], order: int = 1) -> np.ndarray:
    """Coefficients of the ``order``-th derivative, as a plain vector.

    ``p`` is a convex-polynomial or a plain ascending coefficient vector.
    The result is not renormalized (derivatives of convex-polynomials are
    generally not convex-polynomials).  An empty vector is returned when
    ``order`` exceeds the degree.
    """
    order = _require_int(order, "derivative order", 0)
    c = np.asarray(getattr(p, "coeffs", p))
    c = c.astype(np.result_type(c, float), copy=False)
    for _ in range(order):
        if len(c) <= 1:
            return np.zeros(0)
        c = c[1:] * np.arange(1, len(c), dtype=float)
    return c


def _pair_gaps(points: Sequence[complex], conjugate: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's one pairwise-gap kernel: every index pair ``i < j``, in
    row order, as ``(first, second, gaps)`` with ``gaps[k] = |a_i - a_j|``,
    or ``|a_i - conj(a_j)|`` with ``conjugate`` (a real point is its own
    conjugate, but ``i == j`` is never a pair)."""
    a = np.asarray(points, dtype=complex)
    first, second = np.triu_indices(len(a), 1)
    other = a[second].conj() if conjugate else a[second]
    return first, second, np.abs(a[first] - other)


def _node_clauses(
    points: Sequence[complex], complex_field: bool, tol: float, disk_tol: float, pair_clause: bool = True
) -> tuple[list[tuple[str, tuple[int, ...]]], tuple[list[float], list[float], list[float], tuple | None]]:
    """The paper's node clauses, the package's one encoding of them.

    A point fails ``"real"`` when ``|Im z| <= tol`` (in the real field only
    when also ``Re z >= -tol``) and ``"disk"`` when ``|z| <= 1 + disk_tol``;
    in the complex field a pair fails ``"pair"`` when its conjugate gap is at
    most ``tol``, unless ``pair_clause=False`` leaves the pair clause out.
    Returns the failures as ``(clause, indices)``, per point in point order
    (real before disk) and then the pairs, and the margins they were
    decided on: the lists of ``|z|`` (Python's rounding), ``|Im z|`` and
    ``Re z``, and with the pair clause ``_pair_gaps(..., conjugate=True)``
    (else None).
    """
    z = [complex(p) for p in points]
    moduli, imag, real = [abs(p) for p in z], [abs(p.imag) for p in z], [p.real for p in z]
    failed = []
    for i, (m, y, x) in enumerate(zip(moduli, imag, real)):
        if y <= tol and (complex_field or x >= -tol):
            failed.append(("real", (i,)))
        if m <= 1.0 + disk_tol:
            failed.append(("disk", (i,)))
    pairs = None
    if complex_field and pair_clause:
        pairs = first, second, gaps = _pair_gaps(z, conjugate=True)
        paired = gaps <= tol
        failed += [("pair", pair) for pair in zip(first[paired].tolist(), second[paired].tolist())]
    return failed, (moduli, imag, real, pairs)


def node_pairs(nodes: Sequence[complex], conjugate: bool = False) -> list[tuple[int, int]]:
    """The pairs of ``_pair_gaps`` whose gap is at most ``NODE_TOLERANCE``."""
    first, second, gaps = _pair_gaps(nodes, conjugate)
    close = gaps <= NODE_TOLERANCE
    return list(zip(first[close].tolist(), second[close].tolist()))


def multiply(p: ConvexPolynomial, q: ConvexPolynomial) -> ConvexPolynomial:
    """Product polynomial; coefficient convolution then renormalization."""
    return ConvexPolynomial(np.convolve(p.coeffs, q.coeffs))


def compose(p: ConvexPolynomial, q: ConvexPolynomial) -> ConvexPolynomial:
    """Composition ``p(q(z))`` by Horner's scheme on coefficient vectors."""
    out = np.array([p.coeffs[-1]])
    for a in p.coeffs[-2::-1]:
        out = np.convolve(out, q.coeffs)
        out[0] += a
    return ConvexPolynomial(out)


@dataclass(frozen=True)
class PeakingCertificate:
    """Verified strict peak of ``z^power * (alpha*z + 1 - alpha)`` on a node set.

    ``peak_value`` is the closed form ``c * max_modulus**power`` where ``c``
    is the largest ``|alpha*z + 1 - alpha|`` over maximum-modulus nodes;
    ``margin`` is the measured gap to the second-largest node value and
    ``min_power`` the smallest power verified to peak (the scan returns the
    smallest, so it equals ``power``).
    """

    polynomial: ConvexPolynomial
    alpha: float
    power: int
    peak_point: complex
    peak_value: float
    max_modulus: float
    min_power: int
    margin: float


def _peaking_coeffs(power: int, alpha: float) -> np.ndarray:
    coeffs = np.zeros(power + 2)
    coeffs[power] = 1.0 - alpha
    coeffs[power + 1] = alpha
    return coeffs


def _check_peaking_nodes(nodes: list[complex]) -> tuple[float, list[bool], list[complex]]:
    """Validate the peaking preconditions; return (R, maximum-modulus mask, those nodes).

    ``R > 1`` exactly when some node is off ``_node_clauses``' closed disk.
    """
    if not nodes:
        raise PreconditionViolated("node set must be nonempty")
    if not all(cmath.isfinite(z) for z in nodes):
        raise PreconditionViolated("nodes must be finite")
    if node_pairs(nodes):
        raise PreconditionViolated("nodes must be distinct")
    failed, (moduli, *_) = _node_clauses(nodes, True, NODE_TOLERANCE, 0.0, pair_clause=False)
    if sum(clause == "disk" for clause, _ in failed) == len(nodes):
        raise PreconditionViolated("maximum node modulus must exceed 1")
    max_modulus = max(moduli)
    is_top = [max_modulus - m <= NODE_TOLERANCE * max(1.0, max_modulus) for m in moduli]
    top = [z for z, t in zip(nodes, is_top) if t]
    if node_pairs(top, conjugate=True):
        raise PreconditionViolated("conjugate pair among maximum-modulus nodes")
    return max_modulus, is_top, top


def _scan_for_peak(
    nodes: list[complex],
    alpha: float,
    margin_goal: float,
    power_cap: int,
    is_top: list[bool],
) -> tuple[int, int, float, ConvexPolynomial, list[complex]] | None:
    """Find the smallest power whose peak lies at a maximum-modulus node.

    Comparisons run in log space so large powers cannot overflow; the scan
    additionally stops once the would-be peak value leaves double range.
    Returns ``(power, peak_index, margin, polynomial, node_values)`` or None
    at the cap.
    """
    log_base = [math.log(abs(a)) if (a := alpha * z + (1.0 - alpha)) != 0 else -math.inf for z in nodes]
    log_mod = [math.log(abs(z)) if z != 0 else -math.inf for z in nodes]

    def node_log(power: int, lm: float, lb: float) -> float:
        # z**0 is 1 even for the node 0, so keep 0 * (-inf) out of the arithmetic.
        if lm == -math.inf:
            return lb if power == 0 else -math.inf
        return power * lm + lb

    for power in range(power_cap + 1):
        logs = [node_log(power, lm, lb) for lm, lb in zip(log_mod, log_base)]
        best = max(range(len(nodes)), key=lambda k: logs[k])
        if logs[best] > _LOG_VALUE_MAX:
            raise NoPeakWithinCap(power, "peak value left float range before a strict peak")
        if not is_top[best]:
            continue
        # Confirm with direct linear-scale evaluation; these are the numbers
        # a caller can reproduce through evaluate().
        poly = ConvexPolynomial(_peaking_coeffs(power, alpha))
        node_values = [evaluate(poly, z) for z in nodes]
        values = [abs(v) for v in node_values]
        others = [v for k, v in enumerate(values) if k != best]
        margin = values[best] - max(others) if others else values[best]
        if values[best] >= max(values) and margin > margin_goal:
            return power, best, margin, poly, node_values
    return None


def peaking_polynomial(
    nodes: Sequence[complex],
    alpha: float | str = "auto",
    margin_goal: float = 0.0,
    power_cap: int = DEFAULT_POWER_CAP,
    avoid_real_values: bool = False,
) -> PeakingCertificate:
    """Construct ``z^m (alpha*z + 1 - alpha)`` strictly peaking on ``nodes``.

    The smallest power ``m <= power_cap`` is returned for which the largest
    node value sits at a maximum-modulus node and exceeds every other node
    value by more than ``margin_goal``.  ``alpha="auto"`` picks 1/2 (or 1/3
    in the degenerate case where 1/2 is the single excluded value for the
    dominant node).  With ``avoid_real_values=True`` (only for node sets
    off the real axis: no node with ``|Im z| <= NODE_TOLERANCE``, the node
    tolerance ``RealTarget`` uses) alpha is perturbed over a deterministic
    grid until every node value is non-real.

    Raises
    ------
    PreconditionViolated
        Nodes not distinct, maximum modulus at most 1, a conjugate pair
        among maximum-modulus nodes, alpha outside (0, 1), an explicit
        alpha equal to the excluded value for this node set, a node on the
        real axis with ``avoid_real_values``, a margin goal that is not
        finite, or a power cap that is not an integer >= 0.
    NoPeakWithinCap
        The scan (or the realness-avoidance grid) was exhausted.
    """
    if not math.isfinite(margin_goal):
        raise PreconditionViolated("margin_goal must be finite")
    power_cap = _require_int(power_cap, "power_cap", 0)
    node_list = [complex(z) for z in nodes]
    max_modulus, is_top, top = _check_peaking_nodes(node_list)

    auto = isinstance(alpha, str)
    if auto:
        if alpha != "auto":
            raise PreconditionViolated("alpha must be a number in (0, 1) or 'auto'")
        alpha_value = 0.5
    else:
        alpha_value = float(alpha)
        if not 0.0 < alpha_value < 1.0:
            raise PreconditionViolated("alpha must lie in the open interval (0, 1)")

    # The single excluded alpha solves (alpha - 1)/alpha = dominant node,
    # which kills the dominant node value and makes a peak impossible.
    dominant = max(top, key=lambda z: z.real)
    scale = 1.0 + alpha_value * max_modulus

    def excluded(a: float) -> bool:
        return abs(a * dominant + (1.0 - a)) <= 1e-14 * scale

    if auto and excluded(alpha_value):
        alpha_value = 1.0 / 3.0
    if not auto and excluded(alpha_value):
        raise PreconditionViolated("alpha is the excluded value for this node set")

    if avoid_real_values:
        failed, _ = _node_clauses(node_list, True, NODE_TOLERANCE, 0.0, pair_clause=False)
        if any(clause == "real" for clause, _ in failed):
            raise PreconditionViolated("avoid_real_values requires a node set disjoint from the real axis")
        candidates = _alpha_grid(alpha_value)
        for a in candidates:
            try:
                found = _scan_for_peak(node_list, a, margin_goal, power_cap, is_top)
            except NoPeakWithinCap:
                continue
            if found is None:
                continue
            power, best, margin, poly, values = found
            if all(abs(v.imag) > NODE_TOLERANCE * max(1.0, abs(v)) for v in values):
                return _certificate(poly, a, power, node_list[best], max_modulus, top, margin)
        raise AlphaGridExhausted(power_cap, len(candidates))

    found = _scan_for_peak(node_list, alpha_value, margin_goal, power_cap, is_top)
    if found is None:
        raise NoPeakWithinCap(power_cap)
    power, best, margin, poly, _ = found
    return _certificate(poly, alpha_value, power, node_list[best], max_modulus, top, margin)


def _alpha_grid(center: float) -> list[float]:
    """Deterministic grid of alphas around ``center``, clipped to (0, 1)."""
    grid = [center]
    step = 1.0 / 53.0
    j = 1
    while len(grid) < _ALPHA_GRID_SIZE:
        for sign in (+1.0, -1.0):
            a = center + sign * j * step
            if 0.02 <= a <= 0.98 and len(grid) < _ALPHA_GRID_SIZE:
                grid.append(a)
        j += 1
    return grid


def _certificate(
    poly: ConvexPolynomial,
    alpha: float,
    power: int,
    peak_point: complex,
    max_modulus: float,
    top: list[complex],
    margin: float,
) -> PeakingCertificate:
    factor = max(abs(alpha * z + (1.0 - alpha)) for z in top)
    return PeakingCertificate(
        polynomial=poly,
        alpha=alpha,
        power=power,
        peak_point=peak_point,
        peak_value=factor * max_modulus**power,
        max_modulus=max_modulus,
        min_power=power,
        margin=margin,
    )
