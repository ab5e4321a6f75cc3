"""Convex-polynomials: simplex-coefficient polynomials and their algebra.

A convex-polynomial has nonnegative coefficients that sum to one on the
monomial basis.  The class is closed under multiplication and composition,
fixes ``z = 1``, maps the closed unit disk into itself and commutes with
complex conjugation.  On top of the algebra this module constructs peaking
polynomials ``z^m (alpha*z + 1 - alpha)`` for admissible node sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlphaGridExhausted,
    NegativeCoefficient,
    NoPeakWithinCap,
    PreconditionViolated,
    SumNotOne,
    _require_array,
    _require_int,
    _require_number,
)

__all__ = [
    "SUM_TOLERANCE",
    "NODE_TOLERANCE",
    "DEFAULT_POWER_CAP",
    "ConvexPolynomial",
    "PeakingCertificate",
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
_VALUE_MAX = 1e300

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
        arr = _require_array(self.coeffs, "coefficients", float)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionViolated("coefficients must be a nonempty 1-d vector")
        negative = np.flatnonzero(arr < 0.0)
        if negative.size:
            raise NegativeCoefficient(int(negative[0]), float(arr[negative[0]]))
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


def _coefficients(p: ConvexPolynomial | Sequence[complex]) -> np.ndarray:
    """The package's coefficient operands: a convex-polynomial's stored
    vector, or a plain ascending vector that passes ``_require_array`` and
    is 1-d.  An empty vector is the zero polynomial."""
    if isinstance(p, ConvexPolynomial):
        return p.coeffs
    c = _require_array(p, "coefficients")
    if c.ndim != 1:
        raise PreconditionViolated("coefficients must be a finite 1-d numeric vector")
    return c


def _falling(columns: Sequence[int], max_order: int) -> np.ndarray:
    """The package's one falling-factorial table: row j, column k holds
    ``i (i - 1) ... (i - j + 1)`` for ``i = columns[k]``, 0 where ``j > i``,
    for ``j = 0 .. max_order``.  A product that leaves float range is inf,
    without a warning."""
    i = np.asarray(columns, dtype=float)
    j = np.arange(max_order + 1)[:, None]
    steps = np.ones((max_order + 1, len(i)))
    steps[1:] = i - j[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(j <= i, np.cumprod(steps, axis=0), 0.0)


def evaluate(p: ConvexPolynomial | Sequence[complex], z: complex | float) -> complex | float:
    """Evaluate ``p`` (a convex-polynomial or a plain ascending vector) at
    ``z`` by Horner's scheme in Python scalars: a float for real ``z`` and
    coefficients, a complex number for any complex ``z``, numpy's included,
    so ``p(conj(z)) == conj(p(z))`` exactly.  ``z`` is read by
    ``errors._require_number``.  The package's one scalar Horner: the peak
    scan carries its complex step ``acc * z + 0j`` from power to power, and
    the rational reference ``acceptance._exact_jet`` stays apart.
    """
    coeffs = _coefficients(p)
    if isinstance(z, (complex, np.complexfloating)):
        z = _require_number(z, "evaluation point", complex)
        acc: complex | float = 0.0 + 0.0j
        for a in coeffs[::-1]:
            acc = acc * z + complex(a)
        return acc
    z = _require_number(z, "evaluation point")
    acc = 0.0
    for a in coeffs[::-1]:
        acc = acc * z + a
    return acc


def derivative(p: ConvexPolynomial | Sequence[complex], order: int = 1) -> np.ndarray:
    """Coefficients of the ``order``-th derivative, as a plain vector.

    ``p`` is a convex-polynomial or a plain ascending coefficient vector.
    The result is not renormalized (derivatives of convex-polynomials are
    generally not convex-polynomials).  An empty vector is returned when
    ``order`` exceeds the degree.
    """
    order = _require_int(order, "derivative order", 0)
    c = _coefficients(p)
    return c[order:] * _falling(np.arange(order, len(c)), order)[order]


def _pair_gaps(points: Sequence[complex], conjugate: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's one pairwise-gap kernel: every index pair ``i < j``, in
    row order, as ``(first, second, gaps)`` with ``gaps[k] = |a_i - a_j|``,
    or ``|a_i - conj(a_j)|`` with ``conjugate`` (a real point is its own
    conjugate, but ``i == j`` is never a pair); a gap past the float range is inf."""
    a = np.asarray(points, dtype=complex)
    first, second = np.triu_indices(len(a), 1)
    other = a[second].conj() if conjugate else a[second]
    with np.errstate(over="ignore"):
        return first, second, np.abs(a[first] - other)


def _node_clauses(
    points: Sequence[complex], complex_field: bool, tol: float, disk_tol: float
) -> tuple[list[tuple[str, tuple[int, ...]]], tuple[list[float], list[float], list[float], tuple | None]]:
    """The paper's node clauses, the package's one encoding of them.

    A point fails ``"real"`` when ``|Im z| <= tol`` (in the real field only
    when also ``Re z >= -tol``) and ``"disk"`` when ``|z| <= 1 + disk_tol``;
    in the complex field a pair fails ``"pair"`` when its conjugate gap is at
    most ``tol``.  Returns the failures as ``(clause, indices)``, per point
    in point order (real before disk) and then the pairs, and the margins
    they were decided on: the lists of ``|z|`` (Python's rounding),
    ``|Im z|`` and ``Re z``, and in the complex field
    ``_pair_gaps(..., conjugate=True)`` (else None).
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
    if complex_field:
        pairs = first, second, gaps = _pair_gaps(z, conjugate=True)
        paired = gaps <= tol
        failed += [("pair", pair) for pair in zip(first[paired].tolist(), second[paired].tolist())]
    return failed, (moduli, imag, real, pairs)


def node_pairs(nodes: Sequence[complex], conjugate: bool = False) -> list[tuple[int, int]]:
    """The pairs of ``_pair_gaps`` whose gap is at most ``NODE_TOLERANCE``,
    among nodes each read by ``errors._require_number``."""
    first, second, gaps = _pair_gaps([_require_number(z, "nodes", complex) for z in nodes], conjugate)
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

    ``power`` is the smallest power verified to peak at this ``alpha``;
    ``peak_value`` is the closed form ``c * max_modulus**power`` where ``c``
    is the largest ``|alpha*z + 1 - alpha|`` over maximum-modulus nodes, and
    ``margin`` the measured gap to the second-largest node value.
    """

    polynomial: ConvexPolynomial
    alpha: float
    power: int
    peak_point: complex
    peak_value: float
    max_modulus: float
    margin: float


def _check_peaking_nodes(nodes: list[complex]) -> tuple[float, list[bool], list[complex], bool]:
    """Validate the peaking preconditions; return (R, maximum-modulus mask,
    those nodes, whether some node fails ``_node_clauses``' realness clause).

    ``R > 1`` exactly when some node is off that call's closed disk; a
    conjugate pair among the maximum-modulus nodes is a pair it fails.
    """
    if not nodes:
        raise PreconditionViolated("node set must be nonempty")
    if node_pairs(nodes):
        raise PreconditionViolated("nodes must be distinct")
    failed, (moduli, *_) = _node_clauses(nodes, True, NODE_TOLERANCE, 0.0)
    if sum(clause == "disk" for clause, _ in failed) == len(nodes):
        raise PreconditionViolated("maximum node modulus must exceed 1")
    max_modulus = max(moduli)
    is_top = [max_modulus - m <= NODE_TOLERANCE * max(1.0, max_modulus) for m in moduli]
    top = [z for z, t in zip(nodes, is_top) if t]
    if any(clause == "pair" and all(is_top[k] for k in pair) for clause, pair in failed):
        raise PreconditionViolated("conjugate pair among maximum-modulus nodes")
    return max_modulus, is_top, top, any(clause == "real" for clause, _ in failed)


def _scan_for_peak(
    nodes: list[complex],
    alpha: float,
    margin_goal: float,
    power_cap: int,
    is_top: list[bool],
) -> tuple[int, int, float, ConvexPolynomial, list[complex]]:
    """Find the smallest power whose peak lies at a maximum-modulus node.

    The node values carry ``evaluate``'s Horner: power 0 evaluates
    ``alpha*z + 1 - alpha``, each further power takes its step ``v * z + 0j``
    for one more zero coefficient, bit for bit.  Each power decides on their
    moduli: the largest leads, a lead not at most ``_VALUE_MAX`` (inf and nan
    too) raises ``NoPeakWithinCap``, as the cap does, and the margin is the
    lead's gap to the next largest.  Returns ``(power, peak_index, margin,
    polynomial, node_values)``.
    """
    base = ConvexPolynomial([1.0 - alpha, alpha])
    node_values = [evaluate(base, z) for z in nodes]
    for power in range(power_cap + 1):
        values = [abs(v) for v in node_values]
        best = values.index(max(values))
        if not values[best] <= _VALUE_MAX:
            raise NoPeakWithinCap(power, "peak value left float range before a strict peak")
        if is_top[best]:
            margin = values[best] - max(values[:best] + values[best + 1 :], default=0.0)
            if margin > margin_goal:
                return power, best, margin, ConvexPolynomial(np.r_[np.zeros(power), 1.0 - alpha, alpha]), node_values
        node_values = [v * z + 0j for v, z in zip(node_values, nodes)]
    raise NoPeakWithinCap(power_cap)


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
    grid until every node value ``v`` is non-real: ``|Im v| > NODE_TOLERANCE
    * max(1, |v|)``.  A value below about 1e-10 in modulus is real, so a node
    inside the disk can exhaust the grid at high powers (``[1.0001
    e^{0.5i}, 0.5 + 0.1i]`` at margin goal 1).

    Raises
    ------
    PreconditionViolated
        A node, alpha or the margin goal that is not a finite number (read
        by ``errors._require_number``), nodes not distinct, maximum modulus
        at most 1, a conjugate pair among maximum-modulus nodes, alpha
        outside (0, 1), an explicit alpha equal to the excluded value for
        this node set, a node on the real axis with ``avoid_real_values``,
        or a power cap that is not an integer >= 0.
    NoPeakWithinCap
        The scan (or the realness-avoidance grid) was exhausted.
    """
    margin_goal = _require_number(margin_goal, "margin_goal")
    power_cap = _require_int(power_cap, "power_cap", 0)
    node_list = [_require_number(z, "nodes", complex) for z in nodes]
    max_modulus, is_top, top, on_axis = _check_peaking_nodes(node_list)

    auto = isinstance(alpha, str)
    if auto and alpha != "auto":
        raise PreconditionViolated("alpha must be a number in (0, 1) or 'auto'")
    alpha_value = 0.5 if auto else _require_number(alpha, "alpha")
    if not 0.0 < alpha_value < 1.0:
        raise PreconditionViolated("alpha must lie in the open interval (0, 1)")

    # The single excluded alpha solves (alpha - 1)/alpha = dominant node,
    # which kills the dominant node value and makes a peak impossible.
    dominant = max(top, key=lambda z: z.real)
    if abs(alpha_value * dominant + (1.0 - alpha_value)) <= 1e-14 * (1.0 + alpha_value * max_modulus):
        if not auto:
            raise PreconditionViolated("alpha is the excluded value for this node set")
        alpha_value = 1.0 / 3.0
    if avoid_real_values and on_axis:
        raise PreconditionViolated("avoid_real_values requires a node set disjoint from the real axis")

    # A plain call scans its one alpha and lets the scan's NoPeakWithinCap
    # through; a realness-avoiding one moves on to the next grid alpha.
    candidates = _alpha_grid(alpha_value) if avoid_real_values else [alpha_value]
    for a in candidates:
        try:
            power, best, margin, poly, values = _scan_for_peak(node_list, a, margin_goal, power_cap, is_top)
        except NoPeakWithinCap:
            if not avoid_real_values:
                raise
            continue
        if not avoid_real_values or all(abs(v.imag) > NODE_TOLERANCE * max(1.0, abs(v)) for v in values):
            factor = max(abs(a * z + (1.0 - a)) for z in top)
            return PeakingCertificate(poly, a, power, node_list[best], factor * max_modulus**power, max_modulus, margin)
    raise AlphaGridExhausted(power_cap, len(candidates))


def _alpha_grid(center: float) -> list[float]:
    """Deterministic grid of alphas: ``center``, then ``center + j/53`` and
    ``center - j/53`` for j = 1, 2, ... that lie in [0.02, 0.98]."""
    offsets = (sign * j * (1.0 / 53.0) for j in range(1, 53) for sign in (+1.0, -1.0))
    return ([center] + [a for a in (center + d for d in offsets) if 0.02 <= a <= 0.98])[:_ALPHA_GRID_SIZE]
