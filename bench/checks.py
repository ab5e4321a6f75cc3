"""Output checkers derived apart from the program.

Each checker returns a list of problems, empty when the output is right.
Verdicts are recomputed from the theorem's rules on the constructed blocks,
certificates are re-evaluated exactly in rational arithmetic, and hull
reports are compared with the membership fixed when the targets were built.
None of them calls the program.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from inputs import ClassifyCase, DensityCase, InterpolateCase, constructed_spectrum

EPS = float(np.finfo(float).eps)

# reason codes of the verdict wire format
NOT_CYCLIC = "NotCyclic"
REPEATED = "RepeatedEigenvalue"
IN_DISK = "EigenvalueInClosedDisk"
REAL = "RealEigenvalue"
NONNEGATIVE_REAL = "NonNegativeRealEigenvalue"
CONJUGATE_PAIR = "ConjugatePair"


def expected_verdict(case: ClassifyCase) -> tuple[bool, bool, bool, frozenset]:
    """(cyclic, convex-cyclic, invariant sets are subspaces, reasons).

    Cyclic means one Jordan chain per eigenvalue.  The eigenvalue clauses:
    every eigenvalue outside the closed unit disk; over the complex field
    none real and no two distinct ones conjugate; over the real field none
    on the nonnegative reals.
    """
    spectrum = constructed_spectrum(case.blocks)
    reasons = set()
    if any(geo > 1 for _, _, geo, _ in spectrum):
        reasons |= {NOT_CYCLIC, REPEATED}
    values = [v for v, _, _, _ in spectrum]
    for v in values:
        if abs(v) <= 1.0:
            reasons.add(IN_DISK)
        if case.field == "complex" and v.imag == 0.0:
            reasons.add(REAL)
        if case.field == "real" and v.imag == 0.0 and v.real >= 0.0:
            reasons.add(NONNEGATIVE_REAL)
    if case.field == "complex":
        if any(a == b.conjugate() for i, a in enumerate(values) for b in values[i + 1 :]):
            reasons.add(CONJUGATE_PAIR)
    cyclic = NOT_CYCLIC not in reasons
    eigen_ok = not reasons - {NOT_CYCLIC, REPEATED}
    return cyclic, cyclic and eigen_ok, eigen_ok, frozenset(reasons)


def eigenvalue_bound(case: ClassifyCase, k: int, scale: float) -> float:
    """Allowed distance of a computed eigenvalue from a constructed one with
    largest Jordan block k: a backward error of n * eps * ||A|| (``scale``)
    amplified by the conjugator's condition number, taken to the power 1/k."""
    n = case.matrix.shape[0]
    delta = case.conjugator_cond * n * EPS * scale
    return 10.0 * delta ** (1.0 / k) * scale ** (1.0 - 1.0 / k)


def check_verdict(case: ClassifyCase, verdict) -> list[str]:
    problems = []
    got = (
        verdict.is_cyclic,
        verdict.is_convex_cyclic,
        verdict.invariant_convex_sets_are_subspaces,
        frozenset(c.reason for c in verdict.failed_conditions),
    )
    want = expected_verdict(case)
    if got != want:
        problems.append(f"verdict {got} != {want}")
    spectrum = constructed_spectrum(case.blocks)
    values = np.array([v for v, _, _, _ in spectrum])
    counted = [0] * len(spectrum)
    scale = max(1.0, float(np.linalg.norm(case.matrix, 2)))
    for info in verdict.eigenstructure.eigenvalues:
        i = int(np.argmin(np.abs(values - info.value)))
        bound = eigenvalue_bound(case, spectrum[i][3], scale)
        if abs(info.value - values[i]) > bound:
            problems.append(f"eigenvalue {info.value} is {abs(info.value - values[i]):.2e} from {values[i]}")
        counted[i] += info.algebraic_mult
    for (v, alg, _, _), got_alg in zip(spectrum, counted):
        if got_alg != alg:
            problems.append(f"eigenvalue {v}: algebraic multiplicity {got_alg} != {alg}")
    return problems


def _exact_derivative(coeffs, order: int, z: complex) -> tuple[Fraction, Fraction]:
    """order-th derivative of sum c_i z^i at z, exactly (floats convert
    to rationals without rounding)."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    acc_r, acc_i = Fraction(0), Fraction(0)
    for i in range(len(coeffs) - 1, order - 1, -1):
        falling = 1
        for t in range(order):
            falling *= i - t
        term = falling * Fraction(float(coeffs[i]))
        acc_r, acc_i = acc_r * zr - acc_i * zi + term, acc_r * zi + acc_i * zr
    return acc_r, acc_i


def check_certificate(case: InterpolateCase, cert, max_degree: int, residual_tol: float) -> list[str]:
    """A Feasible certificate: simplex coefficients, degree within the cap,
    and the exact residual within residual_tol at every target."""
    if cert.status != "Feasible":
        return [f"status {cert.status}"]
    coeffs = [float(c) for c in cert.polynomial.coeffs]
    problems = []
    if any(c < 0.0 for c in coeffs):
        problems.append("negative coefficient")
    total = sum(Fraction(c) for c in coeffs)
    if abs(total - 1) > len(coeffs) * EPS:
        problems.append(f"coefficients sum to {float(total)!r}")
    if cert.degree_used is None or cert.degree_used > max_degree or len(coeffs) - 1 > cert.degree_used:
        problems.append(f"degree_used {cert.degree_used} for {len(coeffs) - 1} and cap {max_degree}")
    tol2 = Fraction(residual_tol) ** 2
    nodes = [(complex(x), [complex(t) for t in ts]) for x, ts in case.real_nodes]
    nodes += [(complex(z), [complex(t) for t in ts]) for z, ts in case.complex_nodes]
    for z, targets in nodes:
        for order, w in enumerate(targets):
            vr, vi = _exact_derivative(coeffs, order, z)
            gap2 = (vr - Fraction(w.real)) ** 2 + (vi - Fraction(w.imag)) ** 2
            if gap2 > tol2:
                problems.append(f"order {order} at {z}: residual {float(gap2) ** 0.5:.2e}")
    return problems


def check_rejection(case: InterpolateCase, cert) -> list[str]:
    """A violator must be rejected before any LP with the planted reason."""
    if cert.status != "InfeasibleNecessary" or cert.reason != case.kind:
        return [f"status {cert.status} reason {cert.reason}, planted {case.kind}"]
    return []


# the hull-residual tolerance empirical_density_scan uses by default
HULL_TOLERANCE = 1e-6


def check_density(case: DensityCase, report) -> list[str]:
    """Exactly the targets built outside the hull are reported missed;
    each lies at a proven distance beyond the scan's tolerance."""
    misses = tuple(i for i, inside in enumerate(case.inside) if not inside)
    total = len(case.targets)
    problems = []
    if any(case.distance[i] <= HULL_TOLERANCE for i in misses):
        problems.append("an outside target is not provably beyond the tolerance")
    if tuple(report.miss_indices) != misses:
        problems.append(f"missed {tuple(report.miss_indices)}, expected {misses}")
    if (report.total, report.captured) != (total, total - len(misses)):
        problems.append(f"captured {report.captured}/{report.total}, expected {total - len(misses)}/{total}")
    if report.fraction != report.captured / max(report.total, 1):
        problems.append(f"fraction {report.fraction}")
    if not 1 <= report.generators_used <= case.budget:
        problems.append(f"generators_used {report.generators_used} outside [1, {case.budget}]")
    return problems
