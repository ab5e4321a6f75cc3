"""Acceptance battery: nine numbered end-to-end checks with hard budgets.

Each criterion samples with its own seeded generator, re-derives every
claimed number through an independent route (direct evaluation, closed
forms, exhaustive confirmation) and returns a pass/fail result with a
short failure detail.  ``run_all`` prints one line per criterion; the
command line exposes the same battery as ``selftest``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import time
from fractions import Fraction
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import cli, convex_poly, interpolation
from .convex_poly import ConvexPolynomial, evaluate, _pair_gaps
from .dynamics import Bounded, GrowthWitness, empirical_density_scan, growth_witness
from .jordan_forms import JordanBlockSpec, RealJordanBlockSpec, build, complexify, matrix_polynomial, poly_on_jordan_block
from .spectral import MatrixSpec, classify
from .suite import convex_cyclic_entries, golden_suite

__all__ = ["CriterionResult", "run_all", "format_line", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number} {status} {result.name}"
    if not result.passed and result.detail:
        line += f": {result.detail}"
    return line


class _Failures:
    """Bounded failure collector; keeps criteria from flooding output."""

    def __init__(self, cap: int = 6):
        self.items: list[str] = []
        self.cap = cap

    def add(self, message: str) -> None:
        if len(self.items) < self.cap:
            self.items.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.add(message)
        return bool(condition)

    def until_saturated(self, items: Iterable) -> Iterator:
        """``items`` in order, stopping before the next one once the collector is full."""
        for item in items:
            if len(self.items) >= self.cap:
                return
            yield item

    def detail(self) -> str:
        return "; ".join(self.items)


def _finish(number: int, name: str, fails: _Failures, start: float, limit: float | None = None) -> CriterionResult:
    elapsed = time.monotonic() - start
    if limit is not None and elapsed > limit:
        fails.add(f"elapsed {elapsed:.2f}s exceeded the {limit:.0f}s budget")
    return CriterionResult(number, name, not fails.items, fails.detail(), elapsed)


def _disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    radii = np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return radii * np.exp(1j * angles)


def criterion_1(seed: int = 0) -> CriterionResult:
    """Random simplex sample: closure, disk bound, conjugation symmetry."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    fails = _Failures()
    previous: ConvexPolynomial | None = None
    for trial in fails.until_saturated(range(10_000)):
        degree = int(rng.integers(0, 9))
        p = ConvexPolynomial(rng.dirichlet(np.ones(degree + 1)))
        for z in _disk_points(rng, 10):
            value = evaluate(p, complex(z))
            fails.check(abs(value) <= 1.0 + 1e-12, f"trial {trial}: |p(z)| = {abs(value)!r} above disk bound")
            mirrored = evaluate(p, complex(z).conjugate())
            fails.check(
                abs(mirrored - value.conjugate()) <= 1e-12,
                f"trial {trial}: conjugation symmetry off by {abs(mirrored - value.conjugate()):.3e}",
            )
        if previous is not None:
            product = convex_poly.multiply(previous, p)
            composed = convex_poly.compose(previous, p)
            z0 = complex(_disk_points(rng, 1)[0])
            fails.check(
                abs(evaluate(product, z0) - evaluate(previous, z0) * evaluate(p, z0)) <= 1e-9,
                f"trial {trial}: product evaluation mismatch",
            )
            fails.check(
                abs(evaluate(composed, z0) - evaluate(previous, complex(evaluate(p, z0)))) <= 1e-9,
                f"trial {trial}: composition evaluation mismatch",
            )
        previous = p
    return _finish(1, "simplex sample algebra", fails, start, limit=10.0)


def _peaking_nodes(rng: np.random.Generator) -> list[complex]:
    size = int(rng.integers(1, 7))
    top_modulus = float(rng.uniform(1.3, 4.0))
    while True:
        nodes = [top_modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))]
        for _ in range(size - 1):
            modulus = float(rng.uniform(1.2, top_modulus / 1.05))
            nodes.append(modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        if np.all(_pair_gaps(nodes)[2] > 1e-3):
            return nodes


def _strictly_peaks(power: int, alpha: float, nodes: Sequence[complex], top_index: int) -> bool:
    coeffs = np.zeros(power + 2)
    coeffs[power] = 1.0 - alpha
    coeffs[power + 1] = alpha
    poly = ConvexPolynomial(coeffs)
    values = [abs(evaluate(poly, complex(z))) for z in nodes]
    others = [v for k, v in enumerate(values) if k != top_index]
    if not others:
        return values[top_index] > 0.0
    return values[top_index] > max(others)


def criterion_2(seed: int = 0) -> CriterionResult:
    """Peaking certificates confirmed exhaustively, closed form re-derived."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 1)
    fails = _Failures()
    for trial in fails.until_saturated(range(200)):
        nodes = _peaking_nodes(rng)
        cert = convex_poly.peaking_polynomial(nodes)
        values = [abs(evaluate(cert.polynomial, complex(z))) for z in nodes]
        best = int(np.argmax(values))
        fails.check(best == 0, f"trial {trial}: peak not at the dominant-modulus node")
        fails.check(
            abs(nodes[best] - cert.peak_point) <= 1e-12,
            f"trial {trial}: certificate peak point disagrees with the measured peak",
        )
        others = [v for k, v in enumerate(values) if k != best]
        if others:
            fails.check(values[best] > max(others), f"trial {trial}: peak is not strict")
        fails.check(
            abs(values[best] - cert.peak_value) <= 1e-9 * max(1.0, cert.peak_value),
            f"trial {trial}: closed-form peak value off by "
            f"{abs(values[best] - cert.peak_value):.3e}",
        )
        for power in range(cert.power):
            if _strictly_peaks(power, cert.alpha, nodes, 0):
                fails.add(f"trial {trial}: power {power} < {cert.power} already peaks")
                break
    return _finish(2, "peaking construction", fails, start, limit=30.0)


def _scalar_scan(ratio: float, theta: float, coefficient: complex, threshold: float) -> GrowthWitness | Bounded:
    """The growth scan of ``ratio**n * Re(exp(i*n*theta) * coefficient)``: the
    functional ``conj(coefficient)`` along the orbit of 1 under ``ratio * exp(i*theta)``."""
    matrix = np.diag([ratio * cmath.exp(1j * theta)])
    return growth_witness(matrix, [1.0 + 0.0j], [coefficient.conjugate()], threshold, max_n=5000)


def criterion_3(seed: int = 0) -> CriterionResult:
    """Growth scans: the worked query returns 8; random scans replay exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 2)
    fails = _Failures()
    worked = _scalar_scan(2.0, math.pi / 2.0, 1.0 + 0.0j, 100.0)
    index = worked.index if isinstance(worked, GrowthWitness) else None
    fails.check(index == 8, f"worked query returned {index}, expected 8")
    for trial in fails.until_saturated(range(100)):
        ratio = float(rng.uniform(1.5, 3.0))
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        if rng.uniform() < 0.5:
            theta += math.pi
        coefficient = float(rng.uniform(0.5, 2.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        threshold = float(rng.uniform(10.0, 1e4))
        try:
            witness = _scalar_scan(ratio, theta, coefficient, threshold)
        except Exception as exc:
            fails.add(f"trial {trial}: scan raised {type(exc).__name__}")
            continue
        if not fails.check(isinstance(witness, GrowthWitness), f"trial {trial}: no index crossed"):
            continue
        n = witness.index
        value = ratio**n * (cmath.exp(1j * n * theta) * coefficient).real
        fails.check(value > threshold, f"trial {trial}: replayed value {value!r} under threshold")
        fails.check(
            abs(witness.value - value) <= 1e-9 * abs(value),
            f"trial {trial}: witness value {witness.value!r} differs from replay {value!r}",
        )
        for k in range(1, n):
            if ratio**k * (cmath.exp(1j * k * theta) * coefficient).real > threshold:
                fails.add(f"trial {trial}: index {k} < {n} already crosses")
                break
    return _finish(3, "growth index scans", fails, start)


def _random_conjugator(rng: np.random.Generator, n: int, is_complex: bool) -> np.ndarray:
    def unitary() -> np.ndarray:
        if is_complex:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            g = rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        return q * np.sign(np.diag(r))

    d = rng.uniform(0.5, 2.0, n)
    return unitary() @ np.diag(d).astype(complex if is_complex else float) @ unitary()


def _verdict_signature(verdict) -> tuple:
    reasons = frozenset(c.reason for c in verdict.failed_conditions)
    return (
        verdict.is_cyclic,
        verdict.is_convex_cyclic,
        verdict.invariant_convex_sets_are_subspaces,
        reasons,
    )


def _expected_signature(entry) -> tuple:
    """The ``_verdict_signature`` a golden-suite entry expects."""
    return (entry.expect_cyclic, entry.expect_convex_cyclic, entry.expect_invariant, entry.expect_reasons)


def criterion_4(seed: int = 0) -> CriterionResult:
    """Golden verdicts hold and survive well-conditioned similarity."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 3)
    fails = _Failures()
    entries = golden_suite()
    for entry in entries:
        matrix = build(entry.spec)
        verdict = classify(matrix)
        expected = _expected_signature(entry)
        got = _verdict_signature(verdict)
        fails.check(got == expected, f"{entry.name}: verdict {got} != expected {expected}")
        fails.check(not verdict.borderline, f"{entry.name}: unexpectedly borderline")
    for trial in fails.until_saturated(range(100)):
        entry = entries[int(rng.integers(0, len(entries)))]
        matrix = build(entry.spec)
        is_complex = matrix.field == "complex"
        P = _random_conjugator(rng, matrix.dimension, is_complex)
        conjugated = P @ matrix.entries @ np.linalg.inv(P)
        verdict = classify(MatrixSpec(matrix.field, conjugated))
        expected = _expected_signature(entry)
        got = _verdict_signature(verdict)
        fails.check(
            got == expected,
            f"trial {trial} ({entry.name}): conjugated verdict {got} != {expected}",
        )
    return _finish(4, "classification verdicts", fails, start)


def _annihilating_factor(rng: np.random.Generator) -> tuple[ConvexPolynomial, complex]:
    """Convex first-order factor vanishing at a left-half-plane point."""
    if rng.uniform() < 0.5:
        lam = complex(rng.uniform(-4.0, -1.1))
        coeffs = np.array([-lam.real, 1.0]) / (1.0 - lam.real)
    else:
        lam = complex(rng.uniform(-3.0, -0.2), rng.uniform(0.3, 2.5))
        norm = 1.0 - 2.0 * lam.real + abs(lam) ** 2
        coeffs = np.array([abs(lam) ** 2, -2.0 * lam.real, 1.0]) / norm
    return ConvexPolynomial(coeffs), lam


def criterion_5(seed: int = 0) -> CriterionResult:
    """Jordan-block closed form vs dense Horner, plus exact annihilation."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 4)
    fails = _Failures()
    for trial in fails.until_saturated(range(500)):
        size = int(rng.integers(1, 7))
        degree = int(rng.integers(0, 13))
        p = ConvexPolynomial(rng.dirichlet(np.ones(degree + 1)))
        if rng.uniform() < 0.3:
            lam = complex(rng.uniform(-3.0, 3.0))
        else:
            lam = float(rng.uniform(0.0, 3.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        toeplitz = poly_on_jordan_block(p, lam, size)
        dense = matrix_polynomial(p, build(JordanBlockSpec(size, lam))).astype(complex)
        gap = float(np.linalg.norm(toeplitz - dense))
        bound = 1e-9 * max(1.0, float(np.linalg.norm(dense)))
        fails.check(gap <= bound, f"trial {trial}: closed form vs Horner gap {gap:.3e}")
    for trial in fails.until_saturated(range(50)):
        size = int(rng.integers(1, 5))
        factor, lam = _annihilating_factor(rng)
        p = factor
        for _ in range(size - 1):
            p = convex_poly.multiply(p, factor)
        image = poly_on_jordan_block(p, lam, size)
        mass = float(np.sum(p.coeffs * np.maximum(1.0, abs(lam)) ** np.arange(len(p.coeffs))))
        bound = 1e-8 * max(1.0, mass)
        residual = float(np.linalg.norm(image))
        fails.check(
            residual <= bound,
            f"annihilation trial {trial}: ||p(J)|| = {residual:.3e} above {bound:.3e}",
        )
    return _finish(5, "polynomials on Jordan blocks", fails, start)


def criterion_6(seed: int = 0) -> CriterionResult:
    """Complexification is an isometry intertwining real and complex blocks."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 5)
    fails = _Failures()
    for trial in fails.until_saturated(range(1000)):
        size = int(rng.integers(1, 6))
        modulus = float(rng.uniform(0.3, 3.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        real_block = build(RealJordanBlockSpec(size, modulus, angle)).entries
        jordan = build(JordanBlockSpec(size, modulus * cmath.exp(1j * angle))).entries
        x = rng.standard_normal(2 * size)
        left = complexify(real_block @ x)
        right = jordan @ complexify(x)
        scale = max(1.0, float(np.linalg.norm(right)))
        fails.check(
            float(np.linalg.norm(left - right)) <= 1e-12 * scale,
            f"trial {trial}: intertwining gap {float(np.linalg.norm(left - right)):.3e}",
        )
        iso_gap = abs(float(np.linalg.norm(complexify(x))) - float(np.linalg.norm(x)))
        fails.check(
            iso_gap <= 1e-12 * max(1.0, float(np.linalg.norm(x))),
            f"trial {trial}: isometry gap {iso_gap:.3e}",
        )
    return _finish(6, "complexification intertwining", fails, start)


def _violating_problem(rng: np.random.Generator, kind: str) -> interpolation.InterpolationProblem:
    if kind == interpolation.NECESSARY_DISK_BOUND:
        angle = float(rng.uniform(0.3, math.pi - 0.3))
        node = float(rng.uniform(0.2, 0.9)) * cmath.exp(1j * angle)
        target = float(rng.uniform(1.5, 5.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return interpolation.InterpolationProblem(
            complex_nodes=(interpolation.ComplexNode(node, (target,)),)
        )
    if kind == interpolation.NECESSARY_VALUE_AT_ONE:
        target = float(rng.uniform(2.0, 10.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        return interpolation.InterpolationProblem(
            real_nodes=(interpolation.RealNode(1.0, (target,)),)
        )
    if kind == interpolation.NECESSARY_REAL_TARGET:
        node = complex(rng.uniform(-5.0, -1.5))
        target = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0) * (1 if rng.uniform() < 0.5 else -1))
        return interpolation.InterpolationProblem(
            complex_nodes=(interpolation.ComplexNode(node, (target,)),)
        )
    angle = float(rng.uniform(0.3, math.pi - 0.3))
    z = float(rng.uniform(1.5, 4.0)) * cmath.exp(1j * angle)
    w = float(rng.uniform(0.0, 5.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    off = w.conjugate() + (1.0 + rng.uniform(0.0, 3.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return interpolation.InterpolationProblem(
        complex_nodes=(
            interpolation.ComplexNode(z, (w,)),
            interpolation.ComplexNode(z.conjugate(), (off,)),
        )
    )


def _exact_jet(coeffs, order: int, z: complex) -> tuple[Fraction, Fraction]:
    """Derivative value at z in exact rational arithmetic.

    Floats convert to rationals losslessly, so this measures the true
    residual of the delivered coefficient vector with no rounding at all.
    """
    zr, zi = Fraction(z.real), Fraction(z.imag)
    acc_r, acc_i = Fraction(0), Fraction(0)
    for i in range(len(coeffs) - 1, order - 1, -1):
        ff = 1
        for t in range(order):
            ff *= i - t
        term = Fraction(ff) * Fraction(float(coeffs[i]))
        acc_r, acc_i = acc_r * zr - acc_i * zi + term, acc_r * zi + acc_i * zr
    return acc_r, acc_i


def _exact_within(problem: interpolation.InterpolationProblem, coeffs) -> tuple[bool, float]:
    """The one exact check of an interpolation certificate: whether every
    target jet of ``coeffs`` is within ``residual_tol`` of its target,
    decided on exact rational squares, and the largest residual, rounded
    to float."""
    tol2 = Fraction(problem.residual_tol) ** 2
    worst2 = Fraction(0)
    jets = [(complex(n.x), n.targets) for n in problem.real_nodes]
    jets += [(n.z, n.targets) for n in problem.complex_nodes]
    for z, targets in jets:
        for order, w in enumerate(targets):
            vr, vi = _exact_jet(coeffs, order, z)
            w = complex(w)
            worst2 = max(worst2, (vr - Fraction(w.real)) ** 2 + (vi - Fraction(w.imag)) ** 2)
    return worst2 <= tol2, float(worst2) ** 0.5


def criterion_7(seed: int = 0) -> CriterionResult:
    """Interpolation: admissible problems always solve; violators never do."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 6)
    fails = _Failures()
    for trial in fails.until_saturated(range(200)):
        problem = interpolation.sample_admissible_problem(rng)
        if not interpolation.check_admissibility(problem).admissible:
            fails.add(f"trial {trial}: sampler produced an inadmissible node set")
            continue
        cert = interpolation.solve(problem)
        if not fails.check(cert.is_feasible, f"trial {trial}: admissible problem not feasible ({cert.status})"):
            continue
        fails.check(
            cert.degree_used is not None and cert.degree_used <= problem.max_degree,
            f"trial {trial}: degree {cert.degree_used} beyond the cap",
        )
        within, residual = _exact_within(problem, cert.polynomial.coeffs)
        fails.check(
            within,
            f"trial {trial}: independent residual {residual:.3e} above tolerance",
        )
    kinds = (
        interpolation.NECESSARY_DISK_BOUND,
        interpolation.NECESSARY_VALUE_AT_ONE,
        interpolation.NECESSARY_REAL_TARGET,
        interpolation.NECESSARY_CONJUGATE_SYMMETRY,
    )
    for trial in fails.until_saturated(range(200)):
        kind = kinds[trial % len(kinds)]
        problem = _violating_problem(rng, kind)
        cert = interpolation.solve(problem)
        fails.check(
            cert.status == interpolation.STATUS_INFEASIBLE_NECESSARY,
            f"violator trial {trial} ({kind}): status {cert.status}",
        )
        if cert.status == interpolation.STATUS_INFEASIBLE_NECESSARY:
            fails.check(cert.reason == kind, f"violator trial {trial}: reason {cert.reason} != {kind}")
    return _finish(7, "interpolation feasibility", fails, start, limit=300.0)


def criterion_8(seed: int = 0) -> CriterionResult:
    """Growth witnesses on the suite; hull obstruction and hull density."""
    start = time.monotonic()
    rng = np.random.default_rng(seed + 7)
    fails = _Failures()
    for entry in fails.until_saturated(convex_cyclic_entries()):
        matrix = build(entry.spec)
        n = matrix.dimension
        is_complex = matrix.field == "complex"
        x = np.ones(n, dtype=complex if is_complex else float)
        for trial in range(50):
            f = rng.standard_normal(n)
            if is_complex:
                f = f + 1j * rng.standard_normal(n)
            outcome = growth_witness(matrix, x, f, threshold=1e6, max_n=2000)
            if not isinstance(outcome, GrowthWitness):
                fails.add(f"{entry.name} trial {trial}: functional never crossed 1e6")
                break
    obstruction = np.diag([2j, -2j])
    x2 = np.ones(2, dtype=complex)
    target = np.array([1.0, 0.0], dtype=complex)
    for budget in (64, 256, 512):
        report = empirical_density_scan(obstruction, x2, [target], poly_budget=budget)
        fails.check(
            report.fraction == 0.0,
            f"conjugate-pair obstruction captured at budget {budget}",
        )
    grid = np.linspace(-10.0, 10.0, 5)
    targets = [np.array([a, b]) for a in grid for b in grid]
    report = empirical_density_scan(np.diag([-2.0, -3.0]), np.ones(2), targets, poly_budget=400)
    fails.check(
        report.fraction == 1.0,
        f"density scan captured {report.captured}/{report.total}, misses {report.miss_indices}",
    )
    return _finish(8, "orbit growth and hull density", fails, start)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def criterion_9(seed: int = 0) -> CriterionResult:
    """Identical invocations produce byte-identical command line output."""
    start = time.monotonic()
    fails = _Failures()
    analyze_input = json.dumps({"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]})
    interp_input = json.dumps(
        {
            "real_nodes": [{"x": -2.0, "targets": [7.0]}],
            "complex_nodes": [{"z": [0.0, 2.0], "targets": [[3.0, 1.0]]}],
        }
    )
    for name, argv in (
        ("analyze", ["analyze", "--input", analyze_input]),
        ("interpolate", ["interpolate", "--input", interp_input]),
    ):
        first = _run_cli(list(argv))
        second = _run_cli(list(argv))
        fails.check(first[0] == 0, f"{name}: exit code {first[0]}")
        fails.check(first == second, f"{name}: repeated runs differ")
        fails.check(bool(first[1]), f"{name}: no output produced")
    return _finish(9, "command line determinism", fails, start)


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    """Run the battery, printing one line per criterion to stdout."""
    results = []
    for index, criterion in enumerate(CRITERIA, start=1):
        try:
            result = criterion(seed)
        except Exception as exc:  # a crashed criterion is a failed criterion
            result = CriterionResult(index, criterion.__name__, False, f"raised {type(exc).__name__}: {exc}", 0.0)
        results.append(result)
        print(format_line(result), flush=True)
    return results
