"""Tests for simplex-coefficient polynomials, peaking certificates and growth scans."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from convex_cyclic import convex_poly
from convex_cyclic.convex_poly import ConvexPolynomial
from convex_cyclic.errors import (
    AlphaGridExhausted,
    NegativeCoefficient,
    NoPeakWithinCap,
    PreconditionViolated,
    SumNotOne,
)


def _random_poly(rng: np.random.Generator, max_degree: int = 8) -> ConvexPolynomial:
    degree = int(rng.integers(0, max_degree + 1))
    return ConvexPolynomial(rng.dirichlet(np.ones(degree + 1)))


class TestConstruction:
    def test_validate_round_trip(self):
        p = ConvexPolynomial([0.25, 0.25, 0.5])
        assert p.degree == 2
        assert np.allclose(p.coeffs, [0.25, 0.25, 0.5])

    def test_negative_coefficient_rejected_with_index(self):
        with pytest.raises(NegativeCoefficient) as info:
            ConvexPolynomial([0.5, -0.1, 0.6])
        assert info.value.index == 1

    def test_negative_rejected_even_when_tiny(self):
        with pytest.raises(NegativeCoefficient):
            ConvexPolynomial([1.0 + 1e-16, -1e-16])

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne) as info:
            ConvexPolynomial([0.5, 0.6])
        assert info.value.actual_sum == pytest.approx(1.1)

    def test_sum_within_tolerance_renormalized(self):
        p = ConvexPolynomial([0.5, 0.5 + 1e-13])
        assert float(p.coeffs.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionViolated):
            ConvexPolynomial([])

    def test_trailing_zeros_stripped(self):
        p = ConvexPolynomial([0.5, 0.5, 0.0, 0.0])
        assert p.degree == 1

    def test_coeffs_are_immutable(self):
        p = ConvexPolynomial([1.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 2.0


class TestEvaluation:
    def test_frozen_value_at_minus_two(self):
        # 0.5*(-2)**2 + 0.5*(-2)**3 = 2 - 4
        p = ConvexPolynomial([0.0, 0.0, 0.5, 0.5])
        assert convex_poly.evaluate(p, -2.0) == pytest.approx(-2.0)

    def test_real_argument_returns_float(self):
        p = ConvexPolynomial([0.5, 0.5])
        assert isinstance(convex_poly.evaluate(p, 0.25), float)

    def test_call_matches_evaluate(self):
        p = ConvexPolynomial([0.2, 0.3, 0.5])
        z = 1.5 - 0.5j
        assert p(z) == convex_poly.evaluate(p, z)

    def test_value_one_at_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = _random_poly(rng)
            assert convex_poly.evaluate(p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_disk_bound_and_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = _random_poly(rng)
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            value = convex_poly.evaluate(p, z)
            assert abs(value) <= 1.0 + 1e-12
            assert convex_poly.evaluate(p, z.conjugate()) == value.conjugate()


class TestAlgebra:
    def test_frozen_square(self):
        p = ConvexPolynomial([0.5, 0.5])
        assert np.allclose(convex_poly.multiply(p, p).coeffs, [0.25, 0.5, 0.25])

    def test_multiply_closure_and_values(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p, q = _random_poly(rng), _random_poly(rng)
            product = convex_poly.multiply(p, q)
            assert isinstance(product, ConvexPolynomial)
            z = complex(*rng.uniform(-2.0, 2.0, 2))
            expected = convex_poly.evaluate(p, z) * convex_poly.evaluate(q, z)
            assert convex_poly.evaluate(product, z) == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_compose_closure_and_values(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p, q = _random_poly(rng, 5), _random_poly(rng, 5)
            composed = convex_poly.compose(p, q)
            assert isinstance(composed, ConvexPolynomial)
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            expected = convex_poly.evaluate(p, complex(convex_poly.evaluate(q, z)))
            assert convex_poly.evaluate(composed, z) == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_derivative_matches_central_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-5
        for _ in range(50):
            p = _random_poly(rng, 6)
            d = convex_poly.derivative(p)
            x = float(rng.uniform(-1.0, 1.0))
            numeric = (p(x + h) - p(x - h)) / (2.0 * h)
            analytic = sum(c * x**k for k, c in enumerate(d))
            assert analytic == pytest.approx(numeric, abs=1e-7)

    def test_derivative_order_two_frozen(self):
        # (z^3)'' = 6z
        p = ConvexPolynomial([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(convex_poly.derivative(p, 2), [0.0, 6.0])

    def test_derivative_past_degree_is_empty(self):
        p = ConvexPolynomial([0.5, 0.5])
        assert convex_poly.derivative(p, 2).size == 0

    def test_derivative_negative_order_rejected(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.derivative(ConvexPolynomial([1.0]), -1)

    def test_derivative_of_plain_vector_matches_polynomial(self):
        p = ConvexPolynomial([0.25, 0.0, 0.5, 0.25])
        for order in range(5):
            assert np.array_equal(convex_poly.derivative(list(p.coeffs), order), convex_poly.derivative(p, order))
        assert np.array_equal(convex_poly.derivative([1j, 2.0, 3j], 1), [2.0, 6j])

    def test_horner_matches_evaluate(self):
        p = ConvexPolynomial([0.25, 0.0, 0.5, 0.25])
        for z in (-2.0, 0.5, 1.5 - 2.0j, -0.0j):
            assert convex_poly.horner(p.coeffs, z) == convex_poly.evaluate(p, z)
        assert isinstance(convex_poly.horner(p.coeffs, -2.0), float)
        assert isinstance(convex_poly.horner(p.coeffs, -2.0 + 0.0j), complex)
        assert convex_poly.horner([], 2.0j) == 0.0


def _comprehension_pairs(nodes, conjugate, tolerance):
    """The comprehension ``node_pairs`` ran before ``_pair_gaps`` existed."""
    return [
        (i, j)
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if abs(nodes[i] - (nodes[j].conjugate() if conjugate else nodes[j])) <= tolerance
    ]


def _triu_gaps(values, conjugate):
    """The pass ``spectral`` ran on its own: plain gaps when clustering
    eigenvalues, conjugate gaps for the conjugate-pair clause."""
    values = np.array([complex(v) for v in values])
    first, second = np.triu_indices(len(values), 1)
    other = values[second].conj() if conjugate else values[second]
    return first, second, np.abs(values[first] - other)


class TestNodePairs:
    POOL = (0j, 1e-10 + 0j, 2e-10 + 0j, 0.5e-10j, -0.5e-10j, -2.0 + 0j, 1 + 2j, 1 - 2j, 1 + 2j + 1e-11, 1 + 2.5e-10j, 3j)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            nodes = [self.POOL[k] for k in rng.integers(0, len(self.POOL), int(rng.integers(0, 8)))]
            for conjugate in (False, True):
                expected = _comprehension_pairs(nodes, conjugate, convex_poly.NODE_TOLERANCE)
                assert convex_poly.node_pairs(nodes, conjugate) == expected

    def test_ties_count_and_pairs_come_in_row_order(self):
        # 1e-10 and 2e-10 - 1e-10 equal NODE_TOLERANCE exactly
        assert convex_poly.node_pairs([0j, 1e-10, 2e-10]) == [(0, 1), (1, 2)]
        assert convex_poly.node_pairs([0.5e-10j, 0.5e-10j], conjugate=True) == [(0, 1)]
        assert convex_poly.node_pairs([1.0, 1.0, 1.0]) == [(0, 1), (0, 2), (1, 2)]
        assert convex_poly.node_pairs([]) == []

    def test_real_points_are_their_own_conjugates(self):
        assert convex_poly.node_pairs([-2.0], conjugate=True) == []
        assert convex_poly.node_pairs([-2.0, -3.0, -2.0], conjugate=True) == [(0, 2)]
        assert convex_poly.node_pairs([2j, -2j, 3.0], conjugate=True) == [(0, 1)]


class TestPairGaps:
    """``_pair_gaps`` against the code it replaced: identical pairs, indices and gaps."""

    def _assert_matches_references(self, nodes, tolerance=convex_poly.NODE_TOLERANCE):
        for conjugate in (False, True):
            first, second, gaps = convex_poly._pair_gaps(nodes, conjugate)
            ref_first, ref_second, ref_gaps = _triu_gaps(nodes, conjugate)
            assert np.array_equal(first, ref_first) and np.array_equal(second, ref_second)
            assert np.array_equal(gaps, ref_gaps)
            close = [(i, j) for i, j, gap in zip(first.tolist(), second.tolist(), gaps) if gap <= tolerance]
            assert close == _comprehension_pairs(nodes, conjugate, tolerance)
            if tolerance == convex_poly.NODE_TOLERANCE:
                assert convex_poly.node_pairs(nodes, conjugate) == close

    def test_random_node_sets(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            nodes = [complex(z) for z in rng.standard_normal(n) + 1j * rng.standard_normal(n)]
            self._assert_matches_references(nodes, tolerance=float(rng.uniform(0.1, 1.0)))
            # near-coincident and near-conjugate nodes at the node tolerance
            pool = TestNodePairs.POOL
            self._assert_matches_references([pool[k] for k in rng.integers(0, len(pool), n)])

    def test_gaps_exactly_at_the_tolerance(self):
        # the first pair of each set is exactly 1e-10 apart in floating
        # point, plainly or, for the last two, conjugately
        for nodes, conjugate in (
            ([0j, 1e-10, 2e-10], False),
            ([1e-10j, 0j], False),
            ([0.5e-10j, 0.5e-10j], True),
            ([2.0 + 0.5e-10j, 2.0 + 0.5e-10j, 3.0], True),
        ):
            self._assert_matches_references(nodes)
            assert convex_poly._pair_gaps(nodes, conjugate)[2][0] == convex_poly.NODE_TOLERANCE
            assert convex_poly.node_pairs(nodes, conjugate)[0] == (0, 1)

    def test_conjugate_pairs_and_real_nodes(self):
        for nodes in ([1 + 2j, 1 - 2j, 1 + 2j], [2j, -2j, 3.0], [-2.0, -3.0, -2.0], [-2.0], []):
            self._assert_matches_references(nodes)
        first, second, gaps = convex_poly._pair_gaps([1 + 2j, 1 - 2j, -2.0], conjugate=True)
        assert list(zip(first.tolist(), second.tolist())) == [(0, 1), (0, 2), (1, 2)]
        # numpy's complex modulus, which may differ from Python's abs() in the last bit
        assert gaps[0] == 0.0 and gaps[1] == np.abs(3 + 2j)


def _reference_clauses(points, complex_field, tol, disk_tol):
    """The per-point clause loops ``classify`` and ``check_admissibility`` ran
    before ``_node_clauses``: Python's ``abs`` for the modulus, realness
    before the disk per point, then the conjugate pairs of ``_triu_gaps``."""
    failed = []
    for i, z in enumerate(points):
        if abs(z.imag) <= tol and (complex_field or z.real >= -tol):
            failed.append(("real", (i,)))
        if abs(z) <= 1.0 + disk_tol:
            failed.append(("disk", (i,)))
    if complex_field:
        first, second, gaps = _triu_gaps(points, conjugate=True)
        failed += [("pair", (i, j)) for i, j, gap in zip(first.tolist(), second.tolist(), gaps) if gap <= tol]
    return failed


class TestNodeClauses:
    """``_node_clauses``, the one encoding of the paper's node clauses."""

    TOL = convex_poly.NODE_TOLERANCE
    # at a threshold or one rounding step off it: the unit circle (at
    # exp(5i/7) Python's modulus is 1 and numpy's one step above), the real
    # axis at NODE_TOLERANCE, conjugates at gap NODE_TOLERANCE, the origin
    POOL = (
        0.6 + 0.8j, cmath.exp(1j), cmath.exp(5j / 7), 1j, complex(0.0, math.nextafter(1.0, 2.0)), -1.0 + 0j,
        2.0 + 1e-10j, -3.0 - 1e-10j, complex(2.0, math.nextafter(1e-10, 1.0)), 2.0 + 0j, 0j, -1e-10 + 0j,
        2.0 + 1.0j, 2.0 - 1.0j + 1e-10, 2.0 - 1.0j, 1.5 - 2.0j, -2.5 + 0j, 1.0 + 0j, 0.5 - 0.5j,
    )

    def test_matches_the_loops_it_replaced(self):
        rng = np.random.default_rng(71)
        for _ in range(400):
            points = [self.POOL[k] for k in rng.integers(0, len(self.POOL), int(rng.integers(0, 7)))]
            for complex_field in (False, True):
                for tol, disk_tol in ((self.TOL, 0.0), (self.TOL, self.TOL), (0.0, 0.0), (0.3, 0.3)):
                    failed, _ = convex_poly._node_clauses(points, complex_field, tol, disk_tol)
                    assert failed == _reference_clauses(points, complex_field, tol, disk_tol)

    def test_clause_order_and_fields(self):
        points = [0.5j, 2.0 + 0j, -2.0 + 0j, 3.0 + 1j, 3.0 - 1j, 0.5 + 0j]
        failed, _ = convex_poly._node_clauses(points, True, self.TOL, 0.0)
        assert failed == [
            ("disk", (0,)), ("real", (1,)), ("real", (2,)), ("real", (5,)), ("disk", (5,)), ("pair", (3, 4)),
        ]
        # the real field: only the nonnegative reals fail realness, and no pair is a clause
        failed, _ = convex_poly._node_clauses(points, False, self.TOL, 0.0)
        assert failed == [("disk", (0,)), ("real", (1,)), ("real", (5,)), ("disk", (5,))]

    def test_thresholds_are_inclusive(self):
        failed, _ = convex_poly._node_clauses([1j, 2.0 + 1e-10j, -1e-10 + 0j], False, self.TOL, 0.0)
        assert failed == [("disk", (0,)), ("real", (1,)), ("real", (2,)), ("disk", (2,))]
        failed, _ = convex_poly._node_clauses([-1.0 + 0j, 2.0 + 0j], False, 0.0, 0.0)
        assert failed == [("disk", (0,)), ("real", (1,))]
        # a modulus above 1 by less than disk_tol still counts as in the disk
        failed, _ = convex_poly._node_clauses([1j * (1.0 + 0.5e-10)], True, self.TOL, self.TOL)
        assert failed == [("disk", (0,))]

    def test_margins_are_what_the_clauses_decided_on(self):
        points = [cmath.exp(5j / 7), 2.0 - 3e-11j, -0.5 + 0j, 2.0 + 3e-11j]
        for complex_field in (False, True):
            _, (moduli, imag, real, gaps) = convex_poly._node_clauses(points, complex_field, self.TOL, 0.0)
            assert moduli == [abs(z) for z in points]  # Python's rounding, bit for bit
            assert imag == [abs(z.imag) for z in points]
            assert real == [z.real for z in points]
            if complex_field:
                assert all(np.array_equal(g, e) for g, e in zip(gaps, convex_poly._pair_gaps(points, conjugate=True)))
            else:
                assert gaps is None

    def test_empty(self):
        failed, (moduli, imag, real, (first, second, gaps)) = convex_poly._node_clauses([], True, self.TOL, 0.0)
        assert failed == moduli == imag == real == [] and first.size == second.size == gaps.size == 0
        assert convex_poly._node_clauses([], False, self.TOL, 0.0) == ([], ([], [], [], None))


def _reference_peaking_nodes(nodes):
    """The peaking preconditions ``_check_peaking_nodes`` tested before
    ``_node_clauses``, after distinctness: the message it raised, or
    ``(R, maximum-modulus mask, those nodes)``."""
    moduli = [abs(z) for z in nodes]
    max_modulus = max(moduli)
    if not max_modulus > 1.0:
        return "maximum node modulus must exceed 1"
    is_top = [max_modulus - m <= convex_poly.NODE_TOLERANCE * max(1.0, max_modulus) for m in moduli]
    top = [z for z, t in zip(nodes, is_top) if t]
    if convex_poly.node_pairs(top, conjugate=True):
        return "conjugate pair among maximum-modulus nodes"
    return max_modulus, is_top, top


class TestPeaking:
    # pairwise distinct, at a threshold or one rounding step off it: the
    # unit circle, the real axis at NODE_TOLERANCE, and conjugates (exact or
    # at gap NODE_TOLERANCE) at the maximum modulus sqrt(5)
    POOL = (
        0.6 + 0.8j, cmath.exp(5j / 7), -1j, complex(0.0, math.nextafter(1.0, 2.0)), -1.0 + 0j, 0.5 + 0j,
        2.0 + 1.0j, 2.0 - 1.0j + 1e-10, 1.0 - 2.0j, 1.0 + 2.0j, complex(math.sqrt(5.0), 1e-10),
        2.2 + 1e-10j, complex(-2.2, math.nextafter(1e-10, 1.0)), -1.5 + 0j,
    )

    def test_preconditions_match_the_checks_they_replaced(self):
        rng = np.random.default_rng(73)
        outcomes = set()
        for _ in range(600):
            nodes = [self.POOL[k] for k in rng.choice(len(self.POOL), int(rng.integers(1, 6)), replace=False)]
            try:
                got = convex_poly._check_peaking_nodes(nodes)
            except PreconditionViolated as exc:
                got = str(exc)
            assert got == _reference_peaking_nodes(nodes)
            outcomes.add(got if isinstance(got, str) else len(got[2]))
        assert len(outcomes) > 3  # both refusals, and one or more maximum-modulus nodes

    def test_avoid_real_values_refuses_nodes_within_the_node_tolerance_of_the_axis(self):
        with pytest.raises(PreconditionViolated, match="disjoint from the real axis"):
            convex_poly.peaking_polynomial([complex(2.2, -convex_poly.NODE_TOLERANCE)], avoid_real_values=True)
        z = complex(2.2, -math.nextafter(convex_poly.NODE_TOLERANCE, 1.0))
        with pytest.raises(NoPeakWithinCap):
            convex_poly.peaking_polynomial([z], power_cap=3, avoid_real_values=True)

    def test_frozen_mixed_pair(self):
        cert = convex_poly.peaking_polynomial([2j, -2.0])
        assert cert.alpha == pytest.approx(0.5)
        assert cert.power == 0
        assert cert.min_power == cert.power
        assert cert.peak_point == 2j
        assert cert.peak_value == pytest.approx(math.sqrt(1.25))
        assert cert.max_modulus == pytest.approx(2.0)
        assert cert.margin == pytest.approx(math.sqrt(1.25) - 0.5)

    def test_frozen_real_pair(self):
        cert = convex_poly.peaking_polynomial([3.0, 1.5])
        assert cert.peak_point == 3.0 + 0.0j
        assert cert.power == 0
        assert cert.peak_value == pytest.approx(2.0)
        assert cert.margin == pytest.approx(0.75)

    def test_certificate_matches_direct_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            count = int(rng.integers(1, 5))
            nodes = []
            while len(nodes) < count:
                z = complex(*rng.uniform(-3.0, 3.0, 2))
                if abs(z) > 1.1 and all(abs(z - w) > 1e-2 and abs(z - w.conjugate()) > 1e-2 for w in nodes):
                    nodes.append(z)
            try:
                cert = convex_poly.peaking_polynomial(nodes)
            except NoPeakWithinCap:
                continue
            values = [abs(cert.polynomial(z)) for z in nodes]
            best = max(range(len(nodes)), key=values.__getitem__)
            assert nodes[best] == cert.peak_point
            assert values[best] == pytest.approx(cert.peak_value, rel=1e-12)
            assert abs(nodes[best]) == pytest.approx(cert.max_modulus, rel=1e-12)
            others = [v for i, v in enumerate(values) if i != best]
            if others:
                assert values[best] - max(others) == pytest.approx(cert.margin, rel=1e-9)

    def test_peak_power_grows_with_margin_goal(self):
        nodes = [2.0 + 1.0j, -2.1]
        small = convex_poly.peaking_polynomial(nodes, margin_goal=0.0)
        large = convex_poly.peaking_polynomial(nodes, margin_goal=50.0)
        assert large.power >= small.power
        assert large.margin > 50.0

    def test_empty_nodes_rejected(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1.0, -math.inf), complex(math.nan, 2.0)])
    def test_non_finite_nodes_rejected(self, bad):
        with pytest.raises(PreconditionViolated, match="finite"):
            convex_poly.peaking_polynomial([2.0j, bad])

    def test_modulus_at_most_one_rejected(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([0.5, -0.25j])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([2j, 2j])

    def test_conjugate_pair_on_top_modulus_rejected(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([2.0 + 1.0j, 2.0 - 1.0j])

    def test_alpha_outside_unit_interval_rejected(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PreconditionViolated):
                convex_poly.peaking_polynomial([2j, -2.0], alpha=alpha)

    def test_excluded_alpha_rejected(self):
        # alpha*(-2) + 1 - alpha = 0 at alpha = 1/3
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([-2.0], alpha=1.0 / 3.0)

    def test_auto_alpha_steps_off_the_excluded_value(self):
        # alpha = 1/2 kills the node value exactly at -1; a node barely
        # outside the disk still trips the exclusion guard
        cert = convex_poly.peaking_polynomial([-1.0 - 3e-14])
        assert cert.alpha == pytest.approx(1.0 / 3.0)

    def test_avoid_real_values_yields_nonreal_values(self):
        nodes = [2.0 * cmath.exp(0.7j), 1.5 * cmath.exp(2.1j)]
        cert = convex_poly.peaking_polynomial(nodes, avoid_real_values=True)
        for z in nodes:
            value = cert.polynomial(z)
            assert abs(value.imag) > 1e-10 * max(1.0, abs(value))

    def test_avoid_real_values_needs_nonreal_nodes(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([2j, -2.0], avoid_real_values=True)

    def test_scan_stops_where_the_peak_value_leaves_float_range(self):
        # the value at 3j reaches 1e300 before any margin of 1e300
        with pytest.raises(NoPeakWithinCap, match="float range") as info:
            convex_poly.peaking_polynomial([3j], margin_goal=1e300)
        assert not isinstance(info.value, AlphaGridExhausted)

    def test_avoid_real_values_moves_past_an_alpha_that_left_float_range(self):
        # at alpha = 1/2 the value at 3j is 6.8e299 at power 628 and beyond
        # 1e300 at power 629, so that scan raises; a later grid alpha peaks
        with pytest.raises(NoPeakWithinCap, match="float range"):
            convex_poly.peaking_polynomial([3j], margin_goal=7e299)
        cert = convex_poly.peaking_polynomial([3j], margin_goal=7e299, avoid_real_values=True)
        assert cert.alpha > 0.5
        assert 7e299 < cert.margin <= 1e300

    @pytest.mark.parametrize(
        "setting",
        [{"margin_goal": math.nan}, {"margin_goal": math.inf}, {"power_cap": -3}, {"power_cap": 2.5}, {"power_cap": True}],
        ids=["nan-goal", "infinite-goal", "negative-cap", "fractional-cap", "bool-cap"],
    )
    def test_goal_and_cap_preconditions(self, setting):
        # a NaN goal fails every margin comparison, so the scan would run to its cap
        with pytest.raises(PreconditionViolated):
            convex_poly.peaking_polynomial([2j, -2.0], **setting)

    def test_power_cap_exhaustion_raises(self):
        # equal-modulus nodes keep trading the lead, so tiny caps fail
        with pytest.raises(NoPeakWithinCap):
            convex_poly.peaking_polynomial(
                [2.0 * cmath.exp(1.0j), 2.0 * cmath.exp(2.0j)], margin_goal=1e12, power_cap=3
            )
        with pytest.raises(AlphaGridExhausted):
            convex_poly.peaking_polynomial(
                [2.0 * cmath.exp(1.0j), 2.0 * cmath.exp(2.0j)],
                margin_goal=1e12,
                power_cap=3,
                avoid_real_values=True,
            )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ConvexPolynomial([0.5, math.nan]), "finite"),
        (lambda: ConvexPolynomial([math.inf, 0.0]), "finite"),
        (lambda: convex_poly.peaking_polynomial([2j], alpha="half"), "'auto'"),
    ],
    ids=["nan-coefficient", "infinite-coefficient", "alpha-string"],
)
def test_input_checks(call, message):
    with pytest.raises(PreconditionViolated, match=message):
        call()
