"""Tests for simplex-coefficient polynomials, peaking certificates and growth scans."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from convex_cyclic import convex_poly
from convex_cyclic.convex_poly import ConvexPolynomial, GrowthQuery
from convex_cyclic.errors import (
    AlphaGridExhausted,
    NegativeCoefficient,
    NoPeakWithinCap,
    NotFoundWithinCap,
    PreconditionViolated,
    SumNotOne,
    ThetaMultipleOfPi,
    ZeroCoefficient,
)


def _random_poly(rng: np.random.Generator, max_degree: int = 8) -> ConvexPolynomial:
    degree = int(rng.integers(0, max_degree + 1))
    return ConvexPolynomial(rng.dirichlet(np.ones(degree + 1)))


class TestConstruction:
    def test_validate_round_trip(self):
        p = convex_poly.validate([0.25, 0.25, 0.5])
        assert p.degree == 2
        assert np.allclose(p.coeffs, [0.25, 0.25, 0.5])

    def test_negative_coefficient_rejected_with_index(self):
        with pytest.raises(NegativeCoefficient) as info:
            convex_poly.validate([0.5, -0.1, 0.6])
        assert info.value.index == 1

    def test_negative_rejected_even_when_tiny(self):
        with pytest.raises(NegativeCoefficient):
            convex_poly.validate([1.0 + 1e-16, -1e-16])

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne) as info:
            convex_poly.validate([0.5, 0.6])
        assert info.value.actual_sum == pytest.approx(1.1)

    def test_sum_within_tolerance_renormalized(self):
        p = convex_poly.validate([0.5, 0.5 + 1e-13])
        assert float(p.coeffs.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.validate([])

    def test_trailing_zeros_stripped(self):
        p = convex_poly.validate([0.5, 0.5, 0.0, 0.0])
        assert p.degree == 1

    def test_coeffs_are_immutable(self):
        p = convex_poly.validate([1.0])
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


class TestNodePairs:
    POOL = (0j, 1e-10 + 0j, 2e-10 + 0j, 0.5e-10j, -0.5e-10j, -2.0 + 0j, 1 + 2j, 1 - 2j, 1 + 2j + 1e-11, 1 + 2.5e-10j, 3j)

    @staticmethod
    def _brute(nodes, conjugate):
        out = []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                other = nodes[j].conjugate() if conjugate else nodes[j]
                if abs(nodes[i] - other) <= convex_poly.NODE_TOLERANCE:
                    out.append((i, j))
        return out

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            nodes = [self.POOL[k] for k in rng.integers(0, len(self.POOL), int(rng.integers(0, 8)))]
            for conjugate in (False, True):
                assert convex_poly.node_pairs(nodes, conjugate) == self._brute(nodes, conjugate)

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


class TestPeaking:
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


class TestGrowthScans:
    def test_worked_example_is_eight(self):
        query = GrowthQuery(
            theta=math.pi / 2.0,
            coefficient=1.0,
            magnitude=lambda n: 2.0**n,
            perturbation=None,
            threshold=100.0,
            max_n=50,
        )
        assert convex_poly.find_growth_index(query) == 8

    def test_indices_match_direct_scan(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            coeff = complex(*rng.uniform(-2.0, 2.0, 2)) or 1.0
            ratio = float(rng.uniform(1.05, 1.8))
            threshold = float(rng.uniform(1.0, 50.0))
            query = GrowthQuery(theta, coeff, lambda n, r=ratio: r**n, None, threshold, 200)
            expected = [
                n
                for n in range(1, 201)
                if ratio**n * (cmath.exp(1j * n * theta) * coeff).real > threshold
            ]
            assert list(convex_poly.growth_indices(query)) == expected

    def test_perturbation_shifts_the_crossing(self):
        base = GrowthQuery(math.pi / 2.0, 1.0, lambda n: 2.0**n, None, 100.0, 50)
        boosted = GrowthQuery(
            math.pi / 2.0, 1.0, lambda n: 2.0**n, lambda n: 10.0 + 0.0j, 100.0, 50
        )
        assert convex_poly.find_growth_index(base) == 8
        assert convex_poly.find_growth_index(boosted) == 4

    def test_theta_multiple_of_pi_rejected(self):
        for theta in (0.0, math.pi, -3.0 * math.pi):
            query = GrowthQuery(theta, 1.0, lambda n: 2.0**n, None, 10.0, 50)
            with pytest.raises(ThetaMultipleOfPi):
                convex_poly.find_growth_index(query)

    def test_zero_coefficient_rejected(self):
        query = GrowthQuery(1.0, 0.0, lambda n: 2.0**n, None, 10.0, 50)
        with pytest.raises(ZeroCoefficient):
            convex_poly.find_growth_index(query)

    def test_cap_exhaustion_raises(self):
        query = GrowthQuery(1.0, 1.0, lambda n: 0.5**n, None, 10.0, 100)
        with pytest.raises(NotFoundWithinCap) as info:
            convex_poly.find_growth_index(query)
        assert info.value.max_n == 100

    def test_multivariable_matches_direct_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            thetas = [0.7, 2.1]
            coeffs = [complex(*rng.uniform(-2.0, 2.0, 2)), complex(*rng.uniform(-2.0, 2.0, 2))]
            if all(c == 0 for c in coeffs):
                continue
            ratio = float(rng.uniform(1.1, 1.6))
            threshold = float(rng.uniform(0.5, 20.0))
            try:
                found = convex_poly.multivariable_growth_index(ratio, thetas, coeffs, threshold, 500)
            except NotFoundWithinCap:
                found = None
            expected = next(
                (
                    n
                    for n in range(1, 501)
                    if ratio**n
                    * sum(cmath.exp(1j * n * t) * c for t, c in zip(thetas, coeffs)).real
                    > threshold
                ),
                None,
            )
            assert found == expected

    def test_multivariable_preconditions(self):
        with pytest.raises(PreconditionViolated):
            convex_poly.multivariable_growth_index(1.0, [0.7], [1.0], 10.0, 100)
        with pytest.raises(PreconditionViolated):
            convex_poly.multivariable_growth_index(2.0, [math.pi], [1.0], 10.0, 100)
        with pytest.raises(PreconditionViolated):
            convex_poly.multivariable_growth_index(2.0, [0.7, -0.7], [1.0, 1.0], 10.0, 100)
        with pytest.raises(PreconditionViolated):
            convex_poly.multivariable_growth_index(2.0, [0.7, 2.1], [0.0, 0.0], 10.0, 100)
        with pytest.raises(PreconditionViolated):
            convex_poly.multivariable_growth_index(2.0, [0.7, 2.1], [1.0], 10.0, 100)
