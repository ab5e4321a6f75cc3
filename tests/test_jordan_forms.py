"""Tests for canonical block construction and closed-form polynomial action."""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
import pytest

from convex_cyclic import jordan_forms
from convex_cyclic.convex_poly import ConvexPolynomial
from convex_cyclic.errors import NonSquare, OddLength, ParseError, PreconditionViolated
from convex_cyclic.jordan_forms import (
    DiagonalEntrySpec,
    DirectSumSpec,
    JordanBlockSpec,
    RealJordanBlockSpec,
    build,
    complexify,
    matrix_polynomial,
    poly_on_jordan_block,
    rotation,
)


class TestBuild:
    def test_jordan_block_layout(self):
        matrix = build(JordanBlockSpec(3, -2.0))
        assert matrix.field == "real"
        expected = np.array(
            [
                [-2.0, 0.0, 0.0],
                [1.0, -2.0, 0.0],
                [0.0, 1.0, -2.0],
            ]
        )
        assert np.array_equal(matrix.entries, expected)

    def test_complex_eigenvalue_forces_complex_field(self):
        matrix = build(JordanBlockSpec(2, 2j))
        assert matrix.field == "complex"
        assert matrix.entries[0, 0] == 2j
        assert matrix.entries[1, 0] == 1.0

    def test_real_block_layout(self):
        theta = math.pi / 3.0
        matrix = build(RealJordanBlockSpec(2, 2.0, theta))
        assert matrix.field == "real"
        assert matrix.dimension == 4
        cell = 2.0 * rotation(theta)
        assert np.allclose(matrix.entries[0:2, 0:2], cell)
        assert np.allclose(matrix.entries[2:4, 2:4], cell)
        assert np.array_equal(matrix.entries[2:4, 0:2], np.eye(2))
        assert np.all(matrix.entries[0:2, 2:4] == 0.0)

    def test_direct_sum_concatenates_blocks(self):
        spec = DirectSumSpec((DiagonalEntrySpec(-2.0), JordanBlockSpec(2, -3.0)))
        matrix = build(spec)
        assert matrix.dimension == 3
        assert matrix.entries[0, 0] == -2.0
        assert matrix.entries[1, 1] == -3.0
        assert matrix.entries[2, 1] == 1.0
        assert np.all(matrix.entries[0, 1:] == 0.0)

    def test_rotation_frozen_value(self):
        assert np.allclose(rotation(math.pi / 2.0), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_block_preconditions(self):
        with pytest.raises(PreconditionViolated):
            JordanBlockSpec(0, -2.0)
        with pytest.raises(PreconditionViolated):
            RealJordanBlockSpec(1, -1.0, 0.5)
        # cos and sin of an infinite angle would escape as a math domain error
        for angle in (math.inf, -math.inf, math.nan):
            with pytest.raises(PreconditionViolated):
                RealJordanBlockSpec(1, 2.0, angle)
        with pytest.raises(PreconditionViolated):
            DirectSumSpec(())
        with pytest.raises(PreconditionViolated):
            build("not a spec")


class TestWireFormat:
    def test_round_trip(self):
        spec = DirectSumSpec(
            (
                JordanBlockSpec(2, -2.5),
                RealJordanBlockSpec(1, 2.0, 1.0),
                DiagonalEntrySpec(2j),
            )
        )
        wire = json.loads(
            '{"blocks": [{"type": "jordan", "k": 2, "lambda": -2.5}, '
            '{"type": "real_jordan", "k": 1, "r": 2.0, "theta": 1.0}, '
            '{"type": "diag", "value": [0.0, 2.0]}]}'
        )
        assert DirectSumSpec.from_jsonable(wire) == spec

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            DirectSumSpec.from_jsonable({})
        with pytest.raises(ParseError):
            DirectSumSpec.from_jsonable({"blocks": []})
        with pytest.raises(ParseError):
            DirectSumSpec.from_jsonable({"blocks": [{"type": "mystery"}]})
        with pytest.raises(ParseError):
            DirectSumSpec.from_jsonable({"blocks": [{"type": "jordan", "k": 2}]})
        # a well-typed size below 1 breaks a precondition, not the wire format
        with pytest.raises(PreconditionViolated):
            DirectSumSpec.from_jsonable({"blocks": [{"type": "jordan", "k": 0, "lambda": 2.0}]})

    @pytest.mark.parametrize("size", ["x", 2.7, True], ids=["string", "float", "bool"])
    def test_block_size_must_be_a_json_integer(self, size):
        for block in ({"type": "jordan", "k": size, "lambda": 2.0}, {"type": "real_jordan", "k": size, "r": 2.0, "theta": 1.0}):
            with pytest.raises(ParseError, match="'k' must be an integer"):
                DirectSumSpec.from_jsonable({"blocks": [block]})


class TestPolynomialAction:
    def test_toeplitz_matches_dense_horner(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            size = int(rng.integers(1, 5))
            lam = complex(*rng.uniform(-3.0, 3.0, 2))
            coeffs = rng.dirichlet(np.ones(int(rng.integers(1, 8))))
            block = build(JordanBlockSpec(size, lam))
            closed = poly_on_jordan_block(coeffs, lam, size)
            dense = matrix_polynomial(coeffs, block)
            assert np.allclose(closed, dense, atol=1e-9 * max(1.0, abs(lam)) ** 7)

    def test_exact_annihilation_at_full_order(self):
        # (z + 2)**3 kills the 3x3 block at -2 with no rounding at all
        coeffs = [8.0, 12.0, 6.0, 1.0]
        result = poly_on_jordan_block(coeffs, -2.0, 3)
        assert np.all(result == 0.0)

    def test_partial_order_zero_keeps_lower_corner(self):
        # (z + 2)**2 on the 3x3 block leaves only the (2, 0) entry
        coeffs = [4.0, 4.0, 1.0]
        result = poly_on_jordan_block(coeffs, -2.0, 3)
        assert result[2, 0] == 1.0
        result[2, 0] = 0.0
        assert np.all(result == 0.0)

    def test_matrix_polynomial_diagonalizable_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            values = rng.uniform(-3.0, 3.0, n)
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            matrix = q @ np.diag(values) @ q.T
            p = ConvexPolynomial(rng.dirichlet(np.ones(5)))
            expected = q @ np.diag([p(float(v)) for v in values]) @ q.T
            assert np.allclose(matrix_polynomial(p, matrix), expected, atol=1e-10)

    def test_accepts_convex_polynomial_objects(self):
        p = ConvexPolynomial([0.5, 0.5])
        block = build(JordanBlockSpec(2, -2.0))
        out = matrix_polynomial(p, block)
        assert out[0, 0] == pytest.approx(-0.5)
        assert out[1, 0] == pytest.approx(0.5)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            matrix_polynomial([1.0], np.ones((2, 3)))
        with pytest.raises(PreconditionViolated):
            poly_on_jordan_block([1.0], -2.0, 0)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(PreconditionViolated, match="finite"):
            matrix_polynomial([1.0], np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestComplexify:
    def test_frozen_example(self):
        assert np.array_equal(complexify([1.0, 0.0, 0.0, 1.0]), np.array([1.0 + 0.0j, 1.0j]))

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength) as info:
            complexify([1.0, 2.0, 3.0])
        assert info.value.length == 3

    def test_non_real_rejected(self):
        with pytest.raises(PreconditionViolated):
            complexify([1.0 + 1.0j, 0.0])

    def test_isometry(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            x = rng.standard_normal(2 * int(rng.integers(1, 5)))
            assert np.linalg.norm(complexify(x)) == pytest.approx(np.linalg.norm(x))

    def test_intertwines_real_block_with_jordan_block(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            size = int(rng.integers(1, 4))
            modulus = float(rng.uniform(0.5, 3.0))
            angle = float(rng.uniform(-math.pi, math.pi))
            real_block = build(RealJordanBlockSpec(size, modulus, angle)).entries
            complex_block = build(
                JordanBlockSpec(size, modulus * cmath.exp(1j * angle))
            ).entries.astype(complex)
            x = rng.standard_normal(2 * size)
            left = complexify(real_block @ x)
            right = complex_block @ complexify(x)
            assert np.allclose(left, right, atol=1e-12)


def test_dimension_properties():
    assert JordanBlockSpec(3, -2.0).dimension == 3
    assert RealJordanBlockSpec(2, 1.5, 0.5).dimension == 4
    assert DiagonalEntrySpec(2j).dimension == 1
    spec = DirectSumSpec((JordanBlockSpec(3, -2.0), DiagonalEntrySpec(2j)))
    assert spec.dimension == 4
    assert not spec.is_real
    assert jordan_forms.BlockSpec is not None


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DirectSumSpec((np.eye(2),)), PreconditionViolated, "unsupported block type ndarray"),
        (lambda: DirectSumSpec.from_jsonable({"blocks": [{"k": 2}]}), ParseError, r"blocks\[0\]: expected an object"),
        (lambda: complexify([[1.0, 2.0]]), PreconditionViolated, "1-d vector"),
    ],
    ids=["foreign-block", "untagged-block", "complexify-2d"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
