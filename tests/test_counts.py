"""Every integer count the library takes passes one check: an integer of
any type, not a bool, at least the count's minimum."""

from __future__ import annotations

import numpy as np
import pytest

from convex_cyclic import convex_poly, dynamics, interpolation, jordan_forms
from convex_cyclic.convex_poly import ConvexPolynomial
from convex_cyclic.errors import PreconditionViolated

# each call passes ``n`` as one count parameter and valid values everywhere else
CALLS = {
    "orbit-horizon": lambda n: dynamics.orbit(np.diag([-2.0]), [1.0], n),
    "growth_witness-max_n": lambda n: dynamics.growth_witness(np.diag([-2.0]), [1.0], [1.0], 10.0, max_n=n),
    "density-poly_budget": lambda n: dynamics.empirical_density_scan(np.diag([-2.0]), [1.0], [[1.0]], poly_budget=n),
    "peaking-power_cap": lambda n: convex_poly.peaking_polynomial([2j, -2.0], power_cap=n),
    "derivative-order": lambda n: convex_poly.derivative(ConvexPolynomial([0.5, 0.5]), n),
    "problem-max_degree": lambda n: interpolation.InterpolationProblem(max_degree=n),
    "annihilator-order": lambda n: interpolation.vanishing_annihilator([(-2.0, n)]),
    "jordan-size": lambda n: jordan_forms.JordanBlockSpec(n, -2.0),
    "real-jordan-size": lambda n: jordan_forms.RealJordanBlockSpec(n, 2.0, 1.0),
    "poly_on_jordan_block-size": lambda n: jordan_forms.poly_on_jordan_block([0.5, 0.5], -2.0, n),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize(
    "count",
    [True, np.True_, 2.5, 3.0, np.array([3])],
    ids=["bool", "numpy-bool", "float", "integral-float", "numpy-array"],
)
def test_only_an_int_is_a_count(call, count):
    with pytest.raises(PreconditionViolated, match="must be an integer >= "):
        call(count)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_any_integer_type_is_a_count(call):
    # a count drawn by numpy (rng.integers, an array entry) needs no int()
    assert repr(call(np.int64(3))) == repr(call(3))


def test_a_numpy_count_is_kept_as_int():
    assert dynamics.orbit(np.diag([-2.0]), [1.0], np.int64(3)).horizon == 3
    problem = interpolation.InterpolationProblem(max_degree=np.int64(5))
    assert type(problem.max_degree) is int and problem.max_degree == 5
    assert type(jordan_forms.JordanBlockSpec(np.uint8(2), -2.0).size) is int
    assert type(jordan_forms.RealJordanBlockSpec(np.int32(2), 2.0, 1.0).size) is int
