"""Every real or complex scalar the library takes passes one check: a number
of any real (or complex) type, numpy's included, not a bool, not a string,
not an array, and finite; the refusal says ``"{name} must be finite"``.

``CALLS`` is also the table that ``tools/output_digest.py`` replays for its
``refusals`` layer, so a row's name, value and expected message are kept
stable."""

from __future__ import annotations

import math

import numpy as np
import pytest

from convex_cyclic import convex_poly, dynamics, interpolation, jordan_forms
from convex_cyclic.errors import PreconditionViolated

# name: (call passing ``v`` as one scalar parameter and valid values everywhere
# else, a valid ``v``, the parameter's name in the refusal)
CALLS = {
    "RealNode-x": (lambda v: interpolation.RealNode(v, (1.0,)), -2.0, "real node"),
    "RealNode-targets": (lambda v: interpolation.RealNode(-2.0, (1.0, v)), 0.5, "real targets"),
    "ComplexNode-z": (lambda v: interpolation.ComplexNode(v, (1.0,)), 2j, "complex node"),
    "ComplexNode-targets": (lambda v: interpolation.ComplexNode(2j, (1.0, v)), 0.5 - 1j, "complex targets"),
    "problem-residual_tol": (lambda v: interpolation.InterpolationProblem(residual_tol=v), 1e-6, "residual_tol"),
    "annihilator-vanishing-node": (lambda v: interpolation.vanishing_annihilator([(v, 1)]), -2.0, "vanishing node"),
    "annihilator-value-node": (
        lambda v: interpolation.vanishing_annihilator([(-2.0, 1)], [(v, 0.5)]),
        -3.0,
        "value node",
    ),
    "annihilator-value": (lambda v: interpolation.vanishing_annihilator([(-2.0, 1)], [(-3.0, v)]), 0.5, "value"),
    "jordan-eigenvalue": (lambda v: jordan_forms.JordanBlockSpec(2, v), 1.5 - 2j, "Jordan block eigenvalue"),
    "real-jordan-modulus": (lambda v: jordan_forms.RealJordanBlockSpec(1, v, 0.5), 2.0, "real block modulus"),
    "real-jordan-angle": (lambda v: jordan_forms.RealJordanBlockSpec(1, 2.0, v), 0.5, "real block angle"),
    "poly_on_jordan_block-eigenvalue": (
        lambda v: jordan_forms.poly_on_jordan_block([0.5, 0.25, 0.25], v, 3),
        -2.0 + 1j,
        "eigenvalue",
    ),
    "peaking-node": (lambda v: convex_poly.peaking_polynomial([v, 2j]), -3.0, "nodes"),
    "peaking-alpha": (lambda v: convex_poly.peaking_polynomial([2j, -2.0], alpha=v), 0.25, "alpha"),
    "peaking-margin_goal": (lambda v: convex_poly.peaking_polynomial([2j, -2.0], margin_goal=v), 0.5, "margin_goal"),
    "evaluate-point": (lambda v: convex_poly.evaluate([1.0, 1.0], v), 2.0, "evaluation point"),
    "node_pairs-node": (lambda v: convex_poly.node_pairs([v, 2j]), -3.0, "nodes"),
    "growth_witness-threshold": (
        lambda v: dynamics.growth_witness(np.diag([-2.0]), [1.0], [1.0], v, max_n=10),
        3.0,
        "threshold",
    ),
}

REFUSED = {
    "bool": True,
    "numpy-bool": np.True_,
    "string": "2",
    "none": None,
    "numpy-array": np.array([2.0]),
    "nan": math.nan,
    "inf": math.inf,
}


def expected_refusal(call: str, value) -> str:
    """The one message of a refused scalar; a string ``alpha`` is read as a
    misspelt ``"auto"``."""
    if call == "peaking-alpha" and isinstance(value, str):
        return "alpha must be a number in (0, 1) or 'auto'"
    return f"{CALLS[call][2]} must be finite"


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED.keys())
@pytest.mark.parametrize("call", CALLS)
def test_only_a_finite_number_is_a_scalar(call, value):
    with pytest.raises(PreconditionViolated) as raised:
        CALLS[call][0](value)
    assert type(raised.value) is PreconditionViolated and str(raised.value) == expected_refusal(call, value)


@pytest.mark.parametrize("call", CALLS)
def test_any_number_type_is_a_scalar(call):
    # a value drawn by numpy (an rng draw, an array entry) needs no float() or complex()
    run, valid, _ = CALLS[call]
    numpy_valid = np.asarray(valid)[()]
    assert type(numpy_valid) in (np.float64, np.complex128)
    assert repr(run(numpy_valid)) == repr(run(valid))


def test_a_scalar_is_kept_as_float_or_complex():
    node = interpolation.RealNode(np.float32(-2.5), [np.int64(3), 0.5])
    assert type(node.x) is float and all(type(t) is float for t in node.targets)
    node = interpolation.ComplexNode(np.float64(2.0), (np.complex64(1j),))
    assert type(node.z) is complex and type(node.targets[0]) is complex
    assert type(interpolation.InterpolationProblem(residual_tol=np.float32(0.5)).residual_tol) is float
    assert type(jordan_forms.JordanBlockSpec(1, np.int8(-2)).eigenvalue) is complex
    block = jordan_forms.RealJordanBlockSpec(1, np.float64(2.0), np.int64(1))
    assert (type(block.modulus), type(block.angle)) == (float, float)
    assert type(dynamics.growth_witness(np.diag([-2.0]), [1.0], [1.0], np.float64(3.0)).threshold) is float


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: interpolation.RealNode(-2.0, 7.0), "real targets must be a sequence of numbers"),
        (lambda: interpolation.RealNode(-2.0, "12"), "real targets must be finite"),
        (lambda: interpolation.ComplexNode(2j, None), "complex targets must be a sequence of numbers"),
        (lambda: interpolation.RealNode(-2.0, (1j,)), "real targets must be finite"),
        (lambda: interpolation.RealNode(10**400, ()), "real node must be finite"),
        (lambda: jordan_forms.JordanBlockSpec(1, "x"), "Jordan block eigenvalue must be finite"),
    ],
    ids=["targets-not-a-sequence", "targets-string", "targets-none", "complex-real-target", "huge-int", "malformed-string"],
)
def test_target_sequences_and_edge_values_are_refused(call, message):
    with pytest.raises(PreconditionViolated) as raised:
        call()
    assert str(raised.value) == message
