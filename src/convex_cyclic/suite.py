"""Golden suite of matrices with hand-derived classification verdicts.

Every entry keeps each eigenvalue at distance at least 0.2 from the unit
circle, the real axis (complex field), the nonnegative real axis (real
field), and from any conjugate partner it must avoid, so the expected
booleans and reason sets are stable under floating-point eigensolves and
well-conditioned similarity transforms.  Canonical-form specs build the
matrices; tests may conjugate them freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jordan_forms import DirectSumSpec, JordanBlockSpec, RealJordanBlockSpec
from .spectral import (
    REASON_CONJUGATE_PAIR,
    REASON_IN_CLOSED_DISK,
    REASON_NONNEGATIVE_REAL,
    REASON_NOT_CYCLIC,
    REASON_REAL_EIGENVALUE,
    REASON_REPEATED_EIGENVALUE,
)

__all__ = ["SuiteEntry", "golden_suite", "convex_cyclic_entries", "failure_entries"]


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    spec: DirectSumSpec
    expect_cyclic: bool
    expect_convex_cyclic: bool
    expect_invariant: bool
    expect_reasons: frozenset[str]
    note: str = ""


def _diag(*values) -> DirectSumSpec:
    return DirectSumSpec(tuple(JordanBlockSpec(1, v) for v in values))


def _blocks(*blocks) -> DirectSumSpec:
    return DirectSumSpec(tuple(blocks))


def _cc(name: str, spec: DirectSumSpec, note: str = "") -> SuiteEntry:
    return SuiteEntry(name, spec, True, True, True, frozenset(), note)


def _fail(
    name: str,
    spec: DirectSumSpec,
    reasons: frozenset[str],
    cyclic: bool = True,
    invariant: bool = False,
    note: str = "",
) -> SuiteEntry:
    return SuiteEntry(name, spec, cyclic, False, invariant, reasons, note)


_NOT_CYCLIC = frozenset({REASON_NOT_CYCLIC, REASON_REPEATED_EIGENVALUE})


def golden_suite() -> tuple[SuiteEntry, ...]:
    third = math.pi / 3
    return (
        # convex-cyclic entries
        _cc("cc_real_diag_neg", _diag(-2.0, -3.0)),
        _cc("cc_real_rotation", _blocks(RealJordanBlockSpec(1, 2.0, third))),
        _cc("cc_real_single", _diag(-1.5)),
        _cc("cc_real_diag_three", _diag(-2.5, -1.7, -4.0)),
        _cc(
            "cc_real_mixed",
            _blocks(RealJordanBlockSpec(1, 1.8, 2 * math.pi / 5), JordanBlockSpec(1, -2.2)),
        ),
        _cc(
            "cc_real_two_rotations",
            _blocks(RealJordanBlockSpec(1, 2.5, 1.0), RealJordanBlockSpec(1, 3.2, 2.0)),
        ),
        _cc("cc_real_jordan", _blocks(JordanBlockSpec(2, -2.5)), "defective, still cyclic"),
        _cc(
            "cc_real_jordan_mixed",
            _blocks(JordanBlockSpec(2, -4.0), JordanBlockSpec(1, -2.0)),
        ),
        _cc("cc_real_diag_pair", _diag(-1.4, -2.8)),
        _cc("cc_complex_diag", _diag(2j, -3 + 1j)),
        _cc("cc_complex_single", _diag(1.5 + 1.5j)),
        _cc("cc_complex_jordan", _blocks(JordanBlockSpec(2, 2 + 2j)), "defective, still cyclic"),
        _cc("cc_complex_diag_three", _diag(-2 - 2j, 3j, 1 + 2j)),
        # failures, real field
        _fail("fail_real_positive", _diag(2.0, -3.0), frozenset({REASON_NONNEGATIVE_REAL})),
        _fail(
            "fail_real_disk_positive",
            _diag(0.5, -2.0),
            frozenset({REASON_IN_CLOSED_DISK, REASON_NONNEGATIVE_REAL}),
        ),
        _fail("fail_real_disk_negative", _diag(-0.5, -3.0), frozenset({REASON_IN_CLOSED_DISK})),
        _fail(
            "fail_real_disk_rotation",
            _blocks(RealJordanBlockSpec(1, 0.6, third)),
            frozenset({REASON_IN_CLOSED_DISK}),
            note="all eigenvalues inside the open disk",
        ),
        _fail(
            "fail_real_repeated",
            _diag(-2.0, -2.0),
            _NOT_CYCLIC,
            cyclic=False,
            invariant=True,
        ),
        _fail(
            "fail_real_repeated_rotation",
            _blocks(RealJordanBlockSpec(1, 2.0, third), RealJordanBlockSpec(1, 2.0, third)),
            _NOT_CYCLIC,
            cyclic=False,
            invariant=True,
        ),
        _fail(
            "fail_real_small_positive",
            _diag(0.3),
            frozenset({REASON_IN_CLOSED_DISK, REASON_NONNEGATIVE_REAL}),
        ),
        _fail("fail_real_large_positive", _diag(1.7), frozenset({REASON_NONNEGATIVE_REAL})),
        _fail(
            "fail_real_disk_pair",
            _diag(0.4, -2.6),
            frozenset({REASON_IN_CLOSED_DISK, REASON_NONNEGATIVE_REAL}),
        ),
        _fail(
            "fail_real_small_rotation",
            _blocks(RealJordanBlockSpec(1, 0.5, 1.2)),
            frozenset({REASON_IN_CLOSED_DISK}),
            note="all eigenvalues inside the open disk",
        ),
        _fail(
            "fail_real_repeated_positive",
            _diag(3.0, 3.0),
            _NOT_CYCLIC | {REASON_NONNEGATIVE_REAL},
            cyclic=False,
        ),
        _fail(
            "fail_real_mixed_signs",
            _diag(2.0, -0.5),
            frozenset({REASON_NONNEGATIVE_REAL, REASON_IN_CLOSED_DISK}),
        ),
        _fail(
            "fail_real_triple_repeated",
            _diag(-3.0, -3.0, -2.0),
            _NOT_CYCLIC,
            cyclic=False,
            invariant=True,
        ),
        _fail(
            "fail_real_disk_mixed",
            _blocks(RealJordanBlockSpec(1, 0.3, 2.0), JordanBlockSpec(1, 0.5)),
            frozenset({REASON_IN_CLOSED_DISK, REASON_NONNEGATIVE_REAL}),
            note="all eigenvalues inside the open disk",
        ),
        _fail("fail_real_five", _diag(5.0), frozenset({REASON_NONNEGATIVE_REAL})),
        # failures, complex field
        _fail("fail_complex_real_eigen", _diag(-3.0, 2j), frozenset({REASON_REAL_EIGENVALUE})),
        _fail(
            "fail_complex_conjugate_pair",
            _diag(1 + 2j, 1 - 2j),
            frozenset({REASON_CONJUGATE_PAIR}),
        ),
        _fail(
            "fail_complex_repeated",
            _diag(2j, 2j),
            _NOT_CYCLIC,
            cyclic=False,
            invariant=True,
        ),
        _fail(
            "fail_complex_disk",
            _diag(0.5j, 3 + 3j),
            frozenset({REASON_IN_CLOSED_DISK}),
        ),
        _fail(
            "fail_complex_disk_real",
            _diag(0.5, 2 + 2j),
            frozenset({REASON_IN_CLOSED_DISK, REASON_REAL_EIGENVALUE}),
        ),
        _fail(
            "fail_complex_negative_real",
            _diag(-2.5, -2 + 2j),
            frozenset({REASON_REAL_EIGENVALUE}),
            note="negative real eigenvalues still fail over the complex field",
        ),
        _fail(
            "fail_complex_pair_extra",
            _diag(2 + 2j, 2 - 2j, 3j),
            frozenset({REASON_CONJUGATE_PAIR}),
        ),
        _fail(
            "fail_complex_small",
            _diag(0.4 + 0.4j),
            frozenset({REASON_IN_CLOSED_DISK}),
            note="all eigenvalues inside the open disk",
        ),
        _fail(
            "fail_complex_obstruction",
            _diag(2j, -2j),
            frozenset({REASON_CONJUGATE_PAIR}),
            note="hull obstruction example",
        ),
        _fail(
            "fail_complex_real_and_disk",
            _diag(-1.8, 0.7j),
            frozenset({REASON_REAL_EIGENVALUE, REASON_IN_CLOSED_DISK}),
        ),
        _fail(
            "fail_complex_repeated_offaxis",
            _diag(2 + 1j, 2 + 1j, -3j),
            _NOT_CYCLIC,
            cyclic=False,
            invariant=True,
        ),
        _fail(
            "fail_complex_positive_disk",
            _diag(5j, 0.2),
            frozenset({REASON_REAL_EIGENVALUE, REASON_IN_CLOSED_DISK}),
        ),
    )


def convex_cyclic_entries() -> tuple[SuiteEntry, ...]:
    return tuple(e for e in golden_suite() if e.expect_convex_cyclic)


def failure_entries() -> tuple[SuiteEntry, ...]:
    return tuple(e for e in golden_suite() if not e.expect_convex_cyclic)
