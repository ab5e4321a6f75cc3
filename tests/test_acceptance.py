"""Acceptance battery gate: every numbered criterion must pass at seed 0."""

from __future__ import annotations

import json

import pytest

from convex_cyclic import acceptance

REQUIRED_NAMES = {
    1: "simplex sample algebra",
    2: "peaking construction",
    3: "growth index scans",
    4: "classification verdicts",
    5: "polynomials on Jordan blocks",
    6: "complexification intertwining",
    7: "interpolation feasibility",
    8: "orbit growth and hull density",
    9: "command line determinism",
}


@pytest.mark.parametrize("number", sorted(REQUIRED_NAMES))
def test_criterion(number):
    result = acceptance.CRITERIA[number - 1](seed=0)
    print(acceptance.format_line(result))
    assert result.number == number
    assert result.name == REQUIRED_NAMES[number]
    assert result.passed, result.detail


def test_failure_collector_stops_a_loop_once_saturated():
    fails = acceptance._Failures(cap=2)
    seen = []
    for trial in fails.until_saturated(range(10)):
        seen.append(trial)
        fails.check(trial < 3, f"trial {trial}")
    assert seen == [0, 1, 2, 3, 4]
    assert fails.detail() == "trial 3; trial 4"
    assert list(fails.until_saturated(range(3))) == []


# ``python -m convex_cyclic selftest --seed 0`` in fresh interpreters
SELFTEST = "import runpy; runpy.run_module('convex_cyclic', run_name='__main__')"


def test_selftest_subprocess_is_deterministic(validate_schema, fresh_python):
    first = fresh_python(SELFTEST, "selftest", "--seed", "0")
    second = fresh_python(SELFTEST, "selftest", "--seed", "0")
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout
    summary = json.loads(first.stdout.splitlines()[-1])
    validate_schema("selftest", summary)
    assert summary["passed"] is True
    assert [c["number"] for c in summary["criteria"]] == sorted(REQUIRED_NAMES)
    assert all(c["passed"] for c in summary["criteria"])
