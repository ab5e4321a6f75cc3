"""End-to-end tests for the command line interface and its wire formats."""

from __future__ import annotations

import argparse
import cmath
import json

import pytest

import convex_cyclic

ANALYZE_REAL = json.dumps({"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]})
ANALYZE_BLOCKS = json.dumps(
    {"blocks": [{"type": "diag", "value": -2.0}, {"type": "real_jordan", "k": 1, "r": 2.0, "theta": 1.0}]}
)
INTERPOLATE_OK = json.dumps(
    {
        "real_nodes": [{"x": -2.0, "targets": [7.0]}],
        "complex_nodes": [{"z": [0.0, 2.0], "targets": [[3.0, 1.0]]}],
    }
)
PEAK_OK = json.dumps({"nodes": [[0.0, 2.0], [-2.0, 0.0]]})
# equal-modulus nodes off the real axis that keep trading the lead
STUBBORN_NODES = [[z.real, z.imag] for z in (2.0 * cmath.exp(1.0j), 2.0 * cmath.exp(2.0j))]
ORBIT_REAL = json.dumps(
    {"matrix": {"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]}, "vector": [1.0, 1.0], "horizon": 2}
)
DENSITY_OK = json.dumps(
    {
        "matrix": {"field": "real", "rows": [[-2.0, 0.0], [0.0, -3.0]]},
        "vector": [1.0, 1.0],
        "targets": [[-4.0, 2.0], [3.0, -5.0]],
        "poly_budget": 200,
    }
)


class TestAnalyze:
    def test_verdict_shape_and_schema(self, run_cli, validate_schema):
        code, out, err = run_cli(["analyze", "--input", ANALYZE_REAL])
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        validate_schema("verdict", payload)
        assert payload["is_convex_cyclic"] is True
        assert payload["field"] == "real"

    def test_blocks_input_form(self, run_cli, validate_schema):
        code, out, _ = run_cli(["analyze", "--input", ANALYZE_BLOCKS])
        assert code == 0
        payload = json.loads(out)
        validate_schema("verdict", payload)
        assert payload["is_convex_cyclic"] is True
        assert len(payload["eigenvalues"]) == 3

    def test_failure_verdict_lists_reasons(self, run_cli, validate_schema):
        matrix = json.dumps({"field": "real", "rows": [[2.0, 0.0], [0.0, -3.0]]})
        code, out, _ = run_cli(["analyze", "--input", matrix])
        assert code == 0
        payload = json.loads(out)
        validate_schema("verdict", payload)
        assert payload["is_convex_cyclic"] is False
        assert payload["failed_conditions"][0]["reason"] == "NonNegativeRealEigenvalue"


class TestInterpolate:
    def test_feasible_schema(self, run_cli, validate_schema):
        code, out, _ = run_cli(["interpolate", "--input", INTERPOLATE_OK])
        assert code == 0
        payload = json.loads(out)
        validate_schema("interpolation_certificate", payload)
        assert payload["status"] == "Feasible"
        assert payload["max_residual"] <= 1e-8

    def test_necessary_rejection_exits_zero(self, run_cli, validate_schema):
        problem = json.dumps({"real_nodes": [{"x": 0.5, "targets": [2.0]}]})
        code, out, _ = run_cli(["interpolate", "--input", problem])
        assert code == 0
        payload = json.loads(out)
        validate_schema("interpolation_certificate", payload)
        assert payload["status"] == "InfeasibleNecessary"
        assert payload["reason"] == "DiskBound"

    def test_tol_override_sets_the_residual_tolerance(self, run_cli, monkeypatch):
        seen = []
        solve = convex_cyclic.cli.solve
        monkeypatch.setattr(convex_cyclic.cli, "solve", lambda problem: seen.append(problem) or solve(problem))
        body = json.dumps(dict(json.loads(INTERPOLATE_OK), residual_tol=1e-6))
        code, out, _ = run_cli(["interpolate", "--input", body])
        assert code == 0
        assert json.loads(out)["status"] == "Feasible"
        assert [problem.residual_tol for problem in seen] == [1e-6]

    def test_cap_exit_code_three(self, run_cli, validate_schema):
        problem = json.dumps({"real_nodes": [{"x": -1.5, "targets": [1e6]}], "max_degree": 4})
        code, out, _ = run_cli(["interpolate", "--input", problem])
        assert code == 3
        payload = json.loads(out)
        validate_schema("interpolation_certificate", payload)
        assert payload["status"] == "InfeasibleAtCap"
        assert payload["max_degree"] == 4


class TestPeak:
    def test_certificate_schema(self, run_cli, validate_schema):
        code, out, _ = run_cli(["peak", "--input", PEAK_OK])
        assert code == 0
        payload = json.loads(out)
        validate_schema("peaking", payload)
        assert payload["peak_point"] == [0.0, 2.0]
        assert payload["max_modulus"] == 2.0
        assert payload["polynomial"]["coeffs_nonzero"]

    def test_min_power_is_the_power(self, run_cli):
        # the wire keeps the key; the scan returns the smallest power, so it is the power
        body = json.dumps({"nodes": [[0.0, 2.0], [-2.0, 0.0]], "margin_goal": 1.0})
        code, out, _ = run_cli(["peak", "--input", body])
        payload = json.loads(out)
        assert code == 0 and payload["power"] == 1
        assert payload["min_power"] == payload["power"]

    def test_threshold_overrides_the_margin_goal(self, run_cli):
        # at power 0 the margin is 0.618; a margin goal of 1 asks for more
        body = json.dumps({"nodes": [[0.0, 2.0], [-2.0, 0.0]], "margin_goal": 1.0})
        code, out, _ = run_cli(["peak", "--input", body])
        assert code == 0
        payload = json.loads(out)
        assert payload["power"] == 1
        assert 1.0 < payload["margin"] < 100.0

    def test_precondition_exit_code_four(self, run_cli):
        small = json.dumps({"nodes": [[0.5, 0.0]]})
        code, out, err = run_cli(["peak", "--input", small])
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"]["type"] == "PreconditionViolated"

    def test_cap_exit_code_three(self, run_cli):
        stubborn = json.dumps(
            {"nodes": [[0.0, 2.0], [2.0, 0.0]], "margin_goal": 1e12, "power_cap": 3}
        )
        code, _, err = run_cli(["peak", "--input", stubborn])
        assert code == 3
        assert json.loads(err)["error"]["type"] == "NoPeakWithinCap"


class TestOrbit:
    def test_real_csv_golden(self, run_cli):
        code, out, _ = run_cli(["orbit", "--input", ORBIT_REAL])
        assert code == 0
        assert out == "n,x0,x1\n0,1,1\n1,-2,-3\n2,4,9\n"

    def test_complex_csv_columns(self, run_cli):
        payload = json.dumps(
            {"matrix": {"field": "complex", "rows": [[[0.0, 2.0]]]}, "vector": [[1.0, 0.0]], "horizon": 1}
        )
        code, out, _ = run_cli(["orbit", "--input", payload])
        assert code == 0
        assert out == "n,x0_re,x0_im\n0,1,0\n1,0,2\n"

    def test_horizon_flag_overrides_body(self, run_cli):
        body = json.dumps(dict(json.loads(ORBIT_REAL), horizon=0))
        code, out, _ = run_cli(["orbit", "--input", body])
        assert code == 0
        assert out == "n,x0,x1\n0,1,1\n"


class TestDensity:
    def test_report_schema(self, run_cli, validate_schema):
        code, out, _ = run_cli(["density", "--input", DENSITY_OK])
        assert code == 0
        payload = json.loads(out)
        validate_schema("density", payload)
        assert payload["total"] == 2
        assert payload["fraction"] == 1.0

    def test_target_at_the_top_of_the_float_range(self, run_cli, validate_schema):
        # a target entry beyond 2^1023 is answered, not a traceback
        body = json.dumps(dict(json.loads(DENSITY_OK), targets=[[1e308, 0.0], [-2.0, -3.0]], poly_budget=400))
        code, out, err = run_cli(["density", "--input", body])
        assert code == 0 and err == ""
        payload = json.loads(out)
        validate_schema("density", payload)
        assert payload["miss_indices"] == [0]

    def test_budget_flag(self, run_cli):
        body = json.dumps(dict(json.loads(DENSITY_OK), poly_budget=30))
        code, out, _ = run_cli(["density", "--input", body])
        assert code == 0
        assert json.loads(out)["generators_used"] <= 30


class TestErrorHandling:
    def test_missing_input_is_a_parse_error(self, run_cli):
        code, out, err = run_cli(["analyze"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ParseError"

    def test_invalid_json_is_a_parse_error(self, run_cli):
        code, _, err = run_cli(["analyze", "--input", "{not json"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ParseError"

    def test_missing_file_is_a_parse_error(self, run_cli):
        code, _, err = run_cli(["analyze", "--input", "/nonexistent/input.json"])
        assert code == 1
        assert "cannot read input file" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "command, body",
        [
            ("density", DENSITY_OK.replace("[3.0, -5.0]", "[3.0, Infinity]")),
            ("density", DENSITY_OK.replace("[3.0, -5.0]", "[3.0, 1e999]")),
            ("peak", json.dumps({"nodes": [[3, 0]]}).replace("0]", "Infinity]")),
            ("orbit", ORBIT_REAL.replace("[1.0, 1.0]", "[NaN, 1.0]")),
            ("analyze", ANALYZE_REAL.replace("-3.0", "-" + "9" * 400)),
            ("interpolate", INTERPOLATE_OK.replace("7.0", "-Infinity")),
        ],
        ids=["density-Infinity", "density-overflow", "peak-Infinity", "orbit-NaN", "analyze-long-integer", "interpolate-minus-Infinity"],
    )
    def test_non_finite_numbers_are_parse_errors(self, run_cli, command, body):
        # an uncaught exception (a traceback on the command line) would
        # escape run_cli and fail the test
        code, out, err = run_cli([command, "--input", body])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("analyze", [1], "a JSON object describing a matrix"),
            ("orbit", {"matrix": [[-2.0]], "vector": [1.0]}, "a JSON object describing a matrix"),
            ("interpolate", [1], "a JSON object describing the problem"),
            ("peak", {"nodes": []}, "a nonempty 'nodes' list"),
            ("peak", [[0.0, 2.0]], "a nonempty 'nodes' list"),
            ("orbit", {"vector": [1.0, 1.0]}, "'matrix' and 'vector'"),
            ("density", {"vector": [1.0, 1.0]}, "'matrix', 'vector' and 'targets'"),
            ("density", dict(json.loads(DENSITY_OK), targets=[]), "'targets' must be a nonempty list"),
            ("density", {k: v for k, v in json.loads(DENSITY_OK).items() if k != "targets"}, "'targets' must be"),
        ],
        ids=[
            "analyze-list", "orbit-matrix-list", "interpolate-list", "peak-no-nodes", "peak-list",
            "orbit-no-matrix", "density-no-matrix", "density-no-targets", "density-targets-missing",
        ],
    )
    def test_request_of_the_wrong_shape_is_a_parse_error(self, run_cli, tmp_path, command, body, message):
        # from a file: inline input must start with '{', so a list needs one
        path = tmp_path / "request.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        code, out, err = run_cli([command, "--input", str(path)])
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError" and message in error["message"]

    @pytest.mark.parametrize(
        "command, body, message",
        [
            (
                "density",
                dict(json.loads(DENSITY_OK), targets=[[-4.0, 2.0], [3.0]]),
                "'targets[1]' must be a list of 2 entries",
            ),
            ("density", dict(json.loads(DENSITY_OK), targets=[[True, 2.0]]), "targets[0]: expected a number, got True"),
            ("density", dict(json.loads(DENSITY_OK), vector=[1.0]), "'vector' must be a list of 2 entries"),
            ("orbit", dict(json.loads(ORBIT_REAL), vector=[1.0, True]), "vector: expected a number, got True"),
        ],
        ids=["target-length", "target-entry", "vector-length", "vector-entry"],
    )
    def test_a_bad_vector_names_itself(self, run_cli, command, body, message):
        code, out, err = run_cli([command, "--input", json.dumps(body)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {"type": "ParseError", "message": message}

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"real_nodes": 5}, "real_nodes"),
            ({"complex_nodes": None}, "complex_nodes"),
            ({"real_nodes": "ab"}, "real_nodes"),
            ({"complex_nodes": {}}, "complex_nodes"),
        ],
        ids=["number", "null", "string", "object"],
    )
    def test_a_node_list_that_is_not_a_list_is_named(self, run_cli, body, key):
        code, out, err = run_cli(["interpolate", "--input", json.dumps(body)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {"type": "ParseError", "message": f"'{key}' must be a list"}

    def test_malformed_matrix_is_a_parse_error(self, run_cli):
        bad = json.dumps({"field": "real", "rows": [[1.0, 2.0]]})
        code, _, err = run_cli(["analyze", "--input", bad])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "command, body",
        [
            ("analyze", {"blocks": [{"type": "jordan", "k": "x", "lambda": -2.0}]}),
            ("analyze", {"blocks": [{"type": "jordan", "k": 2.7, "lambda": -2.0}]}),
            ("analyze", {"blocks": [{"type": "real_jordan", "k": True, "r": 2.0, "theta": 1.0}]}),
            ("peak", {"nodes": [[0.0, 2.0], [-2.0, 0.0]], "avoid_real_values": "no"}),
        ],
        ids=["block-size-string", "block-size-float", "block-size-bool", "avoid-real-values-string"],
    )
    def test_wrongly_typed_values_are_parse_errors(self, run_cli, command, body):
        code, out, err = run_cli([command, "--input", json.dumps(body)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "ParseError"

    # One rule in every subcommand that reads a request: a malformed request
    # (JSON, shape or type) exits 1, a well-typed value that breaks a
    # documented precondition exits 4, and an exhausted cap or an orbit that
    # leaves the float range exits 3.
    EXIT_CODES = [
        ("analyze", {"field": "real", "rows": [[-2.0, "0"], [0.0, -3.0]]}, 1, "ParseError"),
        ("analyze", {"blocks": [{"type": "jordan", "k": 0, "lambda": -2.0}]}, 4, "PreconditionViolated"),
        ("analyze", {"blocks": [{"type": "real_jordan", "k": 1, "r": -2.0, "theta": 1.0}]}, 4, "PreconditionViolated"),
        ("interpolate", {"real_nodes": [{"x": -2.0, "targets": [7.0]}], "max_degree": 4.0}, 1, "ParseError"),
        ("interpolate", {"real_nodes": [{"x": -2.0, "targets": [7.0]}], "max_degree": 0}, 4, "PreconditionViolated"),
        ("interpolate", {"real_nodes": [{"x": -2.0, "targets": [7.0]}], "residual_tol": 0}, 4, "PreconditionViolated"),
        ("interpolate", {"real_nodes": [{"x": -1.5, "targets": [1e6]}], "max_degree": 4}, 3, None),
        ("interpolate", {"real_nodes": [{"x": -1e6, "targets": [0.5] + [0.0] * 59}]}, 3, None),
        ("interpolate", {"real_nodes": [{"x": -1e10, "targets": [0.0, 1e300]}]}, 3, None),
        ("interpolate", {"real_nodes": 5}, 1, "ParseError"),
        ("interpolate", {"complex_nodes": None}, 1, "ParseError"),
        ("interpolate", {"real_nodes": "ab"}, 1, "ParseError"),
        ("interpolate", {"real_nodes": {}}, 1, "ParseError"),
        ("peak", {"nodes": [[0.0, 2.0], [-2.0, 0.0]], "power_cap": 3.0}, 1, "ParseError"),
        ("peak", {"nodes": [[0.0, 2.0], [-2.0, 0.0]], "power_cap": -3}, 4, "PreconditionViolated"),
        ("peak", {"nodes": [[0.0, 2.0], [2.0, 0.0]], "margin_goal": 1e12, "power_cap": 3}, 3, "NoPeakWithinCap"),
        ("peak", {"nodes": [[0.0, 2.0], [-2.0, 0.0]], "alpha": "half"}, 1, "ParseError"),
        # the node leads at every power up to the default cap of 10 000 without the margin
        ("peak", {"nodes": [[-1.0 - 3e-14, 0.0]], "margin_goal": 0.5}, 3, "NoPeakWithinCap"),
        (
            "peak",
            {"nodes": STUBBORN_NODES, "margin_goal": 1e12, "power_cap": 3, "avoid_real_values": True},
            3,
            "AlphaGridExhausted",
        ),
        ("peak", {"nodes": [[0.0, 2.0], [-2.0, 0.0]], "avoid_real_values": True}, 4, "PreconditionViolated"),
        ("orbit", dict(json.loads(ORBIT_REAL), horizon="2"), 1, "ParseError"),
        ("orbit", dict(json.loads(ORBIT_REAL), horizon=-1), 4, "PreconditionViolated"),
        ("orbit", dict(json.loads(ORBIT_REAL), vector=[1.0, 1.0, 1.0]), 1, "ParseError"),
        (
            "orbit",
            {"matrix": {"field": "real", "rows": [[1e200, 0.0], [0.0, 1.0]]}, "vector": [1e200, 1.0], "horizon": 3},
            3,
            "OverflowReached",
        ),
        ("density", dict(json.loads(DENSITY_OK), poly_budget=200.0), 1, "ParseError"),
        ("density", dict(json.loads(DENSITY_OK), poly_budget=0), 4, "PreconditionViolated"),
        ("density", dict(json.loads(DENSITY_OK), targets=[[-4.0, 2.0, 1.0]]), 1, "ParseError"),
    ]

    @pytest.mark.parametrize(
        "command, body, expected, error",
        EXIT_CODES,
        ids=[
            "analyze-malformed", "analyze-block-size", "analyze-block-modulus",
            "interpolate-malformed", "interpolate-max-degree", "interpolate-residual-tol", "interpolate-cap",
            "interpolate-cap-past-float-range", "interpolate-rhs-past-float-range",
            "interpolate-nodes-number", "interpolate-nodes-null", "interpolate-nodes-string",
            "interpolate-nodes-object",
            "peak-malformed", "peak-power-cap", "peak-cap", "peak-alpha-string", "peak-default-cap",
            "peak-avoid-grid-exhausted", "peak-avoid-on-axis",
            "orbit-malformed", "orbit-horizon", "orbit-vector-length", "orbit-overflow",
            "density-malformed", "density-poly-budget", "density-target-length",
        ],
    )
    def test_one_exit_code_rule(self, run_cli, command, body, expected, error):
        code, out, err = run_cli([command, "--input", json.dumps(body)])
        assert code == expected
        if error is None:
            # an InfeasibleAtCap certificate is an answer, printed to stdout
            assert (json.loads(out)["status"], err) == ("InfeasibleAtCap", "")
        else:
            assert out == ""
            assert json.loads(err)["error"]["type"] == error


class TestInputOutputPlumbing:
    def test_file_input_matches_inline(self, run_cli, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(ANALYZE_REAL, encoding="utf-8")
        inline = run_cli(["analyze", "--input", ANALYZE_REAL])
        from_file = run_cli(["analyze", "--input", str(path)])
        assert inline == from_file

    def test_output_file_matches_stdout(self, run_cli, tmp_path):
        path = tmp_path / "verdict.json"
        code, out, _ = run_cli(["analyze", "--input", ANALYZE_REAL])
        code2, out2, _ = run_cli(["analyze", "--output", str(path), "--input", ANALYZE_REAL])
        assert code == code2 == 0
        assert out2 == ""
        assert path.read_text(encoding="utf-8") == out

    def test_selftest_output_file_matches_stdout(self, run_cli, tmp_path, monkeypatch):
        from convex_cyclic import acceptance

        canned = [
            acceptance.CriterionResult(1, "first", True, "", 0.5),
            acceptance.CriterionResult(2, "second", False, "gap 3.0e-01", 0.25),
        ]
        monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: canned)
        path = tmp_path / "selftest.json"
        code, out, _ = run_cli(["selftest"])
        code2, out2, _ = run_cli(["selftest", "--output", str(path)])
        assert code == code2 == 1
        assert out2 == ""
        assert path.read_text(encoding="utf-8") == out
        assert json.loads(out)["criteria"][1]["detail"] == "gap 3.0e-01"

    def test_repeated_runs_are_byte_identical(self, run_cli):
        first = run_cli(["interpolate", "--input", INTERPOLATE_OK])
        second = run_cli(["interpolate", "--input", INTERPOLATE_OK])
        assert first == second

    def test_version_flag(self, run_cli):
        with pytest.raises(SystemExit) as info:
            run_cli(["--version"])
        assert info.value.code == 0

    # every subcommand takes --input and --output, and selftest --seed;
    # every other setting is a key of the request, so a flag for one of
    # them is a usage error
    REMOVED_FLAGS = ("--tol", "--max-degree", "--threshold", "--horizon", "--budget")

    @pytest.mark.parametrize("command", ["analyze", "density", "interpolate", "orbit", "peak", "selftest"])
    def test_flags_a_subcommand_ignores_are_usage_errors(self, capsys, command):
        parser = convex_cyclic.cli._build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {flag for action in subparsers.choices[command]._actions for flag in action.option_strings}
        assert options == {"-h", "--help", "--input", "--output"} | ({"--seed"} if command == "selftest" else set())
        refused = self.REMOVED_FLAGS + (() if command == "selftest" else ("--seed",))
        for flag in refused:
            with pytest.raises(SystemExit) as info:
                convex_cyclic.cli.main([command, flag, "1", "--input", "{}"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


# The examples above, run in a fresh interpreter: the pytest process has
# already imported scipy.optimize, so only a new process can show that no
# call loads it, and only there do the solvers load their compiled scipy
# modules themselves instead of finding them in sys.modules.
COLD_START = """
import contextlib, io, json, sys

seen, stdout = {}, {}
import convex_cyclic
seen["import convex_cyclic"] = "scipy.optimize" in sys.modules
import convex_cyclic.cli
seen["import convex_cyclic.cli"] = "scipy.optimize" in sys.modules
for command, payload in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert convex_cyclic.cli.main([command, "--input", payload]) == 0
    seen[command] = "scipy.optimize" in sys.modules
    stdout[command] = out.getvalue()
print(json.dumps({"scipy.optimize loaded": seen, "stdout": stdout}))
"""


class TestColdStart:
    @pytest.mark.parametrize(
        "solver_call", [("interpolate", INTERPOLATE_OK), ("density", DENSITY_OK)], ids=["interpolate", "density"]
    )
    def test_no_command_loads_scipy_optimize(self, solver_call, run_cli, fresh_python):
        calls = [("analyze", ANALYZE_REAL), ("peak", PEAK_OK), ("orbit", ORBIT_REAL), solver_call]
        proc = fresh_python(COLD_START, json.dumps(calls))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["scipy.optimize loaded"] == {
            "import convex_cyclic": False,
            "import convex_cyclic.cli": False,
            "analyze": False,
            "peak": False,
            "orbit": False,
            solver_call[0]: False,
        }
        # in process, the solvers reuse the modules scipy.optimize loaded
        for command, payload in calls:
            code, out, _ = run_cli([command, "--input", payload])
            assert code == 0
            assert report["stdout"][command] == out


# The log level comes from the environment; logging is configured once per
# process, so each level runs in a fresh interpreter.
LOGGED_CLI = """
import os, sys
os.environ["CONVEX_CYCLIC_LOG"] = sys.argv[1]
from convex_cyclic.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_log_level_from_the_environment(fresh_python):
    argv = ["interpolate", "--input", json.dumps({"real_nodes": [{"x": -1.5, "targets": [1e6]}], "max_degree": 4})]
    debug = fresh_python(LOGGED_CLI, "debug", *argv)
    unset = fresh_python(LOGGED_CLI, "", *argv)
    assert debug.returncode == unset.returncode == 3
    assert debug.stdout == unset.stdout
    assert "convex_cyclic.interpolation DEBUG degree" in debug.stderr
    assert "DEBUG" not in unset.stderr


# Both orders of loading the solvers' compiled modules in one process.  A
# pybind11 module such as HiGHS's refuses to initialise twice, so whichever
# side comes second must find the other's module in sys.modules.
SOLVE_AND_SCAN = """
import numpy as np
from convex_cyclic import empirical_density_scan, solve
from convex_cyclic.interpolation import InterpolationProblem, RealNode

assert solve(InterpolationProblem((RealNode(-2.0, (7.0,)),), ())).status == "Feasible"
report = empirical_density_scan(np.diag([-2.0, -3.0]), [1.0, 1.0], [[-4.0, 2.0], [3.0, -5.0]], poly_budget=200)
assert report.captured == 2
"""
SCIPY_OPTIMIZE_WORKS = """
import numpy as np
import scipy.optimize

lp = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
assert lp.status == 0 and np.allclose(lp.x, [1.0, 0.0])
x, rnorm = scipy.optimize.nnls(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0, 1.0]))
assert np.allclose(x, [1.5, 1.0]) and np.isclose(rnorm, 0.5 ** 0.5)
"""
KERNELS = ("scipy.optimize._highspy._core", "scipy.optimize._slsqplib")


class TestScipyCoexistence:
    def test_package_first(self, fresh_python):
        script = SOLVE_AND_SCAN + f"""
import sys
from convex_cyclic import _solvers
assert "scipy.optimize" not in sys.modules
used = {{name: sys.modules[name] for name in {KERNELS!r}}}
assert _solvers._highs()[0] is used["scipy.optimize._highspy._core"]
""" + SCIPY_OPTIMIZE_WORKS + """
assert all(sys.modules[name] is module for name, module in used.items())
assert scipy.optimize._nnls._nnls is used["scipy.optimize._slsqplib"].nnls
"""
        proc = fresh_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_scipy_first(self, fresh_python):
        script = SCIPY_OPTIMIZE_WORKS + f"""
import importlib.util, sys
before = {{name: sys.modules[name] for name in {KERNELS!r}}}
created = []
module_from_spec = importlib.util.module_from_spec
importlib.util.module_from_spec = lambda spec: created.append(spec.name) or module_from_spec(spec)
""" + SOLVE_AND_SCAN + """
from convex_cyclic import _solvers
assert created == []
assert _solvers._highs()[0] is before["scipy.optimize._highspy._core"]
assert all(sys.modules[name] is module for name, module in before.items())
"""
        proc = fresh_python(script)
        assert proc.returncode == 0, proc.stderr
