"""Tests for the compiled solvers: the scipy loader, the per-thread HiGHS LP
and the NNLS call, and that no other module loads or drives them."""

from __future__ import annotations

import ast
import cmath
import importlib.abc
import importlib.machinery
import importlib.util
import itertools
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import convex_cyclic
from convex_cyclic import _solvers, dynamics
from convex_cyclic import interpolation as itp
from convex_cyclic.dynamics import HullQuery
from test_interpolation import ROWS14, _posed_lps

PACKAGE = Path(convex_cyclic.__file__).resolve().parent


def _wide_22_rows() -> itp.InterpolationProblem:
    """5 real and 3 complex nodes with order-2 targets, one modulus band."""
    rng = np.random.default_rng(22)
    return itp.InterpolationProblem(
        tuple(itp.RealNode(x, tuple(rng.uniform(-10, 10, 2))) for x in (-2.1, -2.6, -3.1, -3.6, -4.1)),
        tuple(
            itp.ComplexNode(cmath.rect(m, a), tuple(complex(*rng.uniform(-5, 5, 2)) for _ in range(2)))
            for m, a in ((2.3, 0.9), (3.0, 1.8), (3.7, -2.4))
        ),
    )


def _joined(worker: threading.Thread) -> None:
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()


class TestHighsLp:
    """The direct HiGHS call must answer exactly as ``linprog(method="highs")``
    with the same options did: same status class, bit-identical point."""

    @staticmethod
    def _linprog(c, A, b):
        return linprog(
            c=c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
            options={"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-7},
        )

    def test_matches_linprog(self, monkeypatch):
        sampled = itp.sample_admissible_problem(np.random.default_rng(0))
        wide = _wide_22_rows()
        assert wide.constraint_count() == 22 and itp.check_admissibility(wide).admissible
        lps = (
            _posed_lps(monkeypatch, itp.InterpolationProblem(real_nodes=(itp.RealNode(-2.0, (0.0, 1.0)),)), [4])
            + _posed_lps(monkeypatch, sampled, itp._escalation_degrees(sampled)[:2])
            + _posed_lps(monkeypatch, wide, itp._escalation_degrees(wide))
            + _posed_lps(monkeypatch, ROWS14, [32])
        )
        seen = set()
        for c, A, b in lps:
            expected = self._linprog(c, A, b)
            status, x = _solvers._highs_lp(c, A, b)
            if expected.status == 0:
                assert status == _solvers.LP_OPTIMAL
                assert np.array_equal(x, expected.x)
            elif expected.status == 2:
                assert (status, x) == (_solvers.LP_INFEASIBLE, None)
            else:
                assert status not in (_solvers.LP_OPTIMAL, _solvers.LP_INFEASIBLE) and x is None
            seen.add(expected.status)
        assert {0, 2} <= seen

    def test_first_escalation_degree_proven_infeasible(self, monkeypatch):
        # the sampled narrow problem and the 22-row one both need more than
        # #rows + 2 coefficients
        for problem in (itp.sample_admissible_problem(np.random.default_rng(0)), _wide_22_rows()):
            ((c, A, b),) = _posed_lps(monkeypatch, problem, [problem.constraint_count() + 2])
            assert _solvers._highs_lp(c, A, b) == (_solvers.LP_INFEASIBLE, None)
            assert self._linprog(c, A, b).status == 2

    def test_reused_instance_answers_as_a_fresh_one(self, monkeypatch):
        # every escalation degree of the 22-row problem, in both orders, with
        # a sampled narrow problem's LPs in between, so each LP follows an
        # infeasible and an optimal one of another shape on this thread's
        # instance; the fresh side is a new thread's first LP
        wide = _wide_22_rows()
        narrow = itp.sample_admissible_problem(np.random.default_rng(0))
        wide_lps = _posed_lps(monkeypatch, wide, itp._escalation_degrees(wide))
        narrow_lps = _posed_lps(monkeypatch, narrow, [8, 16, 32])  # infeasible, infeasible, optimal
        lps = [lp for pair in zip(wide_lps + wide_lps[::-1], itertools.cycle(narrow_lps)) for lp in pair]
        statuses = set()
        for c, A, b in lps:
            status, x = _solvers._highs_lp(c, A, b)
            fresh = []
            _joined(threading.Thread(target=lambda: fresh.extend(_solvers._highs_lp(c, A, b))))
            fresh_status, fresh_x = fresh
            assert status == fresh_status
            assert (x is None and fresh_x is None) or x.tobytes() == fresh_x.tobytes()
            statuses.add((len(b), status))
        assert statuses == {(rows, status) for rows in (23, narrow.constraint_count() + 1)
                            for status in (_solvers.LP_OPTIMAL, _solvers.LP_INFEASIBLE)}

    def test_one_instance_per_thread(self, monkeypatch):
        highs, _ = _solvers._highs()
        make, made, posed = highs._Highs, [], []
        solve_lp = itp._highs_lp

        def counting():
            made.append(threading.current_thread())
            return make()

        def recording(c, A, b):
            posed.append(threading.current_thread())
            return solve_lp(c, A, b)

        monkeypatch.setattr(highs, "_Highs", counting)
        monkeypatch.setattr(itp, "_highs_lp", recording)
        wide = _wide_22_rows()
        sampled = itp.sample_admissible_problem(np.random.default_rng(0))
        statuses = []

        def solves():
            # both need more than one LP: the 22-row problem ends InfeasibleAtCap,
            # the sampled one's first escalation degree is infeasible
            statuses.extend(itp.solve(problem).status for problem in (wide, sampled))
            itp.solve_at_degree(wide, 48)

        # new threads, so neither meets an instance built earlier
        workers = [threading.Thread(target=solves) for _ in range(2)]
        for worker in workers:
            _joined(worker)
        assert statuses == [itp.STATUS_INFEASIBLE_AT_CAP, itp.STATUS_FEASIBLE] * 2
        assert made == workers  # one construction on each thread
        assert set(posed) == set(workers) and all(posed.count(worker) >= 5 for worker in workers)

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError):
            _solvers._highs_lp(np.ones(2), np.array([[1.0, np.nan]]), np.ones(1))
        with pytest.raises(ValueError):
            _solvers._highs_lp(np.ones(1), np.ones((1, 2)), np.ones(1))
        with pytest.raises(ValueError):
            _solvers._highs_lp(np.ones(2), np.ones((1, 2)), np.ones(2))


class TestNnls:
    TRIANGLE = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_iteration_cap_raises_runtime_error(self, monkeypatch):
        # an NNLS that stops at its iteration cap (info 3) leaves no answer
        capped = types.SimpleNamespace(nnls=lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0, 3))
        monkeypatch.setattr(_solvers, "_scipy_extension", lambda name: capped)
        with pytest.raises(RuntimeError):
            dynamics.hull_contains(HullQuery(self.TRIANGLE, np.array([0.25, 0.25])))

    def test_a_scan_looks_the_kernel_up_once(self, monkeypatch):
        names = []
        load = _solvers._scipy_extension
        monkeypatch.setattr(_solvers, "_scipy_extension", lambda name: names.append(name) or load(name))
        targets = list(np.random.default_rng(0).uniform(-8.0, 8.0, (20, 2)))
        report = dynamics.empirical_density_scan(np.diag([-2.0, -3.0]), np.ones(2), targets, poly_budget=400)
        assert report.total == 20 and report.captured > 0
        assert names == ["optimize._slsqplib"]


class TestScipyExtension:
    def test_missing_module_is_named(self):
        with pytest.raises(ImportError, match="scipy.optimize._no_such_kernel") as info:
            _solvers._scipy_extension("optimize._no_such_kernel")
        assert info.value.name == "scipy.optimize._no_such_kernel"

    def test_failed_load_is_unregistered(self, monkeypatch):
        class Broken(importlib.abc.Loader):
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                assert sys.modules["scipy.optimize._broken_kernel"] is module  # registered first
                raise ImportError("broken kernel")

        spec = importlib.util.spec_from_loader("scipy.optimize._broken_kernel", Broken())
        find_spec = importlib.machinery.PathFinder.find_spec
        monkeypatch.setattr(
            importlib.machinery.PathFinder,
            "find_spec",
            lambda name, path=None, target=None: spec if name == "_broken_kernel" else find_spec(name, path, target),
        )
        with pytest.raises(ImportError, match="broken kernel"):
            _solvers._scipy_extension("optimize._broken_kernel")
        assert "scipy.optimize._broken_kernel" not in sys.modules

    def test_importing_the_solvers_loads_no_scipy(self, fresh_python):
        proc = fresh_python(
            "import sys, convex_cyclic._solvers; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def test_no_other_module_loads_or_drives_a_kernel():
    """The kernels' names, the loader's ``importlib`` and the per-thread
    instance's ``threading`` belong to ``_solvers`` alone."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "_solvers":
            continue
        text = path.read_text(encoding="utf-8")
        found += [f"{path.stem} names {kernel}" for kernel in ("_slsqplib", "_highspy") if kernel in text]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.stem}:{node.lineno} imports {m}" for m in modules if m.split(".")[0] in ("importlib", "threading")]
    assert found == []
