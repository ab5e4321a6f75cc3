"""scipy's compiled solvers, each loaded alone at its first call and never
through ``scipy.optimize``: HiGHS for the interpolation LPs, one instance per
thread with the options and status reading of ``linprog(method="highs",
options={"presolve": False})``, bit for bit, and NNLS for the hull tests."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from typing import Any

import numpy as np

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"


def _scipy_extension(name: str) -> Any:
    """The compiled module ``scipy.<name>``, loaded without running the package
    ``__init__`` above it (``scipy.optimize``'s takes 0.28 s) and registered in
    ``sys.modules``, so a later ``import scipy.optimize`` reuses it."""
    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    root = importlib.util.find_spec("scipy")
    *package, leaf = name.split(".")
    directory = root and os.path.join(root.submodule_search_locations[0], *package)
    spec = directory and importlib.machinery.PathFinder.find_spec(leaf, [directory])
    if spec is None:
        raise ImportError(f"No module named {full!r}", name=full)
    sys.modules[full] = module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


@functools.cache
def _highs() -> tuple[Any, Any]:
    """The HiGHS bindings and linprog's options for this LP but presolve, which
    removes nothing from these small dense LPs and cost a quarter of each LP."""
    highs = _scipy_extension("optimize._highspy._core")
    options = highs.HighsOptions()
    options.presolve = "off"
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-7
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return highs, options


_THREAD = threading.local()


def _highs_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple[str, np.ndarray | None]:
    """Minimize ``c @ x`` subject to ``A x = b``, ``x >= 0``, on this thread's HiGHS.

    ``passModel`` clears the instance's previous model and solver state, so a
    reused instance answers as a fresh one.  Returns ``(LP_OPTIMAL, x)``,
    ``(LP_INFEASIBLE, None)``, or HiGHS's text for any other status with
    ``None``.  linprog's own check of an optimal point (bounds and rows within
    3e-4) is left out: every candidate faces the interpolation's residual
    gate, far tighter.
    """
    m, n = A.shape
    # HiGHS reads n costs and m right-hand sides through raw pointers
    c, b = np.ascontiguousarray(c, dtype=float), np.ascontiguousarray(b, dtype=float)
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("LP costs and right-hand sides must match the constraint matrix")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("LP input must not contain inf or nan")
    nonzero = A.T != 0  # CSC, column by column, explicit zeros dropped
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=start[1:])
    index = np.nonzero(nonzero)[1].astype(np.int32)
    value = A.T[nonzero]
    highs, options = _highs()
    solver = getattr(_THREAD, "highs", None)
    if solver is None:
        solver = _THREAD.highs = highs._Highs()
        solver.passOptions(options)
    solver.passModel(
        n, m, len(value), int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
        c, np.zeros(n), np.full(n, highs.kHighsInf), b, b, start, index, value,
        np.zeros(n, dtype=np.int32),  # every column continuous
    )
    solver.run()
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kOptimal:
        return LP_OPTIMAL, np.array(solver.getSolution().col_value)
    if status == highs.HighsModelStatus.kInfeasible:
        return LP_INFEASIBLE, None
    return solver.modelStatusToString(status), None


def _nnls(A: np.ndarray, last_rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Nonnegative least squares for each row of ``rhs``, on A with its last row
    overwritten by the matching row of ``last_rows``; the kernel is looked up
    once per call, and a solve stopped at its iteration cap raises RuntimeError."""
    # scipy's default cap of 3 iterations per column is too small for long,
    # nearly collinear orbit prefixes and raises instead of answering
    nnls, cap = _scipy_extension("optimize._slsqplib").nnls, 10 * A.shape[1]
    w = np.empty((len(rhs), A.shape[1]))
    for i, (row, b) in enumerate(zip(last_rows, rhs)):
        A[-1] = row
        w[i], _, info = nnls(A, b, cap)
        if info == 3:
            raise RuntimeError("NNLS reached its iteration cap")
    return w
