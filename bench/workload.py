"""One workload pass in a fresh process; prints one JSON line.

    python3 bench/workload.py --workload classify --seed 0 --seconds 50 --trace 0
    python3 bench/workload.py --workload classify --setup-only

The process first times ``import convex_cyclic.cli`` and one warm-up
operation on a fixed input (together the set-up time), then repeats whole
rounds of the workload's operation list until ``--seconds`` have passed.
Only the calls into the program's public API are timed; every output is
checked after its round, outside the timed calls.  With ``--trace 1`` the
pass also times single layers around the same calls and writes its spans
to ``bench/out/``.  ``bench/run.py`` starts these processes and reports
the metrics; run this file directly only to look at one pass.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# a result is "ok", "failed" (a kept slice the program is known to get
# wrong) or "wrong" (any other checker rejection)
OK, FAILED, WRONG = "ok", "failed", "wrong"


class Spans:
    """Per-layer spans kept in memory: (layer, label, seconds)."""

    def __init__(self):
        self.records: list[tuple[str, str, float]] = []

    def time(self, layer: str, label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.records.append((layer, label, time.perf_counter() - t0))
        return out

    def median_ms(self, layer: str, label: str | None = None) -> float:
        values = [s for name, lab, s in self.records if name == layer and (label is None or lab == label)]
        return 1e3 * statistics.median(values)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for layer, label, seconds in self.records:
                fh.write(json.dumps({"layer": layer, "label": label, "s": seconds}) + "\n")


class Classify:
    """classify(MatrixSpec(field, A)) over the size classes."""

    def __init__(self, seed: int | None):
        import inputs
        from convex_cyclic import MatrixSpec, classify, eigenstructure

        self.MatrixSpec, self.classify, self.eigenstructure = MatrixSpec, classify, eigenstructure
        self.cases = inputs.classify_round(seed) if seed is not None else []
        self.warmup_case = inputs.classify_warmup()
        self.clusters = self.borderline = 0

    def call(self, case):
        return self.classify(self.MatrixSpec(case.field, case.matrix))

    @staticmethod
    def fingerprint(verdict):
        return verdict

    def judge(self, case, verdict) -> str:
        import checks

        if not checks.check_verdict(case, verdict):
            return OK
        return FAILED if case.slice == "defective" else WRONG

    def trace(self, spans: Spans, case, verdict) -> None:
        spans.time("spectral.eigenstructure", case.size_class, self.eigenstructure, self.MatrixSpec(case.field, case.matrix))
        self.clusters += len(verdict.eigenstructure.eigenvalues)
        self.borderline += verdict.borderline

    def layer_metrics(self, spans: Spans, rounds: int) -> dict:
        import inputs

        out = {}
        for name, *_ in inputs.CLASSIFY_CLASSES:
            out[f"spectral.classify_ms.{name}"] = (spans.median_ms("call", name), "ms")
        for name, *_ in inputs.CLASSIFY_CLASSES:
            out[f"spectral.eigenstructure_ms.{name}"] = (spans.median_ms("spectral.eigenstructure", name), "ms")
        out["spectral.clusters"] = (self.clusters / rounds, "count")
        out["spectral.borderline"] = (self.borderline / rounds, "count")
        return out

    @staticmethod
    def label(case) -> str:
        return case.size_class


class _DebugCounter(logging.Handler):
    """Counts the solver's own debug records by message template."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.escalations = self.fallbacks = 0

    def emit(self, record):
        if "escalating" in record.msg:
            self.escalations += 1
        elif "fallback" in record.msg:
            self.fallbacks += 1


class Interpolate:
    """solve(InterpolationProblem(...)) over the narrow, wide and violator slices."""

    def __init__(self, seed: int | None):
        import inputs
        from convex_cyclic import solve, solve_at_degree
        from convex_cyclic.interpolation import ComplexNode, InterpolationProblem, RealNode

        self.solve, self.solve_at_degree = solve, solve_at_degree
        self.Problem, self.RealNode, self.ComplexNode = InterpolationProblem, RealNode, ComplexNode
        self.cases = inputs.interpolate_round(seed) if seed is not None else []
        self.warmup_case = inputs.interpolate_warmup()
        self.problems = {id(c): self.problem(c) for c in self.cases + [self.warmup_case]}
        self.degrees: list[int] = []
        self.feasible = 0
        self.wide_certified = 0
        self.counter: _DebugCounter | None = None

    def problem(self, case):
        return self.Problem(
            tuple(self.RealNode(x, t) for x, t in case.real_nodes),
            tuple(self.ComplexNode(z, t) for z, t in case.complex_nodes),
        )

    def call(self, case):
        return self.solve(self.problems[id(case)])

    @staticmethod
    def fingerprint(cert):
        coeffs = tuple(cert.polynomial.coeffs) if cert.polynomial is not None else None
        return cert.status, cert.reason, cert.degree_used, cert.max_residual, coeffs

    def judge(self, case, cert) -> str:
        import checks

        if case.slice == "violator":
            return WRONG if checks.check_rejection(case, cert) else OK
        if case.slice == "wide" and cert.status == "InfeasibleAtCap":
            return FAILED
        p = self.problems[id(case)]
        return WRONG if checks.check_certificate(case, cert, p.max_degree, p.residual_tol) else OK

    def start_trace(self) -> None:
        self.counter = _DebugCounter()
        log = logging.getLogger("convex_cyclic.interpolation")
        log.addHandler(self.counter)
        log.setLevel(logging.DEBUG)

    def trace(self, spans: Spans, case, cert) -> None:
        if cert.status != "Feasible":
            return
        self.feasible += 1
        self.degrees.append(cert.degree_used)
        if case.slice == "wide":
            self.wide_certified += 1
        if case.slice == "narrow":
            spans.time("interpolation.final_degree", "narrow", self.solve_at_degree, self.problems[id(case)], cert.degree_used)

    def layer_metrics(self, spans: Spans, rounds: int) -> dict:
        out = {f"interpolation.solve_ms.{s}": (spans.median_ms("call", s), "ms") for s in ("narrow", "wide", "violator")}
        out["interpolation.final_degree_ms"] = (spans.median_ms("interpolation.final_degree"), "ms")
        # every LP degree that did not certify logs one escalation record;
        # each certificate adds the degree that did
        out["interpolation.degrees_tried"] = ((self.counter.escalations + self.feasible) / rounds, "count")
        out["interpolation.fallbacks"] = (self.counter.fallbacks / rounds, "count")
        out["interpolation.degree_used"] = (float(statistics.mean(self.degrees)), "degree")
        out["interpolation.certified.wide"] = (self.wide_certified / rounds, "count")
        return out

    @staticmethod
    def label(case) -> str:
        return case.slice


class Density:
    """empirical_density_scan at poly_budget 64 and 400."""

    def __init__(self, seed: int | None):
        import inputs
        from convex_cyclic import HullQuery, empirical_density_scan, hull_contains, orbit

        self.scan, self.hull_contains, self.HullQuery, self.orbit = empirical_density_scan, hull_contains, HullQuery, orbit
        self.cases = inputs.density_round(seed) if seed is not None else []
        self.warmup_case = inputs.density_warmup()
        self.generators: list[int] = []
        self.hull_errors = 0

    def call(self, case):
        return self.scan(case.matrix, case.x, list(case.targets), poly_budget=case.budget)

    @staticmethod
    def fingerprint(report):
        return report

    def judge(self, case, report) -> str:
        import checks

        return WRONG if checks.check_density(case, report) else OK

    def trace(self, spans: Spans, case, report) -> None:
        import numpy as np

        self.generators.append(report.generators_used)
        if case.budget != 400:
            return
        # the orbit prefix a scan would keep: at most `budget` points, cut
        # where a point first exceeds 1e7 times the largest input norm
        scale = max([1.0, float(np.linalg.norm(case.x))] + [float(np.linalg.norm(t)) for t in case.targets])
        with np.errstate(over="ignore", invalid="ignore"):
            points = self.orbit(case.matrix, case.x, case.budget - 1).points
        keep = 1
        while keep < len(points) and np.max(np.abs(points[keep])) <= 1e7 * scale:
            keep += 1
        prefix = tuple(points[:keep])
        t0 = time.perf_counter()
        for target in case.targets:
            try:
                self.hull_contains(self.HullQuery(prefix, target))
            except RuntimeError:  # scipy's NNLS iteration cap, not caught by the program
                self.hull_errors += 1
        spans.records.append(("dynamics.hull", "b400", time.perf_counter() - t0))

    def layer_metrics(self, spans: Spans, rounds: int) -> dict:
        import inputs

        return {
            "dynamics.scan_ms.b64": (spans.median_ms("call", "b64"), "ms"),
            "dynamics.scan_ms.b400": (spans.median_ms("call", "b400"), "ms"),
            "dynamics.scan_ms_per_target.b400": (spans.median_ms("call", "b400") / inputs.TARGETS_PER_SCAN, "ms"),
            "dynamics.generators_used": (float(statistics.mean(self.generators)), "count"),
            "dynamics.hull_ms": (spans.median_ms("dynamics.hull"), "ms"),
            "dynamics.hull_nnls_errors": (self.hull_errors / rounds, "count"),
        }

    @staticmethod
    def label(case) -> str:
        return f"b{case.budget}"


# A workload is one or more parts whose operation lists are interleaved
# into one round; each part drives one layer.
WORKLOADS = {"classify": (Classify,), "solve_scan": (Interpolate, Density)}


def run(args) -> dict:
    t0 = time.perf_counter()
    import convex_cyclic.cli  # noqa: F401  (the import every CLI call pays)

    import_s = time.perf_counter() - t0
    import convex_cyclic

    if Path(convex_cyclic.__file__).resolve().parent != SRC / "convex_cyclic":
        raise SystemExit(f"convex_cyclic imported from {convex_cyclic.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    import inputs

    parts = [part(None if args.setup_only else args.seed) for part in WORKLOADS[args.workload]]
    warm = parts[0]
    t0 = time.perf_counter()
    first = warm.call(warm.warmup_case)
    first_op_s = time.perf_counter() - t0
    if warm.judge(warm.warmup_case, first) != OK:
        raise SystemExit("warm-up output failed its check")
    result = {"import_s": import_s, "first_op_s": first_op_s}
    if args.setup_only:
        return result

    ops = inputs.interleave([[(part, case) for case in part.cases] for part in parts])
    spans = Spans()
    if args.trace:
        for part in parts:
            if hasattr(part, "start_trace"):
                part.start_trace()
    counts = {OK: 0, FAILED: 0, WRONG: 0}
    problems: list[str] = []
    latencies: list[float] = []
    checked: list[tuple] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        outputs = []
        for part, case in ops:
            t0 = time.perf_counter()
            out = part.call(case)
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            if args.trace:
                spans.records.append(("call", part.label(case), elapsed))
                part.trace(spans, case, out)
            outputs.append(out)
        for index, ((part, case), out) in enumerate(zip(ops, outputs)):
            # every round repeats the same operations: an output equal to
            # the one checked in the first round gets that round's verdict
            key = part.fingerprint(out)
            if rounds and key == checked[index][0]:
                verdict = checked[index][1]
            else:
                verdict = part.judge(case, out)
            if not rounds:
                checked.append((key, verdict))
            counts[verdict] += 1
            if verdict == WRONG and len(problems) < 5:
                problems.append(f"round {rounds} operation {index} ({part.label(case)})")
        rounds += 1
        if args.seconds == 0 or time.perf_counter() - start >= args.seconds:
            break
    result.update(
        rounds=rounds,
        round_size=len(ops),
        attempted=sum(counts.values()),
        failed=counts[FAILED],
        wrong=counts[WRONG],
        problems=problems,
        latencies=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        result["layers"] = {}
        for part in parts:
            result["layers"].update(part.layer_metrics(spans, rounds))
        spans.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0, help="0 runs exactly one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.stdout.write(json.dumps(run(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
