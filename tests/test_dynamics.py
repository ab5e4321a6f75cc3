"""Tests for orbits, growth witnesses, hull membership and density scans."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from convex_cyclic import _solvers, dynamics, suite
from convex_cyclic.dynamics import Bounded, DensityReport, GrowthWitness, HullQuery
from convex_cyclic.errors import (
    DimensionMismatch,
    NonSquare,
    OverflowReached,
    PreconditionViolated,
    ZeroFunctional,
)
from convex_cyclic.jordan_forms import build


class TestOrbit:
    def test_frozen_diagonal_orbit(self):
        trace = dynamics.orbit(np.diag([-2.0, -3.0]), [1.0, 1.0], 3)
        assert trace.horizon == 3
        expected = np.array([[1.0, 1.0], [-2.0, -3.0], [4.0, 9.0], [-8.0, -27.0]])
        assert np.array_equal(trace.points, expected)

    def test_complex_matrix_keeps_complex_dtype(self):
        trace = dynamics.orbit(np.diag([2j]), [1.0 + 0.0j], 2)
        assert np.iscomplexobj(trace.points)
        assert trace.points[2, 0] == -4.0 + 0.0j

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            dynamics.orbit(np.diag([-2.0]), [1.0], -1)
        with pytest.raises(DimensionMismatch):
            dynamics.orbit(np.diag([-2.0, -3.0]), [1.0], 2)


def _per_step_orbit(T, x, count, norm_cap=None):
    """The orbit builder as a per-step loop: one ``T @ point`` at a time,
    each new point checked against the cap before it is kept."""
    points = [np.array(x, dtype=T.dtype)]
    limit = None if norm_cap is None else min(norm_cap, np.finfo(float).max)
    while len(points) < count:
        nxt = T @ points[-1]
        if limit is not None and not np.max(np.abs(nxt)) <= limit:
            return np.array(points), "norm_cap" if np.all(np.isfinite(nxt)) else "overflow"
        points.append(nxt)
    return np.array(points), "budget"


def _overflowing_at(k):
    """diag(2**e) with 2**(e*(k-1)) finite and 2**(e*k) infinite: row k of
    the orbit of 1 is the first infinite one."""
    e = -(-1024 // k)
    assert e * (k - 1) < 1024 <= e * k
    return np.diag([2.0**e])


class TestOrbitBuilder:
    """The chunked builder against a per-step loop, bit for bit.  Chunks
    cover rows [1, 16), [16, 32), [32, 64), ..., so rows 1, 16 and 32 open a
    chunk and rows 15 and 31 close one."""

    @staticmethod
    def _same(T, x, count, norm_cap=None):
        with np.errstate(over="ignore", invalid="ignore"):
            points, reason = dynamics._orbit_points(T, np.array(x, dtype=T.dtype), count, norm_cap)
            expected, expected_reason = _per_step_orbit(T, x, count, norm_cap)
        assert reason == expected_reason
        assert points.shape == expected.shape and points.dtype == expected.dtype
        assert points.tobytes() == expected.tobytes()
        return len(points), reason

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 15, 16, 31, 32])
    def test_the_cap_stops_at_either_end_of_a_chunk(self, k):
        # row k of the orbit of 1 under 2 is 2**k, the first beyond 2**k - 1
        assert self._same(np.diag([2.0]), [1.0], 400, norm_cap=2.0**k - 1) == (k, "norm_cap")

    @pytest.mark.parametrize("k", [2, 8, 15, 16, 17, 31, 32])
    def test_overflow_stops_at_either_end_of_a_chunk(self, k):
        # an infinite cap still stops the first infinite entry, as overflow
        assert self._same(_overflowing_at(k), [1.0], 400, math.inf) == (k, "overflow")
        if k != 31:  # row 30 is beyond 1e300 there
            assert self._same(_overflowing_at(k), [1.0], 400, 1e300) == (k, "overflow")

    @pytest.mark.parametrize("e, k", [(128, 8), (64, 16)])
    def test_a_nan_entry_stops_as_overflow(self, e, k):
        # (2**e (1 + i))**k: the real part's products overflow with opposite
        # signs, so the first non-finite point has a NaN part
        T = np.diag([2.0**e * (1 + 1j)])
        assert self._same(T, [1 + 0j], 400, math.inf) == (k, "overflow")
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(T @ dynamics.orbit(T, [1 + 0j], k - 1).points[-1]).any()

    @pytest.mark.parametrize("count", [1, 2, 8, 16, 32, 33])
    def test_budgets_at_and_past_chunk_boundaries(self, count):
        # the point after the last one kept would pass the cap: the budget stops first
        assert self._same(np.diag([2.0]), [1.0], count, norm_cap=2.0**count - 1) == (count, "budget")
        assert self._same(np.diag([-0.5, 0.25j]), [1.0, 1.0], count, norm_cap=1.0) == (count, "budget")

    def test_budget_one_keeps_only_the_vector(self):
        report = dynamics.empirical_density_scan(np.diag([-2.0, -3.0]), [1.0, 1.0], [[1.0, 1.0]], poly_budget=1)
        assert (report.generators_used, report.stop_reason, report.captured) == (1, "budget", 1)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("gain", [1.0, 30.0])  # at 30 the long orbits overflow, and orbit keeps every point
    def test_orbit_matches_a_per_step_loop_across_chunks(self, dtype, gain):
        rng = np.random.default_rng(5)
        for n in (1, 3, 7):
            T = gain * rng.standard_normal((n, n)).astype(dtype)
            if dtype is complex:
                T += gain * 1j * rng.standard_normal((n, n))
            x = rng.standard_normal(n).astype(dtype)
            for horizon in (0, 1, 2, 7, 8, 15, 16, 17, 40, 300):
                expected = np.empty((horizon + 1, n), dtype=dtype)
                expected[0] = x
                with np.errstate(over="ignore", invalid="ignore"):
                    for k in range(horizon):
                        expected[k + 1] = T @ expected[k]
                    points = dynamics.orbit(T, x, horizon).points
                assert points.tobytes() == expected.tobytes()

    def test_a_huge_budget_allocates_only_what_the_orbit_reaches(self):
        grid = [[a, b] for a in (-8.0, 0.0, 8.0) for b in (-8.0, 0.0, 8.0)]
        dynamics.empirical_density_scan(np.diag([-2.0, -3.0]), np.ones(2), grid, poly_budget=64)  # loads NNLS
        tracemalloc.start()
        try:
            report = dynamics.empirical_density_scan(np.diag([-2.0, -3.0]), np.ones(2), grid, poly_budget=10**9)
            _, peak = tracemalloc.get_traced_memory()
            np.ones((10**5, 2))
            _, budget_sized = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.stop_reason, report.generators_used) == ("norm_cap", 17)
        # numpy's buffers are traced, and 10**9 rows of two floats take 16 GB
        assert budget_sized >= 1.6e6
        assert peak < 2e5


class TestMatrixCoercion:
    """Orbits, witnesses and scans take matrices through the one coercion
    the spectral layer uses."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_matrix_rejected(self, bad):
        T = np.array([[-2.0, 0.0], [0.0, bad]])
        with pytest.raises(PreconditionViolated):
            dynamics.orbit(T, [1.0, 1.0], 3)
        with pytest.raises(PreconditionViolated):
            dynamics.growth_witness(T, [1.0, 1.0], [1.0, 0.0], 1e6)
        with pytest.raises(PreconditionViolated):
            dynamics.empirical_density_scan(T, [1.0, 1.0], [[0.0, 0.0]])

    @pytest.mark.parametrize(
        "T",
        [[[-2.0, 0.0], [0.0]], [["-2", "0"], ["0", "-3"]], np.eye(2, dtype=bool), [[-2.0, True], [0.0, -3.0]]],
        ids=["ragged", "string", "boolean", "mixed-boolean"],
    )
    def test_non_numeric_matrix_rejected(self, T):
        # once a bare ValueError, a TypeError, or a boolean matrix taken as 0/1
        for call in (
            lambda: dynamics.orbit(T, [1.0, 1.0], 3),
            lambda: dynamics.growth_witness(T, [1.0, 1.0], [1.0, 0.0], 1e6),
            lambda: dynamics.empirical_density_scan(T, [1.0, 1.0], [[0.0, 0.0]]),
        ):
            with pytest.raises(PreconditionViolated, match="^matrix entries must be finite$"):
                call()

    def test_non_square_matrix_rejected(self):
        T = np.ones((2, 3))
        with pytest.raises(NonSquare):
            dynamics.orbit(T, [1.0, 1.0], 3)
        with pytest.raises(NonSquare):
            dynamics.growth_witness(T, [1.0, 1.0], [1.0, 0.0], 1.0)
        with pytest.raises(NonSquare):
            dynamics.empirical_density_scan(T, [1.0, 1.0], [[0.0, 0.0]])

    def test_field_follows_the_array_dtype(self):
        assert dynamics.orbit([[2, 0], [0, 3]], [1, 1], 1).points.dtype == float
        assert dynamics.orbit(np.diag([2.0 + 0j, 3.0]), [1.0, 1.0], 1).points.dtype == complex


class TestGrowthWitness:
    def test_frozen_witness_index(self):
        outcome = dynamics.growth_witness(
            np.diag([-2.0, -3.0]), [1.0, 1.0], [1.0, 0.0], threshold=100.0, max_n=50
        )
        assert isinstance(outcome, GrowthWitness)
        assert outcome.index == 8
        assert outcome.value == 256.0
        assert outcome.threshold == 100.0

    def test_bounded_reports_best_value(self):
        outcome = dynamics.growth_witness(
            np.diag([-2.0, -3.0]), [1.0, 1.0], [1.0, 0.0], threshold=1e9, max_n=20
        )
        assert isinstance(outcome, Bounded)
        assert outcome.max_observed == 2.0**20
        assert outcome.max_n == 20

    def test_complex_pairing_conjugates_the_functional(self):
        # <T^n x, f> with f = i picks out the imaginary part of the orbit
        outcome = dynamics.growth_witness(np.diag([2j]), [1.0 + 0.0j], [1.0j], 1.5, 10)
        assert isinstance(outcome, GrowthWitness)
        assert outcome.index == 1
        assert outcome.value == pytest.approx(2.0)

    def test_disk_spectrum_suite_entries_stay_bounded(self):
        entries = [
            e for e in suite.golden_suite() if e.note == "all eigenvalues inside the open disk"
        ]
        assert len(entries) >= 3
        for entry in entries:
            matrix = build(entry.spec)
            x = np.ones(matrix.dimension, dtype=complex if matrix.field == "complex" else float)
            outcome = dynamics.growth_witness(matrix, x, x, threshold=10.0, max_n=300)
            assert isinstance(outcome, Bounded), entry.name

    def test_preconditions(self):
        # a NaN threshold fails every comparison, so a growing orbit would read as bounded
        for threshold in (math.nan, math.inf, -math.inf):
            with pytest.raises(PreconditionViolated):
                dynamics.growth_witness(np.diag([-2.0]), [1.0], [1.0], threshold, max_n=50)
        with pytest.raises(PreconditionViolated):
            dynamics.growth_witness(np.diag([-2.0]), [1.0], [1.0], 10.0, max_n=-1)

    def test_zero_functional_rejected(self):
        with pytest.raises(ZeroFunctional):
            dynamics.growth_witness(np.diag([-2.0]), [1.0], [0.0], 10.0, 10)

    def test_overflow_surfaces_before_the_cap(self):
        with pytest.raises(OverflowReached):
            dynamics.growth_witness(np.diag([1e200]), [1.0], [-1.0], 10.0, 10)

    # over T = diag(r e^{i theta_k}), x = 1 and f = conj(c), Re<T^n x, f> is
    # the scalar scan r^n Re(sum_k e^{i n theta_k} c_k)
    @pytest.mark.parametrize("seed, terms", [(41, 1), (42, 2)])
    def test_diagonal_scan_matches_closed_form(self, seed, terms):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            thetas = rng.uniform(0.1, math.pi - 0.1, terms)
            coeffs = rng.uniform(-2.0, 2.0, terms) + 1j * rng.uniform(-2.0, 2.0, terms)
            ratio = float(rng.uniform(1.05, 1.8))
            threshold = float(rng.uniform(1.0, 50.0))
            matrix = np.diag(ratio * np.exp(1j * thetas))
            outcome = dynamics.growth_witness(matrix, np.ones(terms, dtype=complex), coeffs.conj(), threshold, 500)
            expected = next(
                (n for n in range(501) if ratio**n * np.sum(np.exp(1j * n * thetas) * coeffs).real > threshold),
                None,
            )
            assert (outcome.index if isinstance(outcome, GrowthWitness) else None) == expected


class TestHullContains:
    TRIANGLE = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_barycentric_grid_is_inside(self):
        steps = np.linspace(0.0, 1.0, 6)
        for a, b in itertools.product(steps, steps):
            if a + b > 1.0:
                continue
            target = a * self.TRIANGLE[1] + b * self.TRIANGLE[2]
            result = dynamics.hull_contains(HullQuery(self.TRIANGLE, target))
            assert result.contained
            assert result.residual <= 1e-9
            assert result.weights.sum() == pytest.approx(1.0)
            assert np.all(result.weights >= 0.0)

    def test_outside_residual_matches_euclidean_distance(self):
        result = dynamics.hull_contains(HullQuery(self.TRIANGLE, np.array([1.0, 1.0])))
        assert not result.contained
        assert result.residual == pytest.approx(math.sqrt(0.5), rel=1e-6)

    def test_verdict_is_scale_invariant(self):
        # the unit-sum row weight tracks the target norm, so a scaled copy
        # of an interior query must not flip the verdict
        points = tuple(1e6 * p for p in self.TRIANGLE)
        target = 1e6 * np.array([0.25, 0.25])
        result = dynamics.hull_contains(HullQuery(points, target))
        assert result.contained

    def test_complex_points_embed_as_plane_points(self):
        result = dynamics.hull_contains(HullQuery((1.0 + 0.0j,), 1.0j))
        assert not result.contained
        assert result.residual == pytest.approx(math.sqrt(2.0), rel=1e-9)
        same = dynamics.hull_contains(HullQuery((1.0 + 0.0j,), 1.0 + 0.0j))
        assert same.contained

    def test_long_orbit_prefix_needs_more_nnls_iterations(self):
        # J2(lam) + diag(4 values) with 18 orbit points: scipy's default
        # NNLS iteration cap (3 per column) raises RuntimeError here
        diag = [
            1.2055532916663225 - 0.3305135560464532j,
            1.2055532916663225 - 0.3305135560464532j,
            -2.801500413031169 - 0.5682580349911064j,
            -0.5715023846994345 - 1.4651265983609822j,
            -1.912988032092721 + 1.4080897307836882j,
            1.2435308286651379 + 1.732538442682374j,
        ]
        T = np.diag(diag)
        T[0, 1] = 1.0
        x = np.array([
            -0.5578361490123633 - 0.8597715372314775j,
            0.502457532156046 + 0.9180026334089519j,
            1.2383275891017547 + 0.4889496709045225j,
            0.43950871331484315 + 0.24250315987433793j,
            -1.3592910352396146 + 0.07169240473839661j,
            -0.1314491589961715 + 1.1810776479937655j,
        ])
        # a convex combination of x, Tx, T^2 x, T^3 x
        target = np.array([
            1.0988353402108983 + 0.9957686060713471j,
            1.4089730660604787 + 0.6995612211215916j,
            -8.754758967658725 - 13.67389747970875j,
            0.6773082236909913 + 0.9859699057019023j,
            -4.407555559312637 - 8.86530439270476j,
            -1.6907619284246134 - 6.113667005319568j,
        ])
        points = tuple(dynamics.orbit(T, x, 17).points)
        result = dynamics.hull_contains(HullQuery(points, target))
        assert result.contained
        assert result.weights.sum() == pytest.approx(1.0)
        assert np.all(result.weights >= 0.0)

    @staticmethod
    def _per_call_hull(points, target):
        """Residual and weights with every normalisation redone per call,
        as before the generator-only half was shared across targets."""
        G, target = np.column_stack(points), np.asarray(target, dtype=float)
        peak = max(np.max(np.abs(G), initial=1.0), np.max(np.abs(target), initial=1.0))
        s = math.ldexp(1.0, math.frexp(peak)[1])
        G, target = G / s, target / s
        norms = np.linalg.norm(G, axis=0)
        norms[norms == 0] = 1.0
        weight = 1e3 * max(1.0 / s, float(np.linalg.norm(target)))
        A = np.vstack([G / norms, weight / norms])
        u, _ = scipy_nnls(A, np.append(target, weight), maxiter=10 * A.shape[1])
        w = u / norms
        if w.sum() > 0:
            w = w / w.sum()
        return s * float(np.linalg.norm(G @ w - target)), w

    @staticmethod
    def _per_target_hull(G, target):
        """The per-target hull kernel as it was before one pass served every
        target of a scan: the generator-only half (peak, column norms, unit
        columns) is shared, the weighted system is rebuilt per target."""
        peak = np.max(np.abs(G), initial=1.0)
        scale = math.ldexp(1.0, math.frexp(peak)[1])
        points = G / scale
        norms = np.linalg.norm(points, axis=0)
        unit = points / np.where(norms > 0, norms, 1.0)
        s = math.ldexp(1.0, math.frexp(max(peak, np.max(np.abs(target), initial=1.0)))[1])
        r = scale / s
        target = target / s
        size = max(1.0 / s, float(np.linalg.norm(target)))
        col = np.where(norms > 0, norms * r, 1.0)
        weight = 1e3 * size
        A = np.vstack([unit, weight / col])
        u, _ = scipy_nnls(A, np.append(target, weight), maxiter=10 * A.shape[1])
        w = u / col
        total = w.sum()
        if total > 0:
            w = w / total
        distance = float(np.linalg.norm((points @ w) * r - target))
        return dynamics.HullResult(contained=distance <= dynamics.HULL_RTOL * size, residual=s * distance, weights=w)

    def test_shared_basis_is_bit_identical_to_per_call_scaling(self):
        rng = np.random.default_rng(3)
        triangle = self.TRIANGLE + (np.zeros(2),)  # a zero column too
        orbit = tuple(dynamics.orbit(np.diag([-2.0, -3.0]), [1.0, 1.0], 14).points)  # norms 1e5 to 1e7
        wide = tuple(dynamics.orbit(np.diag(np.linspace(-3.0, -1.1, 13)), rng.uniform(0.5, 1.5, 13), 30).points)
        cases = [
            (triangle, [rng.uniform(-1.0, 2.0, 2) for _ in range(10)]),
            (orbit, [rng.dirichlet(np.ones(len(orbit))) @ orbit for _ in range(10)]
             + [rng.uniform(-1e7, 1e7, 2) for _ in range(5)]),
            # targets far beyond the generators: the solve scale is 2^512
            # or more, not the generators' own
            (triangle, [np.array([1e154, 3e153]), np.array([-7e153, 0.5]), np.array([0.25, 3e155])]),
            (orbit, [np.array([1e154, -1e154])]),
            # one pass over mixed magnitudes: r = 1 and r != 1 interleaved,
            # tiny and exactly representable targets, a zero column
            (triangle, [np.array([0.25, 0.25]), np.array([1e154, 3e153]), np.array([3e-9, -2e-9]),
                        np.array([-4.0, 8.0]), np.array([0.25, 3e155]), np.zeros(2)]),
            (orbit + (np.zeros(2),), [orbit[3], np.array([2e9, -1e12]), rng.uniform(-1.0, 1.0, 2),
                                      np.array([1e154, -1e154]), 0.5 * (orbit[0] + orbit[7])]),
            # 13 coordinates: a norm summed in another order rounds differently
            (wide, [rng.dirichlet(np.ones(len(wide))) @ wide for _ in range(4)]
             + [rng.uniform(-5.0, 5.0, 13) for _ in range(4)]),
        ]
        for points, targets in cases:
            G = np.column_stack(points)
            verdicts, residuals, weight_rows = dynamics._hull_solve(G, np.array(targets))
            assert len(verdicts) == len(residuals) == len(weight_rows) == len(targets)
            for target, *row in zip(targets, verdicts.tolist(), residuals.tolist(), weight_rows):
                batched = dynamics.HullResult(*row)
                residual, weights = self._per_call_hull(points, target)
                kernel = self._per_target_hull(G, target)
                for result in (dynamics.hull_contains(HullQuery(points, target)), batched):
                    assert result.residual == residual == kernel.residual
                    assert np.array_equal(result.weights, weights)
                    assert result.weights.tobytes() == kernel.weights.tobytes()
                    assert result.contained == kernel.contained
                    # plain Python scalars: the repr of a result is part of the output
                    assert type(result.contained) is bool and type(result.residual) is float
                    assert repr(result) == repr(kernel)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            dynamics.hull_contains(HullQuery((), np.array([0.0])))
        with pytest.raises(DimensionMismatch):
            dynamics.hull_contains(HullQuery((np.array([0.0, 1.0]),), np.array([0.0])))
        with pytest.raises(PreconditionViolated):
            dynamics.hull_contains(HullQuery((np.zeros(2), np.array([np.inf, 1.0])), np.zeros(2)))

    def test_entries_at_the_top_of_the_float_range_are_answered(self):
        # entries of 2^1023 and more: the solve scale stops at 2^1023
        far = dynamics.hull_contains(HullQuery((np.zeros(2), np.ones(2)), np.array([1e308, 0.0])))
        assert not far.contained
        assert far.residual == pytest.approx(1e308, rel=1e-12)
        big = (np.array([1.7e308, 0.0]), np.array([0.0, 1.7e308]))
        mid = dynamics.hull_contains(HullQuery(big, np.array([0.85e308, 0.85e308])))
        assert mid.contained
        assert mid.weights == pytest.approx([0.5, 0.5])
        # a distance beyond the float range is reported as an infinite residual
        beyond = dynamics.hull_contains(HullQuery((np.zeros(2), np.ones(2)), np.array([1.7e308, 1.7e308])))
        assert not beyond.contained and beyond.residual == math.inf

    @pytest.mark.parametrize("far", [1e170, 1e200, 1e300])
    def test_a_target_far_below_the_generators_keeps_its_distance(self, far):
        # in units of the largest entry, the target's and the first point's
        # squares underflow: their lengths must still be measured
        points = (np.array([1.0, 0.0]), np.array([far, 0.0]), np.array([0.0, far]))
        result = dynamics.hull_contains(HullQuery(points, np.array([-1.0, 0.0])))
        assert not result.contained
        assert result.residual == pytest.approx(2.0, rel=1e-12)
        assert result.weights.sum() == pytest.approx(1.0)
        # and a target inside the hull, at the first point, is captured
        inside = dynamics.hull_contains(HullQuery(points, np.array([1.0, 0.0])))
        assert inside.contained and inside.weights[0] == pytest.approx(1.0)

    def test_real_target_joins_complex_points(self):
        # a real target is a point of the complex space, as for density scans
        result = dynamics.hull_contains(HullQuery((1.0 + 0.0j, 3.0 + 0.0j), 2.0))
        assert result.contained
        assert result.weights == pytest.approx([0.5, 0.5])


class TestDensityScan:
    GRID = [np.array([a, b]) for a in (-8.0, 0.0, 8.0) for b in (-8.0, 0.0, 8.0)]

    def test_negative_diagonal_grid_fully_captured(self, validate_schema):
        report = dynamics.empirical_density_scan(
            np.diag([-2.0, -3.0]), np.ones(2), self.GRID, poly_budget=400
        )
        assert report.fraction == 1.0
        assert report.captured == report.total == 9
        assert report.miss_indices == ()
        # the largest input norm is about 11.3, so 3^17 is the first orbit
        # entry beyond the 1e7 * scale cap
        assert (report.stop_reason, report.generators_used) == ("norm_cap", 17)
        validate_schema("density", report.to_jsonable())

    def test_conjugate_pair_obstruction_never_captured(self):
        report = dynamics.empirical_density_scan(
            np.diag([2j, -2j]),
            np.ones(2, dtype=complex),
            [np.array([1.0, 0.0], dtype=complex)],
            poly_budget=64,
        )
        assert report.fraction == 0.0
        assert report.miss_indices == (0,)

    def test_empty_targets_count_as_captured(self):
        report = dynamics.empirical_density_scan(np.diag([-2.0]), [1.0], [])
        assert report == DensityReport(0, 0, 1.0, (), 0)

    def test_report_jsonable_shape(self):
        report = dynamics.empirical_density_scan(
            np.diag([-2.0, -3.0]), np.ones(2), [np.array([1.0, 1.0])], poly_budget=50
        )
        payload = report.to_jsonable()
        assert payload["total"] == 1
        assert 0.0 <= payload["fraction"] <= 1.0
        assert payload["generators_used"] <= 50

    def test_budget_precondition(self):
        with pytest.raises(PreconditionViolated):
            dynamics.empirical_density_scan(np.diag([-2.0]), [1.0], [[1.0]], poly_budget=0)

    def test_large_orbit_combinations_are_captured(self):
        # convex combinations of x .. T^k x have norms up to 3^k (5e5 at k
        # = 12, 2e14 at k = 30); the NNLS residual floor grows with them, so
        # only a verdict relative to the target norm captures them all
        T = np.diag([-2.0, -3.0])
        for k in (12, 18, 24, 30):
            points = dynamics.orbit(T, [1.0, 1.0], k).points
            rng = np.random.default_rng(0)
            targets = [rng.dirichlet(np.ones(k + 1)) @ points for _ in range(10)]
            report = dynamics.empirical_density_scan(T, np.ones(2), targets, poly_budget=400)
            assert report.captured == 10, k

    def test_stop_reason_budget(self, validate_schema):
        report = dynamics.empirical_density_scan(np.diag([-0.5]), [1.0], [[0.25]], poly_budget=10)
        assert (report.stop_reason, report.generators_used) == ("budget", 10)
        validate_schema("density", report.to_jsonable())

    def test_stop_reason_overflow(self, validate_schema):
        # a target norm beyond the float range lifts the cap, so the orbit
        # 1, 1e10, .., 1e300 ends at its first infinite point
        report = dynamics.empirical_density_scan(np.diag([1e10]), [1.0], [[1e300]], poly_budget=400)
        assert (report.stop_reason, report.generators_used) == ("overflow", 31)
        assert report.total == 1
        validate_schema("density", report.to_jsonable())

    def test_target_at_the_top_of_the_float_range_is_answered(self):
        # the prefix stops near 1e308 at 3^646 in the second coordinate, while
        # its first coordinates stay within 2^646, far below the first target's
        report = dynamics.empirical_density_scan(np.diag([-2.0, -3.0]), [1.0, 1.0], [[1e308, 0.0], [-2.0, -3.0]])
        assert report.miss_indices == (0,)
        assert report.captured == 1

    def test_misses_match_per_target_hull_verdicts(self):
        rng = np.random.default_rng(8)
        T = np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 1.5]])
        x = np.ones(3)
        points = dynamics.orbit(T, x, 5).points
        targets = [rng.dirichlet(np.ones(len(points))) @ points for _ in range(6)]
        targets += [rng.uniform(-20.0, 20.0, 3) for _ in range(6)]
        report = dynamics.empirical_density_scan(T, x, targets, poly_budget=64)
        prefix = tuple(dynamics.orbit(T, x, report.generators_used - 1).points)
        verdicts = [dynamics.hull_contains(HullQuery(prefix, t)).contained for t in targets]
        assert report.miss_indices == tuple(i for i, inside in enumerate(verdicts) if not inside)
        assert 0 < len(report.miss_indices) < len(targets)

    def test_nnls_sees_only_the_orbit_prefix(self, monkeypatch):
        widths = []
        kernel = _solvers._scipy_extension("optimize._slsqplib")

        def recording(A, b, maxiter):
            widths.append(A.shape[1])
            return kernel.nnls(A, b, maxiter)

        monkeypatch.setattr(_solvers, "_scipy_extension", lambda name: types.SimpleNamespace(nnls=recording))
        report = dynamics.empirical_density_scan(
            np.diag([-2.0, -3.0]), np.ones(2), self.GRID, poly_budget=400
        )
        assert len(widths) == len(self.GRID)
        assert max(widths) <= report.generators_used <= 25


T2 = np.diag([-2.0, -3.0])
BAD_VECTORS = {
    "nan": [math.nan, 1.0],
    "inf": [1.0, -math.inf],
    "complex on a real matrix": [1.0 + 1.0j, 1.0],
    "short": [1.0],
    "ragged": [[1.0, 2.0], [3.0]],
    "string": ["1", "2"],
    "boolean": [True, False],
    "mixed boolean": [1.0, True],
}


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize(
    "call",
    [
        lambda v: dynamics.orbit(T2, v, 3),
        lambda v: dynamics.growth_witness(T2, v, [1.0, 0.0], 10.0, 10),
        lambda v: dynamics.growth_witness(T2, [1.0, 1.0], v, 10.0, 10),
        lambda v: dynamics.empirical_density_scan(T2, v, [[0.0, 0.0]]),
        lambda v: dynamics.empirical_density_scan(T2, [1.0, 1.0], [[0.0, 0.0], v]),
        lambda v: dynamics.hull_contains(HullQuery((np.zeros(2), np.ones(2)), v)),
    ],
    ids=["orbit", "witness vector", "witness functional", "scan vector", "scan target", "hull target"],
)
def test_bad_vectors_are_rejected_at_the_boundary(call, bad):
    """Non-finite, wrong-field or wrong-length vectors raise the library's
    own errors before any orbit or solve, never a bare ValueError."""
    with pytest.raises(DimensionMismatch if bad == "short" else PreconditionViolated):
        call(BAD_VECTORS[bad])


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ([1.0, 2.0, 3.0], DimensionMismatch, "expected dimension 2, got 3"),
        ([1.0 + 1.0j, 2.0], PreconditionViolated, "real field requires a real vector"),
        ([1.0, math.nan], PreconditionViolated, "vector entries must be finite"),
    ],
    ids=["wrong length", "complex on a real matrix", "non-finite"],
)
@pytest.mark.parametrize("position", [1, 2, 4])
def test_one_bad_target_raises_what_it_raises_alone(bad, error, message, position):
    """The target list is checked in one pass, yet one bad target raises the
    error and message it raises alone, wherever it stands."""
    good = [[-4.0, 2.0], [3.0, -5.0], [0.5, 0.5], [1.0, 1.0], [-2.0, -3.0]]
    targets = good[:position] + [bad] + good[position:]
    for listed in (targets, [np.asarray(t) for t in targets]):
        with pytest.raises(error) as raised:
            dynamics.empirical_density_scan(T2, [1.0, 1.0], listed)
        assert type(raised.value) is error and str(raised.value) == message
    with pytest.raises(error, match=message):
        dynamics.empirical_density_scan(T2, [1.0, 1.0], [bad])


def test_a_wrong_length_outranks_an_earlier_bad_entry():
    """Lengths are checked before entries, so among several bad vectors a
    wrong length is reported even when a non-finite or complex one comes first."""
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
        dynamics.growth_witness(T2, [math.nan, 1.0], [1.0, 2.0, 3.0], threshold=10.0)
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
        dynamics.empirical_density_scan(T2, [1.0, 1.0], [[1.0j, 2.0], [math.inf, 0.0], [1.0]])


class TestOrbitHullCapture:
    """Inside targets are convex combinations of orbit points in the
    prefix; outside targets sit at a proven distance >= 0.5 from the hull.

    Real field: a leading diagonal entry lam = 1.5 with x-coordinate 1 has
    image coordinate p(lam) >= 1 for every convex p, so a target with that
    coordinate 1 - d lies at distance >= d.  Complex field: leading entries
    z, conj(z) with x-coordinates 1 have image coordinates w, conj(w), so a
    target (a, b) lies at distance >= |b - conj(a)| / sqrt(2).
    """

    BLOCKS = {
        "negative diagonal": np.diag([-2.0, -3.0]),
        "rotation-scaling": 2.0 * np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]]),
        "J2": np.array([[-2.0, 1.0], [0.0, -2.0]]),
    }
    Z = 1.5 * np.exp(2.0j)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_inside_captured_outside_missed(self, field, name):
        rng = np.random.default_rng(5)
        tail = rng.uniform(0.5, 1.5, 2)
        if field == "real":
            head = np.diag([1.5])
            x = np.concatenate([[1.0], tail])
        else:
            head = np.diag([self.Z, np.conj(self.Z)])
            x = np.concatenate([[1.0, 1.0], tail * np.exp(2j * np.pi * rng.uniform(size=2))])
        h = len(head)
        T = np.zeros((h + 2, h + 2), dtype=x.dtype)
        T[:h, :h] = head
        T[h:, h:] = self.BLOCKS[name]
        points = dynamics.orbit(T, x, 5).points
        targets, outside = [], []
        for i in range(12):
            t = rng.dirichlet(np.ones(len(points))) @ points
            if i % 2:
                d = float(rng.uniform(1.0, 4.0))
                if field == "real":
                    t[0] = 1.0 - d
                else:
                    t[1] = np.conj(t[0]) + d * np.exp(2j * np.pi * rng.uniform())
                outside.append(i)
            targets.append(t)
        report = dynamics.empirical_density_scan(T, x, targets, poly_budget=64)
        assert report.generators_used >= len(points)
        assert report.miss_indices == tuple(outside)
