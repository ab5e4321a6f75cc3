"""Tests for orbits, growth witnesses, hull membership and density scans."""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import importlib.util
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from convex_cyclic import dynamics, interpolation, suite
from convex_cyclic.dynamics import Bounded, DensityReport, GrowthWitness, HullQuery
from convex_cyclic.errors import (
    DimensionMismatch,
    NonSquare,
    OverflowReached,
    PreconditionViolated,
    PremiseViolated,
    ZeroFunctional,
)
from convex_cyclic.jordan_forms import (
    DiagonalEntrySpec,
    DirectSumSpec,
    JordanBlockSpec,
    build,
)


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
        assert outcome.to_jsonable()["witnessed"] is True

    def test_bounded_reports_best_value(self):
        outcome = dynamics.growth_witness(
            np.diag([-2.0, -3.0]), [1.0, 1.0], [1.0, 0.0], threshold=1e9, max_n=20
        )
        assert isinstance(outcome, Bounded)
        assert outcome.max_observed == 2.0**20
        assert outcome.max_n == 20
        assert outcome.to_jsonable()["witnessed"] is False

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

    def test_zero_functional_rejected(self):
        with pytest.raises(ZeroFunctional):
            dynamics.growth_witness(np.diag([-2.0]), [1.0], [0.0], 10.0, 10)

    def test_overflow_surfaces_before_the_cap(self):
        with pytest.raises(OverflowReached):
            dynamics.growth_witness(np.diag([1e200]), [1.0], [-1.0], 10.0, 10)


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
        result = dynamics.hull_contains(HullQuery(points, target, tolerance=1e-3))
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
        u, _ = dynamics.nnls(A, np.append(target, weight), maxiter=10 * A.shape[1])
        w = u / norms
        if w.sum() > 0:
            w = w / w.sum()
        return s * float(np.linalg.norm(G @ w - target)), w

    def test_shared_basis_is_bit_identical_to_per_call_scaling(self):
        rng = np.random.default_rng(3)
        triangle = self.TRIANGLE + (np.zeros(2),)  # a zero column too
        orbit = tuple(dynamics.orbit(np.diag([-2.0, -3.0]), [1.0, 1.0], 14).points)  # norms 1e5 to 1e7
        cases = [
            (triangle, [rng.uniform(-1.0, 2.0, 2) for _ in range(10)]),
            (orbit, [rng.dirichlet(np.ones(len(orbit))) @ orbit for _ in range(10)]
             + [rng.uniform(-1e7, 1e7, 2) for _ in range(5)]),
            # targets far beyond the generators: the solve scale is 2^512
            # or more, not the generators' own
            (triangle, [np.array([1e154, 3e153]), np.array([-7e153, 0.5]), np.array([0.25, 3e155])]),
            (orbit, [np.array([1e154, -1e154])]),
        ]
        for points, targets in cases:
            for target in targets:
                residual, weights = self._per_call_hull(points, target)
                result = dynamics.hull_contains(HullQuery(points, target))
                assert result.residual == residual
                assert np.array_equal(result.weights, weights)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            dynamics.hull_contains(HullQuery((), np.array([0.0])))
        with pytest.raises(DimensionMismatch):
            dynamics.hull_contains(HullQuery((np.array([0.0, 1.0]),), np.array([0.0])))


class TestNNLSParity:
    """``dynamics.nnls`` calls scipy's compiled kernel with its own copy of
    the ``scipy.optimize.nnls`` wrapper's checks; both must answer alike."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(11)
        tall = rng.random((12, 5))
        wide = rng.standard_normal((5, 12))
        deficient = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 6))  # rank 3
        for A in (tall, wide, deficient):
            # a consistent b with several active columns, and a generic one
            yield A, A @ rng.random(A.shape[1])
            yield A, rng.standard_normal(A.shape[0])

    @pytest.mark.parametrize("maxiter", [None, 40])
    def test_bit_identical_to_scipy(self, maxiter):
        for A, b in self._cases():
            x, rnorm = dynamics.nnls(A, b, maxiter=maxiter)
            expected_x, expected_rnorm = scipy_nnls(A, b, maxiter=maxiter)
            assert x.tobytes() == expected_x.tobytes()
            assert rnorm == expected_rnorm

    def test_same_errors_as_scipy(self):
        A, b = np.ones((4, 3)), np.ones(4)
        bad_inputs = [
            (np.where(np.eye(4, 3) > 0, np.nan, A), b),
            (A, np.array([1.0, np.inf, 1.0, 1.0])),
            (A, np.ones(5)),
            (np.ones(4), b),
        ]
        for bad_A, bad_b in bad_inputs:
            for solve in (dynamics.nnls, scipy_nnls):
                with pytest.raises(ValueError):
                    solve(bad_A, bad_b)

    def test_iteration_cap_raises_like_scipy(self):
        rng = np.random.default_rng(0)
        A = rng.random((12, 5))
        b = A @ rng.random(5)  # this solve needs six iterations
        for solve in (dynamics.nnls, scipy_nnls):
            with pytest.raises(RuntimeError):
                solve(A, b, maxiter=5)
            assert solve(A, b, maxiter=6)[1] < 1e-12


class TestScipyExtension:
    def test_missing_module_is_named(self):
        with pytest.raises(ImportError, match="scipy.optimize._no_such_kernel") as info:
            interpolation._scipy_extension("optimize._no_such_kernel")
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
            interpolation._scipy_extension("optimize._broken_kernel")
        assert "scipy.optimize._broken_kernel" not in sys.modules


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
        # convex combinations of x .. T^12 x have norms 1e3 to 1e5; an NNLS
        # on unscaled generator columns leaves residuals of 1e-6 to 1e-5
        T = np.diag([-2.0, -3.0])
        points = dynamics.orbit(T, [1.0, 1.0], 12).points
        rng = np.random.default_rng(0)
        targets = [rng.dirichlet(np.ones(13)) @ points for _ in range(10)]
        report = dynamics.empirical_density_scan(T, np.ones(2), targets, poly_budget=400)
        assert report.captured == 10

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
        solve = dynamics.nnls

        def recording(A, b, **kwargs):
            widths.append(A.shape[1])
            return solve(A, b, **kwargs)

        monkeypatch.setattr(dynamics, "nnls", recording)
        report = dynamics.empirical_density_scan(
            np.diag([-2.0, -3.0]), np.ones(2), self.GRID, poly_budget=400
        )
        assert len(widths) == len(self.GRID)
        assert max(widths) <= report.generators_used <= 25


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


class TestDirectSumVector:
    FIRST = DirectSumSpec((DiagonalEntrySpec(-3.0), DiagonalEntrySpec(-4.0)))
    SECOND = DirectSumSpec((JordanBlockSpec(2, -2.0),))

    @staticmethod
    def _annihilator():
        cert = interpolation.vanishing_annihilator(
            [(-2.0, 2)], value_nodes=[(-3.0, -2.5), (-4.0, -3.5)]
        )
        assert cert.status == interpolation.STATUS_FEASIBLE
        return cert.polynomial

    def test_single_summand_passes_through(self):
        p = self._annihilator()
        v = dynamics.direct_sum_vector([(self.FIRST, [1.0, 2.0])], p)
        assert np.array_equal(v, [1.0, 2.0])

    def test_two_summands_concatenate(self):
        p = self._annihilator()
        v = dynamics.direct_sum_vector([(self.FIRST, [1.0, 1.0]), (self.SECOND, [1.0, 0.0])], p)
        assert np.array_equal(v, [1.0, 1.0, 1.0, 0.0])

    def test_zero_lead_coordinate_rejected(self):
        p = self._annihilator()
        with pytest.raises(PremiseViolated):
            dynamics.direct_sum_vector([(self.FIRST, [0.0, 1.0])], p)

    def test_second_summand_must_be_annihilated(self):
        # the identity polynomial leaves the second block invertible
        from convex_cyclic.convex_poly import ConvexPolynomial

        identity = ConvexPolynomial([0.0, 1.0])
        with pytest.raises(PremiseViolated):
            dynamics.direct_sum_vector(
                [(self.FIRST, [1.0, 1.0]), (self.SECOND, [1.0, 0.0])], identity
            )

    def test_first_summand_must_stay_convex_cyclic(self):
        # squaring sends the negative spectrum to positive reals
        from convex_cyclic.convex_poly import ConvexPolynomial

        square = ConvexPolynomial([0.0, 0.0, 1.0])
        with pytest.raises(PremiseViolated):
            dynamics.direct_sum_vector(
                [(self.FIRST, [1.0, 1.0]), (self.SECOND, [1.0, 0.0])], square
            )

    def test_summand_count_and_descriptor_checks(self):
        p = self._annihilator()
        with pytest.raises(PreconditionViolated):
            dynamics.direct_sum_vector([], p)
        with pytest.raises(PreconditionViolated):
            dynamics.direct_sum_vector(
                [(self.FIRST, [1.0, 1.0])] * 3, p
            )
        with pytest.raises(PreconditionViolated):
            dynamics.direct_sum_vector([(np.diag([-2.0]), [1.0])], p)
