"""Tests for eigenstructure analysis and convex-cyclicity classification."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from convex_cyclic import jordan_forms, spectral, suite
from convex_cyclic.errors import (
    DimensionMismatch,
    NonSquare,
    ParseError,
    PreconditionViolated,
)
from convex_cyclic.jordan_forms import (
    DirectSumSpec,
    JordanBlockSpec,
    RealJordanBlockSpec,
    build,
)
from convex_cyclic.spectral import MatrixSpec


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r).real)


class TestMatrixSpec:
    def test_wire_round_trip_real(self):
        spec = MatrixSpec("real", [[-2.0, 1.0], [0.0, -3.0]])
        again = MatrixSpec.from_jsonable(json.loads('{"field": "real", "rows": [[-2.0, 1.0], [0.0, -3.0]]}'))
        assert again.field == "real"
        assert again.entries.dtype == float
        assert np.array_equal(again.entries, spec.entries)

    def test_wire_round_trip_complex(self):
        spec = MatrixSpec("complex", [[2j, 0.0], [1.0, -3.0 + 1.0j]])
        again = MatrixSpec.from_jsonable(
            json.loads('{"field": "complex", "rows": [[[0.0, 2.0], 0.0], [1.0, [-3.0, 1.0]]]}')
        )
        assert again.field == "complex"
        assert np.array_equal(again.entries, spec.entries)

    def test_real_field_rejects_imaginary_entries(self):
        with pytest.raises(PreconditionViolated):
            MatrixSpec("real", [[1j, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            MatrixSpec("real", [[1.0, 2.0]])

    def test_unknown_field_rejected(self):
        with pytest.raises(PreconditionViolated):
            MatrixSpec("rational", [[1.0]])

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            MatrixSpec.from_jsonable({"field": "real"})
        with pytest.raises(ParseError):
            MatrixSpec.from_jsonable({"field": "real", "rows": [[1.0, 2.0]]})
        with pytest.raises(ParseError):
            MatrixSpec.from_jsonable({"field": "other", "rows": [[1.0]]})
        with pytest.raises(ParseError):
            MatrixSpec.from_jsonable({"field": "real", "rows": [["x"]]})

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: MatrixSpec("real", np.zeros((0, 0))), PreconditionViolated, "at least 1x1"),
            (lambda: MatrixSpec.from_jsonable([[1.0]]), ParseError, "must be an object"),
            (lambda: MatrixSpec.from_jsonable({"field": "real", "rows": [1.0]}), ParseError, r"rows\[0\] must be a list"),
            (lambda: MatrixSpec("real", [[1, 2], [3]]), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: MatrixSpec("real", [["1", "2"], ["3", "4"]]), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: MatrixSpec("real", np.eye(2, dtype=bool)), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: spectral.classify([[1, 2], [3]]), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: spectral.classify([["1", "2"], ["3", "4"]]), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: spectral.classify([[True, False], [False, True]]), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: MatrixSpec("real", [[-2.0, True], [0.0, -3.0]]), PreconditionViolated, "^matrix entries must be finite$"),
            (lambda: spectral.classify([[-2.0, True], [0.0, -3.0]]), PreconditionViolated, "^matrix entries must be finite$"),
        ],
        ids=[
            "empty-matrix", "non-object-spec", "non-list-row",
            "ragged", "string", "boolean", "classify-ragged", "classify-string", "classify-boolean",
            "mixed-boolean", "classify-mixed-boolean",
        ],
    )
    def test_input_checks(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_real_field_accepts_complex_storage_with_zero_imaginary_parts(self):
        spec = MatrixSpec("real", np.array([[1.0 + 0j, -2.0], [0.0, 3.0]]))
        assert spec.entries.dtype == float
        assert np.array_equal(spec.entries, [[1.0, -2.0], [0.0, 3.0]])

    def test_entries_are_immutable(self):
        spec = MatrixSpec("real", [[1.0]])
        with pytest.raises(ValueError):
            spec.entries[0, 0] = 2.0


class TestEigenstructure:
    def test_jordan_block_multiplicities(self):
        structure = spectral.eigenstructure(build(JordanBlockSpec(2, 5.0)))
        assert len(structure.eigenvalues) == 1
        info = structure.eigenvalues[0]
        assert info.value == pytest.approx(5.0)
        assert info.algebraic_mult == 2
        assert info.geometric_mult == 1

    def test_repeated_diagonal_multiplicities(self):
        structure = spectral.eigenstructure(np.diag([-2.0, -2.0, -3.0]))
        by_value = {round(info.value.real, 6): info for info in structure.eigenvalues}
        assert by_value[-2.0].algebraic_mult == 2
        assert by_value[-2.0].geometric_mult == 2
        assert by_value[-3.0].algebraic_mult == 1

    def test_conjugate_pairs_marked_for_real_rotation(self):
        structure = spectral.eigenstructure(build(RealJordanBlockSpec(1, 2.0, 1.0)))
        assert structure.field == "real"
        assert len(structure.eigenvalues) == 2
        assert self._conjugate_pairs(structure) == ((0, 1),)

    def test_random_spectra_recovered_under_conjugation(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            values = np.sort(rng.uniform(-6.0, -1.5, n))
            while np.min(np.diff(values)) < 0.2:
                values = np.sort(rng.uniform(-6.0, -1.5, n))
            q = _orthogonal(rng, n)
            matrix = q @ np.diag(values) @ q.T
            structure = spectral.eigenstructure(matrix)
            found = sorted(info.value.real for info in structure.eigenvalues)
            assert np.allclose(found, values, atol=1e-8)
            assert spectral.is_cyclic(structure)

    def test_dimension_property(self):
        structure = spectral.eigenstructure(np.diag([-2.0, -2.0, -3.0]))
        assert structure.dimension == 3

    def test_overflowing_norm_is_refused(self):
        # finite entries whose 2-norm overflows: the derived tolerance would
        # be infinite, merge every eigenvalue and fail every clause
        matrix = np.full((2, 2), 1e308)
        with pytest.raises(PreconditionViolated, match="2-norm"):
            spectral.eigenstructure(matrix)
        with pytest.raises(PreconditionViolated, match="2-norm"):
            spectral.classify(matrix)

    @staticmethod
    def _conjugate_pairs(structure) -> tuple[tuple[int, int], ...]:
        """Index pairs i < j of non-real eigenvalues that are exact conjugates."""
        values = [info.value for info in structure.eigenvalues]
        return tuple(
            (i, j)
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[i].imag != 0.0 and values[i] == values[j].conjugate()
        )

    @classmethod
    def _assert_exactly_paired(cls, structure, name: str = "") -> None:
        """Every non-real eigenvalue of a real matrix has exactly one exact conjugate partner."""
        pairs = cls._conjugate_pairs(structure)
        members = sorted(k for pair in pairs for k in pair)
        nonreal = [k for k, info in enumerate(structure.eigenvalues) if info.value.imag != 0.0]
        assert members == nonreal, name

    def test_conjugate_pairs_on_real_rotation_cases(self):
        expected = {
            "cc_real_rotation": ((0, 1),),
            "cc_real_mixed": ((1, 2),),
            "cc_real_two_rotations": ((0, 1), (2, 3)),
            "fail_real_disk_rotation": ((0, 1),),
            "fail_real_repeated_rotation": ((0, 1),),
            "fail_real_small_rotation": ((0, 1),),
            "fail_real_disk_mixed": ((0, 1),),
        }
        rng = np.random.default_rng(53)
        for entry in suite.golden_suite():
            base = build(entry.spec)
            if base.field != "real":
                continue
            structure = spectral.eigenstructure(base)
            assert self._conjugate_pairs(structure) == expected.get(entry.name, ()), entry.name
            q = _orthogonal(rng, base.dimension)
            conjugated = spectral.eigenstructure(MatrixSpec("real", q @ base.entries @ q.T))
            self._assert_exactly_paired(conjugated, entry.name)
        mixed = DirectSumSpec(
            (RealJordanBlockSpec(1, 2.0, 1.0), JordanBlockSpec(1, -3.0), RealJordanBlockSpec(1, 1.5, 2.5))
        )
        assert self._conjugate_pairs(spectral.eigenstructure(build(mixed))) == ((1, 2), (3, 4))

    def test_real_solver_pairs_split_defective_rotation(self):
        # the real solver returns exact conjugates, so even the split
        # eigenvalues of a 2-fold rotation block pair up
        structure = spectral.eigenstructure(build(RealJordanBlockSpec(2, 2.0, 1.0)))
        assert all(info.value.imag != 0.0 for info in structure.eigenvalues)
        self._assert_exactly_paired(structure)
        assert len(self._conjugate_pairs(structure)) == len(structure.eigenvalues) // 2


def _reference_clusters(values: np.ndarray, radius: float) -> list[list[int]]:
    """Connected components of the graph joining points within ``radius``,
    in order of smallest member, members ascending."""
    n = len(values)
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in range(n):
                if not seen[j] and abs(values[i] - values[j]) <= radius:
                    seen[j] = True
                    stack.append(j)
        groups.append(sorted(members))
    return groups


class TestCluster:
    def test_matches_brute_force_on_grid_points_with_exact_ties(self):
        # integer points at radius 1: neighbours along an axis sit exactly
        # at the radius, diagonal neighbours just beyond it, and repeated
        # points at distance zero
        rng = np.random.default_rng(54)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            values = rng.integers(0, 7, n) + 1j * rng.integers(0, 4, n)
            assert spectral._cluster(values, 1.0) == _reference_clusters(values, 1.0)

    def test_matches_brute_force_on_chains(self):
        # chains of steps just inside or just outside the radius, so that
        # single linkage joins points far apart along a chain
        rng = np.random.default_rng(55)
        radius = 1e-8
        for _ in range(100):
            steps = radius * rng.choice([0.5, 0.999, 1.001, 3.0], size=int(rng.integers(2, 30)))
            direction = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            values = rng.permutation(2.0 + direction * np.cumsum(steps))
            assert spectral._cluster(values, radius) == _reference_clusters(values, radius)

    def test_single_linkage_joins_a_chain(self):
        # 0 and 1.5 are farther apart than either radius but linked through
        # 0.75; 2.5 joins them exactly at the radius 1
        values = np.array([0.0, 0.75, 1.5, 5.0, 2.5]) + 0j
        assert spectral._cluster(values, 0.875) == [[0, 1, 2], [3], [4]]
        assert spectral._cluster(values, 1.0) == [[0, 1, 2, 4], [3]]

    def test_matches_brute_force_on_scattered_points(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            radius = float(rng.uniform(0.01, 0.5))
            assert spectral._cluster(values, radius) == _reference_clusters(values, radius)


class TestRankTests:
    @staticmethod
    def _count_svd(monkeypatch) -> list:
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_distinct_spectrum_needs_no_rank_test(self, monkeypatch):
        rng = np.random.default_rng(57)
        values = -1.5 - np.arange(64) * 0.25
        q = _orthogonal(rng, 64)
        matrix = MatrixSpec("real", q @ np.diag(values) @ q.T)
        calls = self._count_svd(monkeypatch)
        verdict = spectral.classify(matrix)
        assert verdict.is_convex_cyclic
        assert len(verdict.eigenstructure.eigenvalues) == 64
        assert calls == []

    def test_one_rank_test_per_repeated_cluster(self, monkeypatch):
        calls = self._count_svd(monkeypatch)
        structure = spectral.eigenstructure(np.diag([-2.0, -2.0, -3.0, -4.0]))
        assert calls == [(4, 4)]
        assert [info.geometric_mult for info in structure.eigenvalues] == [1, 1, 2]


class TestClassify:
    def test_golden_suite_verdicts(self):
        for entry in suite.golden_suite():
            verdict = spectral.classify(build(entry.spec))
            assert verdict.is_cyclic == entry.expect_cyclic, entry.name
            assert verdict.is_convex_cyclic == entry.expect_convex_cyclic, entry.name
            assert (
                verdict.invariant_convex_sets_are_subspaces == entry.expect_invariant
            ), entry.name
            reasons = {c.reason for c in verdict.failed_conditions}
            assert reasons == set(entry.expect_reasons), entry.name
            assert not verdict.borderline, entry.name

    def test_suite_has_enough_entries(self):
        assert len(suite.failure_entries()) >= 20
        assert len(suite.convex_cyclic_entries()) >= 10

    def test_similarity_invariance(self):
        rng = np.random.default_rng(52)
        for entry in suite.golden_suite():
            base = build(entry.spec)
            reference = spectral.classify(base)
            for _ in range(3):
                if base.field == "real":
                    q = _orthogonal(rng, base.dimension)
                    conjugated = MatrixSpec("real", q @ base.entries @ q.T)
                else:
                    q = _unitary(rng, base.dimension)
                    conjugated = MatrixSpec("complex", q @ base.entries @ q.conj().T)
                verdict = spectral.classify(conjugated)
                assert verdict.is_convex_cyclic == reference.is_convex_cyclic, entry.name
                assert verdict.is_cyclic == reference.is_cyclic, entry.name
                assert {c.reason for c in verdict.failed_conditions} == {
                    c.reason for c in reference.failed_conditions
                }, entry.name

    def test_field_tag_changes_the_verdict(self):
        # negative reals pass over the real field, fail over the complex one
        real_verdict = spectral.classify(MatrixSpec("real", np.diag([-2.0, -3.0])))
        complex_verdict = spectral.classify(MatrixSpec("complex", np.diag([-2.0 + 0.0j, -3.0 + 0.0j])))
        assert real_verdict.is_convex_cyclic
        assert not complex_verdict.is_convex_cyclic
        assert {c.reason for c in complex_verdict.failed_conditions} == {
            spectral.REASON_REAL_EIGENVALUE
        }

    # The borderline tests place eigenvalues against the matrix's own
    # tolerance, 1e-9 * ||T||_2 = 3e-9 for a largest eigenvalue modulus of 3.
    TOL = spectral.default_tolerance(np.diag([-3.0]))

    def test_borderline_near_unit_circle(self):
        inside = spectral.classify(np.diag([-(1.0 + 0.5 * self.TOL), -3.0]))
        outside = spectral.classify(np.diag([-(1.0 + 1.5 * self.TOL), -3.0]))
        assert inside.tolerances_used["tol"] == outside.tolerances_used["tol"] == self.TOL
        assert inside.borderline and outside.borderline
        assert {c.reason for c in inside.failed_conditions} == {spectral.REASON_IN_CLOSED_DISK}
        assert outside.is_convex_cyclic

    def test_borderline_near_the_origin_over_the_reals(self):
        # -1.5 * tol is real and just misses the nonnegative-real clause
        verdict = spectral.classify(MatrixSpec("real", np.diag([-1.5 * self.TOL, -3.0])))
        assert verdict.tolerances_used["tol"] == self.TOL
        assert verdict.borderline
        assert {c.reason for c in verdict.failed_conditions} == {spectral.REASON_IN_CLOSED_DISK}

    def test_borderline_near_a_conjugate_pair(self):
        # the two eigenvalues miss being conjugate by 1.5 * tol, or by 0.5 * tol
        tol = spectral.default_tolerance(np.diag([3.0 + 2.0j]))

        def verdict(gap):
            return spectral.classify(MatrixSpec("complex", np.diag([3.0 + 2.0j, 3.0 - 2.0j + gap * tol])))

        near = verdict(1.5)
        assert near.tolerances_used["tol"] == pytest.approx(tol, rel=1e-6)
        assert near.borderline
        assert near.is_convex_cyclic
        # beyond the band (tol, 2 * tol] nothing is borderline any more
        assert not verdict(2.5).borderline
        assert {c.reason for c in verdict(0.5).failed_conditions} == {spectral.REASON_CONJUGATE_PAIR}

    def test_is_cyclic_takes_a_plain_matrix(self):
        assert spectral.is_cyclic(build(JordanBlockSpec(2, -3.0)))
        assert not spectral.is_cyclic(np.diag([-3.0, -3.0]))
        # eigenvalues within tol merge into one cluster of geometric multiplicity 2
        assert not spectral.is_cyclic(np.diag([-3.0, -3.0 + 0.5 * self.TOL]))
        assert spectral.is_cyclic(np.diag([-3.0, -3.0 + 1.5 * self.TOL]))

    def test_not_cyclic_beats_eigenvalue_reasons_in_order(self):
        verdict = spectral.classify(np.diag([3.0, 3.0]))
        reasons = [c.reason for c in verdict.failed_conditions]
        assert reasons[0] == spectral.REASON_NOT_CYCLIC
        assert spectral.REASON_REPEATED_EIGENVALUE in reasons
        assert spectral.REASON_NONNEGATIVE_REAL in reasons
        assert not verdict.is_cyclic
        assert verdict.invariant_convex_sets_are_subspaces is False

    def test_eigenvalues_farther_apart_than_the_float_range_classify_without_a_warning(self):
        verdict = spectral.classify(np.diag([1e308, -1e308]))
        assert verdict.is_cyclic and not verdict.is_convex_cyclic
        assert [c.reason for c in verdict.failed_conditions] == ["NonNegativeRealEigenvalue"]

    def test_verdict_jsonable_shape(self):
        payload = spectral.classify(np.diag([-2.0, -3.0])).to_jsonable()
        assert payload["is_convex_cyclic"] is True
        assert payload["failed_conditions"] == []
        assert len(payload["eigenvalues"]) == 2
        assert all(len(item["value"]) == 2 for item in payload["eigenvalues"])
        assert payload["tolerances_used"]["disk_threshold"] > 1.0

    def test_real_spectrum_of_real_conjugate_is_not_borderline(self):
        # well inside every clause; the real solver returns exactly real
        # eigenvalues, so no rounding-level imaginary part trips the band
        rng = np.random.default_rng(58)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            values = rng.permutation(np.concatenate([-1.5 - 0.3 * np.arange(n - 2), [1.6, 2.9]]))
            u, v = _orthogonal(rng, n), _orthogonal(rng, n)
            conjugator = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v
            matrix = MatrixSpec("real", conjugator @ np.diag(values) @ np.linalg.inv(conjugator))
            verdict = spectral.classify(matrix)
            assert not verdict.borderline
            assert all(info.value.imag == 0.0 for info in verdict.eigenstructure.eigenvalues)
            assert {c.reason for c in verdict.failed_conditions} == {spectral.REASON_NONNEGATIVE_REAL}

    def test_default_tolerance_scales_with_norm(self):
        small = spectral.default_tolerance(np.diag([-2.0]))
        large = spectral.default_tolerance(np.diag([-2000.0]))
        assert small == pytest.approx(1e-9 * 2.0)
        assert large == pytest.approx(1e-9 * 2000.0)


def _exact_2x2(a: int, b: int, c: int, d: int):
    """The exact real-field verdict of ``[[a, b], [c, d]]`` from its trace
    and determinant, as ``(is_cyclic, invariant_convex_sets_are_subspaces,
    on_unit_circle)``, for a matrix with a double eigenvalue or one on the
    unit circle; None for any other."""
    trace, det = a + d, a * d - b * c
    disc = trace * trace - 4 * det
    if disc == 0:
        roots = [Fraction(trace, 2)] * 2
    elif disc < 0:
        if det != 1:
            return None
        roots = None  # a conjugate pair on the unit circle
    elif 1 - trace + det == 0:  # the eigenvalue 1; the product gives the other
        roots = [Fraction(1), Fraction(det)]
    elif 1 + trace + det == 0:
        roots = [Fraction(-1), Fraction(-det)]
    else:
        return None
    cyclic = not (b == 0 and c == 0 and a == d)  # a 2x2 matrix is cyclic unless scalar
    subspaces = roots is not None and all(r < -1 for r in roots)
    return cyclic, subspaces, roots is None or any(abs(r) == 1 for r in roots)


class TestExactReferee2x2:
    """Every real 2x2 integer matrix with entries in [-6, 6] that has a double
    eigenvalue or one on the unit circle, decided exactly and compared with
    ``classify``.  The two pinned lists are today's known failures: a fix
    must shrink them, and any other change to them fails."""

    # double roots at 2 or 3 whose eigensolver split leaves the real axis,
    # so the nonnegative-real clause passes: reported convex-cyclic, unflagged
    SILENTLY_WRONG = {
        (-1, 3, -3, 5), (0, 3, -3, 6), (1, -4, 1, 5), (1, -2, 2, 5), (1, -1, 4, 5), (1, 1, -4, 5), (1, 2, -2, 5),
        (1, 4, -1, 5), (5, -4, 1, 1), (5, -3, 3, -1), (5, -2, 2, 1), (5, -1, 4, 1), (5, 1, -4, 1), (5, 2, -2, 1),
        (5, 4, -1, 1), (6, -3, 3, 0),
    }
    # double roots at -1 or 1, exactly on the circle, right but not flagged borderline
    UNFLAGGED_ON_CIRCLE = {
        (-6, -5, 5, 4), (-6, 5, -5, 4), (-5, -4, 4, 3), (-4, -5, 5, 6), (-4, 5, -5, 6), (-3, 1, -4, 1),
        (-3, 2, -2, 1), (-3, 4, -4, 5), (-3, 4, -1, 1), (-1, -4, 1, 3), (-1, -2, 2, 3), (-1, -1, 4, 3),
        (1, -4, 1, -3), (1, -2, 2, -3), (1, -1, 4, -3), (3, 1, -4, -1), (3, 2, -2, -1), (3, 4, -4, -5),
        (3, 4, -1, -1), (4, -5, 5, -6), (4, 5, -5, -6), (5, -4, 4, -3), (6, -5, 5, -4), (6, 5, -5, -4),
    }

    def test_classify_against_the_exact_verdict(self):
        decided, wrong, unflagged = 0, set(), set()
        for entries in itertools.product(range(-6, 7), repeat=4):
            exact = _exact_2x2(*entries)
            if exact is None:
                continue
            decided += 1
            cyclic, subspaces, on_circle = exact
            verdict = spectral.classify(MatrixSpec("real", np.array(entries, dtype=float).reshape(2, 2)))
            got = (verdict.is_cyclic, verdict.invariant_convex_sets_are_subspaces, verdict.is_convex_cyclic)
            if got != (cyclic, subspaces, cyclic and subspaces) and not verdict.borderline:
                wrong.add(entries)
            if on_circle and not verdict.borderline:
                unflagged.add(entries)
        assert decided == 2791
        assert wrong == self.SILENTLY_WRONG
        assert unflagged == self.UNFLAGGED_ON_CIRCLE

    def test_the_referee_on_known_matrices(self):
        assert _exact_2x2(1, 1, -4, 5) == (True, False, False)  # one J2(3), the smallest silent failure
        assert _exact_2x2(-2, 1, 0, -2) == (True, True, False)  # J2(-2)
        assert _exact_2x2(-2, 0, 0, -2) == (False, True, False)  # -2 I is not cyclic
        assert _exact_2x2(0, -1, 1, 0) == (True, False, True)  # the rotation by pi/2
        assert _exact_2x2(1, 0, 0, -1) == (True, False, True)  # eigenvalues 1 and -1
        assert _exact_2x2(-2, 0, 0, -3) is None  # distinct, off the circle: not decided here


class TestVectorTest:
    SPEC = DirectSumSpec(
        (
            JordanBlockSpec(1, -2.0),
            JordanBlockSpec(2, -3.0),
            RealJordanBlockSpec(1, 2.0, 1.0),
        )
    )

    def test_all_leading_coordinates_nonzero(self):
        assert jordan_forms.convex_cyclic_vector_test(self.SPEC, [1.0, 1.0, 0.0, 1.0, 0.0])

    def test_zero_diagonal_coordinate_fails(self):
        assert not jordan_forms.convex_cyclic_vector_test(self.SPEC, [0.0, 1.0, 1.0, 1.0, 1.0])

    def test_zero_jordan_lead_fails_even_with_tail(self):
        assert not jordan_forms.convex_cyclic_vector_test(self.SPEC, [1.0, 0.0, 5.0, 1.0, 1.0])

    def test_real_block_needs_one_of_two_lead_coordinates(self):
        assert jordan_forms.convex_cyclic_vector_test(self.SPEC, [1.0, 1.0, 0.0, 0.0, 2.0])
        assert not jordan_forms.convex_cyclic_vector_test(self.SPEC, [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_single_block_promoted(self):
        assert jordan_forms.convex_cyclic_vector_test(JordanBlockSpec(1, -2.0), [3.0])

    def test_non_canonical_rejected(self):
        with pytest.raises(PreconditionViolated):
            jordan_forms.convex_cyclic_vector_test(np.diag([-2.0]), [1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            jordan_forms.convex_cyclic_vector_test(self.SPEC, [1.0, 1.0])

    @pytest.mark.parametrize("entry, bad", [(2.0, np.nan), (2.0, np.inf), (2j, complex(1.0, -np.inf))])
    def test_non_finite_vector_rejected(self, entry, bad):
        # a NaN coordinate is nonzero, so the zero test alone would accept it
        with pytest.raises(PreconditionViolated, match="finite"):
            jordan_forms.convex_cyclic_vector_test(JordanBlockSpec(1, entry), [bad])

    def test_complex_vector_rejected_in_the_real_field(self):
        # build(JordanBlockSpec(1, -2.0)) is a real-field matrix
        with pytest.raises(PreconditionViolated, match="real field requires a real vector"):
            jordan_forms.convex_cyclic_vector_test(JordanBlockSpec(1, -2.0), [1j])
        assert jordan_forms.convex_cyclic_vector_test(JordanBlockSpec(1, 2j), [1j])

    def test_vector_that_is_not_1d_rejected(self):
        # flattening would accept a 1x2 array
        spec = DirectSumSpec((JordanBlockSpec(1, -2.0), JordanBlockSpec(1, -3.0)))
        assert jordan_forms.convex_cyclic_vector_test(spec, [1.0, 1.0])
        with pytest.raises(DimensionMismatch) as info:
            jordan_forms.convex_cyclic_vector_test(spec, [[1.0, 1.0]])
        assert (info.value.expected, info.value.got) == (2, -1)
