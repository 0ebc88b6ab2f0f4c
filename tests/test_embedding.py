"""EDM classification, classical MDS, trilateration."""

import math
import tracemalloc

import numpy as np
import pytest

from distgeo.errors import DependentAnchorsError, NoSolutionError
from distgeo.matrices import (
    Realization,
    Tolerances,
    edm_from_realization,
    validate_distance_matrix,
)
from distgeo.embedding import (
    TrilaterationProblem,
    classical_mds,
    classify_edm,
    trilaterate,
)

SQRT2 = math.sqrt(2)
SQUARE = [[0, 1, SQRT2, 1], [1, 0, 1, SQRT2], [SQRT2, 1, 0, 1], [1, SQRT2, 1, 0]]


class TestClassifyEdm:
    def test_345_triangle(self):
        v = classify_edm(validate_distance_matrix([[0, 3, 4], [3, 0, 5], [4, 5, 0]]))
        assert v.is_edm and v.dim == 2

    def test_triangle_violation(self):
        v = classify_edm(validate_distance_matrix([[0, 1, 1], [1, 0, 3], [1, 3, 0]]))
        assert not v.is_edm
        # centered Gram spectrum is (4.5, 0, -5/6)
        assert v.witness_eigenvalue == pytest.approx(-5 / 6, abs=1e-12)

    def test_all_zero(self):
        v = classify_edm(validate_distance_matrix(np.zeros((3, 3))))
        assert v.is_edm and v.dim == 0

    def test_single_point(self):
        v = classify_edm(validate_distance_matrix([[0.0]]))
        assert v.is_edm and v.dim == 0

    def test_residue_past_the_float_range_is_zero(self):
        # The smallest eigenvalue is rounding residue, about 1e-17 in units
        # of 2^1023, and would otherwise saturate to +-inf.
        v = classify_edm(validate_distance_matrix(1e308 * (np.ones((3, 3)) - np.eye(3))))
        assert (v.is_edm, v.dim, v.witness_eigenvalue) == (True, 2, 0.0)

    def test_recovers_affine_rank(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r + 2, r + 8))
            pts = rng.standard_normal((n, r)) * 2
            v = classify_edm(edm_from_realization(Realization(pts)))
            assert v.is_edm and v.dim == r


class TestClassicalMds:
    def test_exact_square(self):
        result = classical_mds(validate_distance_matrix(SQUARE))
        assert result.inherent_dim == 2
        assert result.realization.k == 2
        assert result.residual <= 1e-8
        # congruence with the input square, coordinates free up to rigid motion
        realized = edm_from_realization(result.realization)
        np.testing.assert_allclose(realized.d, SQUARE, atol=1e-9)

    def test_two_points(self):
        result = classical_mds(validate_distance_matrix([[0, 3], [3, 0]]))
        assert result.inherent_dim == 1
        np.testing.assert_allclose(
            np.sort(result.realization.coords.ravel()), [-1.5, 1.5], atol=1e-12
        )

    def test_full_spectrum_reported(self):
        result = classical_mds(validate_distance_matrix([[0, 1, 1], [1, 0, 3], [1, 3, 0]]))
        assert result.eigenvalues.size == 3
        assert result.eigenvalues[-1] == pytest.approx(-5 / 6, abs=1e-12)

    def test_perturbed_square_with_scaled_threshold(self):
        rng = np.random.default_rng(42)
        noise = rng.uniform(0, 1e-3, (4, 4))
        noise = 0.5 * (noise + noise.T)
        np.fill_diagonal(noise, 0.0)
        noisy = validate_distance_matrix(np.asarray(SQUARE) + noise, Tolerances(dist_tol=1e-2))
        result = classical_mds(noisy, Tolerances(rank_tol=1e-2))
        assert result.inherent_dim == 2
        assert result.residual <= 5e-3

    def test_dim_cap(self):
        result = classical_mds(validate_distance_matrix(SQUARE), dim_cap=1)
        assert result.inherent_dim == 1
        assert result.realization.k == 1

    @pytest.mark.parametrize("k", [1e-146, 1e-150])
    def test_residue_below_the_float_range_is_zero(self, k):
        pts = np.random.default_rng(23).standard_normal((6, 2))
        result = classical_mds(edm_from_realization(Realization(k * pts)))
        # Residue that still fits is kept, and residue that does not is 0.0:
        # nothing within the cut is left below the normal range.
        w = result.eigenvalues
        assert result.inherent_dim == 2 and np.all(w[:2] > 0.0)
        within = w[2:]
        assert np.all(np.abs(within) <= 1e-9 * w[0])
        assert np.all((within == 0.0) | (np.abs(within) >= np.finfo(float).tiny))
        if k == 1e-150:
            # Residue of at most 1e-15 of the spectral radius (about 1e-300)
            # lies below the normal range here, so some of it is flushed.
            assert 0.0 in within

    def test_peak_memory_stays_within_a_few_n_by_n_arrays(self):
        # The spectral path holds O(n^2) floats: no n-by-n-by-k temporary.
        n = 128
        pts = np.random.default_rng(24).standard_normal((n, 6))
        classical_mds(edm_from_realization(Realization(pts)))
        d = edm_from_realization(Realization(pts))
        tracemalloc.start()
        try:
            result = classical_mds(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.inherent_dim == 6
        assert peak < 6 * n * n * 8

    def test_zero_matrix(self):
        result = classical_mds(validate_distance_matrix(np.zeros((3, 3))))
        assert result.inherent_dim == 0
        assert result.realization.k == 0

    def test_exact_edm_reproduces_distances(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(1, 5))
            pts = rng.standard_normal((n, k)) * 3
            d = edm_from_realization(Realization(pts))
            result = classical_mds(d)
            assert result.residual <= 1e-8

    def test_truncation_keeps_leading_eigenvalue_mass(self):
        rng = np.random.default_rng(22)
        m = rng.uniform(0.5, 3, (6, 6))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        d = validate_distance_matrix(m)
        full = classical_mds(d)
        capped = classical_mds(d, dim_cap=1)
        positives = full.eigenvalues[full.eigenvalues > 0].sum()
        retained = capped.eigenvalues[: capped.inherent_dim].sum()
        assert retained <= positives + 1e-12


class TestTrilaterate:
    def test_forward_cube_corner(self):
        anchors = Realization([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        dists = np.array([math.sqrt(3), SQRT2, SQRT2, SQRT2])
        point = trilaterate(TrilaterationProblem(anchors, dists))
        np.testing.assert_allclose(point.coords, [[1.0, 1.0, 1.0]], atol=1e-9)

    def test_midpoint_on_line(self):
        point = trilaterate(
            TrilaterationProblem(Realization([[0.0], [1.0]]), np.array([0.5, 0.5]))
        )
        np.testing.assert_allclose(point.coords, [[0.5]], atol=1e-12)

    def test_inconsistent_distances(self):
        problem = TrilaterationProblem(
            Realization([[0, 0], [1, 0], [0, 1]]), np.array([10.0, 10.0, 10.0])
        )
        with pytest.raises(NoSolutionError) as err:
            trilaterate(problem)
        assert err.value.residual > 0

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-170, 1e160])
    def test_inconsistent_distances_at_any_scale(self, scale):
        problem = TrilaterationProblem(
            Realization(np.array([[0, 0], [1, 0], [0, 1]]) * scale),
            np.array([0.7, 0.7, 0.7]) * scale,
        )
        with pytest.raises(NoSolutionError):
            trilaterate(problem)

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e-170, 1e160])
    def test_consistent_distances_solve_at_any_scale(self, scale):
        anchors = np.array([[0, 0], [1, 0], [0, 1]])
        target = np.array([0.3, 0.4])
        dists = np.linalg.norm(anchors - target, axis=1) * scale
        point = trilaterate(TrilaterationProblem(Realization(anchors * scale), dists))
        np.testing.assert_allclose(point.coords[0], target * scale, rtol=1e-9)

    def test_collinear_anchors_rejected(self):
        problem = TrilaterationProblem(
            Realization([[0, 0], [1, 0], [2, 0]]), np.array([1.0, 1.0, 1.0])
        )
        with pytest.raises(DependentAnchorsError):
            trilaterate(problem)

    def test_too_few_anchors_rejected(self):
        problem = TrilaterationProblem(
            Realization([[0, 0], [1, 0]]), np.array([1.0, 1.0])
        )
        with pytest.raises(DependentAnchorsError):
            trilaterate(problem)

    def test_distance_count_must_match(self):
        with pytest.raises(ValueError):
            TrilaterationProblem(Realization([[0.0], [1.0]]), np.array([1.0]))

    def test_forward_recovery(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(k + 1, k + 5))
            anchors = rng.standard_normal((m, k)) * 2
            target = rng.standard_normal(k) * 2
            dists = np.linalg.norm(anchors - target, axis=1)
            got = trilaterate(TrilaterationProblem(Realization(anchors), dists))
            assert np.abs(got.coords[0] - target).max() <= 1e-9


ANCHORS = Realization(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: TrilaterationProblem(ANCHORS, [1.0, -1.0, 1.0]), ValueError, "finite and nonnegative"),
        (lambda: TrilaterationProblem(ANCHORS, [1.0, math.inf, 1.0]), ValueError, "finite and nonnegative"),
        (lambda: TrilaterationProblem(ANCHORS, [1.0, math.nan, 1.0]), ValueError, "finite and nonnegative"),
        (
            lambda: trilaterate(TrilaterationProblem(Realization(np.zeros((2, 0))), [0.0, 0.0])),
            DependentAnchorsError,
            "zero-dimensional",
        ),
    ],
    ids=["negative-distance", "infinite-distance", "nan-distance", "zero-dimensional-anchors"],
)
def test_malformed_trilateration_input_is_rejected(make, error, message):
    with pytest.raises(error, match=message):
        make()
