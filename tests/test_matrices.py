"""Matrix core: validation, centering, eigendecomposition, Gram conversions.

Eigenvalue checks compare against numpy.linalg.eigvalsh on random matrices
and against spectra known by hand.
"""

import numpy as np
import pytest

from distgeo.errors import (
    AsymmetricMatrixError,
    FloatRangeError,
    NegativeEntryError,
    NonSquareError,
    NonzeroDiagonalError,
    NotPSDInputError,
)
from distgeo.matrices import (
    DistanceMatrix,
    GramMatrix,
    Realization,
    Tolerances,
    center_realization,
    double_center,
    edm_from_realization,
    gram_from_realization,
    psd_verdict,
    realization_from_gram,
    schoenberg_gram,
    symmetric_eigendecomposition,
    validate_distance_matrix,
)


def random_edm(rng, n, k):
    pts = rng.standard_normal((n, k)) * 2.0
    return edm_from_realization(Realization(pts)), pts


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_tol == 1e-9
        assert tol.dist_tol == 1e-8

    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Tolerances(rank_tol=bad)


class TestValidateDistanceMatrix:
    def test_minimal_valid(self):
        d = validate_distance_matrix([[0, 1], [1, 0]])
        assert d.n == 2
        assert d.d[0, 1] == 1.0

    def test_asymmetric_names_index(self):
        with pytest.raises(AsymmetricMatrixError) as err:
            validate_distance_matrix([[0, 1], [2, 0]])
        assert err.value.index == (0, 1)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonalError) as err:
            validate_distance_matrix([[1.0]])
        assert err.value.index == 0

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_distance_matrix([[0, -1], [-1, 0]])

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_distance_matrix([[0, 1, 2], [1, 0, 1]])

    def test_tolerant_canonicalization(self):
        raw = [[1e-12, 1.0], [1.0 + 1e-12, 0.0]]
        d = validate_distance_matrix(raw)
        assert d.d[0, 0] == 0.0
        assert d.d[0, 1] == d.d[1, 0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_distance_matrix([[0, np.nan], [np.nan, 0]])

    @pytest.mark.parametrize(
        "raw",
        [
            [[np.inf, 1.0], [1.0, 0.0]],
            [[np.inf, 1.0], [2.0, 0.0]],
            [[0.0, -np.inf], [-np.inf, 0.0]],
            [[0.0, -np.inf], [3.0, 0.0]],
        ],
    )
    def test_rejects_infinite_entries(self, raw):
        with pytest.raises(ValueError, match="non-finite"):
            validate_distance_matrix(raw)

    def test_names_the_worst_offender(self):
        with pytest.raises(AsymmetricMatrixError) as err:
            validate_distance_matrix([[0, 1, 1], [2, 0, 1], [1, 5, 0]])
        assert (err.value.index, err.value.delta) == ((1, 2), 4.0)
        with pytest.raises(NonzeroDiagonalError) as err:
            validate_distance_matrix([[0, 1, 1], [1, 2, 1], [1, 1, -3]])
        assert (err.value.index, err.value.value) == (2, -3.0)
        with pytest.raises(NegativeEntryError) as err:
            validate_distance_matrix([[0, -1, 1], [-1, 0, -2], [1, -2, 0]])
        assert (err.value.index, err.value.value) == ((1, 2), -2.0)

    def test_single_point_is_legal(self):
        assert validate_distance_matrix([[0.0]]).n == 1

    def test_empty_matrix(self):
        with pytest.raises(NonSquareError):
            validate_distance_matrix(np.zeros((0, 0)))

    def test_snaps_near_the_top_of_the_float_range(self):
        # The sums and differences of these entries overflow.
        raw = np.array([[-1e299, 1e308, 1e308], [1e308 * (1 + 1e-12), 0, 1e308], [1e308, 1e308, 0]])
        d = validate_distance_matrix(raw)
        np.testing.assert_allclose(d.d, 1e308 * (np.ones((3, 3)) - np.eye(3)), rtol=1e-12)
        with pytest.raises(AsymmetricMatrixError) as err:
            validate_distance_matrix([[0, 1e308], [-1e308, 0]])
        assert (err.value.index, err.value.delta) == ((0, 1), np.inf)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
    def test_asymmetry_is_judged_at_the_matrix_scale(self, scale):
        with pytest.raises(AsymmetricMatrixError):
            validate_distance_matrix(np.array([[0.0, 1.0], [3.0, 0.0]]) * scale)
        with pytest.raises(AsymmetricMatrixError):
            GramMatrix(np.array([[1.0, 1.0], [3.0, 1.0]]) * scale)


class TestDoubleCenter:
    def test_two_points_by_hand(self):
        # expanding -1/2 J D^2 J for n=2 gives [[d^2/4, -d^2/4], ...]
        d = 3.0
        g = double_center(validate_distance_matrix([[0, d], [d, 0]]))
        expect = np.array([[d**2 / 4, -(d**2) / 4], [-(d**2) / 4, d**2 / 4]])
        np.testing.assert_allclose(g.g, expect, atol=1e-12)

    def test_zero_matrix(self):
        g = double_center(DistanceMatrix(np.zeros((4, 4))))
        np.testing.assert_array_equal(g.g, np.zeros((4, 4)))

    def test_unit_square_eigenvalues(self):
        # centered square corners (+-1/2, +-1/2): coordinate columns have
        # squared norm 1, so the nonzero Gram eigenvalues are {1, 1}
        s2 = np.sqrt(2)
        d = validate_distance_matrix(
            [[0, 1, s2, 1], [1, 0, 1, s2], [s2, 1, 0, 1], [1, s2, 1, 0]]
        )
        w = symmetric_eigendecomposition(double_center(d)).eigenvalues
        np.testing.assert_allclose(w, [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("gram", [double_center, schoenberg_gram])
    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_entries_beyond_float_range_are_an_error(self, gram, k):
        d = DistanceMatrix(k * np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0.0]]))
        with pytest.raises(FloatRangeError, match="Gram entry of about"):
            gram(d)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            m = rng.uniform(0, 5, (n, n))
            m = 0.5 * (m + m.T)
            np.fill_diagonal(m, 0.0)
            g = double_center(validate_distance_matrix(m))
            assert np.abs(g.g.sum(axis=0)).max() <= 1e-10
            assert np.abs(g.g.sum(axis=1)).max() <= 1e-10


class TestSchoenbergGram:
    def test_single_pair(self):
        g = schoenberg_gram(validate_distance_matrix([[0, 2], [2, 0]]))
        np.testing.assert_allclose(g.g, [[4.0]])

    def test_345_anchored_at_right_angle(self):
        # points (0,0), (3,0), (0,4) anchored at the right-angle vertex
        d = validate_distance_matrix([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        np.testing.assert_allclose(schoenberg_gram(d).g, [[9.0, 0.0], [0.0, 16.0]], atol=1e-12)

    def test_triangle_violation_gives_negative_eigenvalue(self):
        d = validate_distance_matrix([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
        g = schoenberg_gram(d)
        np.testing.assert_allclose(g.g, [[1.0, -3.5], [-3.5, 1.0]])
        w = symmetric_eigendecomposition(g).eigenvalues
        np.testing.assert_allclose(w, [4.5, -2.5], atol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            schoenberg_gram(DistanceMatrix(np.zeros((1, 1))))

    def test_psd_equivalence_with_double_centering(self):
        # anchored and centered Gram matrices agree on PSD-ness and rank
        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            if trial % 2 == 0:
                d, _ = random_edm(rng, n, int(rng.integers(1, 4)))
            else:
                m = rng.uniform(0.1, 4, (n, n))
                m = 0.5 * (m + m.T)
                np.fill_diagonal(m, 0.0)
                d = validate_distance_matrix(m)
            va = psd_verdict(schoenberg_gram(d))
            vc = psd_verdict(double_center(d))
            assert va.is_psd == vc.is_psd
            if va.is_psd:
                assert va.rank == vc.rank


class TestEigendecomposition:
    def test_identity(self):
        dec = symmetric_eigendecomposition(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_two_by_two_known_spectrum(self):
        # characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3
        dec = symmetric_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        dec = symmetric_eigendecomposition(np.zeros((2, 2)))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 0.0])

    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            dec = symmetric_eigendecomposition(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            np.testing.assert_allclose(dec.eigenvalues, ref, atol=1e-10)

    def test_reconstruction_orthonormality_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((n, n)) * rng.uniform(0.1, 100)
            a = 0.5 * (a + a.T)
            dec = symmetric_eigendecomposition(a)
            budget = 1e-12 * max(1.0, float(np.abs(a).max()))
            assert np.abs(dec.reconstruct() - a).max() <= budget
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-12
            trace = float(np.trace(a))
            assert abs(dec.eigenvalues.sum() - trace) <= 1e-9 * max(1.0, abs(trace))

    def test_eigenvalues_of_reconstruction_match(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        dec = symmetric_eigendecomposition(a)
        again = np.sort(np.linalg.eigvalsh(dec.reconstruct()))[::-1]
        np.testing.assert_allclose(dec.eigenvalues, again, atol=1e-12)


class TestPsdVerdict:
    def test_identity(self):
        v = psd_verdict(np.eye(4))
        assert v.is_psd and v.rank == 4

    def test_indefinite_reports_min_eigenvalue(self):
        v = psd_verdict(np.array([[1.0, -3.5], [-3.5, 1.0]]))
        assert not v.is_psd
        np.testing.assert_allclose(v.min_eigenvalue, -2.5, atol=1e-12)

    def test_zero_matrix(self):
        v = psd_verdict(np.zeros((3, 3)))
        assert v.is_psd and v.rank == 0


class TestRealizationFromGram:
    def test_two_point_gram(self):
        d = 4.0
        g = GramMatrix(np.array([[d**2 / 4, -(d**2) / 4], [-(d**2) / 4, d**2 / 4]]))
        x = realization_from_gram(g)
        assert x.k == 1
        np.testing.assert_allclose(np.sort(x.coords.ravel()), [-d / 2, d / 2], atol=1e-12)

    def test_zero_gram(self):
        x = realization_from_gram(GramMatrix(np.zeros((3, 3))))
        assert x.k == 0 and x.n == 3

    def test_identity_gram_gives_orthonormal_points(self):
        x = realization_from_gram(GramMatrix(np.eye(2)))
        assert x.k == 2
        np.testing.assert_allclose(x.coords @ x.coords.T, np.eye(2), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDInputError):
            realization_from_gram(GramMatrix(np.array([[1.0, -3.5], [-3.5, 1.0]])))

    def test_round_trips_psd_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(0, 4))
            b = rng.standard_normal((n, max(k, 1))) * (1 if k else 0)
            g = GramMatrix(b @ b.T)
            x = realization_from_gram(g)
            back = gram_from_realization(x)
            assert np.abs(back.g - g.g).max() <= 1e-8 * max(1.0, np.abs(g.g).max())


class TestRealizationConversions:
    def test_gram_examples(self):
        np.testing.assert_allclose(
            gram_from_realization(Realization([[1.0, 0.0], [0.0, 1.0]])).g, np.eye(2)
        )
        np.testing.assert_allclose(
            gram_from_realization(Realization([[3.0, 0.0], [0.0, 4.0]])).g,
            [[9.0, 0.0], [0.0, 16.0]],
        )
        np.testing.assert_allclose(gram_from_realization(Realization([[5.0]])).g, [[25.0]])

    def test_edm_examples(self):
        np.testing.assert_allclose(
            edm_from_realization(Realization([[0.0], [3.0]])).d, [[0, 3], [3, 0]]
        )
        d = edm_from_realization(
            Realization([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        ).d
        np.testing.assert_allclose(d[0, 1], 3.0)
        np.testing.assert_allclose(d[0, 2], 4.0)
        np.testing.assert_allclose(d[1, 2], 5.0)

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_edm_at_extreme_units(self, k):
        d = edm_from_realization(Realization(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]) * k))
        np.testing.assert_allclose(d.d, k * np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]]), rtol=1e-15)

    def test_center_examples(self):
        np.testing.assert_allclose(
            center_realization(Realization([[0.0], [2.0]])).coords, [[-1.0], [1.0]]
        )
        centered = center_realization(Realization([[1.0, 1.0], [3.0, 1.0]]))
        np.testing.assert_allclose(centered.coords, [[-1.0, 0.0], [1.0, 0.0]])

    def test_centering_is_idempotent_and_isometric(self):
        rng = np.random.default_rng(6)
        x = Realization(rng.standard_normal((6, 3)))
        c = center_realization(x)
        np.testing.assert_allclose(c.coords.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            center_realization(c).coords, c.coords, atol=1e-12
        )
        np.testing.assert_allclose(
            edm_from_realization(c).d, edm_from_realization(x).d, atol=1e-10
        )


class TestRoundTrip:
    def test_edm_gram_realization_edm(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            k = int(rng.integers(1, 6))
            d, _ = random_edm(rng, n, k)
            x = realization_from_gram(double_center(d))
            back = edm_from_realization(x)
            iu = np.triu_indices(n, 1)
            rel = np.abs(back.d[iu] - d.d[iu]) / np.maximum(d.d[iu], 1e-300)
            assert rel.max() <= 1e-8
