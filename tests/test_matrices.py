"""Matrix core: validation, centering, eigendecomposition, Gram conversions.

Eigenvalue checks compare against numpy.linalg.eigvalsh on random matrices
and against spectra known by hand.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distgeo.embedding import _max_relative_distance_error, classify_edm
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
    SpectralDecomposition,
    Tolerances,
    center_realization,
    double_center,
    edm_from_realization,
    gram_from_realization,
    psd_verdict,
    realization_from_gram,
    schoenberg_gram,
    symmetric_eigendecomposition,
    _center,
    _circumcentre_map,
    _classify_stack,
    _helmert,
    _in_units,
    _pairwise_distances,
    _project,
    _solid_tetrahedra,
    _tetrahedron_map,
    _unit_squares,
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

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 1e300, np.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Tolerances(rank_tol=bad)

    @pytest.mark.parametrize("small", [1e-300, 1e-17, 9.99e-13])
    def test_rank_tol_below_the_rounding_level_is_rejected(self, small):
        with pytest.raises(ValueError, match="rank_tol must be at least 1e-12"):
            Tolerances(rank_tol=small)

    def test_rank_tol_floor_is_admitted(self):
        assert Tolerances(rank_tol=1e-12, dist_tol=1e-17).rank_tol == 1e-12


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["skew", "negative", "diagonal", "-0 diagonal", "-0 pair", "far"]), max_size=3),
    )
    def test_repairs_match_the_unconditional_repair_bit_for_bit(self, n, seed, defects):
        rng = np.random.default_rng(seed)
        arr = np.array(edm_from_realization(Realization(rng.standard_normal((n, 2)))).d)
        for defect in defects:
            i, j = rng.integers(0, n, 2)
            small = float(rng.choice([1e-12, 1e-6])) * max(float(arr.max()), 1.0)
            if defect == "skew":
                arr[i, j] += small
            elif defect == "negative":
                arr[i, j] = arr[j, i] = -small
            elif defect == "diagonal":
                arr[i, i] = small
            elif defect == "-0 diagonal":
                arr[i, i] = -0.0
            elif defect == "-0 pair":
                arr[i, j] = arr[j, i] = -0.0
            else:
                arr[i, j] += 1.0

        def outcome(validate):
            try:
                return ("ok", np.asarray(validate(arr.copy())).view(np.int64).tolist())
            except ValueError as err:
                return (type(err), str(err))

        def unconditional(a, tol=Tolerances()):
            half = 0.5 * a
            atol = tol.dist_tol * np.abs(a).max()
            skew = (a != a.T) & (np.abs(half - half.T) <= 0.5 * atol)
            a[skew] = half[skew] + half.T[skew]
            a[((a < 0.0) | np.eye(a.shape[0], dtype=bool)) & (np.abs(a) <= atol)] = 0.0
            return DistanceMatrix(a).d

        assert outcome(lambda a: validate_distance_matrix(a).d) == outcome(unconditional)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
    def test_asymmetry_is_judged_at_the_matrix_scale(self, scale):
        with pytest.raises(AsymmetricMatrixError):
            validate_distance_matrix(np.array([[0.0, 1.0], [3.0, 0.0]]) * scale)
        with pytest.raises(AsymmetricMatrixError):
            GramMatrix(np.array([[1.0, 1.0], [3.0, 1.0]]) * scale)


class TestDistanceMatrixConstructor:
    def test_stores_no_negative_zero(self):
        raw = np.array([[-0.0, -0.0, 1.0], [-0.0, -0.0, 2.0], [1.0, 2.0, -0.0]])
        d = DistanceMatrix(raw).d
        assert not np.signbit(d).any()
        assert np.signbit(raw).sum() == 5
        assert not d.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_message(self, bad):
        with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
            DistanceMatrix(np.array([[0.0, bad], [bad, 0.0]]))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-150, 1e150]))
    def test_validation_of_clean_input_is_the_input_bit_for_bit(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        raw = scale * _pairwise_distances(rng.standard_normal((n, 3)))
        d = validate_distance_matrix(raw).d
        assert d.view(np.int64).tolist() == raw.view(np.int64).tolist()
        assert not np.shares_memory(d, raw) and not d.flags.writeable


def _in_units_by_loop(value, unit, power, quantity, residue=False):
    """The earlier ``_in_units``: one product (a quotient for a negative
    power) by ``unit`` per power, kept as the reference for the shift."""
    out = value
    with np.errstate(over="ignore"):
        for _ in range(abs(power)):
            out = out * unit if power > 0 else out / unit
    lost = np.isinf(out) | ((np.abs(out) < np.finfo(float).tiny) & (value != 0.0))
    zeroed = lost & residue
    if np.any(zeroed):
        out, lost = np.where(zeroed, 0.0, out), lost ^ zeroed
    if np.any(lost):
        worst = float(np.abs(np.asarray(value)[lost]).max())
        raise FloatRangeError(quantity, math.log10(worst) + power * math.log10(unit))
    return out


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]
UNIT_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES + [-v for v in EDGE_VALUES]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestInUnits:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.integers(-1074, 1023), st.sampled_from([-1, 2, 4]), st.data())
    def test_shift_matches_the_loop_bit_for_bit(self, exponent, power, data):
        unit = math.ldexp(1.0, exponent)
        if data.draw(st.booleans(), label="scalar"):
            value = data.draw(UNIT_VALUES, label="value")
            residue = data.draw(st.booleans(), label="residue")
        else:
            value = np.array(data.draw(st.lists(UNIT_VALUES, min_size=1, max_size=6), label="values"))
            residue = np.array(data.draw(st.lists(st.booleans(), min_size=value.size, max_size=value.size)))

        def outcome(scale):
            try:
                out = scale(value, unit, power, "value", residue)
            except FloatRangeError as err:
                return (str(err), err.log10_magnitude)
            return np.asarray(out, dtype=float).view(np.int64).tolist()

        assert outcome(_in_units) == outcome(_in_units_by_loop)

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), np.array(3.0)])
    def test_scalar_comes_back_as_a_python_float(self, value):
        assert type(_in_units(value, 0.5, 2, "value")) is float
        assert type(_in_units(value, 2.0**-600, 2, "value", residue=True)) is float


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

    def test_entries_near_the_top_of_the_float_range_stay_finite(self):
        # The true entries are +-1.5625e308; a sum of two of them overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = double_center(validate_distance_matrix([[0, 2.5e154], [2.5e154, 0]]))
        np.testing.assert_array_equal(g.g, 1.5625e308 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(FloatRangeError, match=r"eigenvalue of about 10\^308.5 "):
            psd_verdict(g)

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


class TestGramMatrix:
    def test_names_the_worst_pair(self):
        with pytest.raises(AsymmetricMatrixError) as err:
            GramMatrix([[1, 1], [3, 1]])
        assert (err.value.index, err.value.delta) == ((0, 1), 2.0)

    def test_symmetric_input_is_stored_unchanged(self):
        raw = np.array([[1.7e308, -1.7e308, 5e-324], [-1.7e308, -0.0, 1.0], [5e-324, 1.0, 3.0]])
        g = GramMatrix(raw).g
        assert g.view(np.int64).tolist() == raw.view(np.int64).tolist()

    def test_slight_skew_is_symmetrized_on_halves(self):
        raw = np.array([[1.7e308, 1.7e308 * (1 + 1e-12)], [1.7e308, 1.0]])
        g = GramMatrix(raw).g
        assert g[0, 1] == g[1, 0] == 0.5 * raw[0, 1] + 0.5 * raw[1, 0]


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


def stack_case(kind, k, seed):
    """Eight k-point distance matrices of one kind, each in a unit 10^u, u in
    [-6, 6]: "edm" spans rank 1 to k-1, "planted" stretches one pair of such
    an EDM by 0.1 % to 100 %, "lift" lifts one point of a planar set 1e-6 to
    1 off its plane."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(8):
        dims = 2 if kind == "lift" else int(rng.integers(1, max(k, 2)))
        pts = np.zeros((k, dims + 1))
        pts[:, :dims] = rng.standard_normal((k, dims))
        if kind == "lift":
            pts[int(rng.integers(k)), dims] = 10 ** rng.uniform(-6, 0)
        d = np.array(edm_from_realization(Realization(pts)).d)
        if kind == "planted" and k > 1:
            i, j = rng.choice(k, 2, replace=False)
            d[i, j] = d[j, i] = d[i, j] * (1 + 10 ** rng.uniform(-3, 0))
        out.append(DistanceMatrix(d * 10 ** rng.uniform(-6, 6)))
    return out


def clear_of_cut(D, tol):
    """No eigenvalue of the centered Gram lies within [0.1, 10] times the
    rank cut, where rounding could put one on either side of it."""
    w = symmetric_eigendecomposition(double_center(D)).eigenvalues
    rho = max(w[0], -w[-1])
    return not np.any((np.abs(w) > 0.1 * tol.rank_tol * rho) & (np.abs(w) < 10 * tol.rank_tol * rho))


class TestClassifyStack:
    @pytest.mark.parametrize("k", [*range(2, 10), 300])
    def test_basis_is_orthonormal_and_orthogonal_to_ones(self, k):
        left, right = _helmert(k)
        assert right.shape == (k, k - 1)
        np.testing.assert_allclose(right.T @ right, np.eye(k - 1), atol=1e-14)
        np.testing.assert_allclose(np.ones(k) @ right, 0.0, atol=1e-13)
        np.testing.assert_array_equal(left, -0.5 * right.T)
        assert not left.flags.writeable and not right.flags.writeable

    def test_single_point_is_an_edm_of_rank_0(self):
        rank, is_edm = _classify_stack(np.zeros((3, 1, 1)), Tolerances())
        assert rank.tolist() == [0, 0, 0]
        assert is_edm.tolist() == [True, True, True]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from(["edm", "planted", "lift"]), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_classify_edm_matrix_by_matrix(self, kind, k, seed):
        tol = Tolerances()
        ds = [D for D in stack_case(kind, k, seed) if clear_of_cut(D, tol)]
        rank, is_edm = _classify_stack(np.array([D.d**2 for D in ds]).reshape(-1, k, k), tol)
        want = [(c.dim, c.is_edm) for c in map(classify_edm, ds)]
        assert list(zip(rank.tolist(), is_edm.tolist())) == want


EDGES = np.triu_indices(4, 1)  # combinations(range(4), 2) order


def pair_matrices(c2):
    d2 = np.zeros(c2.shape[:-1] + (4, 4))
    d2[..., EDGES[0], EDGES[1]] = d2[..., EDGES[1], EDGES[0]] = c2
    return d2


def certified(c2, tol):
    """The rows of an (S, 6) stack of squared edges that _solid_tetrahedra certifies."""
    return _solid_tetrahedra(_tetrahedron_map().T @ c2.T, tol)[0]


def tetrahedron_stack(rng, size):
    """(size, 6) squared edges of tetrahedra flattened along one axis to a
    thickness in [1e-7, 1] and scaled by 10^[-3, 3]; about 30 % have one
    squared edge moved by a relative 10^[-6, -0.5], mostly off the EDM cone."""
    pts = rng.standard_normal((size, 4, 3))
    pts[..., 2] *= 10.0 ** rng.uniform(-7, 0, (size, 1))
    c2 = ((pts[:, EDGES[0]] - pts[:, EDGES[1]]) ** 2).sum(axis=-1) * 10.0 ** rng.uniform(-6, 6, (size, 1))
    off = np.flatnonzero(rng.random(size) < 0.3)
    shift = rng.choice([-1.0, 1.0], off.size) * 10.0 ** rng.uniform(-6, -0.5, off.size)
    c2[off, rng.integers(0, 6, off.size)] *= 1.0 + shift
    return c2


class TestSolidTetrahedra:
    def test_map_gives_the_projected_gram(self):
        c2 = tetrahedron_stack(np.random.default_rng(0), 50)
        p = _project(pair_matrices(c2))
        upper = np.triu_indices(3)
        scale = np.abs(p).max(axis=(-2, -1))[:, None]
        np.testing.assert_allclose(c2 @ _tetrahedron_map() / scale, p[:, upper[0], upper[1]] / scale, atol=1e-15)
        assert not _tetrahedron_map().flags.writeable

    def test_circumcentre_map_gives_the_centre_in_gram_coordinates(self):
        # With Z = R^T X for the centred vertices X, Z c = u for the
        # circumcentre c, and the circumradius is |c|^2 + sum(c2) / 16.
        rng = np.random.default_rng(1)
        right = _helmert(4)[1]
        for _ in range(20):
            x = rng.standard_normal((4, 3))
            x -= x.mean(axis=0)
            centre = np.linalg.solve(2.0 * (x[1:] - x[0]), (x[1:] ** 2).sum(axis=1) - (x[0] ** 2).sum())
            c2 = ((x[EDGES[0]] - x[EDGES[1]]) ** 2).sum(axis=-1)
            u = c2 @ _circumcentre_map()
            np.testing.assert_allclose(right.T @ x @ centre, u, rtol=1e-10, atol=1e-12)
            radius2 = ((x[0] - centre) ** 2).sum()
            assert centre @ centre + c2.sum() / 16.0 == pytest.approx(radius2, rel=1e-12)
        assert not _circumcentre_map().flags.writeable

    def test_certifies_solid_rows_only(self):
        regular = np.ones(6)
        square = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
        stretched = np.array([1.0, 1.0, 1.0, 9.0, 1.0, 1.0])
        # a unit square's corner (1/2, 1/2) lifted by h: the projected Gram
        # has eigenvalues 1, 0.375 and about 2 h^2 / 3.  At h^2 = 2e-9 that
        # is 1.3e-9, above the cut of 1e-9, but the certificate asks for
        # det P > 2 cut ||P||_F^2, that is lambda_3 > 6.5e-9.  At
        # h^2 = 7.5e-10 it is 0.5e-9, inside the cut: the Gram is still
        # positive definite, so its factor exists and only the determinant
        # bound keeps the row uncertified.
        def lifted(h2):
            thin = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, math.sqrt(h2)]])
            return ((thin[EDGES[0]] - thin[EDGES[1]]) ** 2).sum(axis=-1)

        c2 = np.array([regular, square, stretched, np.zeros(6), lifted(2e-9), lifted(7.5e-10)])
        assert certified(c2, Tolerances()).tolist() == [True, False, False, False, False, False]
        assert np.isfinite(_solid_tetrahedra(_tetrahedron_map().T @ c2[-1:].T, Tolerances())[1]).all()
        rank, is_edm = _classify_stack(pair_matrices(c2), Tolerances())
        assert is_edm.tolist() == [True, True, False, True, True, True]
        assert rank[[0, 1, 3, 4, 5]].tolist() == [3, 2, 0, 3, 2]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-12, -3))
    def test_certified_rows_are_edms_of_rank_3(self, seed, log_tol):
        tol = Tolerances(rank_tol=10.0**log_tol)
        c2 = tetrahedron_stack(np.random.default_rng(seed), 256)
        solid = certified(c2, tol)
        rank, is_edm = _classify_stack(pair_matrices(c2[solid]), tol)
        assert (rank == 3).all() and is_edm.all()


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

    def test_gram_near_the_top_of_the_float_range_stays_finite(self):
        # x x^T is 1.44e308 throughout; twice that overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gram_from_realization(Realization([[1.2e154, 0.0], [1.2e154, 1.0]])).g
        assert np.isfinite(g).all() and g[0, 1] == g[1, 0] == 1.2e154**2

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


    def test_edm_past_the_float_range_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="distance of about 10\\^308.3"):
                edm_from_realization(Realization([[1e308], [-1e308]]))
            # Each coordinate's spread fits, but the diagonal does not.
            with pytest.raises(FloatRangeError, match="distance"):
                edm_from_realization(Realization([[1.5e308, 1.5e308], [0.0, 0.0]]))


@st.composite
def point_sets(draw):
    """n points in R^k, k <= 7: a Gaussian cloud or a small integer grid,
    scaled by 10^u with |u| <= 100 and shifted by 0, 1e300 or +-1e308.  At
    the large shifts every point rounds onto the shift itself."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-3, 4, (n, k)) if draw(st.booleans()) else rng.standard_normal((n, k))
    shift = draw(st.sampled_from([0.0, 0.0, 1e300, 1e308, -1e308]))
    return shift + 10.0 ** draw(st.integers(-100, 100)) * pts


@st.composite
def squared_distances(draw):
    """Squared distances of an EDM, or of one with noise on every pair, in
    units of the largest distance."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_normal((n, draw(st.integers(1, 7))))
    pts[:, -1] *= draw(st.sampled_from([1.0, 1e-3]))
    d = np.array(edm_from_realization(Realization(pts)).d)
    if draw(st.booleans()):
        d = np.triu(d * rng.uniform(0.8, 1.2, (n, n)), 1)
        d = d + d.T
    return _unit_squares(d)[0]


class TestDistanceKernels:
    """The O(n^2) kernels of the spectral path against their dense forms."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(squared_distances())
    def test_center_is_symmetric_and_matches_the_products_with_j(self, d2):
        n = d2.shape[0]
        j = np.eye(n) - np.full((n, n), 1.0 / n)
        want = -0.5 * (j @ d2 @ j)
        g = _center(d2)
        assert np.array_equal(g, g.T)
        rho = float(np.abs(np.linalg.eigvalsh(0.5 * (want + want.T))).max())
        assert np.abs(g - want).max() <= 4e-15 * rho

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(point_sets())
    @example(np.array([[1e308, 0.0], [1e308, 0.0]]))
    @example(np.array([[-1e308], [-1e308], [-1e308]]))
    @example(1e300 + np.arange(5.0)[:, None])
    def test_pairwise_distances_equal_the_broadcast_form_bit_for_bit(self, x):
        # Below eight columns numpy sums the last axis in order, as the kernel does.
        want = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
        assert np.array_equal(_pairwise_distances(x), want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.booleans())
    def test_max_relative_distance_error_equals_the_upper_triangle_form(self, n, seed, dup):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, 3))
        if dup and n > 2:
            pts[1] = pts[0]
        target = np.array(edm_from_realization(Realization(pts)).d)
        realized = _pairwise_distances(pts + rng.normal(0.0, 1e-9, pts.shape))
        iu = np.triu_indices(n, 1)
        want, got = target[iu], realized[iu]
        scale = float(target.max())
        expected = 0.0 if n < 2 or scale == 0.0 else float(
            np.max(np.abs(got - want) / np.where(want > 0, want, scale))
        )
        assert _max_relative_distance_error(realized, target) == expected


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


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: GramMatrix(np.zeros((2, 3))), NonSquareError, "square"),
        (lambda: GramMatrix(np.zeros((0, 0))), ValueError, "at least one point"),
        (lambda: SpectralDecomposition(np.zeros(2), np.eye(3)), ValueError, "inconsistent"),
        (lambda: SpectralDecomposition(np.array([0.0, 1.0]), np.eye(2)), ValueError, "descending"),
        (lambda: Realization(np.zeros(3)), ValueError, "2-d array"),
        (lambda: Realization(np.zeros((0, 2))), ValueError, "at least one point"),
        (lambda: symmetric_eigendecomposition(np.zeros((2, 3))), NonSquareError, "square"),
    ],
    ids=[
        "gram-not-square",
        "gram-empty",
        "spectrum-shapes",
        "spectrum-unsorted",
        "realization-not-2d",
        "realization-empty",
        "eigendecomposition-not-square",
    ],
)
def test_malformed_records_are_rejected(make, error, message):
    with pytest.raises(error, match=message):
        make()
