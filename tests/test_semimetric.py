"""Semi-metric spaces: validation, congruence search, embeddability criteria."""

import math
from itertools import combinations

import numpy as np
import pytest

from distgeo.errors import SizeMismatchError, TooLargeError, ZeroOffDiagonalError
from distgeo.matrices import DistanceMatrix, Realization, edm_from_realization
from distgeo.semimetric import (
    CongruenceWitness,
    FiniteSemiMetricSpace,
    congruently_embeddable,
    find_congruence,
    validate_semi_metric,
    verify_menger_criterion,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
SQUARE = [[0, 1, SQRT2, 1], [1, 0, 1, SQRT2], [SQRT2, 1, 0, 1], [1, SQRT2, 1, 0]]
# rhombus with unit sides and diagonals 1, sqrt(3)
RHOMBUS = [[0, 1, SQRT3, 1], [1, 0, 1, 1], [SQRT3, 1, 0, 1], [1, 1, 1, 0]]
TETRA = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
BAD113 = [[0, 1, 1], [1, 0, 3], [1, 3, 0]]


def space_from_points(pts, rng=None):
    return validate_semi_metric(edm_from_realization(Realization(pts)).d)


def random_space(rng, n):
    m = rng.uniform(0.3, 3.0, (n, n))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return validate_semi_metric(m)


class TestValidateSemiMetric:
    def test_minimal(self):
        assert validate_semi_metric([[0, 1], [1, 0]]).n == 2

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(ZeroOffDiagonalError):
            validate_semi_metric([[0, 0], [0, 0]])

    def test_triangle_violation_is_still_a_semi_metric(self):
        # only symmetry, hollowness and positivity are required
        assert validate_semi_metric(BAD113).n == 3

    def test_labels(self):
        s = validate_semi_metric([[0, 1], [1, 0]], labels=("a", "b"))
        assert s.labels == ("a", "b")


class TestFindCongruence:
    def test_identity_on_itself(self):
        s = validate_semi_metric(SQUARE)
        w = find_congruence(s, s)
        assert w.mapping == (0, 1, 2, 3)

    def test_recovers_permutation(self):
        s = validate_semi_metric(SQUARE)
        perm = [2, 0, 3, 1]
        t = validate_semi_metric(np.asarray(SQUARE)[np.ix_(perm, perm)])
        w = find_congruence(s, t)
        assert w is not None
        for i in range(4):
            for j in range(4):
                assert s.d.d[i, j] == pytest.approx(
                    t.d.d[w.mapping[i], w.mapping[j]], abs=1e-9
                )

    def test_square_vs_rhombus(self):
        assert find_congruence(
            validate_semi_metric(SQUARE), validate_semi_metric(RHOMBUS)
        ) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            find_congruence(
                validate_semi_metric([[0, 1], [1, 0]]), validate_semi_metric(BAD113)
            )

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_equilateral_vs_degenerate_triangle_at_any_scale(self, scale):
        equilateral = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) * scale
        degenerate = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]]) * scale
        assert find_congruence(
            validate_semi_metric(equilateral), validate_semi_metric(degenerate)
        ) is None

    def test_too_large(self):
        n = 11
        m = np.ones((n, n)) - np.eye(n)
        s = validate_semi_metric(m)
        with pytest.raises(TooLargeError):
            find_congruence(s, s)

    def test_equivalence_properties(self):
        # reflexive, symmetric (witness inverts), transitive (witnesses compose)
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_space(rng, n)
            perm1 = rng.permutation(n)
            perm2 = rng.permutation(n)
            t = validate_semi_metric(s.d.d[np.ix_(perm1, perm1)])
            u = validate_semi_metric(t.d.d[np.ix_(perm2, perm2)])

            assert find_congruence(s, s) is not None

            w_st = find_congruence(s, t)
            assert w_st is not None
            w_ts = w_st.inverse()
            for i in range(n):
                for j in range(n):
                    assert t.d.d[i, j] == pytest.approx(
                        s.d.d[w_ts.mapping[i], w_ts.mapping[j]], abs=1e-9
                    )

            w_tu = find_congruence(t, u)
            w_su = w_st.compose(w_tu)
            for i in range(n):
                for j in range(n):
                    assert s.d.d[i, j] == pytest.approx(
                        u.d.d[w_su.mapping[i], w_su.mapping[j]], abs=1e-9
                    )


class TestCongruentlyEmbeddable:
    def test_regular_tetrahedron(self):
        s = validate_semi_metric(TETRA)
        in3 = congruently_embeddable(s, 3)
        assert in3.embeddable and in3.realization.k == 3
        in2 = congruently_embeddable(s, 2)
        assert not in2.embeddable
        assert in2.failing_subset == (0, 1, 2, 3)

    def test_triangle_violation_fails_everywhere(self):
        s = validate_semi_metric(BAD113)
        for dim in (1, 2, 3):
            v = congruently_embeddable(s, dim)
            assert not v.embeddable
            assert v.failing_subset == (0, 1, 2)

    def test_two_points_on_a_line(self):
        v = congruently_embeddable(validate_semi_metric([[0, 7], [7, 0]]), 1)
        assert v.embeddable

    def test_witness_realization_reproduces_distances(self):
        rng = np.random.default_rng(31)
        s = space_from_points(rng.standard_normal((6, 2)))
        v = congruently_embeddable(s, 2)
        assert v.embeddable
        realized = edm_from_realization(v.realization)
        np.testing.assert_allclose(realized.d, s.d.d, atol=1e-9)

    def test_monotone_in_dimension(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(1, 3))
            s = space_from_points(rng.standard_normal((n, r)))
            for dim in range(r, 4):
                assert congruently_embeddable(s, dim).embeddable

    def test_subsets_inherit_embeddability(self):
        rng = np.random.default_rng(33)
        s = space_from_points(rng.standard_normal((7, 2)))
        assert congruently_embeddable(s, 2).embeddable
        for size in (3, 5):
            for subset in list(combinations(range(7), size))[:10]:
                assert congruently_embeddable(s.restrict(subset), 2).embeddable


class TestVerifyMengerCriterion:
    def test_planar_five_points(self):
        rng = np.random.default_rng(34)
        s = space_from_points(rng.standard_normal((5, 2)))
        report = verify_menger_criterion(s, 2)
        assert report.embeddable
        assert report.anchor_subset is not None
        assert report.flat2_failures == ()
        assert report.flat3_failures == ()
        assert report.flat3_anchored_failures == ()

    def test_regular_tetrahedron_in_plane(self):
        report = verify_menger_criterion(validate_semi_metric(TETRA), 2)
        assert not report.embeddable
        assert report.flat2_failures == ((0, 1, 2, 3),)

    def test_collinear_three_points(self):
        s = validate_semi_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        report = verify_menger_criterion(s, 1)
        assert report.embeddable
        assert report.flat2_failures == ()

    def test_anchored_reading_agrees_on_random_spaces(self):
        rng = np.random.default_rng(35)
        for trial in range(30):
            n = int(rng.integers(3, 8))
            if trial % 2 == 0:
                s = space_from_points(rng.standard_normal((n, int(rng.integers(1, 4)))))
            else:
                s = random_space(rng, n)
            for dim in (1, 2, 3):
                report = verify_menger_criterion(s, dim)
                # the quantifier readings agree: anchored failures are a
                # subset of all (dim+3)-subset failures and vanish together
                if report.anchor_subset is not None:
                    anchored_fail = bool(report.flat3_anchored_failures)
                    all_fail = bool(report.flat3_failures)
                    if anchored_fail:
                        assert all_fail

    def test_too_large(self):
        n = 13
        s = validate_semi_metric(np.ones((n, n)) - np.eye(n))
        with pytest.raises(TooLargeError):
            verify_menger_criterion(s, 2)

    def test_sizes_past_n_check_nothing(self):
        # A (dim+2)- or (dim+3)-point basis at dim 10^5 would take about 75 GiB;
        # sizes with no subsets run no kernel.
        report = verify_menger_criterion(validate_semi_metric(TETRA), 10**5)
        assert report.embeddable
        assert (report.base_size, report.base_checked, report.base_failures) == (4, 1, ())
        assert report.anchor_subset is None
        assert (report.flat2_checked, report.flat3_checked) == (0, 0)
        assert (report.flat2_failures, report.flat3_failures) == ((), ())

    def test_agrees_with_psd_route(self):
        rng = np.random.default_rng(36)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            if trial % 2 == 0:
                s = space_from_points(rng.standard_normal((n, int(rng.integers(1, 5)))))
            else:
                s = random_space(rng, n)
            for dim in (1, 2, 3):
                assert (
                    verify_menger_criterion(s, dim).embeddable
                    == congruently_embeddable(s, dim).embeddable
                )


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FiniteSemiMetricSpace(("a", "b"), DistanceMatrix(TETRA)), "2 labels for 4 points"),
        (lambda: CongruenceWitness((0, 0, 2)), "not a permutation"),
        (lambda: CongruenceWitness((1, 2)), "not a permutation"),
        (lambda: congruently_embeddable(validate_semi_metric(SQUARE), -1), "dimension must be nonnegative"),
        (lambda: verify_menger_criterion(validate_semi_metric(SQUARE), -1), "dimension must be nonnegative"),
    ],
    ids=["label-count", "repeated-image", "image-out-of-range", "embeddable-negative-dim", "menger-negative-dim"],
)
def test_malformed_input_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()
