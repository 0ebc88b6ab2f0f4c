"""Simplex measurements: Heron area, inradius, bordered determinants, volumes.

The 4x4 bordered determinant of a triangle equals
-16 s (s-a) (s-b) (s-c), which ties the determinant route to Heron's
formula; numpy.linalg.det serves as the determinant oracle.
"""

import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgeo.embedding import classify_edm
from distgeo.errors import FloatRangeError, InfeasibleError
from distgeo.matrices import DistanceMatrix, Realization, edm_from_realization
from distgeo.simplex import (
    SimplexSides,
    TriangleSides,
    cayley_menger_determinant,
    heron_area,
    inradius,
    is_flat,
    simplex_volume,
)

REGULAR_TETRA_VOLUME = 1 / (6 * math.sqrt(2))  # 0.1178511301977579
# a unit equilateral base with the apex 1e4 above its centroid: an EDM of
# rank 3 and volume sqrt(3)/12 * 1e4, while |CM| in units of the longest
# side squared is about 6e-16, below (m+1)^2 eps
TALL_TETRAHEDRON = [[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0], [0.5, math.sqrt(3) / 6, 1e4]]


def regular_simplex(m):
    return SimplexSides(DistanceMatrix(np.ones((m, m)) - np.eye(m)))


def regular_volume(m):
    """V of the regular simplex of side 1 on m vertices to 40 digits:
    V^2 = m / (2^(m-1) ((m-1)!)^2)."""
    with localcontext(prec=40):
        return (Decimal(m) / (2 ** (m - 1) * Decimal(math.factorial(m - 1)) ** 2)).sqrt()


def assert_close(got, want):
    with localcontext(prec=40):
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * abs(want)


def simplex_from_points(pts):
    return SimplexSides(edm_from_realization(Realization(pts)))


def elongated_simplex():
    """The 5-simplex with legs e1 ... e4 and the apex 1000 e5: volume 1000 / 5!."""
    pts = np.zeros((6, 5))
    pts[1:5, :4] = np.eye(4)
    pts[5, 4] = 1000.0
    return simplex_from_points(pts)


def regular_with_long_side(m):
    """ones(m, m) - eye(m) with d(0, 1) = 3: it holds a 1-1-3 triangle."""
    d = np.ones((m, m)) - np.eye(m)
    d[0, 1] = d[1, 0] = 3.0
    return SimplexSides(DistanceMatrix(d))


def random_triangle(rng):
    pts = rng.standard_normal((3, 2)) * rng.uniform(0.2, 5)
    a = np.linalg.norm(pts[0] - pts[1])
    b = np.linalg.norm(pts[0] - pts[2])
    c = np.linalg.norm(pts[1] - pts[2])
    return TriangleSides(a, b, c)


class TestHeron:
    def test_345(self):
        assert heron_area(TriangleSides(3, 4, 5)) == 6.0

    @pytest.mark.parametrize("k", [-500, 500])
    def test_345_is_exact_under_powers_of_two(self, k):
        t = TriangleSides(*(math.ldexp(side, k) for side in (3, 4, 5)))
        assert heron_area(t) == math.ldexp(6.0, 2 * k)

    def test_equilateral(self):
        # s = 3, radicand 3*1*1*1
        assert heron_area(TriangleSides(2, 2, 2)) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_infeasible_carries_radicand(self):
        with pytest.raises(InfeasibleError) as err:
            heron_area(TriangleSides(1, 1, 3))
        assert err.value.value == pytest.approx(-2.8125)

    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValueError):
            TriangleSides(0, 1, 1)


class TestInradius:
    def test_345(self):
        # oracle: r = area / s = 6 / 6
        assert inradius(TriangleSides(3, 4, 5)) == 1.0

    @pytest.mark.parametrize("k", [-500, 500])
    def test_345_is_exact_under_powers_of_two(self, k):
        t = TriangleSides(*(math.ldexp(side, k) for side in (3, 4, 5)))
        assert inradius(t) == math.ldexp(1.0, k)

    def test_equilateral(self):
        # oracle: area / s = sqrt(3) / 3
        assert inradius(TriangleSides(2, 2, 2)) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_degenerate_collinear(self):
        assert inradius(TriangleSides(1, 1, 2)) == 0.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            inradius(TriangleSides(1, 1, 3))

    @pytest.mark.parametrize("k", [1e-300, 1e-160, 1e160, 1e300])
    def test_scales_linearly_at_extreme_units(self, k):
        r = inradius(TriangleSides(3 * k, 4 * k, 5 * k))
        assert r == pytest.approx(k, rel=1e-12, abs=0.0)

    def test_times_semiperimeter_equals_area(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            t = random_triangle(rng)
            area = heron_area(t)
            assert abs(inradius(t) * t.s - area) <= 1e-10 * max(1.0, area)


class TestCayleyMengerDeterminant:
    def test_345_matches_heron_identity(self):
        # bordered determinant = -16 s(s-a)(s-b)(s-c) = -16 * 36
        s = SimplexSides.from_triangle(TriangleSides(3, 4, 5))
        assert cayley_menger_determinant(s) == pytest.approx(-576.0, abs=1e-9)

    def test_collinear_triangle_vanishes(self):
        s = SimplexSides.from_triangle(TriangleSides(1, 1, 2))
        assert abs(cayley_menger_determinant(s)) <= 1e-12

    def test_segment(self):
        # expanding [[0, d^2, 1], [d^2, 0, 1], [1, 1, 0]] by hand gives 2 d^2
        d = 3.0
        s = SimplexSides(DistanceMatrix([[0, d], [d, 0]]))
        assert cayley_menger_determinant(s) == pytest.approx(2 * d**2, abs=1e-12)

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_beyond_float_range_is_an_error(self, k):
        # the regular tetrahedron's determinant is 4 k^6
        s = SimplexSides(DistanceMatrix(k * (np.ones((4, 4)) - np.eye(4))))
        with pytest.raises(FloatRangeError, match="Cayley-Menger determinant of about"):
            cayley_menger_determinant(s)

    def test_identity_on_random_triangles(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = random_triangle(rng)
            s = SimplexSides.from_triangle(t)
            expect = -16.0 * t.s * (t.s - t.a) * (t.s - t.b) * (t.s - t.c)
            got = cayley_menger_determinant(s)
            assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_against_numpy_det(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            s = simplex_from_points(rng.standard_normal((m, m - 1)) * 3)
            b = np.empty((m + 1, m + 1))
            b[:m, :m] = s.d.d ** 2
            b[:m, m] = 1.0
            b[m, :m] = 1.0
            b[m, m] = 0.0
            ref = float(np.linalg.det(b))
            got = cayley_menger_determinant(s)
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_sign_alternates_with_vertex_count(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            m = int(rng.integers(2, 7))
            s = simplex_from_points(rng.standard_normal((m, m - 1)) * 2)
            delta = cayley_menger_determinant(s)
            assert delta == 0 or math.copysign(1, delta) == (-1) ** (m - 2)

    # CM = (-1)^m m at side 1
    @pytest.mark.parametrize("m", [4, 100, 1025])
    def test_regular_simplex_closed_form(self, m):
        assert_close(cayley_menger_determinant(regular_simplex(m)), Decimal((-1) ** m * m))

    def test_five_points_in_three_space_vanish(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            pts4 = np.zeros((5, 4))
            pts4[:, :3] = rng.uniform(0, 1, (5, 3))
            s = simplex_from_points(pts4)
            scale = float((s.d.d ** 2).max()) ** 4
            assert abs(cayley_menger_determinant(s)) <= 1e-6 * scale


class TestSimplexVolume:
    def test_triangle_matches_heron(self):
        s = SimplexSides.from_triangle(TriangleSides(3, 4, 5))
        assert simplex_volume(s) == pytest.approx(6.0, abs=1e-12)

    def test_regular_tetrahedron(self):
        # oracle: realize the regular tetrahedron and take |det| / 6
        pts = np.array(
            [
                [0, 0, 0],
                [1, 0, 0],
                [0.5, math.sqrt(3) / 2, 0],
                [0.5, math.sqrt(3) / 6, math.sqrt(2 / 3)],
            ]
        )
        oracle = abs(np.linalg.det(pts[1:] - pts[0])) / 6
        assert oracle == pytest.approx(REGULAR_TETRA_VOLUME, abs=1e-15)
        s = SimplexSides(DistanceMatrix(np.ones((4, 4)) - np.eye(4)))
        assert simplex_volume(s) == pytest.approx(REGULAR_TETRA_VOLUME, abs=1e-12)

    def test_segment_volume_is_length(self):
        s = SimplexSides(DistanceMatrix([[0, 2.5], [2.5, 0]]))
        assert simplex_volume(s) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
    def test_infeasible_sides(self, scale):
        with pytest.raises(InfeasibleError) as err:
            simplex_volume(
                SimplexSides.from_triangle(TriangleSides(scale, scale, 3 * scale))
            )
        assert err.value.value < 0

    def test_heron_consistency_on_random_triangles(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            t = random_triangle(rng)
            area = heron_area(t)
            vol = simplex_volume(SimplexSides.from_triangle(t))
            assert abs(area - vol) <= 1e-9 * max(1.0, area)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e6])
    def test_flat_simplex_has_zero_volume(self, scale):
        # five points in 3-space span no 4-volume; the determinant keeps
        # only a rounding residue, which must not surface as a volume
        d = np.loadtxt(Path(__file__).parent / "fixtures" / "five_points_3d.txt")
        s = SimplexSides(DistanceMatrix(scale * d))
        assert is_flat(s)
        assert simplex_volume(s) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e6])
    @pytest.mark.parametrize("gap", [1e-6, 1e-10])
    def test_thin_triangle_keeps_its_area(self, gap, scale):
        # sides 1, 1, 2 - gap: flat by the rank_tol bound when gap is 1e-10,
        # yet the area c/4 sqrt((2 - c)(2 + c)) is far above rounding, and
        # 2 - c is exact in floating point
        c = 2.0 - gap
        area = c / 4 * math.sqrt((2.0 - c) * (2.0 + c)) * scale**2
        t = TriangleSides(scale, scale, c * scale)
        volume = simplex_volume(SimplexSides.from_triangle(t))
        assert volume == pytest.approx(area, rel=1e-4, abs=0)
        assert abs(heron_area(t) - volume) <= 1e-9 * max(scale**2, area)

    # at 1.1e103 the cube of the side overflows but the volume fits
    @pytest.mark.parametrize("scale", [1e-60, 1e60, 1.1e103])
    def test_regular_tetrahedron_at_extreme_scales(self, scale):
        s = SimplexSides(DistanceMatrix(scale * (np.ones((4, 4)) - np.eye(4))))
        want = REGULAR_TETRA_VOLUME * scale * scale * scale
        assert simplex_volume(s) == pytest.approx(want, rel=1e-12, abs=0)

    # (m-1)! overflows a float at m = 172, and 2^(m-1) ((m-1)!)^2 from m = 100
    @pytest.mark.parametrize("m", [4, 99, 100, 150])
    def test_regular_simplex_closed_form(self, m):
        assert_close(simplex_volume(regular_simplex(m)), regular_volume(m))

    def test_regular_simplex_answers_or_raises_at_the_normal_range(self):
        # volumes down to the smallest normal float come back, smaller ones
        # raise instead of printing 0 or a subnormal (the edge is m = 161/162)
        tiny = Decimal(np.finfo(float).tiny)
        for m in range(2, 176):
            want = regular_volume(m)
            if want >= tiny:
                assert_close(simplex_volume(regular_simplex(m)), want)
            else:
                with pytest.raises(FloatRangeError, match="^volume of about"):
                    simplex_volume(regular_simplex(m))

    def test_tall_tetrahedron_keeps_its_volume(self):
        s = simplex_from_points(np.array(TALL_TETRAHEDRON))
        assert classify_edm(s.d).dim == 3
        assert simplex_volume(s) == pytest.approx(math.sqrt(3) / 12 * 1e4, rel=1e-12, abs=0)

    def test_elongated_simplex_keeps_its_volume(self):
        assert simplex_volume(elongated_simplex()) == pytest.approx(25 / 3, rel=1e-12, abs=0)

    # one long side drives |CM| in units of the largest squared side toward
    # 0 as m grows, but the 1-1-3 triangle keeps a negative eigenvalue
    @pytest.mark.parametrize("m", [13, 14, 20])
    def test_long_side_in_a_regular_simplex_is_infeasible(self, m):
        s = regular_with_long_side(m)
        with pytest.raises(InfeasibleError) as err:
            simplex_volume(s)
        n = m - 1
        squared = (-1) ** (n - 1) * cayley_menger_determinant(s) / (2**n * math.factorial(n) ** 2)
        assert err.value.value == pytest.approx(squared, rel=1e-12, abs=0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(3, 8),
        st.sampled_from([1e-6, 1.0, 1e6]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_infeasible_exactly_when_not_an_edm(self, m, unit, perturbed, seed):
        rng = np.random.default_rng(seed)
        if perturbed:
            # an EDM of points in R^(m-1), each side off by up to 10^(-12 ... -2)
            d = edm_from_realization(Realization(rng.standard_normal((m, m - 1)))).d
            d = d * (1.0 + 10.0 ** rng.uniform(-12, -2) * rng.uniform(-1, 1, (m, m)))
        else:
            d = rng.uniform(0.1, 1.0, (m, m))
        d = np.triu(d, 1)
        s = SimplexSides(DistanceMatrix(unit * (d + d.T)))
        try:
            simplex_volume(s)
            infeasible = False
        except InfeasibleError:
            infeasible = True
        assert infeasible == (not classify_edm(s.d).is_edm)

    def test_volume_beyond_float_range(self):
        s = SimplexSides(DistanceMatrix(1e104 * (np.ones((4, 4)) - np.eye(4))))
        with pytest.raises(FloatRangeError) as err:
            simplex_volume(s)
        assert err.value.log10_magnitude == pytest.approx(312 + math.log10(REGULAR_TETRA_VOLUME))

    def test_matches_coordinate_volume(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            pts = rng.standard_normal((m, m - 1)) * 2
            edges = pts[1:] - pts[0]
            oracle = abs(np.linalg.det(edges)) / math.factorial(m - 1)
            got = simplex_volume(simplex_from_points(pts))
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)


class TestIsFlat:
    def test_unit_square_is_flat(self):
        s2 = math.sqrt(2)
        s = SimplexSides(
            DistanceMatrix([[0, 1, s2, 1], [1, 0, 1, s2], [s2, 1, 0, 1], [1, s2, 1, 0]])
        )
        assert is_flat(s)

    # |CM| = m in units of the side, while det P = 2^-(m-1) lies below the
    # float range from m = 1076 on
    @pytest.mark.parametrize("m", [4, 1100])
    def test_regular_tetrahedron_is_not(self, m):
        assert not is_flat(regular_simplex(m))

    def test_coincident_points_are_flat(self):
        assert is_flat(SimplexSides(DistanceMatrix(np.zeros((3, 3)))))

    @pytest.mark.parametrize("scale", [1e-60, 1e60])
    def test_regular_tetrahedron_is_not_at_extreme_scales(self, scale):
        # the bordered determinant of these sides under- or overflows unless
        # it is taken in units of the longest side
        d = scale * (np.ones((4, 4)) - np.eye(4))
        assert not is_flat(SimplexSides(DistanceMatrix(d)))

    def test_collinear_points(self):
        assert is_flat(SimplexSides.from_triangle(TriangleSides(1, 1, 2)))

    # one long side drives |CM| in units of the largest squared side toward
    # 0, but no eigenvalue beyond the centering null falls within the cut
    def test_tall_tetrahedron_is_not(self):
        assert not is_flat(simplex_from_points(np.array(TALL_TETRAHEDRON)))

    def test_elongated_simplex_is_not(self):
        assert not is_flat(elongated_simplex())

    # not an EDM: the 1-1-3 triangle keeps a clearly negative eigenvalue
    @pytest.mark.parametrize("m", [14, 20])
    def test_long_side_in_a_regular_simplex_is_not(self, m):
        assert not is_flat(regular_with_long_side(m))

    def test_unit_invariance(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((4, 2))  # planar -> flat in any unit
        for scale in (1e-6, 1.0, 1e6):
            assert is_flat(simplex_from_points(pts * scale))

    def test_1025_points_in_three_space(self):
        # 2^(k-1), the power in |CM| = k det 2P, overflows a float from
        # k = 1025 vertices on; the test compares logs, where it does not.
        pts = np.random.default_rng(18).standard_normal((1025, 3))
        assert is_flat(simplex_from_points(pts))
