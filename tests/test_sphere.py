"""Spherical embedding: chord map, chord realization, circumsphere, fixed point.

The regular tetrahedron inscribed in the unit sphere anchors everything:
side sqrt(8/3), geodesic (central angle) 2 asin(sqrt(2/3)) = 1.9106332...
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distgeo.errors import (
    GeodesicTooLongError,
    NoConvergenceError,
    NotApplicableError,
    NotRealizableError,
)
from distgeo.matrices import Realization
from distgeo import sphere
from distgeo.sphere import (
    SCAN_POINTS,
    VERTEX_PAIRS,
    GeodesicTetrahedron,
    chord_length,
    circumradius,
    embed_on_sphere,
    inverse_circumradius,
    tetrahedron_from_chords,
)

REGULAR_GEODESIC = 2 * math.asin(math.sqrt(2 / 3))  # 1.9106332362490186
REGULAR_CHORD = math.sqrt(8 / 3)  # 1.632993161855452
SQRT2 = math.sqrt(2)
# unit square with diagonals: a planar 4-point configuration
SQUARE_CHORDS = np.array([1, SQRT2, 1, 1, SQRT2, 1.0])
# a needle: length 1, thickness 1e-3 in two directions.  Its centered Gram
# eigenvalues are about 1, 7.5e-7 and 7.5e-7, so it spans 3 dimensions by
# the rank cut although 288 V^2 / L^6 is only about 8e-12
NEEDLE = np.array([[0, 0, 0], [1, 0, 0], [0, 1e-3, 0], [1, 0, 1e-3]], dtype=float)


def pairwise(coords):
    return np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)


def geodesics_of(points):
    return np.array([pairwise(points)[i, j] for i, j in VERTEX_PAIRS])


def random_tetra_geodesics(rng, min_volume=0.05):
    while True:
        pts = rng.standard_normal((4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) / 6 >= min_volume:
            return GeodesicTetrahedron(geodesics_of(pts))


def random_cap_geodesics(rng):
    """Geodesics of four points on a unit-sphere cap, possibly perturbed."""
    v = rng.standard_normal((4, 3)) * rng.uniform(0.1, 0.7) + [0.0, 0.0, 1.0]
    v /= np.linalg.norm(v, axis=1)[:, None]
    a = np.array(
        [math.atan2(np.linalg.norm(np.cross(v[i], v[j])), v[i] @ v[j]) for i, j in VERTEX_PAIRS]
    )
    return a * (1.0 + rng.uniform(-0.2, 0.2, 6) * (rng.uniform() < 0.2))


def reference_inverse_circumradius(x, g):
    """The inverse circumradius by realizing the chord tetrahedron as points."""
    try:
        t = tetrahedron_from_chords([chord_length(alpha, x) for alpha in g.a])
    except NotRealizableError:
        return None
    sphere = circumradius(t)
    return 1.0 / sphere.radius if sphere.is_finite else 0.0


def reference_radius(g):
    """embed_on_sphere's radius by a coarse scan and a 64-section of its
    bracket, one scalar residual at a time."""

    def first_stop(grid):
        for i, x in enumerate(grid):
            value = reference_inverse_circumradius(float(x), g)
            if value is None or not value > x:
                return i
        return None

    x_hi = math.pi / g.a_max
    eps = 1e-9 * x_hi
    grid = np.linspace(eps, x_hi - eps, SCAN_POINTS)
    first = first_stop(grid)
    lo, hi = (float(grid[first - 1]) if first else 0.0), float(grid[first])
    while np.nextafter(lo, hi) < hi:
        grid = np.linspace(lo, hi, SCAN_POINTS + 2)[1:-1]
        first = first_stop(grid)
        if first is None:
            lo = float(grid[-1])
        else:
            lo, hi = (float(grid[first - 1]) if first else lo), float(grid[first])
    y = lo if lo > 0.0 else hi
    return circumradius(tetrahedron_from_chords([chord_length(a, y) for a in g.a])).radius


class TestChordLength:
    def test_half_great_circle_is_a_diameter(self):
        assert chord_length(math.pi, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_flat_limit(self):
        assert chord_length(1.5, 0.0) == 1.5

    def test_regular_tetrahedron_chord(self):
        got = chord_length(REGULAR_GEODESIC, 1.0)
        assert got == pytest.approx(REGULAR_CHORD, abs=1e-12)
        # the rounded anchor used in fixture files
        assert chord_length(1.910633, 1.0) == pytest.approx(1.632993, abs=1e-6)

    def test_too_long(self):
        with pytest.raises(GeodesicTooLongError):
            chord_length(7.0, 1.0)

    def test_continuity_at_zero(self):
        for alpha in (0.3, 1.2, 2.9):
            assert chord_length(alpha, 1e-9) == pytest.approx(alpha, rel=1e-12)

    def test_rejects_negative_inverse_radius(self):
        with pytest.raises(ValueError):
            chord_length(1.0, -0.5)


class TestTetrahedronFromChords:
    def test_unit_chords_give_regular_tetrahedron(self):
        r = tetrahedron_from_chords(np.ones(6))
        d = pairwise(r.coords)
        np.testing.assert_allclose(d + np.eye(4), np.ones((4, 4)), atol=1e-9)
        volume = abs(np.linalg.det(r.coords[1:] - r.coords[0])) / 6
        assert volume == pytest.approx(1 / (6 * math.sqrt(2)), abs=1e-9)

    def test_planar_square_has_rank_two(self):
        r = tetrahedron_from_chords(SQUARE_CHORDS)
        assert r.coords.shape == (4, 3)
        assert np.abs(r.coords[:, 2]).max() <= 1e-9

    def test_unrealizable_chords(self):
        with pytest.raises(NotRealizableError) as err:
            tetrahedron_from_chords(np.array([1, 1, 1, 3, 1, 1.0]))
        assert err.value.eigenvalue < 0


class TestCircumradius:
    def test_regular_tetrahedron_in_unit_sphere(self):
        r = tetrahedron_from_chords(np.full(6, REGULAR_CHORD))
        sphere = circumradius(r)
        assert sphere.radius == pytest.approx(1.0, abs=1e-9)

    def test_cube_corner(self):
        # solving the 3x3 linear system by hand gives center (1/2,1/2,1/2)
        t = Realization([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sphere = circumradius(t)
        assert sphere.radius == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        np.testing.assert_allclose(sphere.center, [0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_regular_tetrahedron_at_extreme_units(self, k):
        r = tetrahedron_from_chords(np.full(6, REGULAR_CHORD))
        sphere = circumradius(Realization(r.coords * k))
        assert sphere.radius == pytest.approx(k, rel=1e-9)

    def test_coplanar_is_infinite(self):
        t = Realization([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert not circumradius(t).is_finite

    def test_needle_is_solid(self):
        # equal distances to the first two points give x = 1/2, to the first
        # and third y = 5e-4, to the second and fourth z = 5e-4
        sphere = circumradius(Realization(NEEDLE))
        np.testing.assert_allclose(sphere.center, [0.5, 5e-4, 5e-4], rtol=0, atol=1e-12)
        assert sphere.radius == pytest.approx(math.sqrt(0.25 + 5e-7), rel=1e-12)

    def test_center_is_equidistant(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            pts = rng.standard_normal((4, 3))
            if abs(np.linalg.det(pts[1:] - pts[0])) / 6 < 0.05:
                continue
            sphere = circumradius(Realization(pts))
            dists = np.linalg.norm(pts - sphere.center, axis=1)
            assert np.abs(dists - sphere.radius).max() <= 1e-8 * max(1.0, sphere.radius)


class TestInverseCircumradius:
    def test_regular_fixed_point_at_one(self):
        g = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC))
        assert inverse_circumradius(1.0, g) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_zero_is_flat_inverse_radius(self):
        g = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC))
        # flat regular tetrahedron with side a has circumradius a sqrt(3/8)
        expect = 1.0 / (REGULAR_GEODESIC * math.sqrt(3 / 8))
        assert inverse_circumradius(0.0, g) == pytest.approx(expect, abs=1e-12)

    def test_planar_chords_give_zero(self):
        assert inverse_circumradius(0.0, GeodesicTetrahedron(SQUARE_CHORDS)) == 0.0

    def test_outside_interval_rejected(self):
        g = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC))
        with pytest.raises(ValueError):
            inverse_circumradius(math.pi / REGULAR_GEODESIC, g)

    def test_undefined_is_a_legal_outcome(self):
        # square pattern with both diagonals stretched beyond sqrt(2): the
        # chord tetrahedron does not exist for small x (None), yet the
        # relative shrinking of the long diagonals makes it realizable
        # closer to the interval end
        g = GeodesicTetrahedron(np.array([1, 1.7, 1, 1, 1.7, 1.0]))
        xs = np.linspace(1e-3, math.pi / g.a_max - 1e-9, 60)
        values = [inverse_circumradius(float(x), g) for x in xs]
        assert values[0] is None
        assert any(v is not None for v in values)

    def test_flat_realizable_inputs_stay_defined(self):
        # for inputs realizable at x = 0 the chord map shrinks longer
        # geodesics relatively more, so realizability never degrades on
        # the open interval
        rng = np.random.default_rng(43)
        for _ in range(5):
            g = random_tetra_geodesics(rng)
            xs = np.linspace(1e-6, math.pi / g.a_max * (1 - 1e-9), 25)
            assert all(inverse_circumradius(float(x), g) is not None for x in xs)


    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=12, max_size=12),
        st.integers(0, 999),
        st.integers(-60, 60),
    )
    def test_closed_form_matches_realized_circumradius(self, coords, f, u):
        pts = np.array(coords, dtype=float).reshape(4, 3)
        assume(abs(np.linalg.det(pts[1:] - pts[0])) >= 6.0)
        g = GeodesicTetrahedron(geodesics_of(pts) * 10.0 ** (u / 10))
        x = f / 1000 * math.pi / g.a_max
        want = reference_inverse_circumradius(x, g)
        got = inverse_circumradius(x, g)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, rel=1e-9)


class TestEmbedOnSphere:
    def test_regular_tetrahedron_unit_sphere(self):
        g = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC))
        emb = embed_on_sphere(g)
        assert emb.radius == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(np.linalg.norm(emb.points, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(emb.geodesics, REGULAR_GEODESIC, atol=1e-9)
        # direction set is a regular tetrahedron: all pairwise dot products -1/3
        dots = emb.points @ emb.points.T
        np.testing.assert_allclose(dots - np.eye(4) * (1 + 1 / 3), -1 / 3, atol=1e-9)

    def test_scale_equivariance(self):
        g1 = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC))
        r1 = embed_on_sphere(g1).radius
        for t in (0.5, 2.0):
            gt = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC * t))
            rt = embed_on_sphere(gt).radius
            assert rt == pytest.approx(t * r1, rel=1e-6)

    def test_planar_input_not_applicable(self):
        with pytest.raises(NotApplicableError):
            embed_on_sphere(GeodesicTetrahedron(SQUARE_CHORDS))

    def test_unrealizable_input_not_applicable(self):
        with pytest.raises(NotApplicableError):
            embed_on_sphere(GeodesicTetrahedron(np.array([1, 1, 1, 3, 1, 1.0])))

    def test_fixed_point_residual_and_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            g = random_tetra_geodesics(rng)
            emb = embed_on_sphere(g)
            y = 1.0 / emb.radius
            phi_y = inverse_circumradius(y, g)
            assert phi_y is not None
            assert abs(phi_y - y) <= 1e-9
            np.testing.assert_allclose(emb.geodesics / g.a, 1.0, atol=1e-6)
            np.testing.assert_allclose(
                np.linalg.norm(emb.points, axis=1), emb.radius, rtol=1e-9
            )

    def test_flat_limit_continuity(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = random_tetra_geodesics(rng)
            r0 = inverse_circumradius(0.0, g)
            small = inverse_circumradius(1e-6, g)
            assert abs(small - r0) <= 1e-3 * r0

    def test_needle_geodesics(self):
        # the needle's side lengths taken as geodesics; the radius is the
        # root of the closed form in 50-digit arithmetic (mpmath)
        g = GeodesicTetrahedron(geodesics_of(NEEDLE))
        emb = embed_on_sphere(g)
        assert emb.radius == pytest.approx(0.3185351243996336, rel=1e-11)
        assert emb.radius == pytest.approx(reference_radius(g), rel=1e-9)
        np.testing.assert_allclose(emb.geodesics, g.a, rtol=1e-9)

    @pytest.mark.parametrize("thickness", [1e-2, 1e-3, 1e-4])
    def test_needle_residual_matches_realized_circumradius(self, thickness):
        pts = NEEDLE * [1.0, thickness / 1e-3, thickness / 1e-3]
        g = GeodesicTetrahedron(geodesics_of(pts))
        for f in (0.0, 0.3, 0.6, 0.9):
            x = f * math.pi / g.a_max
            assert inverse_circumradius(x, g) == pytest.approx(
                reference_inverse_circumradius(x, g), rel=1e-9
            )

    def test_radius_matches_scalar_reference_scan(self):
        rng = np.random.default_rng(44)
        solved = 0
        for _ in range(60):
            g = GeodesicTetrahedron(random_cap_geodesics(rng) * 10.0 ** rng.uniform(-6, 6))
            try:
                radius = embed_on_sphere(g).radius
            except NotApplicableError:
                continue
            solved += 1
            assert radius == pytest.approx(reference_radius(g), rel=1e-9)
        assert solved >= 15


class TestRefinementWork:
    def test_few_stacked_residual_calls_per_query(self, monkeypatch):
        # about ten scans close the bracket to adjacent floats; one residual
        # at a time, bisection takes about fifty
        calls = []
        residual = sphere._inverse_circumradii

        def counting(xs, g, tol):
            calls.append(xs.size)
            return residual(xs, g, tol)

        monkeypatch.setattr(sphere, "_inverse_circumradii", counting)
        rng = np.random.default_rng(45)
        solved = 0
        for _ in range(50):
            del calls[:]
            try:
                embed_on_sphere(GeodesicTetrahedron(random_cap_geodesics(rng)))
            except NotApplicableError:
                continue
            solved += 1
            assert len(calls) <= 12
        assert solved >= 15

    def test_no_sign_change_raises_no_convergence(self, monkeypatch):
        # the residual stays positive on all of (0, pi/a_max), so the
        # bracket closes on its right end without a sign change
        calls = []

        def positive(xs, g, tol):
            calls.append(xs.size)
            return 2 * xs + 1

        monkeypatch.setattr(sphere, "_inverse_circumradii", positive)
        with pytest.raises(NoConvergenceError):
            embed_on_sphere(GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC)))
        assert 0 < len(calls) <= 12

    def test_bracket_left_at_zero_still_terminates(self, monkeypatch):
        # every grid point of the first scan stops, so the bracket is
        # (0, first grid point); the synthetic residual is positive only
        # below x0 and the refinement must close in on x0 from there
        g = GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC))
        x0 = 1e-12 * math.pi / g.a_max
        monkeypatch.setattr(
            sphere, "_inverse_circumradii", lambda xs, g, tol: np.where(xs < x0, np.inf, np.nan)
        )
        emb = embed_on_sphere(g)
        assert math.isfinite(emb.radius)
