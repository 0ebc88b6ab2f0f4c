"""Spherical embedding: chord map, chord realization, circumsphere, fixed point.

The regular tetrahedron inscribed in the unit sphere anchors everything:
side sqrt(8/3), geodesic (central angle) 2 asin(sqrt(2/3)) = 1.9106332...
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distgeo.errors import (
    FloatRangeError,
    GeodesicTooLongError,
    NoConvergenceError,
    NotApplicableError,
    NotRealizableError,
)
from distgeo.matrices import (
    DEFAULT_TOLERANCES,
    DistanceMatrix,
    Realization,
    Tolerances,
    _classify_stack,
    _solid_tetrahedra,
    _tetrahedron_map,
)
from distgeo import matrices, sphere
from distgeo.sphere import (
    SCAN_POINTS,
    VERTEX_PAIRS,
    GeodesicTetrahedron,
    SphericalEmbedding,
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
    return geodesics_on_sphere(v) * (1.0 + rng.uniform(-0.2, 0.2, 6) * (rng.uniform() < 0.2))


def cap_geodesics(rng, theta):
    """Geodesics of four uniform random points in a unit-sphere cap of angular radius theta."""
    z = rng.uniform(math.cos(theta), 1.0, 4)
    phi = rng.uniform(0.0, 2.0 * math.pi, 4)
    rho = np.sqrt(1.0 - z * z)
    return geodesics_on_sphere(np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1))


def geodesics_on_sphere(v):
    return np.array(
        [math.atan2(np.linalg.norm(np.cross(v[i], v[j])), v[i] @ v[j]) for i, j in VERTEX_PAIRS]
    )


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

    @pytest.mark.parametrize(
        "scale, x",
        [(1e-309, 1e300), (5e307, 0.0)],
        ids=["overflow", "below-normal"],
    )
    def test_result_outside_float_range_raises(self, scale, x):
        # in units of 1/a_max the value is ordinary; only the final division
        # by a_max leaves the float range
        g = GeodesicTetrahedron(scale * REGULAR_GEODESIC * np.array([1, 1.1, 0.9, 1.05, 0.95, 1]))
        with pytest.raises(FloatRangeError):
            inverse_circumradius(x, g)

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
        with pytest.raises(NotApplicableError) as err:
            embed_on_sphere(GeodesicTetrahedron(SQUARE_CHORDS))
        assert str(err.value) == "side lengths are realizable in the plane; no sphere is needed"

    def test_unrealizable_input_not_applicable(self):
        with pytest.raises(NotApplicableError) as err:
            embed_on_sphere(GeodesicTetrahedron(np.array([1, 1, 1, 3, 1, 1.0])))
        assert str(err.value) == (
            "side lengths are not realizable in 3-space"
            " (eigenvalue -0.166667 in units of the longest side squared)"
        )

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


def stacked_calls_per_query(monkeypatch):
    """Stacked residual calls of each solved query on the rng-45 cap draws."""
    calls = []
    residual = sphere._inverse_circumradii

    def counting(xs, g, tol):
        calls.append(xs.size)
        return residual(xs, g, tol)

    monkeypatch.setattr(sphere, "_inverse_circumradii", counting)
    rng = np.random.default_rng(45)
    counts = []
    for _ in range(50):
        del calls[:]
        try:
            embed_on_sphere(GeodesicTetrahedron(random_cap_geodesics(rng)))
        except NotApplicableError:
            continue
        counts.append(len(calls))
    return counts


def closing_bracket(monkeypatch, phi):
    """The bracket embed_on_sphere closes, and its stacked calls, when phi
    (in units of 1/a_max) replaces the inverse circumradius map."""
    seen = []

    def recording(xs, g, tol):
        values = phi(xs)
        seen.append((xs.copy(), values - xs))
        return values

    monkeypatch.setattr(sphere, "_inverse_circumradii", recording)
    embed_on_sphere(GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC)))
    xs, residuals = map(np.concatenate, zip(*seen))
    return xs[residuals > 0].max(), xs[~(residuals > 0)].min(), len(seen)


class TestRefinementWork:
    def test_few_stacked_residual_calls_per_query(self, monkeypatch):
        # the first scan is uniform, and later ones cluster around the
        # false-position estimate, so about five scans close the bracket to
        # adjacent floats; one residual at a time, bisection takes about fifty
        counts = stacked_calls_per_query(monkeypatch)
        assert all(count <= 12 for count in counts)
        assert len(counts) >= 15

    def test_input_is_realized_once_after_the_scan(self, monkeypatch):
        # the first scan's residual at x = 0 says whether the input is
        # realizable and not planar, and the final sphere's points come off
        # the Cholesky factor of one more kernel call, so a solved query runs
        # no eigendecomposition at all
        events = []
        residual, kernel = sphere._inverse_circumradii, sphere._circumspheres
        decompose = matrices.symmetric_eigendecomposition

        def scanning(xs, g, tol):
            events.append("scan")
            return residual(xs, g, tol)

        def realizing(xs, g, tol):
            events.append("kernel")
            return kernel(xs, g, tol)

        def decomposing(a):
            events.append("eigh")
            return decompose(a)

        monkeypatch.setattr(sphere, "_inverse_circumradii", scanning)
        monkeypatch.setattr(sphere, "_circumspheres", realizing)
        monkeypatch.setattr(matrices, "symmetric_eigendecomposition", decomposing)
        rng = np.random.default_rng(45)
        solved = refused = 0
        for _ in range(50):
            del events[:]
            try:
                embed_on_sphere(GeodesicTetrahedron(random_cap_geodesics(rng)))
            except NotApplicableError:
                refused += 1
                assert events[:2] == ["scan", "kernel"]
                assert events.count("scan") == 1
                continue
            solved += 1
            assert "eigh" not in events
            assert events[0] == "scan"
            assert events[-2:] == ["kernel", "kernel"]
            assert events.count("kernel") == events.count("scan") + 1
        assert solved >= 15 and refused >= 1
        # taking x = 0 into the first scan adds no call: the 19 solved draws
        # take 101 stacked calls.  Near the root the residual is a few
        # rounding errors, so where its last sign change falls, and whether
        # one more scan is needed, moves with the last bits of the residual
        # kernel: 8 of these draws take one call more or fewer than with
        # the anchored-Gram solve, which took 100, and one takes a call
        # fewer with chords from sin(t) / t than from np.sinc, which took 102.
        monkeypatch.setattr(sphere, "_inverse_circumradii", residual)
        counts = stacked_calls_per_query(monkeypatch)
        assert (len(counts), sum(counts)) == (19, 101)

    def test_secant_scans_cut_the_calls(self, monkeypatch):
        # uniform scans alone gain about 6 bits each and take 9 to 10 calls
        counts = stacked_calls_per_query(monkeypatch)
        assert len(counts) >= 15
        assert np.mean(counts) <= 7
        assert max(counts) <= 10

    @pytest.mark.parametrize("x0", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize(
        "phi",
        [
            # a step: the false-position estimate is always the midpoint
            lambda x0: lambda xs: xs + np.where(xs < x0, 1.0, -1.0),
            # no chord tetrahedron above x0: the grid stays uniform
            lambda x0: lambda xs: np.where(xs < x0, xs + 1.0, np.nan),
            # flat below, steep above: the estimate rounds onto the left end
            lambda x0: lambda xs: np.where(xs < x0, x0, xs + 1e300 * (x0 - xs)),
            # steep below, flat above: the estimate rounds onto the right end
            lambda x0: lambda xs: np.where(xs < x0, xs + 1e300 * (x0 - xs), x0),
            # linear with the float x0 as its root: the residual is exactly 0 there
            lambda x0: lambda xs: 2 * x0 - xs,
        ],
        ids=["step", "nan-above", "flat-below", "flat-above", "linear"],
    )
    def test_secant_grid_closes_on_synthetic_residuals(self, monkeypatch, phi, x0):
        lo, hi, calls = closing_bracket(monkeypatch, phi(x0))
        assert lo < x0 <= hi
        assert np.nextafter(lo, hi) == hi
        assert calls <= 12

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


def uncertified(p, tol):
    """_solid_tetrahedra with no row certified: its factor, and every row
    left to the eigensolver."""
    solid, factor = _solid_tetrahedra(p, tol)
    return np.zeros_like(solid), factor


def classified_inverse_circumradii(xs, g, tol):
    """_inverse_circumradii with every row classified by _classify_stack."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sphere, "_solid_tetrahedra", uncertified)
        return sphere._inverse_circumradii(xs, g, tol)


def outcome(g):
    """embed_on_sphere's record, or the type and message of what it raised."""
    try:
        return embed_on_sphere(g)
    except (NotApplicableError, NoConvergenceError) as err:
        return type(err), str(err)


def fixture_geodesics():
    fixture = np.loadtxt(Path(__file__).parent / "fixtures" / "regular_geodesics.txt")
    return [
        GeodesicTetrahedron.from_distance_matrix(DistanceMatrix(fixture)),
        GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC)),
        GeodesicTetrahedron(REGULAR_GEODESIC * np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.0])),
        GeodesicTetrahedron(geodesics_of(NEEDLE)),
        GeodesicTetrahedron(SQUARE_CHORDS),
        GeodesicTetrahedron(np.array([1, 1, 1, 3, 1, 1.0])),
    ]


def caps(seed, low, high, count=40):
    rng = np.random.default_rng(seed)
    return [GeodesicTetrahedron(cap_geodesics(rng, rng.uniform(low, high))) for _ in range(count)]


class TestSolidCertificate:
    """The residual scan certifies solid chord tetrahedra by a Cholesky
    factor and sends only the other rows to the eigensolver; the residuals
    must be the ones every row's eigenvalues give."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-7, 0), st.floats(-3, 3), st.booleans())
    def test_residuals_match_classifying_every_row(self, seed, log_thickness, log_scale, perturb):
        # flattened tetrahedra, their geodesics read as Euclidean lengths,
        # some pushed off the EDM cone
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((4, 3)) * [1.0, 1.0, 10.0**log_thickness]
        a = geodesics_of(pts) * 10.0**log_scale
        if perturb:
            a *= 1.0 + rng.uniform(-0.2, 0.2, 6)
        g = GeodesicTetrahedron(a)
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, math.pi, SCAN_POINTS - 1))])
        want = classified_inverse_circumradii(xs, g, DEFAULT_TOLERANCES)
        np.testing.assert_array_equal(sphere._inverse_circumradii(xs, g, DEFAULT_TOLERANCES), want)

    @pytest.mark.parametrize(
        "make, least",
        [(fixture_geodesics, 4), (lambda: caps(46, 0.3, 1.2), 5), (lambda: caps(47, 0.005, 0.05), 5)],
        ids=["fixtures", "caps", "small-caps"],
    )
    def test_eigensolver_alone_gives_the_same_embeddings(self, monkeypatch, make, least):
        # Small caps matter: their thin chord tetrahedra reach the eigensolver.
        cases = make()
        want = [outcome(g) for g in cases]
        assert sum(isinstance(o, SphericalEmbedding) for o in want) >= least
        monkeypatch.setattr(sphere, "_solid_tetrahedra", uncertified)
        assert [outcome(g) for g in cases] == want

    def test_no_scan_row_of_an_embedding_reaches_the_eigensolver(self, monkeypatch):
        # Caps over the benchmark's angular radii: every chord tetrahedron a
        # solve scans is certified, and so is the final one, whose factor
        # gives the points, so an embedding makes no _classify_stack call.
        # Inputs that are not realizable send their rows without a chord
        # tetrahedron there; no certificate speaks for those.
        shapes = []
        classify = sphere._classify_stack

        def counting(d2, tol):
            shapes.append(d2.shape)
            return classify(d2, tol)

        monkeypatch.setattr(sphere, "_classify_stack", counting)
        embedded = 0
        for g in caps(46, 0.3, 1.2):
            shapes.clear()
            if isinstance(outcome(g), SphericalEmbedding):
                embedded += 1
                assert shapes == []
        assert embedded >= 5

    def test_no_rank_3_row_near_the_cut_is_lost(self):
        # Tetrahedra of thickness about 1e-6 at the smallest rank_tol: their
        # chord tetrahedra lie near the cut, so many reach the eigensolver;
        # each one it calls rank 3 takes the Cholesky value, which exists.
        tol = Tolerances(rank_tol=1e-12)
        rng = np.random.default_rng(48)
        xs = np.linspace(0.0, 1e-3, SCAN_POINTS)
        near = 0
        for _ in range(100):
            pts = rng.standard_normal((4, 3)) * [1.0, 1.0, 10.0 ** rng.uniform(-6.5, -5.5)]
            g = GeodesicTetrahedron(geodesics_of(pts))
            c2 = sphere._chords((g.a / g.a_max)[:, None], xs) ** 2
            rank, is_psd = _classify_stack(sphere._pair_matrices(c2.T), tol)
            solid = is_psd & (rank == 3)
            near += (solid & ~_solid_tetrahedra(_tetrahedron_map().T @ c2, tol)[0]).sum()
            got = sphere._inverse_circumradii(xs, g, tol)
            assert (got[solid] > 0).all() and np.isfinite(got[solid]).all()
        assert near >= 20


def final_inverse_radius(g):
    """embed_on_sphere's outcome and the inverse radius y, in 1/a_max, at
    which it read the final sphere off the kernel (None when it raised)."""
    seen = []
    kernel = sphere._circumspheres

    def recording(xs, g, tol):
        seen.append(xs.copy())
        return kernel(xs, g, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sphere, "_circumspheres", recording)
        result = outcome(g)
    return result, (float(seen[-1][0]) if isinstance(result, SphericalEmbedding) else None)


class TestFinalSphere:
    """The embedding is read off the kernel's Cholesky factor at the final
    inverse radius y; realizing the chord tetrahedron at the same y and
    solving for its circumsphere (tetrahedron_from_chords, circumradius)
    must give the same sphere.

    Both evaluate the same chords, so they agree to within rounding errors
    amplified by the chord tetrahedron's conditioning kappa, the ratio of
    the largest to the smallest eigenvalue of its centred Gram: 1e-12
    relative, or 4 eps kappa where that is larger (thin caps and needles;
    on these inputs the two differ by at most about 0.7 eps kappa)."""

    @pytest.mark.parametrize(
        "make",
        [
            fixture_geodesics,
            lambda: caps(49, 0.005, 1.2),
            lambda: [
                GeodesicTetrahedron(geodesics_of(NEEDLE * [1.0, t / 1e-3, t / 1e-3]))
                for t in (1e-2, 1e-3, 1e-4)
            ],
        ],
        ids=["fixtures", "caps", "needles"],
    )
    def test_matches_the_realized_circumsphere(self, make):
        solved = 0
        for g in make():
            emb, y = final_inverse_radius(g)
            if not isinstance(emb, SphericalEmbedding):
                continue
            solved += 1
            chords = np.array([chord_length(alpha, y / g.a_max) for alpha in g.a])
            tetra = tetrahedron_from_chords(chords)
            spread = np.linalg.svd(tetra.coords - tetra.coords.mean(axis=0), compute_uv=False)
            bound = max(1e-12, 4 * np.finfo(float).eps * (spread[0] / spread[2]) ** 2)
            assert emb.radius == pytest.approx(circumradius(tetra).radius, rel=bound)
            np.testing.assert_allclose(emb.geodesics, g.a, rtol=bound)
            np.testing.assert_allclose(np.linalg.norm(emb.points, axis=1), emb.radius, rtol=1e-14)
            np.testing.assert_allclose(geodesics_of(emb.points), chords, rtol=bound)
            x = 1.0 / emb.radius
            assert inverse_circumradius(x, g) == pytest.approx(x, rel=bound)
        assert solved >= 3

    @pytest.mark.parametrize("value", [0.0, math.nan], ids=["planar", "no-tetrahedron"])
    def test_a_final_value_that_is_not_positive_raises(self, monkeypatch, value):
        # the scan closes on the root 1 of a synthetic residual; the kernel
        # at that inverse radius then reports no solid chord tetrahedron
        kernel = sphere._circumspheres
        monkeypatch.setattr(sphere, "_inverse_circumradii", lambda xs, g, tol: 2.0 - xs)
        monkeypatch.setattr(
            sphere, "_circumspheres", lambda xs, g, tol: (np.full(xs.shape, value),) + kernel(xs, g, tol)[1:]
        )
        with pytest.raises(NoConvergenceError, match="^fixed-point refinement landed on a planar tetrahedron$"):
            embed_on_sphere(GeodesicTetrahedron(np.full(6, REGULAR_GEODESIC)))


def mp_inverse_circumradius(a, x):
    """1/R of the chord tetrahedron of geodesics a at inverse radius x, in
    50-digit arithmetic: R^2 = -det(D^2) / (2 det(CM)) of the chords
    (2/x) sin(a x / 2)."""
    with mpmath.workdps(50):
        x = mpmath.mpf(float(x))
        d2 = mpmath.zeros(4, 4)
        cm = mpmath.ones(5, 5) - mpmath.eye(5)
        for alpha, (i, j) in zip(a, VERTEX_PAIRS):
            alpha = mpmath.mpf(float(alpha))
            chord = 2 / x * mpmath.sin(alpha * x / 2) if x else alpha
            d2[i, j] = d2[j, i] = cm[i + 1, j + 1] = cm[j + 1, i + 1] = chord**2
        return 1 / mpmath.sqrt(-mpmath.det(d2) / (2 * mpmath.det(cm)))


class TestResidualAccuracy:
    """The residual kernel against a 50-digit reference, on each row that
    it finds solid."""

    def assert_accurate(self, g):
        xs = np.linspace(0.0, math.pi, 17)[:-1]
        got = sphere._inverse_circumradii(xs, g, DEFAULT_TOLERANCES)
        solid = got > 0
        assert solid.sum() >= 4
        for x, value in zip(xs[solid], got[solid]):
            want = mp_inverse_circumradius(g.a / g.a_max, x)
            assert abs(value - want) <= 1e-10 * want

    @pytest.mark.parametrize("seed", range(4))
    def test_random_caps(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            self.assert_accurate(GeodesicTetrahedron(cap_geodesics(rng, rng.uniform(0.005, 1.2))))

    @pytest.mark.parametrize("thickness", [1e-2, 1e-3, 1e-4])
    def test_needles(self, thickness):
        self.assert_accurate(GeodesicTetrahedron(geodesics_of(NEEDLE * [1.0, thickness / 1e-3, thickness / 1e-3])))


def test_geodesic_tetrahedron_round_trips_through_its_distance_matrix():
    g = GeodesicTetrahedron(REGULAR_GEODESIC * np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.0]))
    d = g.distance_matrix()
    assert d.n == 4
    assert [d.d[i, j] for i, j in VERTEX_PAIRS] == list(g.a)
    assert GeodesicTetrahedron.from_distance_matrix(d) == g


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GeodesicTetrahedron(np.ones(5)), "expected 6 side lengths"),
        (lambda: GeodesicTetrahedron(np.ones((2, 3))), "expected 6 side lengths"),
        (lambda: GeodesicTetrahedron([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]), "positive reals"),
        (lambda: GeodesicTetrahedron([1.0, 1.0, -1.0, 1.0, 1.0, 1.0]), "positive reals"),
        (lambda: GeodesicTetrahedron([1.0, 1.0, math.inf, 1.0, 1.0, 1.0]), "positive reals"),
        (lambda: GeodesicTetrahedron.from_distance_matrix(DistanceMatrix(np.zeros((3, 3)))), "4x4"),
        (lambda: SphericalEmbedding(1.0, np.zeros((3, 3)), np.zeros(6)), "4x3 points and 6 geodesics"),
        (lambda: SphericalEmbedding(1.0, np.zeros((4, 3)), np.zeros(5)), "4x3 points and 6 geodesics"),
        (lambda: SphericalEmbedding(0.0, np.zeros((4, 3)), np.zeros(6)), "positive real"),
        (lambda: SphericalEmbedding(math.inf, np.zeros((4, 3)), np.zeros(6)), "positive real"),
        (lambda: chord_length(-1.0, 0.5), "geodesic length must be nonnegative"),
        (lambda: tetrahedron_from_chords(np.ones(5)), "expected 6 chord lengths"),
        (lambda: circumradius(Realization(np.zeros((4, 2)))), "4 points in R"),
        (lambda: circumradius(Realization(np.zeros((3, 3)))), "4 points in R"),
    ],
    ids=[
        "geodesics-count",
        "geodesics-shape",
        "geodesic-zero",
        "geodesic-negative",
        "geodesic-infinite",
        "from-3x3",
        "embedding-points-shape",
        "embedding-geodesics-shape",
        "embedding-zero-radius",
        "embedding-infinite-radius",
        "chord-negative-geodesic",
        "chords-shape",
        "circumradius-plane-points",
        "circumradius-three-points",
    ],
)
def test_malformed_input_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()
