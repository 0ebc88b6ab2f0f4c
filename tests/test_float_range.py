"""Every public numeric function answers over the whole float range.

Lengths are squared, centered and solved for in units of a power of two
near the largest (``matrices._unit``), and every result is scaled back
through one loss check (``matrices._in_units``).  So at any scale 10^k, k
in [-307, 307], a function either answers or raises a DistanceGeometryError
(FloatRangeError when the answer does not fit in a float); it never ends in
an overflow warning, which the suite turns into an error, or in a plain
ValueError or LinAlgError.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgeo.embedding import TrilaterationProblem, classical_mds, classify_edm, trilaterate
from distgeo.errors import DistanceGeometryError, FloatRangeError
from distgeo.matrices import (
    DistanceMatrix,
    Realization,
    center_realization,
    double_center,
    edm_from_realization,
    gram_from_realization,
    psd_verdict,
    schoenberg_gram,
    symmetric_eigendecomposition,
)
from distgeo.simplex import (
    SimplexSides,
    TriangleSides,
    cayley_menger_determinant,
    heron_area,
    simplex_volume,
)
from distgeo.sphere import GeodesicTetrahedron, circumradius, inverse_circumradius

REGULAR_GEODESIC = 2 * math.asin(math.sqrt(2 / 3))
TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)


def points(rng, least=1):
    """n in [least, 8] points in R^k, k in [1, 4], with largest coordinate 1."""
    x = rng.standard_normal((int(rng.integers(least, 9)), int(rng.integers(1, 5))))
    return x / np.abs(x).max()


def distances(rng, least=1):
    """The distance matrix of points(rng, least), or one with a pair stretched
    to three times the largest distance; largest entry 1 unless all are 0."""
    d = np.array(edm_from_realization(Realization(points(rng, least))).d)
    n = d.shape[0]
    if n > 2 and rng.random() < 0.5:
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] = d[j, i] = 3.0 * d.max()
    return d / d.max() if d.max() > 0 else d


def symmetric(rng):
    n = int(rng.integers(1, 9))
    a = rng.standard_normal((n, n))
    # entries at most 1/n, so every eigenvalue is at most 1 in size
    return (a + a.T) / (2 * n * np.abs(a).max())


def trilateration(rng, s):
    k = int(rng.integers(1, 4))
    anchors = rng.standard_normal((k + 1 + int(rng.integers(0, 3)), k))
    target = rng.standard_normal(k)
    extent = 2 * math.sqrt(k) * max(np.abs(anchors).max(), np.abs(target).max())
    anchors, target = anchors / extent, target / extent
    dists = np.linalg.norm(anchors - target, axis=1)
    return TrilaterationProblem(Realization(anchors * s), dists * s)


def inverse_radius_query(rng, s):
    g = GeodesicTetrahedron(REGULAR_GEODESIC * rng.uniform(0.9, 1.1, 6) * s)
    return float(rng.uniform(0.0, 1.0)) * math.pi / g.a_max, g


def tetrahedron(rng):
    """A well-shaped tetrahedron: a jittered regular one, rotated and moved,
    with largest coordinate 1."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    t = (TETRAHEDRON + rng.uniform(-0.1, 0.1, (4, 3))) @ q + rng.uniform(-1.0, 1.0, 3)
    return t / np.abs(t).max()


def realization(rng, s):
    return (Realization(points(rng) * s),)


def distance_matrix(rng, s, least=1):
    return (DistanceMatrix(distances(rng, least) * s),)


def simplex(rng, s):
    return (SimplexSides(DistanceMatrix(distances(rng, 2) * s)),)


def gram(rng, s):
    return (symmetric(rng) * s,)


# name -> (function, its arguments at scale s drawn from rng)
CALLS = {
    "edm_from_realization": (edm_from_realization, realization),
    "gram_from_realization": (gram_from_realization, realization),
    "center_realization": (center_realization, realization),
    "double_center": (double_center, distance_matrix),
    "schoenberg_gram": (schoenberg_gram, lambda rng, s: distance_matrix(rng, s, 2)),
    "psd_verdict": (psd_verdict, gram),
    "symmetric_eigendecomposition": (symmetric_eigendecomposition, gram),
    "classify_edm": (classify_edm, distance_matrix),
    "classical_mds": (classical_mds, distance_matrix),
    "simplex_volume": (simplex_volume, simplex),
    "cayley_menger_determinant": (cayley_menger_determinant, simplex),
    "heron_area": (heron_area, lambda rng, s: (TriangleSides(*map(float, rng.uniform(0.2, 1.0, 3) * s)),)),
    "trilaterate": (trilaterate, lambda rng, s: (trilateration(rng, s),)),
    "inverse_circumradius": (inverse_circumradius, inverse_radius_query),
    "circumradius": (circumradius, lambda rng, s: (Realization(tetrahedron(rng) * s),)),
}

exponents = st.one_of(st.sampled_from([-307, 307]), st.integers(-307, 307))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=exponents)
def test_answers_or_raises_a_distance_geometry_error_at_any_scale(name, seed, k):
    function, arguments = CALLS[name]
    args = arguments(np.random.default_rng(seed), 10.0**k)
    try:
        function(*args)
    except DistanceGeometryError:
        pass


def test_gram_entries_past_the_float_range_raise():
    with pytest.raises(FloatRangeError, match=r"^Gram entry of about 10\^400\.6 does not fit in a float$"):
        gram_from_realization(Realization([[1e200], [2e200]]))


def test_centering_near_the_top_of_the_float_range():
    centered = center_realization(Realization([[1.5e308], [1.6e308]])).coords
    np.testing.assert_allclose(centered, [[-5e306], [5e306]], rtol=1e-12)


def test_circumradius_near_the_top_of_the_float_range():
    p = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]]) * 1e308
    sphere = circumradius(Realization(p))
    assert sphere.radius == pytest.approx(1e308, rel=1e-12)
    np.testing.assert_allclose(sphere.center, 0.0, atol=1e293)


def test_circumradius_past_the_top_of_the_float_range_raises():
    # nearly coplanar, so the radius is about 210 times the spread: about
    # 2.1e308, which no float holds
    p = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 1e-3]]) * 1e306
    with pytest.raises(FloatRangeError, match=r"^circumsphere of about 10\^308\.3 "):
        circumradius(Realization(p))


def test_circumradius_centre_residue_below_the_float_range_is_zero():
    # centred at the origin, so the solved centre is rounding residue,
    # about 1e-17 of the radius: below the normal range at this scale
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal((4, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        sphere = circumradius(Realization(v * 1e-300))
        assert sphere.radius == pytest.approx(1e-300, rel=1e-9)
        np.testing.assert_allclose(sphere.center, 0.0, atol=1e-310)


@pytest.mark.parametrize("gap", [1e-200, 1e-160])
def test_distinct_points_keep_their_distance_below_the_square_range(gap):
    # In units of the spread, 1, the squared gap underflows: to 0.0 at
    # 1e-200, to a subnormal with a few bits at 1e-160.
    d = edm_from_realization(Realization([[0.0], [gap], [1.0]])).d
    assert d[0, 1] == d[1, 0] == gap
    assert d[1, 2] == d[2, 1] == 1.0 - gap
    assert d[0, 2] == 1.0


def test_eigenvalue_order_check_does_not_overflow():
    dec = symmetric_eigendecomposition(np.array([[0.0, 1.7e308], [1.7e308, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.7e308, -1.7e308], rtol=1e-12)
