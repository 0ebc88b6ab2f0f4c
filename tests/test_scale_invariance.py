"""Verdicts do not depend on the unit of measure.

Inputs are built from small integers so that every eigenvalue and bordered
determinant is either exactly zero or far from its threshold; rescaling by
10^u with u in [-6, 6] must then leave every verdict unchanged and scale
every length.  Over the whole float range, 10^u with u in [-300, 300], the
random spaces of the subset-engine tests keep every verdict they have at
their own scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgeo.embedding import classical_mds, classify_edm
from distgeo.matrices import DistanceMatrix, Realization, edm_from_realization
from distgeo.semimetric import (
    FiniteSemiMetricSpace,
    congruently_embeddable,
    verify_menger_criterion,
)
from distgeo.simplex import SimplexSides, is_flat
from distgeo.sphere import GeodesicTetrahedron, embed_on_sphere
from test_subset_engine import spaces

REGULAR_GEODESIC = 2 * math.asin(math.sqrt(2 / 3))

# 10^u for u in [-6, 6] in steps of 0.1: integer draws spread evenly over
# the decades, where float draws cluster on a few values.
scales = st.integers(-60, 60).map(lambda t: 10.0 ** (t / 10))


@st.composite
def point_edms(draw, coord=3, distinct=False):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-coord, coord)] * k)
    pts = draw(st.lists(point, min_size=n, max_size=n, unique=distinct))
    return edm_from_realization(Realization(np.array(pts, dtype=float))).d


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(2, 7))
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(st.integers(1, 5), min_size=pairs, max_size=pairs))
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = upper
    return m + m.T


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(point_edms(), integer_matrices()), scales)
def test_classify_edm_is_unit_invariant(d, k):
    base = classify_edm(DistanceMatrix(d))
    scaled = classify_edm(DistanceMatrix(k * d))
    assert (scaled.is_edm, scaled.dim) == (base.is_edm, base.dim)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.one_of(point_edms(coord=2, distinct=True), integer_matrices()),
    scales,
    st.integers(0, 3),
)
def test_psd_and_menger_routes_agree_on_rescaled_spaces(d, k, dim):
    n = d.shape[0]
    space = FiniteSemiMetricSpace(tuple(range(n)), DistanceMatrix(k * d))
    psd = congruently_embeddable(space, dim)
    menger = verify_menger_criterion(space, dim)
    assert psd.embeddable == menger.embeddable


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spaces, st.integers(-3000, 3000).map(lambda t: 10.0 ** (t / 10)))
def test_verdicts_hold_over_the_whole_float_range(space, k):
    s, dim = space
    t = FiniteSemiMetricSpace(s.labels, DistanceMatrix(k * s.d.d))
    base, scaled = classify_edm(s.d), classify_edm(t.d)
    assert (scaled.is_edm, scaled.dim) == (base.is_edm, base.dim)
    base, scaled = congruently_embeddable(s, dim), congruently_embeddable(t, dim)
    assert (scaled.embeddable, scaled.failing_subset) == (base.embeddable, base.failing_subset)
    assert verify_menger_criterion(t, dim) == verify_menger_criterion(s, dim)
    assert is_flat(SimplexSides(t.d)) == is_flat(SimplexSides(s.d))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6),
    scales,
)
def test_sphere_radius_scales_with_the_geodesics(jitter, k):
    a = REGULAR_GEODESIC * (1.0 + np.array(jitter))
    base = embed_on_sphere(GeodesicTetrahedron(a))
    scaled = embed_on_sphere(GeodesicTetrahedron(k * a))
    assert math.isclose(scaled.radius, k * base.radius, rel_tol=1e-9)


# at 1e-309 the longest geodesic is subnormal and pi / a_max overflows
@pytest.mark.parametrize("k", [1e-309, 1e-170, 1e-155, 1e-60, 1e60, 1e160, 1e300])
def test_sphere_radius_scales_at_extreme_units(k):
    a = REGULAR_GEODESIC * np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.0])
    base = embed_on_sphere(GeodesicTetrahedron(a))
    scaled = embed_on_sphere(GeodesicTetrahedron(k * a))
    assert math.isclose(scaled.radius, k * base.radius, rel_tol=1e-9)


@pytest.mark.parametrize("k", [1e-6, 1e6])
def test_mds_residual_is_unit_invariant(k):
    # points 0 and 1 coincide, so their realized distance is measured
    # against the largest target distance, not against a fixed unit
    d = np.array([[0, 0, 1, 1], [0, 0, 2, 1], [1, 2, 0, 1], [1, 1, 1, 0.0]])
    base = classical_mds(DistanceMatrix(d)).residual
    scaled = classical_mds(DistanceMatrix(k * d)).residual
    assert math.isclose(scaled, base, rel_tol=1e-9)
