"""Spherical embedding of 4-point metrics via a fixed point on the inverse radius.

A 4-point semi-metric realizable in 3-space but not in the plane can be
placed on the surface of some sphere so that the six geodesic arc lengths
reproduce the six given distances.  The construction maps an inverse radius
x to the chord lengths the geodesics would subtend on a sphere of radius
1/x, realizes the chord tetrahedron in 3-space, and reads off the inverse
circumradius; a fixed point of that map is the sphere that works.  The
solver scans for the first sign change and bisects, treating inverse radii
where the chord tetrahedron stops existing as a right-bracket shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeodesicTooLongError,
    NoConvergenceError,
    NotApplicableError,
    NotRealizableError,
)
from .matrices import (
    DEFAULT_TOLERANCES,
    DistanceMatrix,
    Realization,
    Tolerances,
    _factor_gram,
    double_center,
)

__all__ = [
    "VERTEX_PAIRS",
    "GeodesicTetrahedron",
    "Circumsphere",
    "SphericalEmbedding",
    "chord_length",
    "tetrahedron_from_chords",
    "circumradius",
    "inverse_circumradius",
    "embed_on_sphere",
]

# Order in which the six vertex pairs of a tetrahedron are listed.
VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

BISECTION_ITERATION_CAP = 200
SCAN_POINTS = 64


@dataclass(frozen=True)
class GeodesicTetrahedron:
    """Six positive geodesic side lengths, indexed by VERTEX_PAIRS."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (6,):
            raise ValueError(f"expected 6 side lengths, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("geodesic lengths must be positive reals")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def a_max(self) -> float:
        return float(self.a.max())

    def distance_matrix(self) -> DistanceMatrix:
        m = np.zeros((4, 4))
        for value, (i, j) in zip(self.a, VERTEX_PAIRS):
            m[i, j] = m[j, i] = value
        return DistanceMatrix(m)

    @classmethod
    def from_distance_matrix(cls, d: DistanceMatrix) -> "GeodesicTetrahedron":
        if d.n != 4:
            raise ValueError(f"need a 4x4 distance matrix, got {d.n}x{d.n}")
        return cls(np.array([d.d[i, j] for i, j in VERTEX_PAIRS]))


@dataclass(frozen=True)
class Circumsphere:
    """Circumscribed sphere of four points; radius is inf when they are coplanar."""

    radius: float
    center: np.ndarray | None

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.radius)


@dataclass(frozen=True)
class SphericalEmbedding:
    """Four points on a sphere centered at the origin, with realized geodesics.

    ``geodesics`` lists radius times the central angle for each pair in
    VERTEX_PAIRS order.
    """

    radius: float
    points: np.ndarray
    geodesics: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        g = np.asarray(self.geodesics, dtype=float)
        if p.shape != (4, 3) or g.shape != (6,):
            raise ValueError("expected 4x3 points and 6 geodesics")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be a positive real")
        p = p.copy()
        g = g.copy()
        p.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "geodesics", g)


def chord_length(alpha: float, x: float) -> float:
    """Chord subtending a geodesic of length alpha on the sphere of radius 1/x.

    c_x(alpha) = (2/x) sin(alpha x / 2); at x = 0 the sphere is flat and the
    chord equals the geodesic.  Raises GeodesicTooLongError when the
    geodesic exceeds the great circle (alpha x > 2 pi).
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"geodesic length must be nonnegative, got {alpha!r}")
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"inverse radius must be nonnegative, got {x!r}")
    if x == 0.0:
        return alpha
    if alpha * x > 2.0 * math.pi:
        raise GeodesicTooLongError(alpha, x)
    return (2.0 / x) * math.sin(0.5 * alpha * x)


def _realize_chords(
    c: np.ndarray, tol: Tolerances
) -> tuple[Realization, int]:
    """Realize six chord lengths as 4 points in R^3, plus the affine rank."""
    m = np.zeros((4, 4))
    for value, (i, j) in zip(c, VERTEX_PAIRS):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"chord lengths must be nonnegative, got {value!r}")
        m[i, j] = m[j, i] = value
    _, verdict, columns = _factor_gram(double_center(DistanceMatrix(m)), tol)
    if not verdict.is_psd or verdict.rank > 3:
        raise NotRealizableError(verdict.min_eigenvalue)
    coords = np.zeros((4, 3))
    coords[:, : verdict.rank] = columns
    return Realization(coords), verdict.rank


def tetrahedron_from_chords(c, tol: Tolerances | None = None) -> Realization:
    """Four points in R^3 whose distances are the six given chord lengths.

    Chords are indexed by VERTEX_PAIRS.  Raises NotRealizableError (carrying
    the offending eigenvalue) when the lengths are not realizable in
    3-space; a planar input comes back with a zero third coordinate.
    """
    tol = tol or DEFAULT_TOLERANCES
    c = np.asarray(c, dtype=float)
    if c.shape != (6,):
        raise ValueError(f"expected 6 chord lengths, got shape {c.shape}")
    realization, _ = _realize_chords(c, tol)
    return realization


def circumradius(t: Realization, tol: Tolerances | None = None) -> Circumsphere:
    """Sphere through four points in R^3.

    Solves the linear system equating squared distances to a common center.
    When the tetrahedron volume is below rank_tol times the cubed longest
    side the points are treated as coplanar and the radius is infinite.
    """
    tol = tol or DEFAULT_TOLERANCES
    p = t.coords
    if p.shape != (4, 3):
        raise ValueError(f"need exactly 4 points in R^3, got shape {p.shape}")
    edges = p[1:] - p[0]
    volume = abs(float(np.linalg.det(edges))) / 6.0
    diff = p[:, None, :] - p[None, :, :]
    longest = float(np.sqrt((diff**2).sum(axis=-1)).max())
    if volume <= tol.rank_tol * longest**3:
        return Circumsphere(math.inf, None)
    a = 2.0 * edges
    b = (p[1:] ** 2).sum(axis=1) - (p[0] ** 2).sum()
    center = np.linalg.solve(a, b)
    radius = float(np.linalg.norm(p - center, axis=1).mean())
    return Circumsphere(radius, center)


def inverse_circumradius(
    x: float, g: GeodesicTetrahedron, tol: Tolerances | None = None
) -> float | None:
    """Inverse circumradius of the chord tetrahedron at inverse radius x.

    Returns 0.0 when the chord tetrahedron is coplanar and None when it does
    not exist (the fixed-point solver treats None as a bracket shrink).
    Defined for 0 <= x < pi / a_max.
    """
    tol = tol or DEFAULT_TOLERANCES
    if not (0.0 <= x < math.pi / g.a_max):
        raise ValueError(
            f"inverse radius {x!r} outside [0, pi/a_max) = [0, {math.pi / g.a_max!r})"
        )
    chords = np.array([chord_length(alpha, x) for alpha in g.a])
    try:
        realization, _ = _realize_chords(chords, tol)
    except NotRealizableError:
        return None
    sphere = circumradius(realization, tol)
    if not sphere.is_finite:
        return 0.0
    return 1.0 / sphere.radius


def _realized_geodesics(points: np.ndarray, radius: float) -> np.ndarray:
    out = np.empty(6)
    for idx, (i, j) in enumerate(VERTEX_PAIRS):
        cross = np.linalg.norm(np.cross(points[i], points[j]))
        dot = float(points[i] @ points[j])
        out[idx] = radius * math.atan2(cross, dot)
    return out


def embed_on_sphere(
    g: GeodesicTetrahedron, tol: Tolerances | None = None
) -> SphericalEmbedding:
    """Place the four points on a sphere so the geodesics match the input.

    Requires the six lengths to be realizable in 3-space and non-planar
    (NotApplicableError otherwise).  The inverse radius solves the fixed
    point of :func:`inverse_circumradius` on (0, pi/a_max): a coarse scan
    locates the first sign change of the residual, bisection refines it,
    and inverse radii where the chord tetrahedron stops existing shrink the
    right bracket.  Of several fixed points the smallest is returned, i.e.
    the sphere closest to the flat configuration.
    """
    tol = tol or DEFAULT_TOLERANCES
    try:
        flat, rank = _realize_chords(g.a, tol)
    except NotRealizableError as err:
        raise NotApplicableError(
            f"side lengths are not realizable in 3-space ({err})"
        ) from err
    if rank < 3:
        raise NotApplicableError(
            "side lengths are realizable in the plane; no sphere is needed"
        )

    x_hi = math.pi / g.a_max
    eps = 1e-9 * x_hi

    def residual(x: float) -> float | None:
        value = inverse_circumradius(x, g, tol)
        return None if value is None else value - x

    # phi(0) = inverse circumradius of the flat tetrahedron, positive here
    # because the input is non-planar.
    lo = 0.0
    lo_res = residual(0.0)
    if lo_res is None or lo_res <= 0.0:
        raise NotApplicableError("flat configuration has no finite circumsphere")

    hi = None
    grid = np.linspace(eps, x_hi - eps, SCAN_POINTS)
    for x in grid:
        r = residual(float(x))
        if r is not None and r > 0.0:
            lo = float(x)
        else:
            hi = float(x)
            break
    if hi is None:
        raise NoConvergenceError(
            "no sign change of the fixed-point residual inside (0, pi/a_max)"
        )

    for _ in range(BISECTION_ITERATION_CAP):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        r = residual(mid)
        if r is not None and r > 0.0:
            lo = mid
        else:
            hi = mid

    y = lo if lo > 0.0 else hi
    chords = np.array([chord_length(alpha, y) for alpha in g.a])
    tetra, _ = _realize_chords(chords, tol)
    sphere = circumradius(tetra, tol)
    if not sphere.is_finite:
        raise NoConvergenceError("fixed-point refinement landed on a planar tetrahedron")
    radius = sphere.radius
    points = tetra.coords - sphere.center
    points = points * (radius / np.linalg.norm(points, axis=1))[:, None]
    geodesics = _realized_geodesics(points, radius)
    return SphericalEmbedding(radius=radius, points=points, geodesics=geodesics)
