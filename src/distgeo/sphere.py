"""Spherical embedding of 4-point metrics via a fixed point on the inverse radius.

A 4-point semi-metric realizable in 3-space but not in the plane can be
placed on the surface of some sphere so that the six geodesic arc lengths
reproduce the six given distances.  The construction maps an inverse radius
x to the chord lengths the geodesics would subtend on a sphere of radius
1/x and takes the inverse circumradius of the chord tetrahedron, in closed
form from its side lengths (R^2 = -det(D^2) / (2 det(CM)), solved through
the anchored Gram matrix); a fixed point of that map is the sphere that
works.  The solver has one loop: it scans a grid of x inside the bracket,
starting from (0, pi/a_max), in one stacked evaluation and narrows the
bracket to the first sign change, treating inverse radii where the chord
tetrahedron stops existing as a right-bracket shrink.
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
    _anchor,
    _center,
    _classify_stack,
    _factor_gram,
    _unit_squares,
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
_ROWS, _COLS = np.array(VERTEX_PAIRS).T

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
        return DistanceMatrix(_pair_matrices(self.a))

    @classmethod
    def from_distance_matrix(cls, d: DistanceMatrix) -> "GeodesicTetrahedron":
        if d.n != 4:
            raise ValueError(f"need a 4x4 distance matrix, got {d.n}x{d.n}")
        return cls(d.d[_ROWS, _COLS])


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


def _pair_matrices(values: np.ndarray) -> np.ndarray:
    """Symmetric hollow (..., 4, 4) matrices from (..., 6) values in VERTEX_PAIRS order."""
    m = np.zeros(values.shape[:-1] + (4, 4))
    m[..., _ROWS, _COLS] = m[..., _COLS, _ROWS] = values
    return m


def _chords(alpha, x):
    """(2/x) sin(alpha x / 2), broadcasting; sinc makes x = 0 give alpha."""
    return alpha * np.sinc(alpha * x / (2.0 * math.pi))


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
    if alpha * x > 2.0 * math.pi:
        raise GeodesicTooLongError(alpha, x)
    return float(_chords(alpha, x))


def _realize_chords(c: np.ndarray, tol: Tolerances) -> tuple[Realization, int]:
    """Realize six chord lengths as 4 points in R^3, plus the affine rank."""
    d2, unit = _unit_squares(DistanceMatrix(_pair_matrices(c)).d)
    _, verdict, columns = _factor_gram(_center(d2), tol)
    if not verdict.is_psd or verdict.rank > 3:
        raise NotRealizableError(verdict.min_eigenvalue * unit * unit)
    coords = np.zeros((4, 3))
    coords[:, : verdict.rank] = columns * unit
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
    When the points span fewer than 3 dimensions by the toolkit's one rank
    cut (as in :func:`distgeo.embedding.classify_edm`) they are coplanar and
    the radius is infinite.  Solved in units of the coordinates' extent.
    """
    tol = tol or DEFAULT_TOLERANCES
    p = t.coords
    if p.shape != (4, 3):
        raise ValueError(f"need exactly 4 points in R^3, got shape {p.shape}")
    rank, _ = _classify_stack(_unit_squares(p[:, None, :] - p[None, :, :])[0].sum(axis=-1), tol)
    if rank < 3:
        return Circumsphere(math.inf, None)
    p2, unit = _unit_squares(np.abs(p))
    p = p / unit
    a = 2.0 * (p[1:] - p[0])
    b = p2[1:].sum(axis=1) - p2[0].sum()
    center = np.linalg.solve(a, b)
    radius = float(np.linalg.norm(p - center, axis=1).mean())
    return Circumsphere(radius * unit, center * unit)


def _inverse_circumradii(
    xs: np.ndarray, g: GeodesicTetrahedron, tol: Tolerances
) -> np.ndarray:
    """Inverse circumradius of the chord tetrahedron at each inverse radius in xs.

    NaN where the chord tetrahedron does not exist (not PSD, or rank above
    3), 0.0 where it is planar (rank below 3), and otherwise 2 / sqrt(b^T
    G^-1 b), with G the Gram matrix anchored at vertex 0 and b its diagonal:
    the Cayley-Menger ratio R^2 = -det(D^2) / (2 det(CM)) without the two
    determinants, which lose digits on needle-shaped tetrahedra.  Chords are
    taken in units of a_max, so the residual neither over- nor underflows.
    """
    a_max = g.a_max
    d2 = _pair_matrices(_chords(g.a / a_max, xs[:, None] * a_max) ** 2)
    rank, is_psd = _classify_stack(d2, tol)
    out = np.where(is_psd & (rank < 3), 0.0, np.nan)
    solid = is_psd & (rank == 3)
    d2 = d2[solid]
    b = d2[:, 0, 1:]
    bgb = (b * np.linalg.solve(_anchor(d2), b[..., None])[..., 0]).sum(axis=-1)
    out[solid] = 2.0 / (np.sqrt(bgb) * a_max)
    return out


def inverse_circumradius(
    x: float, g: GeodesicTetrahedron, tol: Tolerances | None = None
) -> float | None:
    """Inverse circumradius of the chord tetrahedron at inverse radius x.

    Returns 0.0 when the chord tetrahedron is coplanar and None when it does
    not exist (the fixed-point solver treats None as a bracket shrink).
    Defined for 0 <= x < pi / a_max.
    """
    if not (0.0 <= x < math.pi / g.a_max):
        raise ValueError(
            f"inverse radius {x!r} outside [0, pi/a_max) = [0, {math.pi / g.a_max!r})"
        )
    value = float(_inverse_circumradii(np.array([x]), g, tol or DEFAULT_TOLERANCES)[0])
    return None if math.isnan(value) else value


def _realized_geodesics(points: np.ndarray, radius: float) -> np.ndarray:
    p, q = points[_ROWS], points[_COLS]
    cross = np.linalg.norm(np.cross(p, q), axis=1)
    return radius * np.arctan2(cross, (p * q).sum(axis=1))


def embed_on_sphere(
    g: GeodesicTetrahedron, tol: Tolerances | None = None
) -> SphericalEmbedding:
    """Place the four points on a sphere so the geodesics match the input.

    Requires the six lengths to be realizable in 3-space and non-planar
    (NotApplicableError otherwise).  The inverse radius solves the fixed
    point of :func:`inverse_circumradius` on (0, pi/a_max).  One loop,
    starting from the bracket (0, pi/a_max), scans SCAN_POINTS inverse radii
    strictly inside the bracket and narrows it to the first sign change of
    the residual until no float lies strictly between its ends; inverse
    radii where the chord tetrahedron stops existing shrink the right
    bracket, and a right end still at pi/a_max raises NoConvergenceError.
    Of several fixed points the smallest is returned, i.e. the sphere
    closest to the flat configuration.  Both realizations work in units of
    the longest geodesic, so the answer scales with the input over the
    whole float range.
    """
    tol = tol or DEFAULT_TOLERANCES
    a_max = g.a_max
    unit = g.a / a_max
    try:
        _, rank = _realize_chords(unit, tol)
    except NotRealizableError as err:
        raise NotApplicableError(
            "side lengths are not realizable in 3-space (eigenvalue "
            f"{err.eigenvalue:g} in units of the longest side squared)"
        ) from err
    if rank < 3:
        raise NotApplicableError(
            "side lengths are realizable in the plane; no sphere is needed"
        )

    # The residual phi(x) - x starts positive at x = 0: phi(0) is the inverse
    # circumradius of the input itself, finite because its rank is 3.  NaN
    # (no chord tetrahedron) compares as not positive.
    # Each pass has a grid point strictly inside (lo, hi) while a float lies
    # there, and that point moves lo up or hi down, so the loop ends.
    x_hi = math.pi / a_max
    lo, hi = 0.0, x_hi
    while np.nextafter(lo, hi) < hi:
        grid = np.linspace(lo, hi, SCAN_POINTS + 2)[1:-1]
        stops = np.flatnonzero(~(_inverse_circumradii(grid, g, tol) > grid))
        first = int(stops[0]) if stops.size else grid.size
        lo = float(grid[first - 1]) if first else lo
        hi = float(grid[first]) if stops.size else hi
    if hi == x_hi:
        raise NoConvergenceError(
            "no sign change of the fixed-point residual inside (0, pi/a_max)"
        )

    y = lo if lo > 0.0 else hi
    tetra, _ = _realize_chords(_chords(unit, y * a_max), tol)
    sphere = circumradius(tetra, tol)
    if not sphere.is_finite:
        raise NoConvergenceError("fixed-point refinement landed on a planar tetrahedron")
    points = tetra.coords - sphere.center
    points = points * (sphere.radius / np.linalg.norm(points, axis=1))[:, None]
    geodesics = _realized_geodesics(points, sphere.radius)
    return SphericalEmbedding(sphere.radius * a_max, points * a_max, geodesics * a_max)
