"""Spherical embedding of 4-point metrics via a fixed point on the inverse radius.

A 4-point semi-metric realizable in 3-space but not in the plane can be
placed on the surface of some sphere so that the six geodesic arc lengths
reproduce the six given distances.  The construction maps an inverse radius
x to the chord lengths the geodesics would subtend on a sphere of radius
1/x and takes the inverse circumradius of the chord tetrahedron, in closed
form from its side lengths (R^2 = -det(D^2) / (2 det(CM)), solved through
the anchored Gram matrix); a fixed point of that map is the sphere that
works.  The solver has one loop, in units of the longest geodesic a_max: it
scans a grid of x inside the bracket, starting from (0, pi), in one stacked
evaluation and narrows the bracket to the first sign change, treating inverse
radii where the chord tetrahedron stops existing as a right-bracket shrink.
The first grid is uniform and also holds x = 0, where the chord tetrahedron
is the input itself, so the same scan says whether the input is realizable
in 3-space and not planar; once the residual is finite at both bracket ends,
a later grid also clusters points around the false-position estimate, so a
smooth residual closes the bracket in a few scans.  A scan first certifies
the solid chord tetrahedra, nearly all of them, by a Cholesky factor of
their shifted Gram matrices (``matrices._solid_tetrahedra``); only the rest
reach the eigensolver.
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
    _classify_stack,
    _factor_gram,
    _in_units,
    _readonly,
    _solid_tetrahedra,
    _unit,
    _unit_squares,
    _ValueRecord,
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
# Points on each side of the false-position estimate in a scan placed around
# it (_scan_grid); the rest of its SCAN_POINTS form a uniform grid.
_SECANT_SIDE = 11
_SECANT_STEPS = np.linspace(0.0, 1.0, _SECANT_SIDE)
_SECANT_UNIFORM = np.arange(1, SCAN_POINTS - 2 * _SECANT_SIDE) / (SCAN_POINTS - 2 * _SECANT_SIDE)


@dataclass(frozen=True, eq=False)
class GeodesicTetrahedron(_ValueRecord):
    """Six positive geodesic side lengths, indexed by VERTEX_PAIRS."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (6,):
            raise ValueError(f"expected 6 side lengths, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("geodesic lengths must be positive reals")
        object.__setattr__(self, "a", _readonly(a))

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


@dataclass(frozen=True, eq=False)
class Circumsphere(_ValueRecord):
    """Circumscribed sphere of four points; radius is inf when they are coplanar."""

    radius: float
    center: np.ndarray | None

    def __post_init__(self):
        if self.center is not None:
            object.__setattr__(self, "center", _readonly(self.center))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.radius)


@dataclass(frozen=True, eq=False)
class SphericalEmbedding(_ValueRecord):
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
        object.__setattr__(self, "points", _readonly(p))
        object.__setattr__(self, "geodesics", _readonly(g))


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


def _realize_chords(c: np.ndarray, tol: Tolerances) -> Realization:
    """Realize six chord lengths as 4 points in R^3."""
    unit, dec = DistanceMatrix(_pair_matrices(c))._spectrum
    _, verdict, columns = _factor_gram(dec, tol)
    if not verdict.is_psd:
        raise NotRealizableError(verdict.min_eigenvalue * unit * unit)
    coords = np.zeros((4, 3))
    coords[:, : verdict.rank] = columns * unit
    return Realization(coords)


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
    return _realize_chords(c, tol)


def circumradius(t: Realization, tol: Tolerances | None = None) -> Circumsphere:
    """Sphere through four points in R^3.

    Solves the linear system equating squared distances to a common center.
    When the points span fewer than 3 dimensions by the toolkit's one rank
    cut (as in :func:`distgeo.embedding.classify_edm`) they are coplanar and
    the radius is infinite.  Solved in units of the coordinates' extent; a
    radius or centre too large or too small for a float raises
    FloatRangeError, except that a centre coordinate below the smallest
    normal float comes back as 0.0.
    """
    tol = tol or DEFAULT_TOLERANCES
    p = t.coords
    if p.shape != (4, 3):
        raise ValueError(f"need exactly 4 points in R^3, got shape {p.shape}")
    p2, unit = _unit_squares(np.abs(p))
    p = p / unit
    rank, _ = _classify_stack(_unit_squares(p[:, None, :] - p[None, :, :])[0].sum(axis=-1), tol)
    if rank < 3:
        return Circumsphere(math.inf, None)
    a = 2.0 * (p[1:] - p[0])
    b = p2[1:].sum(axis=1) - p2[0].sum()
    center = np.linalg.solve(a, b)
    radius = np.linalg.norm(p - center, axis=1).mean()
    # One loss check for the radius and the centre together.  A centre
    # coordinate below 1 in units, the size of the largest point coordinate,
    # that lands below the normal range is far under the points' own float
    # spacing (unless they lie near that range too), so it comes back 0.0.
    residue = np.append(np.abs(center) < 1.0, False)
    scaled = _in_units(np.append(center, radius), unit, 1, "circumsphere", residue=residue)
    return Circumsphere(float(scaled[3]), scaled[:3])


def _inverse_circumradii(
    xs: np.ndarray, g: GeodesicTetrahedron, tol: Tolerances
) -> np.ndarray:
    """Inverse circumradius of the chord tetrahedron at each inverse radius in xs, in 1/a_max.

    NaN where the chord tetrahedron does not exist (not PSD), 0.0 where it
    is planar (rank below 3), and otherwise 2 / sqrt(b^T G^-1 b), with G
    the Gram matrix anchored at vertex 0 and b its diagonal: the
    Cayley-Menger ratio R^2 = -det(D^2) / (2 det(CM)) without the two
    determinants, which lose digits on needle-shaped tetrahedra.  Chords are
    taken in units of a_max, so the residual neither over- nor underflows.
    Rows that :func:`~distgeo.matrices._solid_tetrahedra` certifies have
    rank 3 without an eigensolver; only the others are classified by
    ``_classify_stack``, one batched eigvalsh.  Either way a row gets the
    value that classifying every row would give, bit for bit.
    """
    c2 = _chords(g.a / g.a_max, xs[:, None]) ** 2
    d2 = _pair_matrices(c2)
    out = np.full(xs.shape, np.nan)
    solid = _solid_tetrahedra(c2, tol)
    rest = ~solid
    if rest.any():
        rank, is_psd = _classify_stack(d2[rest], tol)
        out[rest] = np.where(is_psd & (rank < 3), 0.0, np.nan)
        solid[rest] = is_psd & (rank == 3)
    d2 = d2[solid]
    b = d2[:, 0, 1:]
    bgb = (b * np.linalg.solve(_anchor(d2), b[..., None])[..., 0]).sum(axis=-1)
    out[solid] = 2.0 / np.sqrt(bgb)
    return out


def inverse_circumradius(
    x: float, g: GeodesicTetrahedron, tol: Tolerances | None = None
) -> float | None:
    """Inverse circumradius of the chord tetrahedron at inverse radius x.

    Returns 0.0 when the chord tetrahedron is coplanar and None when it does
    not exist (the fixed-point solver treats None as a bracket shrink).
    Defined for 0 <= x < pi / a_max.  An inverse circumradius that overflows
    or lands below the normal float range raises FloatRangeError.
    """
    if not (0.0 <= x < math.pi / g.a_max):
        raise ValueError(
            f"inverse radius {x!r} outside [0, pi/a_max) = [0, {math.pi / g.a_max!r})"
        )
    value = float(_inverse_circumradii(np.array([x * g.a_max]), g, tol or DEFAULT_TOLERANCES)[0])
    if math.isnan(value):
        return None
    # value is in 1/a_max, and a_max / unit lies in [1, 2): divide by the
    # one, shift by the other.
    unit = _unit(g.a_max)
    return _in_units(value / (g.a_max / unit), unit, -1, "inverse circumradius")


def _scan_grid(lo: float, hi: float, r_lo: float, r_hi: float) -> np.ndarray:
    """At most SCAN_POINTS increasing inverse radii strictly inside (lo, hi).

    r_lo > 0 >= r_hi are the residuals at the bracket ends, NaN where none
    is known.  Unless both are finite the grid is uniform.  Otherwise it
    holds the false-position estimate c = lo + (hi - lo) r_lo / (r_lo - r_hi),
    c plus and minus _SECANT_SIDE offsets geometric from (hi - lo) / 2 down
    to the float spacing at c, and a uniform grid of odd size, which holds
    the midpoint and bounds the widest gap when c is no guide (a step, or a
    residual far steeper on one side).  Sorted, only the points inside the
    bracket that increase are kept.
    """
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        return np.linspace(lo, hi, SCAN_POINTS + 2)[1:-1]
    w = hi - lo
    c = lo + w * (r_lo / (r_lo - r_hi))
    offsets = (w / 2) * (2 * math.ulp(c) / w) ** _SECANT_STEPS
    grid = np.concatenate([lo + w * _SECANT_UNIFORM, c - offsets, [c], c + offsets])
    grid.sort()
    keep = (grid > lo) & (grid < hi)
    keep[1:] &= grid[1:] > grid[:-1]
    return grid[keep]


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
    point of :func:`inverse_circumradius` on (0, pi/a_max), in units of
    1/a_max, starting from the bracket (0, pi).  One loop scans up to
    SCAN_POINTS inverse radii strictly inside the bracket and narrows it to
    the first sign change of the residual until no float lies strictly
    between its ends; inverse radii where the chord tetrahedron stops
    existing shrink the right bracket, and a right end still at pi raises
    NoConvergenceError.  The first scan is uniform and also takes x = 0,
    the input itself, whose residual is the one realizability and
    planarity verdict; while the residual is finite at both ends, a later
    scan also clusters points around the false-position estimate of the
    root, else it stays uniform.  Of several fixed points the smallest is
    returned, i.e. the sphere closest to the flat configuration.  The scan
    and the realization work in units of the longest geodesic, so the
    answer scales with the input over the whole float range, subnormal
    lengths included.
    """
    tol = tol or DEFAULT_TOLERANCES
    a_max = g.a_max
    unit = g.a / a_max

    # The first scan also takes x = 0, where phi(0) is the inverse
    # circumradius of the input itself: NaN when it is not realizable and
    # 0.0 when it is planar, so a first stop there ends the solve at
    # hi = 0.  NaN (no chord tetrahedron) compares as not positive.  r_lo
    # and r_hi are the residuals phi(x) - x at the bracket ends, NaN until
    # a scan has met that end.  Each later pass holds a uniform grid, which
    # has a point strictly inside (lo, hi) while a float lies there, and
    # that point moves lo up or hi down, so the loop ends.
    lo, hi = 0.0, math.pi
    r_lo = r_hi = math.nan
    grid = np.linspace(lo, hi, SCAN_POINTS + 2)[:-1]
    while True:
        residual = _inverse_circumradii(grid, g, tol) - grid
        stops = np.flatnonzero(~(residual > 0))
        first = int(stops[0]) if stops.size else grid.size
        if first:
            lo, r_lo = float(grid[first - 1]), float(residual[first - 1])
        if stops.size:
            hi, r_hi = float(grid[first]), float(residual[first])
        if not np.nextafter(lo, hi) < hi:
            break
        grid = _scan_grid(lo, hi, r_lo, r_hi)
    if hi == 0.0 and math.isnan(r_hi):
        eigenvalue = DistanceMatrix(_pair_matrices(unit))._spectrum[1].eigenvalues[-1]
        raise NotApplicableError(
            "side lengths are not realizable in 3-space (eigenvalue "
            f"{eigenvalue:g} in units of the longest side squared)"
        )
    if hi == 0.0:
        raise NotApplicableError("side lengths are realizable in the plane; no sphere is needed")
    if hi == math.pi:
        raise NoConvergenceError(
            "no sign change of the fixed-point residual inside (0, pi/a_max)"
        )

    y = lo if lo > 0.0 else hi
    tetra = _realize_chords(_chords(unit, y), tol)
    sphere = circumradius(tetra, tol)
    if not sphere.is_finite:
        raise NoConvergenceError("fixed-point refinement landed on a planar tetrahedron")
    points = tetra.coords - sphere.center
    points = points * (sphere.radius / np.linalg.norm(points, axis=1))[:, None]
    geodesics = _realized_geodesics(points, sphere.radius)
    return SphericalEmbedding(sphere.radius * a_max, points * a_max, geodesics * a_max)
