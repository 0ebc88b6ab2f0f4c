"""Spherical embedding of 4-point metrics via a fixed point on the inverse radius.

A 4-point semi-metric realizable in 3-space but not in the plane can be
placed on the surface of some sphere so that the six geodesic arc lengths
reproduce the six given distances.  The construction maps an inverse radius
x to the chord lengths the geodesics would subtend on a sphere of radius
1/x and takes the inverse circumradius of the chord tetrahedron, in closed
form from its squared side lengths by the circumcentre equation on its
centred realization; a fixed point of that map is the sphere that works.
The solver has one loop, in units of the longest geodesic a_max: it scans a
grid of x inside the bracket, starting from (0, pi), in one stacked
evaluation and narrows the bracket to the first sign change, treating inverse
radii where the chord tetrahedron stops existing as a right-bracket shrink.
The first grid is uniform and also holds x = 0, where the chord tetrahedron
is the input itself, so the same scan says whether the input is realizable
in 3-space and not planar; once the residual is finite at both bracket ends,
a later grid also clusters points around the false-position estimate, so a
smooth residual closes the bracket in a few scans.  A scan is one
elementwise pass over the squared chords of its grid: one Cholesky factor
P = L L^T of each chord tetrahedron's projected Gram matrix
(``matrices._solid_tetrahedra``) both certifies the solid ones, nearly all
of them, by its determinant and gives their circumcentres and radii by a
forward solve; only the uncertified rest reach the eigensolver.  The
answer is read off the same kernel at the final inverse radius: the
vertices R L of the chord tetrahedron (R the Helmert basis), less its
circumcentre, are the points on the sphere, so a solve runs no
eigendecomposition and no linear solve after the scan.
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
    _circumcentre_map,
    _classify_stack,
    _factor_gram,
    _factor_vertices,
    _in_units,
    _readonly,
    _solid_tetrahedra,
    _tetrahedron_map,
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
    """(2/x) sin(alpha x / 2) = alpha sin(t) / t with t = alpha x / 2,
    broadcasting; t = 0 gives alpha.  sin(t) / t is exactly 1 for tiny t, so
    subnormal t is exact too."""
    t = np.multiply(alpha, x) * 0.5
    return alpha * np.divide(np.sin(t), t, out=np.ones_like(t), where=t != 0.0)


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
    unit, dec = DistanceMatrix(_pair_matrices(c))._spectrum
    _, verdict, columns = _factor_gram(dec, tol)
    if not verdict.is_psd:
        raise NotRealizableError(verdict.min_eigenvalue * unit * unit)
    coords = np.zeros((4, 3))
    coords[:, : verdict.rank] = columns * unit
    return Realization(coords)


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


def _circumspheres(xs: np.ndarray, g: GeodesicTetrahedron, tol: Tolerances):
    """``(value, factor, centre)`` of the chord tetrahedron at each inverse
    radius in xs, each an array over xs: its inverse circumradius, in
    1/a_max; the entries (l00, l10, l20, l11, l21, l22) of the Cholesky
    factor P = L L^T of its projected Gram; and its circumcentre
    y = L^-1 u as (y0, y1, y2), both in units of a_max.

    The value is NaN where the chord tetrahedron does not exist (not PSD)
    and 0.0 where it is planar (rank below 3).  One elementwise pass over
    the squared chords c2, held as a (6, S) array in units of a_max, so
    nothing over- or underflows: one product gives each chord tetrahedron's
    projected Gram P, and :func:`~distgeo.matrices._solid_tetrahedra`
    factors it once and certifies the rows of rank 3 without an
    eigensolver; only the others are classified by ``_classify_stack``, one
    batched eigvalsh.

    The rows of R L (:func:`~distgeo.matrices._factor_vertices`) are the
    chord tetrahedron's vertices about their barycentre; in their frame the
    circumcentre equation reads L y = u, with u the
    :func:`~distgeo.matrices._circumcentre_map` of c2, and
    R^2 = sum(c2) / 16 + |y|^2.  Both terms are nonnegative, so nothing
    cancels, and the form treats the four vertices alike.  Where P is not
    positive definite the factor, and so the centre and the value, is NaN
    or inf; only rows of rank 3 read them.
    """
    c2 = _chords((g.a / g.a_max)[:, None], xs) ** 2
    solid, factor = _solid_tetrahedra(_tetrahedron_map().T @ c2, tol)
    l00, l10, l20, l11, l21, l22 = factor
    u0, u1, u2 = _circumcentre_map().T @ c2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y0 = u0 / l00
        y1 = (u1 - l10 * y0) / l11
        y2 = (u2 - l20 * y0 - l21 * y1) / l22
        value = 1.0 / np.sqrt(c2.sum(axis=0) / 16.0 + y0 * y0 + y1 * y1 + y2 * y2)
    out = np.where(solid, value, np.nan)
    rest = ~solid
    if rest.any():
        rank, is_psd = _classify_stack(_pair_matrices(c2[:, rest].T), tol)
        out[rest] = np.where(is_psd, np.where(rank == 3, value[rest], 0.0), np.nan)
    return out, factor, (y0, y1, y2)


def _inverse_circumradii(
    xs: np.ndarray, g: GeodesicTetrahedron, tol: Tolerances
) -> np.ndarray:
    """Inverse circumradius of the chord tetrahedron at each inverse radius
    in xs, in 1/a_max: the value of :func:`_circumspheres`, the residual
    scan's one call."""
    return _circumspheres(xs, g, tol)[0]


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
    """radius times the angle between each pair of points, in VERTEX_PAIRS
    order, from the norm of their cross product (written out: np.cross
    costs more than the rest together) and their dot product."""
    (p0, p1, p2), (q0, q1, q2) = points[_ROWS].T, points[_COLS].T
    cross = np.sqrt((p1 * q2 - p2 * q1) ** 2 + (p2 * q0 - p0 * q2) ** 2 + (p0 * q1 - p1 * q0) ** 2)
    return radius * np.arctan2(cross, p0 * q0 + p1 * q1 + p2 * q2)


def _lengths(values, a_max: float, quantity: str):
    """Lengths given in units of a_max, scaled back: multiplied by
    a_max / unit in [1, 2), then shifted by unit = _unit(a_max).  From
    unit 1 up the shift goes through the loss check, so a length past the
    top of the float range raises FloatRangeError naming ``quantity``;
    below it no length overflows, and one that lands below the normal range
    keeps the bits it has, as subnormal input lengths do.  Bit for bit
    values * a_max wherever that is a normal float."""
    unit = _unit(a_max)
    values = values * (a_max / unit)
    if unit < 1.0:
        return values * unit
    return _in_units(values, unit, 1, quantity)


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
    returned, i.e. the sphere closest to the flat configuration.  The
    sphere is read off the scan's kernel at the final inverse radius y: the
    chord tetrahedron's vertices from the Cholesky factor of its projected
    Gram, less its circumcentre, scaled to the radius 1/phi(y); the points
    come out in that factor's frame.  A final chord tetrahedron that is not
    solid raises NoConvergenceError.  The scan and the sphere are computed
    in units of the longest geodesic, so the answer scales with the input
    over the whole float range, subnormal lengths included; a radius or
    point coordinate too large for a float raises FloatRangeError.
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
    value, factor, centre = _circumspheres(np.array([y]), g, tol)
    if not value[0] > 0.0:
        raise NoConvergenceError("fixed-point refinement landed on a planar tetrahedron")
    radius = 1.0 / float(value[0])
    points = _factor_vertices([entry[0] for entry in factor]) - [entry[0] for entry in centre]
    points *= (radius / np.linalg.norm(points, axis=1))[:, None]
    # one loss check for the radius, the geodesics and the points together
    lengths = np.concatenate([[radius], _realized_geodesics(points, radius), points.ravel()])
    lengths = _lengths(lengths, a_max, "sphere")
    return SphericalEmbedding(float(lengths[0]), lengths[7:].reshape(4, 3), lengths[1:7])
