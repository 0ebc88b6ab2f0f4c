"""Simplex geometry from side lengths.

Triangle area and inradius from the semiperimeter product, Cayley-Menger
determinants of the bordered squared-distance matrix, simplex volumes in any
dimension, and a unit-invariant flatness test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .matrices import DEFAULT_TOLERANCES, DistanceMatrix, Tolerances, _in_units, _unit_squares

__all__ = [
    "TriangleSides",
    "SimplexSides",
    "heron_area",
    "inradius",
    "cayley_menger_determinant",
    "simplex_volume",
    "is_flat",
]


@dataclass(frozen=True)
class TriangleSides:
    """Three positive side lengths; the semiperimeter s is derived."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"side {name} must be a positive real, got {value!r}")

    @property
    def s(self) -> float:
        return 0.5 * (self.a + self.b + self.c)


@dataclass(frozen=True)
class SimplexSides:
    """Side-length matrix of an (m-1)-simplex on m >= 2 vertices."""

    d: DistanceMatrix

    def __post_init__(self):
        if self.d.n < 2:
            raise ValueError("a simplex needs at least 2 vertices")

    @property
    def m(self) -> int:
        return self.d.n

    @classmethod
    def from_triangle(cls, t: TriangleSides) -> "SimplexSides":
        m = np.array([[0.0, t.a, t.b], [t.a, 0.0, t.c], [t.b, t.c, 0.0]])
        return cls(DistanceMatrix(m))


def _unit_triangle(t: TriangleSides) -> tuple[float, float, float, float, float]:
    """The longest side, and in units of it the semiperimeter s and s-a,
    s-b, s-c: products of them neither overflow nor underflow."""
    unit = max(t.a, t.b, t.c)
    a, b, c = t.a / unit, t.b / unit, t.c / unit
    s = 0.5 * (a + b + c)
    return unit, s, s - a, s - b, s - c


def heron_area(t: TriangleSides) -> float:
    """Triangle area sqrt(s (s-a) (s-b) (s-c)).

    Computed in units of the longest side and scaled back.  Raises
    InfeasibleError carrying the negative radicand when no triangle has
    these side lengths, and FloatRangeError when the area (or radicand) is
    too large for a float.
    """
    unit, s, x, y, z = _unit_triangle(t)
    radicand = s * x * y * z
    if radicand < 0.0:
        raise InfeasibleError(
            "no triangle with these side lengths", _in_units(radicand, unit, 4, "radicand")
        )
    return _in_units(math.sqrt(radicand), unit, 2, "area")


def inradius(t: TriangleSides) -> float:
    """Radius of the inscribed circle: sqrt(xyz / (x+y+z)) with x,y,z = s-a, s-b, s-c.

    Equals heron_area(t) / s, computed in units of the longest side.
    Raises InfeasibleError when any of x, y, z is negative.
    """
    unit, _, x, y, z = _unit_triangle(t)
    smallest = min(x, y, z)
    if smallest < 0.0:
        raise InfeasibleError("no triangle with these side lengths", smallest * unit)
    # At most the longest side, so scaling back cannot overflow.
    return math.sqrt(max(x * y * z, 0.0) / (x + y + z)) * unit


def _bordered(d2: np.ndarray) -> np.ndarray:
    """Squared distances bordered by a row and column of ones, over the last two axes."""
    m = d2.shape[-1]
    b = np.ones(d2.shape[:-2] + (m + 1, m + 1))
    b[..., :m, :m] = d2
    b[..., m, m] = 0.0
    return b


def _unit_determinant(d2: np.ndarray) -> np.ndarray:
    """Bordered determinant of squared distances in units of the largest, over
    the last two axes: unit-free, and it neither overflows nor underflows."""
    scale = d2.max(axis=(-2, -1), keepdims=True, initial=np.finfo(float).tiny)
    return np.linalg.det(_bordered(d2 / scale))


def _flat(d2: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Zero-volume test on squared side lengths: |unit determinant| <= rank_tol."""
    return np.abs(_unit_determinant(d2)) <= tol.rank_tol


def cayley_menger_determinant(s: SimplexSides) -> float:
    """Determinant of the squared-distance matrix bordered by a row and column of ones.

    For m vertices this is the (m+1)-by-(m+1) determinant whose sign
    alternates with the dimension; it vanishes exactly on flat simplices.
    Taken in units of the longest side and scaled back; a determinant too
    large or too small for a float raises FloatRangeError.
    """
    d2, unit = _unit_squares(s.d.d)
    det = float(np.linalg.det(_bordered(d2)))
    return _in_units(det, unit, 2 * (s.m - 1), "Cayley-Menger determinant")


def simplex_volume(s: SimplexSides, tol: Tolerances | None = None) -> float:
    """Volume of the (m-1)-simplex with the given side lengths.

    Uses V_n^2 = (-1)^(n-1) / (2^n (n!)^2) * det with n = m-1, the
    determinant taken in units of the longest side.  Within its rounding
    level, (m+1)^2 machine epsilons, the volume is exactly 0.0.  A negative
    squared volume gives 0.0 on a simplex that :func:`is_flat` calls flat
    and otherwise raises InfeasibleError carrying it.  A volume (or squared
    volume) too large for a float raises FloatRangeError.
    """
    tol = tol or DEFAULT_TOLERANCES
    n = s.m - 1
    dmax = float(s.d.d.max())
    d2 = (s.d.d / (dmax or 1.0)) ** 2
    delta = float(_unit_determinant(d2))
    if abs(delta) <= (n + 2) ** 2 * np.finfo(float).eps:
        return 0.0
    v2 = ((-1.0) ** (n - 1) / (2.0**n * math.factorial(n) ** 2)) * delta
    if v2 < 0.0 and abs(delta) > tol.rank_tol:
        raise InfeasibleError(
            "side lengths are not realizable", _in_units(v2, dmax, 2 * n, "squared volume")
        )
    return _in_units(math.sqrt(max(v2, 0.0)), dmax, n, "volume")


def is_flat(s: SimplexSides, tol: Tolerances | None = None) -> bool:
    """True when the simplex has zero volume within tolerance.

    The determinant is normalized by (max squared distance)^(m-1) so the
    test does not depend on measurement units.
    """
    return bool(_flat(_unit_squares(s.d.d)[0], tol or DEFAULT_TOLERANCES))
