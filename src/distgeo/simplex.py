"""Simplex geometry from side lengths.

Triangle area and inradius from the semiperimeter product, Cayley-Menger
determinants and simplex volumes in any dimension from one log determinant
of the projected Gram, and a unit-invariant flatness test.  Whether a
volume exists, whether it is zero, and whether the simplex is flat are all
read off the centered Gram spectrum at the rank cut, as classify_edm reads
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .matrices import DEFAULT_TOLERANCES, DistanceMatrix, Tolerances
from .matrices import _cayley_menger_log, _from_log, _in_units, _rank_cut, _unit, _unit_squares

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
    """The exact power-of-two :func:`_unit` of the sides, and in units of it the
    semiperimeter s and s-a, s-b, s-c: products of them neither overflow nor underflow."""
    unit = _unit((t.a, t.b, t.c))
    a, b, c = t.a / unit, t.b / unit, t.c / unit
    s = 0.5 * (a + b + c)
    return unit, s, s - a, s - b, s - c


def heron_area(t: TriangleSides) -> float:
    """Triangle area sqrt(s (s-a) (s-b) (s-c)).

    Computed in units of the longest side's power of two and scaled back.  Raises
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

    Equals heron_area(t) / s, computed in units of the longest side's power of two.
    Raises InfeasibleError when any of x, y, z is negative.
    """
    unit, _, x, y, z = _unit_triangle(t)
    smallest = min(x, y, z)
    if smallest < 0.0:
        raise InfeasibleError("no triangle with these side lengths", smallest * unit)
    # At most the longest side, so scaling back cannot overflow.
    return math.sqrt(max(x * y * z, 0.0) / (x + y + z)) * unit


def cayley_menger_determinant(s: SimplexSides) -> float:
    """Determinant of the squared-distance matrix bordered by a row and column of ones.

    For m vertices it equals (-1)^m m det 2P, with P the (m-1)-by-(m-1)
    projected Gram: its sign alternates with the dimension, and it vanishes
    exactly on flat simplices.  Taken as one log determinant in units of
    the longest side; a value outside the float range raises FloatRangeError.
    """
    d2, unit = _unit_squares(s.d.d)
    return _from_log(*_cayley_menger_log(d2), unit, 2 * (s.m - 1), "Cayley-Menger determinant")


def simplex_volume(s: SimplexSides, tol: Tolerances | None = None) -> float:
    """Volume of the (m-1)-simplex with the given side lengths.

    Both decisions come from the centered Gram spectrum that the side matrix
    caches (``s.d._spectrum``), the one that :func:`distgeo.embedding.classify_edm`
    reads, so the two never disagree on realizability.  Sides that are not
    an EDM at its rank cut raise InfeasibleError carrying the Cayley-Menger
    squared volume, which is positive when an even number of eigenvalues
    are negative.  An EDM whose (m-1)-th largest eigenvalue is at most
    (m+1)^2 eps times the largest, rounding residue, has volume exactly 0.0.
    Otherwise the value is V_n^2 = (-1)^(n-1) / (2^n (n!)^2) * CM with
    n = m-1, in log space from :func:`cayley_menger_determinant`'s log and
    lgamma.  A volume (or squared volume) outside the float range raises
    FloatRangeError.
    """
    n = s.m - 1
    w = s.d._spectrum[1].eigenvalues
    d2, unit = _unit_squares(s.d.d)
    sign, log = _cayley_menger_log(d2)
    sign *= (-1) ** (n - 1)
    log -= n * math.log(2.0) + 2.0 * math.lgamma(n + 1)
    if not _rank_cut(w, tol or DEFAULT_TOLERANCES)[2]:
        raise InfeasibleError(
            "side lengths are not realizable", _from_log(sign, log, unit, 2 * n, "squared volume")
        )
    if w[n - 1] <= (n + 2) ** 2 * np.finfo(float).eps * w[0]:
        return 0.0
    return _from_log(max(sign, 0.0), 0.5 * log, unit, n, "volume")


def is_flat(s: SimplexSides, tol: Tolerances | None = None) -> bool:
    """True when, besides the centering null, the centered Gram spectrum that
    the side matrix caches (``s.d._spectrum``) has an eigenvalue within the
    rank cut: the simplex spans fewer than m-1 dimensions.

    This is the spectral reading that :func:`simplex_volume` and
    :func:`distgeo.embedding.classify_edm` take, and the rule the Menger
    report applies to each subset at the whole space's cut, so it does not
    depend on measurement units.  A long side does not make a simplex flat:
    the tetrahedron on a unit triangle with height 1e4, an EDM of rank 3 and
    volume 1443.38, is not, and neither are sides with one clearly negative
    eigenvalue, such as a regular simplex holding a 1-1-3 triangle.
    """
    w = s.d._spectrum[1].eigenvalues
    return bool(np.count_nonzero(np.abs(w) <= _rank_cut(w, tol or DEFAULT_TOLERANCES)[0]) >= 2)
