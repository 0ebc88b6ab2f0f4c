"""Dense symmetric-matrix core.

Distance and Gram matrix types, double centering, the symmetric
eigendecomposition (LAPACK ``eigh``), positive-semidefiniteness tests, and
the conversions between Gram matrices and point realizations that underpin
classical multidimensional scaling.  Every rank cut in the toolkit is taken
here, by :func:`_rank_cut`, relative to the spectral radius of the Gram
matrix; it returns the cut with the rank, and :func:`_factor_gram` hands
that cut to its callers.  Every determinant of a distance matrix is taken
here too.  Flatness is a rank question: a subset is flat when its
projected Gram has an eigenvalue within the cut.

The float-range rules live here, once each.  :func:`_unit` is the one unit
of length, the largest power of two not above the largest entry, so
scaling by it is exact; lengths are squared (:func:`_unit_squares`),
centered and multiplied in that unit.  :func:`_in_units` is the one loss
check: it scales a result back by one shift of the binary exponent and
raises FloatRangeError when it overflows or a nonzero value lands below
the smallest normal float, which is read once, at import.
:func:`_from_log` is built on it, for a value held as a sign and a log.

All values are immutable after construction (backing arrays are read-only)
and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    FloatRangeError,
    NegativeEntryError,
    NonSquareError,
    NonzeroDiagonalError,
    NotPSDInputError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "DistanceMatrix",
    "GramMatrix",
    "SpectralDecomposition",
    "Realization",
    "PsdVerdict",
    "validate_distance_matrix",
    "double_center",
    "schoenberg_gram",
    "symmetric_eigendecomposition",
    "psd_verdict",
    "realization_from_gram",
    "gram_from_realization",
    "edm_from_realization",
    "center_realization",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class _ValueRecord:
    """Value equality for the frozen records that hold arrays, declared with
    ``@dataclass(frozen=True, eq=False)``: records of one type are equal when
    their fields are, arrays by ``np.array_equal``.  They are unhashable."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
            for a, b in pairs
        )


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the toolkit.

    rank_tol : cutoff, relative to the spectral radius, below which
        eigenvalues count as zero.
    dist_tol : relative threshold for distance comparisons.

    Both lie strictly between 0 and 1: a relative cutoff of 1 or more
    counts every eigenvalue as zero and every distance as equal.  rank_tol
    is at least 1e-12, above the eigensolver's rounding level: the null
    eigenvalues of a centered Gram, the centering one included, come out as
    residue of up to about 1e-15 times the spectral radius, which a smaller
    cutoff counts as signal.
    """

    rank_tol: float = 1e-9
    dist_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "dist_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 < value < 1):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")
        if self.rank_tol < 1e-12:
            raise ValueError(
                "rank_tol must be at least 1e-12, above the eigensolver's rounding level,"
                f" got {self.rank_tol!r}"
            )


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True, eq=False)
class DistanceMatrix(_ValueRecord):
    """Symmetric hollow nonnegative n-by-n matrix of pairwise distances.

    The constructor is the toolkit's one test of these invariants, and it
    enforces them exactly: a square finite array that is symmetric, has a
    zero diagonal and no negative entry.  It keeps one read-only copy of
    the input, in which every zero is +0.0.  Use
    :func:`validate_distance_matrix` to admit raw data with floating-point
    slack.  The spectrum of the centered Gram matrix is computed on first
    use and kept for the matrix's lifetime (:attr:`_spectrum`).
    """

    d: np.ndarray

    def __post_init__(self):
        # The one copy; adding +0.0 also turns each -0.0 into +0.0.
        d = np.asarray(self.d, dtype=float) + 0.0
        if d.ndim != 2 or not 0 < d.shape[0] == d.shape[1]:
            raise NonSquareError(d.shape)
        _require_finite(d, "matrix")
        # Each error names the worst offender; halves keep the skew finite.
        if not np.array_equal(d, d.T):
            half = 0.5 * d
            i, j = np.unravel_index(int(np.argmax(np.abs(half - half.T))), d.shape)
            raise AsymmetricMatrixError((int(i), int(j)), abs(float(d[i, j]) - float(d[j, i])))
        diag = np.diag(d)
        if np.any(diag != 0.0):
            i = int(np.argmax(np.abs(diag)))
            raise NonzeroDiagonalError(i, diag[i])
        if np.any(d < 0.0):
            i, j = np.unravel_index(int(np.argmin(d)), d.shape)
            raise NegativeEntryError((int(i), int(j)), d[i, j])
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @functools.cached_property
    def _spectrum(self) -> tuple[float, "SpectralDecomposition"]:
        """``(unit, spectrum)`` of the centered Gram matrix -1/2 J D^2 J in
        units of the largest distance (:func:`_unit_squares`): the one
        eigendecomposition behind classify_edm, classical_mds,
        congruently_embeddable and simplex_volume.  Free of tolerances, so
        each caller takes its own rank cut.  Its arrays are read-only, like
        ``d``."""
        d2, unit = _unit_squares(self.d)
        return unit, symmetric_eigendecomposition(_center(d2))

    def restrict(self, indices) -> "DistanceMatrix":
        """Sub-matrix on the given point indices (order preserved)."""
        idx = list(indices)
        return DistanceMatrix(self.d[np.ix_(idx, idx)])


@dataclass(frozen=True, eq=False)
class GramMatrix(_ValueRecord):
    """Symmetric matrix of pairwise inner products (squared-distance units).

    An input asymmetric within ``dist_tol`` of its largest entry is stored
    symmetrized; an exactly symmetric one is stored unchanged.  Skew and
    symmetrization are taken on halves of the entries, as in
    :func:`validate_distance_matrix`, so no finite entry turns into inf.
    """

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise NonSquareError(g.shape)
        if g.shape[0] == 0:
            raise ValueError("Gram matrix needs at least one point")
        _require_finite(g, "Gram matrix")
        if not np.array_equal(g, g.T):
            half = 0.5 * g
            skew = np.abs(half - half.T)
            i, j = np.unravel_index(int(np.argmax(skew)), g.shape)
            if skew[i, j] > 0.5 * DEFAULT_TOLERANCES.dist_tol * np.abs(g).max():
                raise AsymmetricMatrixError((int(i), int(j)), abs(float(g[i, j]) - float(g[j, i])))
            g = half + half.T
        object.__setattr__(self, "g", _readonly(g))

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition(_ValueRecord):
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    Column ``j`` of ``eigenvectors`` pairs with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        if w.ndim != 1 or v.ndim != 2 or v.shape != (w.size, w.size):
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        if np.any(w[1:] > w[:-1]):
            raise ValueError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", _readonly(w))
        object.__setattr__(self, "eigenvectors", _readonly(v))

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        """Return Y diag(lambda) Y^T."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


@dataclass(frozen=True, eq=False)
class Realization(_ValueRecord):
    """Ordered list of n points in R^k as an n-by-k coordinate array."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2:
            raise ValueError(f"coordinates must be a 2-d array, got shape {c.shape}")
        if c.shape[0] == 0:
            raise ValueError("realization needs at least one point")
        _require_finite(c, "realization")
        object.__setattr__(self, "coords", _readonly(c))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test.

    ``rank`` counts eigenvalues above the relative zero threshold; it is the
    numerical rank whenever ``is_psd`` holds.  ``min_eigenvalue`` is the most
    negative (i.e. smallest) eigenvalue found.
    """

    is_psd: bool
    rank: int
    min_eigenvalue: float


def validate_distance_matrix(m, tol: Tolerances | None = None) -> DistanceMatrix:
    """Check a raw square array and return it as a typed distance matrix.

    Symmetry, a zero diagonal and nonnegativity are enforced within
    ``tol.dist_tol`` (relative to the largest entry).  The
    :class:`DistanceMatrix` constructor decides: input it accepts comes
    back as it stores it, checked once and copied once.  Input it rejects
    as asymmetric, with a nonzero diagonal or with a negative entry is
    repaired in a copy (entries inside the tolerance band symmetrized on
    halves, so no sum leaves the float range, and clamped to zero) and
    constructed again, which raises the matching validation error, naming
    the offending index, for any entry outside the band.  A non-square or
    non-finite input raises at once.
    """
    try:
        return DistanceMatrix(m)
    except (AsymmetricMatrixError, NonzeroDiagonalError, NegativeEntryError):
        pass
    arr = np.array(m, dtype=float)
    half = 0.5 * arr
    atol = (tol or DEFAULT_TOLERANCES).dist_tol * np.abs(arr).max()
    skew = (arr != arr.T) & (np.abs(half - half.T) <= 0.5 * atol)
    arr[skew] = half[skew] + half.T[skew]
    arr[((arr < 0.0) | np.eye(arr.shape[0], dtype=bool)) & (np.abs(arr) <= atol)] = 0.0
    return DistanceMatrix(arr)


# The smallest normal float: a nonzero result below it has lost bits.
_TINY = np.finfo(float).tiny


def _unit(a) -> float:
    """The largest power of two not above the largest entry of ``a`` (0.5 when
    none is positive): the toolkit's one unit of length.  Dividing by it is
    exact, so at ordinary scales results in units are bit for bit the raw
    ones scaled, and no length is far from 1."""
    return math.ldexp(1.0, math.frexp(float(np.max(a, initial=0.0)))[1] - 1)


def _unit_squares(d: np.ndarray) -> tuple[np.ndarray, float]:
    """``(d2, unit)``: the entries of ``d`` squared in units of :func:`_unit`,
    and that unit.

    The toolkit's one way to square lengths (J. L. Blue's scaled norm, ACM
    TOMS 4, 1978): the scaling is exact, so at ordinary scales results are
    bit for bit the raw squares', and no square leaves the float range.
    """
    unit = _unit(d)
    return (d / unit) ** 2, unit


def _in_units(value, unit: float, power: int, quantity: str, residue=False, offset: int = 0):
    """value * 2**offset * unit**power, elementwise, for a power of two
    ``unit``: one exact shift of the binary exponent (``np.ldexp``), rounded
    once where the result leaves the normal range.  A scalar comes back as a
    Python float.  Only :func:`_from_log` passes ``offset``.

    A result is lost when it overflows or a nonzero value lands below the
    normal range, where it flushes to zero or keeps only a few significant
    bits.  A lost result where ``residue`` is true (rounding residue, such
    as an eigenvalue within the rank cut) comes back as 0.0; any other
    raises FloatRangeError, naming the quantity and the largest magnitude
    lost.  This loss check, not the shift, is the function's cost.
    """
    with np.errstate(over="ignore"):
        out = np.ldexp(value, offset + power * int(math.log2(unit)))
    lost = np.isinf(out) | ((np.abs(out) < _TINY) & (value != 0.0))
    zeroed = lost & residue
    if np.any(zeroed):
        out, lost = np.where(zeroed, 0.0, out), lost ^ zeroed
    if np.any(lost):
        worst = math.log10(float(np.abs(np.asarray(value)[lost]).max()))
        raise FloatRangeError(quantity, worst + offset * math.log10(2.0) + power * math.log10(unit))
    return out if out.ndim else float(out)


def _from_log(sign: float, log: float, unit: float, power: int, quantity: str) -> float:
    """sign * exp(log) * unit**power through :func:`_in_units`: the binary
    exponent of exp(log) is split off and passed as its offset, so only a
    mantissa near 1 is exponentiated."""
    i = round(log / math.log(2.0)) if sign else 0
    return _in_units(sign * math.exp(log - i * math.log(2.0)), unit, power, quantity, offset=i)


def _center(d2: np.ndarray) -> np.ndarray:
    """-1/2 J d2 J, symmetrized, with J = I - (1/n) 11^T, for a matrix ``d2``
    of squared distances: the n-by-n centered Gram, whose full spectrum and
    eigenvectors :attr:`DistanceMatrix._spectrum` holds.

    O(n^2): the column means are subtracted, then the row means of the
    result, in place of the two products with J.  Two steps rather than one
    (d2 - r_i - r_j + m) keep the null residue at the products' level.
    """
    s = 1.0 / d2.shape[0]
    a = d2 - s * d2.sum(axis=0)
    a -= s * a.sum(axis=1)[:, None]
    return -0.25 * (a + a.T)


def double_center(D: DistanceMatrix) -> GramMatrix:
    """Gram matrix of the centered configuration: G = -1/2 J D^2 J.

    J = I - (1/n) 11^T is the centering projector; D is squared elementwise.
    Rows and columns of the result sum to zero.  Computed in units of the
    largest distance; an entry too large or too small for a float raises
    FloatRangeError.
    """
    d2, unit = _unit_squares(D.d)
    return GramMatrix(_in_units(_center(d2), unit, 2, "Gram entry"))


def schoenberg_gram(D: DistanceMatrix) -> GramMatrix:
    """Gram matrix anchored at point 0: G_ij = (d_0i^2 + d_0j^2 - d_ij^2) / 2.

    The output is (n-1)-by-(n-1), indexed by points 1..n-1.  It is PSD
    exactly when ``D`` is a Euclidean distance matrix, and its rank is the
    minimal embedding dimension.  Computed in units of the largest distance;
    an entry too large or too small for a float raises FloatRangeError.
    """
    if D.n < 2:
        raise ValueError("anchored Gram matrix needs at least 2 points")
    d2, unit = _unit_squares(D.d)
    row = d2[0, 1:]
    g = 0.5 * (row[:, None] + row[None, :] - d2[1:, 1:])
    return GramMatrix(_in_units(g, unit, 2, "Gram entry"))


def symmetric_eigendecomposition(g: GramMatrix | np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``eigh``).

    Eigenvalues come back sorted in descending order with matching
    eigenvector columns.  An eigenvalue too large for a float raises
    FloatRangeError, naming the spectral radius, which is measured on the
    matrix scaled by 2^-1023.
    """
    a = np.asarray(g.g if isinstance(g, GramMatrix) else g, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(a.shape)
    w, v = np.linalg.eigh(a)
    if np.isinf(w).any():
        top = np.abs(np.linalg.eigvalsh(np.ldexp(a, -1023))).max()
        raise FloatRangeError("eigenvalue", math.log10(top) + 1023 * math.log10(2.0))
    order = np.argsort(-w, kind="stable")
    return SpectralDecomposition(w[order], v[:, order])


def _rank_cut(w: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cut, rank, is_psd)`` of descending spectra along the last axis.

    The cut is ``rank_tol`` times the spectral radius, max(lambda_0,
    -lambda_last): the toolkit's one rank cut.  Eigenvalues within it count
    as zero, so verdicts do not depend on the unit of measure.
    """
    cut = tol.rank_tol * np.maximum(w[..., 0], -w[..., -1])
    rank = (w > cut[..., None]).sum(axis=-1)
    return cut, rank, w[..., -1] >= -cut


@functools.lru_cache(maxsize=16)
def _helmert(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(L, R)`` for k points: R is the k-by-(k-1) Helmert basis of the
    complement of the all-ones vector, column j being (1, ..., 1, -j, 0, ...)
    with j ones, over sqrt(j (j+1)); L = -1/2 R^T.  Both read-only."""
    j = np.arange(1.0, k)
    r = np.triu(np.ones((k, k - 1)))
    r[np.arange(1, k), np.arange(k - 1)] = -j
    r /= np.sqrt(j * (j + 1.0))
    left = -0.5 * r.T
    r.setflags(write=False)
    left.setflags(write=False)
    return left, r


def _project(d2: np.ndarray) -> np.ndarray:
    """-1/2 R^T d2 R over the last two axes, with R the :func:`_helmert` basis:
    the (k-1)-by-(k-1) Gram of each k-point matrix of squared distances."""
    left, right = _helmert(d2.shape[-1])
    return left @ d2 @ right


def _classify_stack(d2: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks and EDM flags of a stack of squared distance matrices,
    as ``classify_edm`` gives them: one batched eigvalsh, the shared rank cut.

    Each matrix is projected onto the complement of the all-ones vector by
    :func:`_project`, a (k-1)-by-(k-1) Gram matrix.  Its spectrum is the
    centered Gram's less the eigenvalue of the centering null vector, which
    is rounding residue far inside the rank cut (Schoenberg's criterion in
    Gower's form, Lin. Alg. Appl. 67, 1985).
    Dropping it leaves the spectral radius, and so the cut, the rank and the
    PSD flag, what the k-by-k spectrum gives.  A single point is an EDM of
    rank 0.
    """
    if d2.shape[-1] == 1:
        return np.zeros(d2.shape[:-2], dtype=int), np.ones(d2.shape[:-2], dtype=bool)
    w = np.linalg.eigvalsh(_project(d2))[..., ::-1]
    return _rank_cut(w, tol)[1:]


def _cayley_menger_log(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each k >= 2 point matrix in a stack of squared distances, the sign and natural log
    of |CM|, CM = (-1)^k k det 2P with P its :func:`_project`ed Gram."""
    k = d2.shape[-1]
    sign, log = np.linalg.slogdet(2.0 * _project(d2))
    return (-1) ** k * sign, log + math.log(k)


def _flat_stack(d2: np.ndarray, cut: float) -> np.ndarray:
    """Flatness of a stack of squared distance matrices of k >= 2 points: the
    :func:`_project`ed Gram has an eigenvalue within the absolute ``cut`` in size.

    Every eigenvalue is at most the Frobenius norm in size, so a matrix with an
    eigenvalue within the cut has |det P| <= cut ||P||_F^(k-2).  Rows whose
    determinant clears twice that bound (a margin for rounding) are not flat;
    only the rest reach ``eigvalsh``.
    """
    p = _project(d2)
    bound = math.log(2.0 * cut) + (d2.shape[-1] - 2) * np.log(np.linalg.norm(p, axis=(-2, -1)))
    undecided = np.linalg.slogdet(p)[1] <= bound
    flat = np.zeros(d2.shape[:-2], dtype=bool)
    flat[undecided] = (np.abs(np.linalg.eigvalsh(p[undecided])) <= cut).any(axis=-1)
    return flat


@functools.lru_cache(maxsize=1)
def _tetrahedron_map() -> np.ndarray:
    """(6, 6) map from the squared edges of a tetrahedron, listed in
    ``combinations(range(4), 2)`` order, to the upper triangle of its
    :func:`_project`ed Gram, row by row.  Read-only."""
    rows, cols = np.triu_indices(4, 1)
    edges = np.zeros((6, 4, 4))
    edges[np.arange(6), rows, cols] = edges[np.arange(6), cols, rows] = 1.0
    upper = np.triu_indices(3)
    m = _project(edges)[:, upper[0], upper[1]]
    m.setflags(write=False)
    return m


@functools.lru_cache(maxsize=1)
def _circumcentre_map() -> np.ndarray:
    """(6, 3) map from the squared edges of a tetrahedron, listed in
    ``combinations(range(4), 2)`` order, to u = R^T s / 8, with R the
    :func:`_helmert` basis and s_i the sum of the squared edges at vertex i.

    With the centred vertices as the rows of X and Z = R^T X, the
    :func:`_project`ed Gram is P = Z Z^T and the circumcentre c solves
    Z c = u, so |c|^2 = u^T P^-1 u.  Read-only."""
    rows, cols = np.triu_indices(4, 1)
    incidence = np.zeros((6, 4))
    incidence[np.arange(6), rows] = incidence[np.arange(6), cols] = 1.0
    m = incidence @ _helmert(4)[1] / 8.0
    m.setflags(write=False)
    return m


def _solid_tetrahedra(
    p: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``(solid, factor)`` of a (6, S) stack of tetrahedra, given as the six
    upper-triangle entries of each one's :func:`_project`ed Gram P (the
    :func:`_tetrahedron_map` of its squared edges): the rows certified as
    EDMs of rank 3, and the entries (l00, l10, l20, l11, l21, l22) of the
    unpivoted Cholesky factor P = L L^T, NaN or inf from the first pivot at
    or below zero on.

    A row is certified when its factor exists and
    det P = (l00 l11 l22)^2 > 2 t ||P||_F^2, with t = rank_tol ||P||_F (the
    :func:`_rank_cut` of ||P||_F): :func:`_flat_stack`'s bound
    |det P| <= cut ||P||_F^(k-2) at k = 4.  L L^T is then positive definite
    and each of its other two eigenvalues is at most ||P||_F, so its
    smallest exceeds det P / ||P||_F^2 > 2t.  Cholesky is backward stable
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.3): the computed L L^T is P plus an error of a few rounding
    errors of ||P||_F, far below t (rank_tol is at least 1e-12), so the
    smallest eigenvalue of P itself clears t, at least the cut rank_tol rho
    that :func:`_classify_stack` takes, as the spectral radius rho is at most
    ||P||_F.  Such a tetrahedron is an EDM of rank 3.  An uncertified one may
    still be; only it needs ``eigvalsh``.
    """
    p00, p01, p02, p11, p12, p22 = p
    norm = np.sqrt(p00 * p00 + p11 * p11 + p22 * p22 + 2.0 * (p01 * p01 + p02 * p02 + p12 * p12))
    t = _rank_cut(norm[:, None], tol)[0]
    # A pivot at or below zero turns into NaN or inf, which no later pivot
    # survives, so the comparison fails.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l00 = np.sqrt(p00)
        l10, l20 = p01 / l00, p02 / l00
        l11 = np.sqrt(p11 - l10 * l10)
        l21 = (p12 - l20 * l10) / l11
        l22 = np.sqrt(p22 - l20 * l20 - l21 * l21)
        solid = (l00 * l11 * l22) ** 2 > 2.0 * t * norm * norm
    return solid, (l00, l10, l20, l11, l21, l22)


def _factor_gram(
    dec: SpectralDecomposition, tol: Tolerances
) -> tuple[float, PsdVerdict, np.ndarray]:
    """Rank cut, PSD verdict and coordinate columns of a Gram matrix's
    spectral decomposition.

    The cut and the rank come from :func:`_rank_cut`.  The coordinate
    columns are the eigenvectors of the eigenvalues above the cut, scaled
    by their square roots.
    """
    w = dec.eigenvalues
    cut, rank, is_psd = _rank_cut(w, tol)
    rank = int(rank)
    verdict = PsdVerdict(is_psd=bool(is_psd), rank=rank, min_eigenvalue=float(w[-1]))
    coords = dec.eigenvectors[:, :rank] * np.sqrt(w[:rank])
    return cut, verdict, coords


def psd_verdict(g: GramMatrix | np.ndarray, tol: Tolerances | None = None) -> PsdVerdict:
    """Decide positive semidefiniteness and numerical rank.

    A matrix passes when its smallest eigenvalue is above
    ``-rank_tol * max(|lambda_max|, |lambda_min|)``; the rank counts
    eigenvalues above the same threshold.
    """
    _, verdict, _ = _factor_gram(symmetric_eigendecomposition(g), tol or DEFAULT_TOLERANCES)
    return verdict


def realization_from_gram(g: GramMatrix, tol: Tolerances | None = None) -> Realization:
    """Factor a PSD Gram matrix into point coordinates: x = Y sqrt(lambda).

    Only eigenvalues above the rank threshold contribute columns, so the
    ambient dimension equals the numerical rank.  Raises NotPSDInputError
    when the matrix has a significantly negative eigenvalue.
    """
    _, verdict, coords = _factor_gram(symmetric_eigendecomposition(g), tol or DEFAULT_TOLERANCES)
    if not verdict.is_psd:
        raise NotPSDInputError(verdict.min_eigenvalue)
    return Realization(coords)


def gram_from_realization(x: Realization) -> GramMatrix:
    """Pairwise inner products of the rows of x: G = x x^T, symmetrized
    by the :class:`GramMatrix` constructor.  Computed in units of the largest
    coordinate; an entry too large or too small for a float raises
    FloatRangeError."""
    unit = _unit(np.abs(x.coords))
    c = x.coords / unit
    return GramMatrix(_in_units(c @ c.T, unit, 2, "Gram entry"))


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Distances between the rows of x, computed in units of their extent
    (the largest power of two not above the widest coordinate's spread).

    The squared differences are summed one coordinate column at a time into
    one n-by-n array: O(n^2 k) work and no n-by-n-by-k temporary.  Each
    difference is taken before it is scaled, so coincident points stay at
    distance 0 wherever they sit.  A pair of distinct points whose square in
    units lands below the normal range, where it keeps few bits or none, is
    measured again by ``np.hypot`` over its coordinate differences; on
    ordinary input only the diagonal's squares are that small.  A distance
    too large for a float raises FloatRangeError.
    """
    with np.errstate(over="ignore"):
        extent = np.ptp(x, axis=0)
    if np.isinf(extent).any():
        # A coordinate difference leaves the float range, so its distance does.
        raise FloatRangeError("distance", math.log10(np.ptp(0.5 * x, axis=0).max()) + math.log10(2.0))
    unit = _unit(extent)
    d2 = np.zeros((x.shape[0],) * 2)
    for col in x.T:
        d2 += np.square(np.subtract.outer(col, col) / unit)
    top = math.sqrt(d2.max())
    if math.isinf(top * unit):
        raise FloatRangeError("distance", math.log10(top) + math.log10(unit))
    pairs = None
    if np.count_nonzero(d2 < _TINY) > x.shape[0]:
        i, j = np.nonzero(d2 < _TINY)
        far = (x[i] != x[j]).any(axis=1)
        pairs = i[far], j[far]
    d = np.multiply(np.sqrt(d2, out=d2), unit, out=d2)
    if pairs is not None:
        d[pairs] = np.hypot.reduce(x[pairs[0]] - x[pairs[1]], axis=1)
    return d


def edm_from_realization(x: Realization) -> DistanceMatrix:
    """Euclidean distance matrix of the rows of x, in units of their extent;
    a distance too large for a float raises FloatRangeError."""
    return DistanceMatrix(_pairwise_distances(x.coords))


def center_realization(x: Realization) -> Realization:
    """Translate so the barycenter sits at the origin; distances are unchanged.
    Computed in units of the largest coordinate, so the mean does not
    overflow; a centered coordinate too small for a float raises
    FloatRangeError."""
    unit = _unit(np.abs(x.coords))
    c = x.coords / unit
    return Realization(_in_units(c - c.mean(axis=0), unit, 1, "coordinate"))
