"""Dense symmetric-matrix core.

Distance and Gram matrix types, double centering, the symmetric
eigendecomposition (LAPACK ``eigh``), positive-semidefiniteness tests, and
the conversions between Gram matrices and point realizations that underpin
classical multidimensional scaling.  Every rank cut in the toolkit is taken
here, relative to the spectral radius of the Gram matrix.

All values are immutable after construction (backing arrays are read-only)
and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the toolkit.

    rank_tol : cutoff, relative to the spectral radius, below which
        eigenvalues count as zero.
    dist_tol : relative threshold for distance comparisons.
    """

    rank_tol: float = 1e-9
    dist_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "dist_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric hollow nonnegative n-by-n matrix of pairwise distances.

    The constructor enforces the invariants exactly; use
    :func:`validate_distance_matrix` to admit raw data with floating-point
    slack.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or not 0 < d.shape[0] == d.shape[1]:
            raise NonSquareError(d.shape)
        _require_finite(d, "distance matrix")
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
        object.__setattr__(self, "d", _readonly(d))

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def restrict(self, indices) -> "DistanceMatrix":
        """Sub-matrix on the given point indices (order preserved)."""
        idx = list(indices)
        return DistanceMatrix(self.d[np.ix_(idx, idx)])


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of pairwise inner products (squared-distance units)."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise NonSquareError(g.shape)
        if g.shape[0] == 0:
            raise ValueError("Gram matrix needs at least one point")
        _require_finite(g, "Gram matrix")
        skew = np.abs(g - g.T)
        worst = float(skew.max()) if skew.size else 0.0
        if worst > 1e-8 * float(np.abs(g).max()):
            idx = np.argwhere(skew == worst)[0]
            raise AsymmetricMatrixError((int(idx[0]), int(idx[1])), worst)
        object.__setattr__(self, "g", _readonly(0.5 * (g + g.T)))

    @property
    def n(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
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
        if np.any(np.diff(w) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", _readonly(w))
        object.__setattr__(self, "eigenvectors", _readonly(v))

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        """Return Y diag(lambda) Y^T."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


@dataclass(frozen=True)
class Realization:
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
    ``tol.dist_tol`` (relative to the largest entry): entries inside the
    tolerance band are canonicalized (symmetrized, clamped to zero), and
    the :class:`DistanceMatrix` constructor raises the matching validation
    error, naming the offending index, for any entry outside it.
    """
    tol = tol or DEFAULT_TOLERANCES
    arr = np.array(m, dtype=float)
    if arr.ndim == 2 and 0 < arr.shape[0] == arr.shape[1]:
        _require_finite(arr, "matrix")
        # Halves first: no sum or difference of two entries leaves the float range.
        half = 0.5 * arr
        atol = tol.dist_tol * np.abs(arr).max()
        skew = (arr != arr.T) & (np.abs(half - half.T) <= 0.5 * atol)
        arr[skew] = half[skew] + half.T[skew]
        arr[((arr < 0.0) | np.eye(arr.shape[0], dtype=bool)) & (np.abs(arr) <= atol)] = 0.0
    return DistanceMatrix(arr)


def _unit_squares(d: np.ndarray) -> tuple[np.ndarray, float]:
    """``(d2, unit)``: the entries of ``d`` squared in units of the largest
    power of two not above the largest entry, and that unit.

    The toolkit's one way to square lengths (J. L. Blue's scaled norm, ACM
    TOMS 4, 1978): the scaling is exact, so at ordinary scales results are
    bit for bit the raw squares', and no square leaves the float range.
    """
    unit = math.ldexp(1.0, math.frexp(float(np.max(d, initial=0.0)))[1] - 1)
    return (d / unit) ** 2, unit


def _in_units(value, unit: float, power: int, quantity: str, residue=False):
    """value * unit**power, elementwise and one factor at a time, so that a
    partial product leaves the float range only when the result does.

    A result is lost when it overflows or a nonzero value lands below the
    normal range, where it flushes to zero or keeps only a few significant
    bits.  A lost result where ``residue`` is true (rounding residue, such
    as an eigenvalue within the rank cut) comes back as 0.0; any other
    raises FloatRangeError, naming the quantity and the largest magnitude
    lost.
    """
    with np.errstate(over="ignore"):
        out = math.prod([unit] * power, start=value)
    lost = np.isinf(out) | ((np.abs(out) < np.finfo(float).tiny) & (value != 0.0))
    zeroed = lost & residue
    if np.any(zeroed):
        out, lost = np.where(zeroed, 0.0, out), lost ^ zeroed
    if np.any(lost):
        worst = float(np.abs(np.asarray(value)[lost]).max())
        raise FloatRangeError(quantity, math.log10(worst) + power * math.log10(unit))
    return out


def _center(d2: np.ndarray) -> np.ndarray:
    """-1/2 J d2 J over the last two axes, symmetrized, with J = I - (1/n) 11^T.

    ``d2`` holds squared distances, one matrix or a stack of them.
    """
    n = d2.shape[-1]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    g = -0.5 * (j @ d2 @ j)
    return 0.5 * (g + g.swapaxes(-1, -2))


def double_center(D: DistanceMatrix) -> GramMatrix:
    """Gram matrix of the centered configuration: G = -1/2 J D^2 J.

    J = I - (1/n) 11^T is the centering projector; D is squared elementwise.
    Rows and columns of the result sum to zero.  Computed in units of the
    largest distance; an entry too large or too small for a float raises
    FloatRangeError.
    """
    d2, unit = _unit_squares(D.d)
    return GramMatrix(_in_units(_center(d2), unit, 2, "Gram entry"))


def _anchor(d2: np.ndarray) -> np.ndarray:
    """(d_0i^2 + d_0j^2 - d_ij^2) / 2 for i, j >= 1, over the last two axes of ``d2``."""
    row = d2[..., 0, 1:]
    return 0.5 * (row[..., :, None] + row[..., None, :] - d2[..., 1:, 1:])


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
    return GramMatrix(_in_units(_anchor(d2), unit, 2, "Gram entry"))


def symmetric_eigendecomposition(g: GramMatrix | np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``eigh``).

    Eigenvalues come back sorted in descending order with matching
    eigenvector columns.
    """
    a = np.array(g.g if isinstance(g, GramMatrix) else g, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(a.shape)
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return SpectralDecomposition(w[order], v[:, order])


def _threshold(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``rank_tol`` times the spectral radius of descending spectra along the
    last axis, max(lambda_0, -lambda_last): the toolkit's one rank cut."""
    return tol.rank_tol * np.maximum(w[..., 0], -w[..., -1])


def _rank_cut(w: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Numerical rank and PSD flag of descending spectra along the last axis:
    eigenvalues within the :func:`_threshold` count as zero, so verdicts do
    not depend on the unit of measure."""
    threshold = _threshold(w, tol)
    rank = (w > threshold[..., None]).sum(axis=-1)
    return rank, w[..., -1] >= -threshold


def _classify_stack(d2: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks and EDM flags of a stack of squared distance matrices,
    as ``classify_edm`` gives them: one batched eigvalsh, the shared rank cut."""
    w = np.linalg.eigvalsh(_center(d2))[..., ::-1]
    return _rank_cut(w, tol)


def _factor_gram(
    g: GramMatrix | np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, PsdVerdict, np.ndarray]:
    """Spectrum, PSD verdict and coordinate columns of a Gram matrix.

    The rank comes from :func:`_rank_cut`.  The coordinate columns are the
    eigenvectors of the eigenvalues above the cut, scaled by their square
    roots.
    """
    dec = symmetric_eigendecomposition(g)
    w = dec.eigenvalues
    rank, is_psd = _rank_cut(w, tol)
    rank = int(rank)
    verdict = PsdVerdict(is_psd=bool(is_psd), rank=rank, min_eigenvalue=float(w[-1]))
    coords = dec.eigenvectors[:, :rank] * np.sqrt(w[:rank])
    return w, verdict, coords


def psd_verdict(g: GramMatrix | np.ndarray, tol: Tolerances | None = None) -> PsdVerdict:
    """Decide positive semidefiniteness and numerical rank.

    A matrix passes when its smallest eigenvalue is above
    ``-rank_tol * max(|lambda_max|, |lambda_min|)``; the rank counts
    eigenvalues above the same threshold.
    """
    _, verdict, _ = _factor_gram(g, tol or DEFAULT_TOLERANCES)
    return verdict


def realization_from_gram(g: GramMatrix, tol: Tolerances | None = None) -> Realization:
    """Factor a PSD Gram matrix into point coordinates: x = Y sqrt(lambda).

    Only eigenvalues above the rank threshold contribute columns, so the
    ambient dimension equals the numerical rank.  Raises NotPSDInputError
    when the matrix has a significantly negative eigenvalue.
    """
    _, verdict, coords = _factor_gram(g, tol or DEFAULT_TOLERANCES)
    if not verdict.is_psd:
        raise NotPSDInputError(verdict.min_eigenvalue)
    return Realization(coords)


def gram_from_realization(x: Realization) -> GramMatrix:
    """Pairwise inner products of the rows of x: G = x x^T."""
    g = x.coords @ x.coords.T
    return GramMatrix(0.5 * (g + g.T))


def edm_from_realization(x: Realization) -> DistanceMatrix:
    """Euclidean distance matrix of the rows of x, in units of their extent."""
    # The differences are antisymmetric, so the largest is the largest in size.
    d2, unit = _unit_squares(x.coords[:, None, :] - x.coords[None, :, :])
    return DistanceMatrix(np.sqrt(d2.sum(axis=-1)) * unit)


def center_realization(x: Realization) -> Realization:
    """Translate so the barycenter sits at the origin; distances are unchanged."""
    return Realization(x.coords - x.coords.mean(axis=0))
