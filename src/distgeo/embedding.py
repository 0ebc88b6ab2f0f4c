"""Classical multidimensional scaling, EDM classification, and trilateration.

The exact-EDM test is the positive-semidefiniteness of the double-centered
squared-distance matrix; classical MDS keeps the eigenvectors of its
positive eigenvalues to recover coordinates, which also yields the inherent
dimensionality of the input distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DependentAnchorsError, NoSolutionError
from .matrices import (
    DEFAULT_TOLERANCES,
    DistanceMatrix,
    Realization,
    Tolerances,
    _factor_gram,
    _in_units,
    _pairwise_distances,
    _readonly,
    _unit_squares,
    _ValueRecord,
)

__all__ = [
    "EdmClassification",
    "MdsResult",
    "TrilaterationProblem",
    "classify_edm",
    "classical_mds",
    "trilaterate",
]


@dataclass(frozen=True)
class EdmClassification:
    """Whether a distance matrix is a Euclidean distance matrix.

    ``dim`` is the minimal embedding dimension when ``is_edm`` holds.
    ``witness_eigenvalue`` is the smallest eigenvalue of the centered Gram
    matrix; it is significantly negative exactly when the verdict is
    negative.  It is computed in units of the largest distance and scaled
    back, so past the float range it saturates to -inf or 0.0 while the
    verdict stays exact.  Within the rank cut it is the rounding residue,
    of either sign (1.63e-17 for the 3-4-5 triangle), and 0.0 only when that
    residue leaves the float range (the same triangle scaled by 1e-160).
    """

    is_edm: bool
    dim: int
    witness_eigenvalue: float


@dataclass(frozen=True, eq=False)
class MdsResult(_ValueRecord):
    """Outcome of classical multidimensional scaling.

    ``eigenvalues`` is the full descending spectrum of the centered Gram
    matrix, negatives included.  ``inherent_dim`` equals the number of
    coordinate columns kept (positive eigenvalues above the rank threshold,
    possibly capped).  ``residual`` is the largest relative error between
    the realized and input distances.
    """

    realization: Realization
    eigenvalues: np.ndarray
    inherent_dim: int
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))


@dataclass(frozen=True, eq=False)
class TrilaterationProblem(_ValueRecord):
    """Known anchor points plus measured distances to one unknown point."""

    anchors: Realization
    dists: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dists, dtype=float)
        if d.ndim != 1 or d.size != self.anchors.n:
            raise ValueError(
                f"need one distance per anchor: {self.anchors.n} anchors, {d.size} distances"
            )
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ValueError("distances must be finite and nonnegative")
        object.__setattr__(self, "dists", _readonly(d))


def classify_edm(D: DistanceMatrix, tol: Tolerances | None = None) -> EdmClassification:
    """Decide whether D is the distance matrix of points in some R^r.

    D is an EDM exactly when the double-centered Gram matrix is PSD; the
    minimal embedding dimension is that matrix's rank.
    """
    tol = tol or DEFAULT_TOLERANCES
    unit, dec = D._spectrum
    cut, verdict, _ = _factor_gram(dec, tol)
    lowest = verdict.min_eigenvalue
    if abs(lowest) <= cut:
        witness = _in_units(lowest, unit, 2, "eigenvalue", residue=True)
    else:
        witness = lowest * unit * unit
    return EdmClassification(verdict.is_psd, verdict.rank, witness)


def _max_relative_distance_error(realized: np.ndarray, target: np.ndarray) -> float:
    # Zero target distances are measured against the largest; all zero is exact.
    # Both matrices are symmetric with zero diagonals, so the whole matrix gives
    # what its upper triangle does.
    scale = float(target.max())
    if scale == 0.0:
        return 0.0
    err = np.abs(realized - target)
    err /= np.where(target > 0, target, scale)
    return float(err.max())


def classical_mds(
    D: DistanceMatrix,
    tol: Tolerances | None = None,
    dim_cap: int | None = None,
) -> MdsResult:
    """Embed a (possibly non-Euclidean) distance matrix by classical MDS.

    Double-center the squared distances, eigendecompose, and keep the
    eigenvector columns of eigenvalues above ``rank_tol`` times the spectral
    radius, scaled by the square roots of those eigenvalues.  ``dim_cap``
    truncates to the leading dimensions.  Approximate input is the intended
    use; the returned spectrum includes any negative eigenvalues so callers
    can judge how non-Euclidean the input was.  Computed in units of the
    largest distance; an eigenvalue too large or too small for a float
    raises FloatRangeError above the rank cut and is 0.0 within it.
    """
    tol = tol or DEFAULT_TOLERANCES
    if dim_cap is not None and dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    unit, dec = D._spectrum
    cut, _, coords = _factor_gram(dec, tol)
    coords = coords[:, :dim_cap]
    residual = _max_relative_distance_error(_pairwise_distances(coords), D.d / unit)
    w = _in_units(dec.eigenvalues, unit, 2, "eigenvalue", residue=np.abs(dec.eigenvalues) <= cut)
    return MdsResult(Realization(coords * unit), w, coords.shape[1], residual)


def trilaterate(p: TrilaterationProblem, tol: Tolerances | None = None) -> Realization:
    """Locate the unknown point from anchor distances.

    Subtracting the first sphere equation from the others linearizes the
    system; least squares solves it, and the candidate is accepted only if
    it reproduces every measured distance within ``dist_tol`` times the
    problem's scale (the largest measured distance or anchor extent).

    Raises DependentAnchorsError when the anchors do not affinely span the
    ambient space, and NoSolutionError (carrying the worst residual) when
    the distances are inconsistent.
    """
    tol = tol or DEFAULT_TOLERANCES
    anchors = p.anchors.coords
    m, k = anchors.shape
    if k == 0:
        raise DependentAnchorsError("anchors live in a zero-dimensional space")
    if m < k + 1:
        raise DependentAnchorsError(
            f"need at least {k + 1} anchors in {k} dimensions, got {m}"
        )
    # Solved in units of the largest coordinate or distance, and scaled back.
    sq, unit = _unit_squares(np.abs(np.column_stack([anchors, p.dists])))
    anchors, dists = anchors / unit, p.dists / unit
    a = 2.0 * (anchors[1:] - anchors[0])
    b = sq[1:, :k].sum(axis=1) - sq[0, :k].sum() - (sq[1:, k] - sq[0, k])
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < k:
        raise DependentAnchorsError("anchors are affinely dependent")

    realized = np.linalg.norm(anchors - solution, axis=1)
    # The problem's own length scale; the anchor extent keeps it positive
    # when every measured distance is zero.
    scale = max(float(dists.max()), float(np.ptp(anchors, axis=0).max()))
    residual = float(np.max(np.abs(realized - dists))) / scale
    if residual > tol.dist_tol:
        raise NoSolutionError(residual)
    return Realization(solution[None, :] * unit)
