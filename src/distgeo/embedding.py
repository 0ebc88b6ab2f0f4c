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
    _center,
    _factor_gram,
    _in_units,
    _threshold,
    _unit_squares,
    edm_from_realization,
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
    verdict stays exact; within the rank cut it is 0.0 instead.
    """

    is_edm: bool
    dim: int
    witness_eigenvalue: float


@dataclass(frozen=True)
class MdsResult:
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


@dataclass(frozen=True)
class TrilaterationProblem:
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
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "dists", d)


def classify_edm(D: DistanceMatrix, tol: Tolerances | None = None) -> EdmClassification:
    """Decide whether D is the distance matrix of points in some R^r.

    D is an EDM exactly when the double-centered Gram matrix is PSD; the
    minimal embedding dimension is that matrix's rank.
    """
    tol = tol or DEFAULT_TOLERANCES
    d2, unit = _unit_squares(D.d)
    w, verdict, _ = _factor_gram(_center(d2), tol)
    if abs(w[-1]) <= _threshold(w, tol):
        witness = float(_in_units(w[-1], unit, 2, "eigenvalue", residue=True))
    else:
        witness = float(w[-1]) * unit * unit
    return EdmClassification(verdict.is_psd, verdict.rank, witness)


def _max_relative_distance_error(realized: np.ndarray, target: np.ndarray) -> float:
    # Zero target distances are measured against the largest; all zero is exact.
    n = target.shape[0]
    scale = float(target.max())
    if n < 2 or scale == 0.0:
        return 0.0
    iu = np.triu_indices(n, 1)
    want = target[iu]
    got = realized[iu]
    denom = np.where(want > 0, want, scale)
    return float(np.max(np.abs(got - want) / denom))


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
    d2, unit = _unit_squares(D.d)
    w, _, coords = _factor_gram(_center(d2), tol)
    if dim_cap is not None:
        if dim_cap < 0:
            raise ValueError("dim_cap must be nonnegative")
        coords = coords[:, :dim_cap]
    realized = edm_from_realization(Realization(coords))
    residual = _max_relative_distance_error(realized.d, D.d / unit)
    w = _in_units(w, unit, 2, "eigenvalue", residue=np.abs(w) <= _threshold(w, tol))
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
