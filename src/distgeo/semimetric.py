"""Finite semi-metric spaces, congruence, and embeddability in R^n.

A semi-metric space assigns a symmetric positive distance to every pair of
distinct points; the triangle inequality is NOT required.  Congruence
between two spaces is a distance-preserving bijection.  Embeddability of a
space in R^n is decided two independent ways: through the PSD test on the
centered Gram matrix, and through the finitistic criterion that checks
small subsets only -- an independent (n+1)-point base plus vanishing
bordered determinants on all (n+2)- and (n+3)-point subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import SizeMismatchError, TooLargeError, ZeroOffDiagonalError
from .matrices import (
    DEFAULT_TOLERANCES,
    DistanceMatrix,
    Realization,
    Tolerances,
    _center,
    _classify_stack,
    _factor_gram,
    _unit_squares,
    validate_distance_matrix,
)
from .simplex import _flat

__all__ = [
    "CONGRUENCE_SEARCH_CAP",
    "MENGER_SUBSET_CAP",
    "FiniteSemiMetricSpace",
    "CongruenceWitness",
    "EmbeddabilityVerdict",
    "MengerReport",
    "validate_semi_metric",
    "find_congruence",
    "congruently_embeddable",
    "verify_menger_criterion",
]

CONGRUENCE_SEARCH_CAP = 10
MENGER_SUBSET_CAP = 12

# The witness search stacks its subsets in chunks, for its early exit: they
# start small so an early witness costs little, then grow 4x per chunk up to
# a cap that bounds the memory of one stack.
_FIRST_CHUNK = 16
_CHUNK_CAP = 256


@dataclass(frozen=True)
class FiniteSemiMetricSpace:
    """Labelled finite point set with symmetric positive pairwise distances."""

    labels: tuple
    d: DistanceMatrix

    def __post_init__(self):
        if len(self.labels) != self.d.n:
            raise ValueError(
                f"{len(self.labels)} labels for {self.d.n} points"
            )
        off = self.d.d + np.eye(self.d.n)
        if np.any(off <= 0.0):
            idx = np.argwhere(off <= 0.0)[0]
            raise ZeroOffDiagonalError((int(idx[0]), int(idx[1])))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.d.n

    def restrict(self, indices) -> "FiniteSemiMetricSpace":
        idx = list(indices)
        return FiniteSemiMetricSpace(
            tuple(self.labels[i] for i in idx), self.d.restrict(idx)
        )


@dataclass(frozen=True)
class CongruenceWitness:
    """Bijection between index sets: point i of the source maps to mapping[i]."""

    mapping: tuple

    def __post_init__(self):
        m = tuple(int(i) for i in self.mapping)
        if sorted(m) != list(range(len(m))):
            raise ValueError(f"mapping {m} is not a permutation")
        object.__setattr__(self, "mapping", m)

    def inverse(self) -> "CongruenceWitness":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return CongruenceWitness(tuple(inv))

    def compose(self, other: "CongruenceWitness") -> "CongruenceWitness":
        """Witness mapping i -> other.mapping[self.mapping[i]]."""
        return CongruenceWitness(tuple(other.mapping[j] for j in self.mapping))


@dataclass(frozen=True)
class EmbeddabilityVerdict:
    """Result of the embeddability test for a fixed target dimension.

    When embeddable, ``realization`` holds coordinates (in the minimal
    dimension, at most the requested one).  Otherwise ``failing_subset`` is
    the lexicographically smallest subset of minimal size that is itself not
    embeddable, restricted to at most dim+3 points.
    """

    embeddable: bool
    dim: int
    realization: Realization | None = None
    failing_subset: tuple | None = None


@dataclass(frozen=True)
class MengerReport:
    """Per-condition outcome of the finitistic embeddability criterion.

    Conditions:
      base  -- every min(dim+1, n)-point subset is itself a Euclidean
               distance matrix;
      flat2 -- the bordered determinant vanishes on every (dim+2)-subset;
      flat3 -- the bordered determinant vanishes on every (dim+3)-subset;
      flat3_anchored -- same, restricted to (dim+3)-subsets containing the
               independent anchor subset (the theorem-statement reading;
               checked only when an anchor exists).

    ``anchor_subset`` is the first (dim+1)-subset realizing dimension
    exactly ``dim``; it exists iff the space needs all of R^dim.  The
    overall ``embeddable`` verdict is base and flat2 and flat3, which by
    the finitistic characterization agrees with the PSD route.
    """

    dim: int
    embeddable: bool
    anchor_subset: tuple | None
    base_size: int
    base_checked: int
    base_failures: tuple
    flat2_checked: int
    flat2_failures: tuple
    flat3_checked: int
    flat3_failures: tuple
    flat3_anchored_checked: int
    flat3_anchored_failures: tuple


def validate_semi_metric(
    m, labels=None, tol: Tolerances | None = None
) -> FiniteSemiMetricSpace:
    """Validate a raw square array as a finite semi-metric space.

    On top of the distance-matrix checks (symmetry, hollowness,
    nonnegativity), off-diagonal entries must be strictly positive:
    distinct points at distance zero violate the model where zero distance
    identifies points.  Triangle-inequality violations are accepted.
    """
    dm = validate_distance_matrix(m, tol)
    if labels is None:
        labels = tuple(range(dm.n))
    return FiniteSemiMetricSpace(tuple(labels), dm)


def find_congruence(
    s: FiniteSemiMetricSpace,
    t: FiniteSemiMetricSpace,
    tol: Tolerances | None = None,
) -> CongruenceWitness | None:
    """Search for a distance-preserving bijection from s onto t.

    Exhaustive backtracking over point assignments, capped at
    CONGRUENCE_SEARCH_CAP points per space.  Returns the lexicographically
    smallest witness, or None when the spaces are not congruent.
    """
    tol = tol or DEFAULT_TOLERANCES
    if s.n != t.n:
        raise SizeMismatchError(s.n, t.n)
    if s.n > CONGRUENCE_SEARCH_CAP:
        raise TooLargeError(s.n, CONGRUENCE_SEARCH_CAP)

    ds = s.d.d
    dt = t.d.d
    n = s.n
    atol = tol.dist_tol * max(float(ds.max()), float(dt.max()))

    assigned = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for candidate in range(n):
            if used[candidate]:
                continue
            ok = True
            for j in range(i):
                if abs(ds[i, j] - dt[candidate, assigned[j]]) > atol:
                    ok = False
                    break
            if ok:
                assigned[i] = candidate
                used[candidate] = True
                if extend(i + 1):
                    return True
                used[candidate] = False
                assigned[i] = -1
        return False

    if extend(0):
        return CongruenceWitness(tuple(assigned))
    return None


def _gather(d2: np.ndarray, subsets, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, stack)`` for an iterable of size-k subsets: the (S, k) index
    array and the (S, k, k) stack of squared sub-matrices gathered from
    ``d2``, with no re-validation."""
    rows = np.array(list(subsets), dtype=np.intp).reshape(-1, k)
    return rows, d2[rows[:, :, None], rows[:, None, :]]


def _subset_chunks(d2: np.ndarray, k: int):
    """Every size-k subset of the points in lexicographic order, chunk by
    chunk, as :func:`_gather` gives them."""
    subsets = combinations(range(d2.shape[0]), k)
    size = _FIRST_CHUNK
    while True:
        rows, stack = _gather(d2, islice(subsets, size), k)
        if not len(rows):
            return
        yield rows, stack
        size = min(4 * size, _CHUNK_CAP)


def congruently_embeddable(
    s: FiniteSemiMetricSpace, dim: int, tol: Tolerances | None = None
) -> EmbeddabilityVerdict:
    """Decide whether the space embeds in R^dim, with a witness either way.

    Embeddable exactly when the distance matrix is an EDM of rank at most
    ``dim``; the witness realization comes from the centered Gram
    factorization.  When not embeddable, subsets are enumerated by size
    (then lexicographically) up to dim+3 points, and the first subset that
    itself fails the test is reported -- by the finitistic characterization
    such a small witness always exists.
    """
    tol = tol or DEFAULT_TOLERANCES
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    d2, unit = _unit_squares(s.d.d)
    _, verdict, coords = _factor_gram(_center(d2), tol)
    if verdict.is_psd and verdict.rank <= dim:
        return EmbeddabilityVerdict(True, dim, realization=Realization(coords * unit))

    for size in range(2, min(s.n, dim + 3) + 1):
        for rows, stack in _subset_chunks(d2, size):
            rank, is_edm = _classify_stack(stack, tol)
            failing = ~is_edm | (rank > dim)
            if failing.any():
                subset = tuple(rows[np.argmax(failing)].tolist())
                return EmbeddabilityVerdict(False, dim, failing_subset=subset)
    # Numerically possible when the whole space sits right at the verdict
    # threshold while every small subset clears it; report without witness.
    return EmbeddabilityVerdict(False, dim, failing_subset=None)


def verify_menger_criterion(
    s: FiniteSemiMetricSpace, dim: int, tol: Tolerances | None = None
) -> MengerReport:
    """Run the finitistic embeddability criterion over every small subset.

    Checks, for n = ``dim``: (base) every min(n+1, |S|)-point subset is a
    Euclidean distance matrix; (flat2) every (n+2)-point subset has a
    vanishing bordered determinant; (flat3) every (n+3)-point subset has a
    vanishing bordered determinant.  The determinant test uses the
    unit-invariant flatness threshold.  Both quantifier readings of the
    third condition are reported: over all (n+3)-subsets, and only over
    those containing the independent anchor subset, read off the full
    scan.  All subsets of one size are tested as one stacked array, in
    lexicographic order.
    """
    tol = tol or DEFAULT_TOLERANCES
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    n = s.n
    if n > MENGER_SUBSET_CAP:
        raise TooLargeError(n, MENGER_SUBSET_CAP)

    d2, _ = _unit_squares(s.d.d)

    def subsets(k: int) -> tuple[np.ndarray, np.ndarray]:
        return _gather(d2, combinations(range(n), k), k)

    def failures(rows: np.ndarray, failing: np.ndarray) -> tuple:
        return tuple(map(tuple, rows[failing].tolist()))

    # The anchor is the first base subset realizing dimension exactly dim.
    # When n < dim+1 the base subsets have rank below dim, so none exists.
    base_size = min(dim + 1, n)
    base_rows, stack = subsets(base_size)
    rank, is_edm = _classify_stack(stack, tol)
    ok = is_edm & (rank <= dim)
    base_failures = failures(base_rows, ~ok)
    exact = np.flatnonzero(ok & (rank == dim))
    anchor = tuple(base_rows[exact[0]].tolist()) if exact.size else None

    flat2_rows, stack = subsets(dim + 2)
    flat2_fail = failures(flat2_rows, ~_flat(stack, tol))
    flat3_rows, stack = subsets(dim + 3)
    flat3_fail = failures(flat3_rows, ~_flat(stack, tol))
    # The anchored reading: the (dim+3)-subsets made of the anchor's dim+1
    # points and 2 of the other n-dim-1.
    if anchor is None:
        flat3a_checked, flat3a_fail = 0, ()
    else:
        flat3a_checked = math.comb(n - dim - 1, 2)
        flat3a_fail = tuple(f for f in flat3_fail if set(anchor) <= set(f))

    embeddable = not base_failures and not flat2_fail and not flat3_fail
    return MengerReport(
        dim=dim,
        embeddable=embeddable,
        anchor_subset=anchor,
        base_size=base_size,
        base_checked=len(base_rows),
        base_failures=base_failures,
        flat2_checked=len(flat2_rows),
        flat2_failures=flat2_fail,
        flat3_checked=len(flat3_rows),
        flat3_failures=flat3_fail,
        flat3_anchored_checked=flat3a_checked,
        flat3_anchored_failures=flat3a_fail,
    )
