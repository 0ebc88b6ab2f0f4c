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
from itertools import chain, combinations, islice

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

# Subsets the lexicographic witness scan of a non-Euclidean space may test
# before it turns to Menger's anchored search, which tests O(n^2).  Well
# above the largest full scan of any small space (n <= 18 at dim 3 is
# about 31 000), so it bounds only the scan of large spaces.
_WITNESS_BUDGET = 100_000


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
    a subset of at most dim+3 points that is itself not embeddable: the
    lexicographically smallest one of minimal size for Euclidean input and
    whenever the scan stays within its budget, and otherwise one found
    through Menger's anchored theorem, which is inclusion-minimal (every
    proper subset embeds) but not certified lexicographically smallest, or,
    when an inconsistency far from the anchor passes every anchored set's
    rank cut, the whole space shrunk by deleting points.  It is None only
    when the scan ends within its budget with no failing subset: the whole
    space sits at the threshold while every small subset clears it.
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


def _chunks(d2: np.ndarray, subsets, k: int):
    """The size-k ``subsets``, in their order, chunk by chunk as
    :func:`_gather` gives them."""
    subsets = iter(subsets)
    size = _FIRST_CHUNK
    while True:
        rows, stack = _gather(d2, islice(subsets, size), k)
        if not len(rows):
            return
        yield rows, stack
        size = min(4 * size, _CHUNK_CAP)


def _lex_chunks(d2: np.ndarray, points, dim: int):
    """Every subset of ``points`` that can fail at ``dim``, by size and then
    lexicographically, chunk by chunk.  A pair of distinct points is an EDM
    of rank 1, so pairs are included only at dim 0; the largest size is
    dim+3."""
    for size in range(2 if dim == 0 else 3, min(len(points), dim + 3) + 1):
        yield from _chunks(d2, combinations(points, size), size)


def _first_failing(rows: np.ndarray, stack: np.ndarray, dim: int, tol: Tolerances):
    """The first of the stacked subsets that is not an EDM of rank <= dim,
    or None."""
    rank, is_edm = _classify_stack(stack, tol)
    failing = ~is_edm | (rank > dim)
    return tuple(rows[np.argmax(failing)].tolist()) if failing.any() else None


def _greedy(d2: np.ndarray, size: int, tol: Tolerances) -> tuple[list, tuple | None]:
    """``(chosen, failing)``: starting from the first min(size, 2) points
    (a pair of distinct points is an EDM of rank 1), repeatedly append the
    first later point whose set with the chosen ones is an EDM of full rank,
    until ``size`` points are chosen or no later point qualifies.

    Each step is one stack of the candidate sets.  ``failing`` is the first
    candidate before the appended point that is not an EDM; the pass stops
    there.  On Euclidean input this is the greedy basis of the affine
    matroid, which is lexicographically first (D. Gale, J. Combin. Theory 4,
    1968): a point that does not raise the rank never raises it later.
    """
    n = d2.shape[0]
    chosen = list(range(min(size, 2)))
    while len(chosen) < size:
        k = len(chosen) + 1
        rows, stack = _gather(d2, (chosen + [i] for i in range(chosen[-1] + 1, n)), k)
        rank, is_edm = _classify_stack(stack, tol)
        stop = ~is_edm | (rank == k - 1)
        if not stop.any():
            break
        j = int(np.argmax(stop))
        if not is_edm[j]:
            return chosen, tuple(rows[j].tolist())
        chosen.append(int(rows[j, -1]))
    return chosen, None


def _deletion_witness(d2: np.ndarray, dim: int, tol: Tolerances) -> tuple:
    """A failing space less every block of points whose deletion leaves a
    failing set, in blocks of half the points down to one point: no point
    of the result can go, which exact arithmetic makes inclusion-minimal.

    Each test is one eigendecomposition of the remaining points; a witness
    of k points takes O(k log n) of them, and none takes more than about 2n.
    """
    kept = list(range(d2.shape[0]))
    step = len(kept) // 2
    while step:
        i = 0
        while i < len(kept):
            rest = kept[:i] + kept[i + step :]
            if len(rest) > 1 and _first_failing(*_gather(d2, [rest], len(rest)), dim, tol):
                kept = rest
            else:
                i += step
        step = min(step // 2, len(kept) // 2)
    return tuple(kept)


def _anchored_witness(d2: np.ndarray, dim: int, tol: Tolerances) -> tuple:
    """A minimal failing subset of a failing space, found through Menger's
    anchored theorem or, when no anchored set fails, by
    :func:`_deletion_witness`.

    The anchor A is the greedy pass's largest affinely independent set (at
    most dim+1 points).  If every A+{x} passes, each x is pinned in A's
    flat, so in exact arithmetic a space that does not embed in R^dim has a
    failing A+{x, y}.  The first failing one of these O(n^2) sets, or a
    failing set the greedy pass met, is shrunk to its own first failing
    subset by size and then lexicographically (at most 2^(dim+3) subsets).
    """
    anchor, failing = _greedy(d2, dim + 1, tol)
    if failing is None:
        k = len(anchor)
        others = [x for x in range(d2.shape[0]) if x not in anchor]
        sets = chain(
            _chunks(d2, (sorted(anchor + [x]) for x in others), k + 1),
            _chunks(d2, (sorted(anchor + [x, y]) for x, y in combinations(others, 2)), k + 2),
        )
        failing = next(filter(None, (_first_failing(*c, dim, tol) for c in sets)), None)
        if failing is None:
            return _deletion_witness(d2, dim, tol)
    chunks = _lex_chunks(d2, failing, dim)
    return next(filter(None, (_first_failing(*c, dim, tol) for c in chunks)), failing)


def congruently_embeddable(
    s: FiniteSemiMetricSpace, dim: int, tol: Tolerances | None = None
) -> EmbeddabilityVerdict:
    """Decide whether the space embeds in R^dim, with a witness either way.

    Embeddable exactly when the distance matrix is an EDM of rank at most
    ``dim``; the witness realization comes from the centered Gram
    factorization.  When not embeddable, the witness is a subset of at most
    dim+3 points that itself fails the test -- by the finitistic
    characterization such a small witness always exists:

    - Euclidean input (an EDM of rank above ``dim``): the greedy pass of
      :func:`_greedy` finds the lexicographically smallest minimal witness,
      an affinely independent (dim+2)-subset, in dim+2 stacked steps.
    - Otherwise, or when that pass meets a set that is not an EDM: subsets
      are scanned by size and then lexicographically, and the first failing
      one is the lexicographically smallest witness of minimal size.  In
      the chunk that takes the scan past ``_WITNESS_BUDGET`` subsets, Menger's
      anchored theorem (:func:`_anchored_witness`) gives the final answer:
      an inclusion-minimal witness (every proper subset embeds), not
      certified lexicographically smallest.  When no anchored set fails the
      rank cut, the whole space is shrunk by :func:`_deletion_witness`.
    """
    tol = tol or DEFAULT_TOLERANCES
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    d2, unit = _unit_squares(s.d.d)
    _, verdict, coords = _factor_gram(_center(d2), tol)
    if verdict.is_psd and verdict.rank <= dim:
        return EmbeddabilityVerdict(True, dim, realization=Realization(coords * unit))
    if verdict.is_psd:
        chosen, failing = _greedy(d2, dim + 2, tol)
        if failing is None and len(chosen) == dim + 2:
            return EmbeddabilityVerdict(False, dim, failing_subset=tuple(chosen))

    checked = 0
    for rows, stack in _lex_chunks(d2, range(s.n), dim):
        witness = _first_failing(rows, stack, dim, tol)
        checked += len(rows)
        if witness is not None or checked > _WITNESS_BUDGET:
            witness = witness or _anchored_witness(d2, dim, tol)
            return EmbeddabilityVerdict(False, dim, failing_subset=witness)
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
