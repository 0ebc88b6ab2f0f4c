"""Finite semi-metric spaces, congruence, and embeddability in R^n.

A semi-metric space assigns a symmetric positive distance to every pair of
distinct points; the triangle inequality is NOT required.  Congruence
between two spaces is a distance-preserving bijection.  Embeddability of a
space in R^n is decided two independent ways: through the PSD test on the
centered Gram matrix, and through the finitistic criterion that checks
small subsets only -- an independent (n+1)-point base plus flat (n+2)- and
(n+3)-point subsets, those whose Cayley-Menger determinant vanishes.  Both
routes read eigenvalues against one rank cut: a subset is flat when its
projected Gram has an eigenvalue within the whole space's cut.
"""

from __future__ import annotations

import functools
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
    _classify_stack,
    _factor_gram,
    _flat_stack,
    _rank_cut,
    _unit_squares,
    validate_distance_matrix,
)

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
      flat2 -- every (dim+2)-subset is flat: its Cayley-Menger determinant
               vanishes, read as an eigenvalue of its projected Gram
               within the rank cut of the whole space;
      flat3 -- the same on every (dim+3)-subset;
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


def _submatrices(d2: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (S, k, k) stack of squared sub-matrices of ``d2`` on the rows of
    an (S, k) index array, with no re-validation."""
    return d2[rows[:, :, None], rows[:, None, :]]


@functools.lru_cache(maxsize=256)
def _combination_rows(n: int, k: int) -> np.ndarray:
    """Read-only (C(n, k), k) array of ``combinations(range(n), k)``, in order.

    Cached per (n, k): the Menger report asks for the same few sizes of
    spaces of at most MENGER_SUBSET_CAP points again and again.
    """
    count = math.comb(n, k)
    flat = chain.from_iterable(combinations(range(n), k))
    rows = np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
    rows.setflags(write=False)
    return rows


def _first_failing(d2: np.ndarray, rows: np.ndarray, dim: int, tol: Tolerances):
    """The first subset, among the rows of an (S, k) index array, that is not
    an EDM of rank <= dim, or None.  Stacked ``_CHUNK_CAP`` rows at a time."""
    for start in range(0, len(rows), _CHUNK_CAP):
        chunk = rows[start : start + _CHUNK_CAP]
        rank, is_edm = _classify_stack(_submatrices(d2, chunk), tol)
        failing = ~is_edm | (rank > dim)
        if failing.any():
            return tuple(chunk[np.argmax(failing)].tolist())
    return None


def _lex_scan(d2: np.ndarray, points, dim: int, tol: Tolerances, budget: float) -> tuple:
    """``(witness, checked)``: the first subset of ``points`` that is not an
    EDM of rank <= dim, by size and then lexicographically, and the number of
    subsets tested.  A pair of distinct points is an EDM of rank 1, so pairs
    are tested only at dim 0; the largest size is dim+3.  Each size is
    stacked lazily in chunks of ``_FIRST_CHUNK`` subsets growing 4x up to
    ``_CHUNK_CAP``; the scan gives up after the chunk that takes ``checked``
    past ``budget``."""
    checked = 0
    for k in range(2 if dim == 0 else 3, min(len(points), dim + 3) + 1):
        flat = chain.from_iterable(combinations(points, k))
        size = _FIRST_CHUNK
        while checked <= budget:
            rows = np.fromiter(islice(flat, size * k), dtype=np.intp).reshape(-1, k)
            if not len(rows):
                break
            checked += len(rows)
            witness = _first_failing(d2, rows, dim, tol)
            if witness is not None:
                return witness, checked
            size = min(4 * size, _CHUNK_CAP)
    return None, checked


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
        rows = np.empty((n - chosen[-1] - 1, k), dtype=np.intp)
        rows[:, :-1] = chosen
        rows[:, -1] = np.arange(chosen[-1] + 1, n)
        rank, is_edm = _classify_stack(_submatrices(d2, rows), tol)
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
            if len(rest) > 1 and _first_failing(d2, np.array([rest]), dim, tol):
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
    subset by :func:`_lex_scan` (at most 2^(dim+3) subsets).
    """
    anchor, failing = _greedy(d2, dim + 1, tol)
    if failing is None:
        others = np.setdiff1d(np.arange(d2.shape[0]), anchor)
        x, y = np.triu_indices(len(others), 1)
        extras = (others[:, None], np.column_stack([others[x], others[y]]))
        sets = (np.sort(np.column_stack([np.tile(anchor, (len(e), 1)), e]), axis=1) for e in extras)
        failing = next(filter(None, (_first_failing(d2, rows, dim, tol) for rows in sets)), None)
        if failing is None:
            return _deletion_witness(d2, dim, tol)
    return _lex_scan(d2, failing, dim, tol, math.inf)[0] or failing


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
    unit, dec = s.d._spectrum
    _, verdict, coords = _factor_gram(dec, tol)
    if verdict.is_psd and verdict.rank <= dim:
        return EmbeddabilityVerdict(True, dim, realization=Realization(coords * unit))
    d2, _ = _unit_squares(s.d.d)
    if verdict.is_psd:
        chosen, failing = _greedy(d2, dim + 2, tol)
        if failing is None and len(chosen) == dim + 2:
            return EmbeddabilityVerdict(False, dim, failing_subset=tuple(chosen))

    witness, checked = _lex_scan(d2, range(s.n), dim, tol, _WITNESS_BUDGET)
    if witness is None and checked > _WITNESS_BUDGET:
        witness = _anchored_witness(d2, dim, tol)
    # None when the scan ends within its budget: numerically possible when the
    # whole space sits right at the verdict threshold while every small subset
    # clears it; report without witness.
    return EmbeddabilityVerdict(False, dim, failing_subset=witness)


def verify_menger_criterion(
    s: FiniteSemiMetricSpace, dim: int, tol: Tolerances | None = None
) -> MengerReport:
    """Run the finitistic embeddability criterion over every small subset.

    Checks, for n = ``dim``: (base) every min(n+1, |S|)-point subset is a
    Euclidean distance matrix at its own rank cut; (flat2) every
    (n+2)-point subset and (flat3) every (n+3)-point subset is flat: its
    projected Gram has an eigenvalue within the rank cut of the whole
    space's centered Gram (``s.d._spectrum``, which the PSD route reads
    too), so the two routes take one threshold.  Both quantifier readings
    of the third condition are reported: over all (n+3)-subsets, and only
    over those containing the independent anchor subset, read off the full
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
    w = s.d._spectrum[1].eigenvalues
    cut = _rank_cut(w, tol)[0]
    # Each subset's projected Gram is a compression of the centered Gram, so
    # by Cauchy interlacing its smallest eigenvalue lies between w[-1] and
    # w[dim]: within the cut, with room for rounding, for every subset at once.
    all_flat = dim + 2 > n or (w[dim] <= cut / 2 and w[-1] >= -cut / 2)

    def failures(rows: np.ndarray, failing: np.ndarray) -> tuple:
        return tuple(map(tuple, rows[failing].tolist()))

    def not_flat(k: int) -> tuple[np.ndarray, np.ndarray]:
        # A size past n has no subsets, and its kernel would build a k-point basis.
        rows = _combination_rows(n, k)
        if all_flat or not len(rows):
            return rows, np.zeros(len(rows), dtype=bool)
        return rows, ~_flat_stack(_submatrices(d2, rows), cut)

    # The anchor is the first base subset realizing dimension exactly dim.
    # When n < dim+1 the base subsets have rank below dim, so none exists.
    base_size = min(dim + 1, n)
    base_rows = _combination_rows(n, base_size)
    rank, is_edm = _classify_stack(_submatrices(d2, base_rows), tol)
    base_failures = failures(base_rows, ~is_edm)
    exact = np.flatnonzero(is_edm & (rank == dim))
    anchor = tuple(base_rows[exact[0]].tolist()) if exact.size else None

    flat2_rows, flat2_failing = not_flat(dim + 2)
    flat2_fail = failures(flat2_rows, flat2_failing)
    flat3_rows, flat3_failing = not_flat(dim + 3)
    flat3_fail = failures(flat3_rows, flat3_failing)
    # The anchored reading: the (dim+3)-subsets that hold every anchor point.
    if anchor is None:
        flat3a_checked, flat3a_fail = 0, ()
    else:
        anchored = (flat3_rows[:, :, None] == anchor).any(axis=1).all(axis=1)
        flat3a_checked = int(anchored.sum())
        flat3a_fail = failures(flat3_rows, anchored & flat3_failing)

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
