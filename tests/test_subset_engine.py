"""The batched subset engine against a subset-by-subset reference.

``verify_menger_criterion`` tests all subsets of one size as one stacked
array, and the witness search in ``congruently_embeddable`` tests them as
one stacked array per lexicographic chunk.  The reference here restricts the space to each subset
and asks ``classify_edm`` and ``is_flat`` one subset at a time; both must
give the same report, field for field, on random spaces of every kind and
unit of measure.  Relabelling the points must not change any verdict or
count.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distgeo.embedding import classify_edm
from distgeo.matrices import DistanceMatrix, Realization, edm_from_realization
from distgeo.semimetric import (
    FiniteSemiMetricSpace,
    MengerReport,
    congruently_embeddable,
    verify_menger_criterion,
)
from distgeo.simplex import SimplexSides, is_flat


def _edm(pts):
    return edm_from_realization(Realization(pts)).d


def make_space(kind, seed):
    """A random space of one kind with n <= 9 points, a target dimension
    0-3 and a unit of measure 10^u, u in [-6, 6], all drawn from the seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    dim = int(rng.integers(0, 4))
    if kind == "edm":
        d = _edm(rng.standard_normal((n, int(rng.integers(1, 5)))))
    elif kind == "lifted":
        # Points spanning R^dim plus one lifted clearly off that flat.
        k = max(dim, 1)
        pts = np.zeros((n, k + 1))
        pts[:, :k] = rng.standard_normal((n, k))
        pts[int(rng.integers(n)), k] = rng.uniform(0.3, 2.0)
        d = _edm(pts)
    elif kind == "semi":
        m = rng.uniform(0.3, 3.0, (n, n))
        d = 0.5 * (m + m.T)
    else:
        noise = rng.standard_normal((n, n)) * 10 ** rng.uniform(-6, -2)
        d = _edm(rng.standard_normal((n, max(dim, 1)))) * (1 + 0.5 * (noise + noise.T))
    d = np.abs(d) * 10 ** rng.uniform(-6, 6)
    np.fill_diagonal(d, 0.0)
    return FiniteSemiMetricSpace(tuple(range(n)), DistanceMatrix(d)), dim


spaces = st.builds(
    make_space,
    st.sampled_from(["edm", "lifted", "semi", "noisy"]),
    st.integers(0, 2**32 - 1),
)


def reference_report(s, dim):
    """MengerReport built one restricted subset at a time."""
    n = s.n

    def rank(subset):
        c = classify_edm(s.d.restrict(subset))
        return c.dim if c.is_edm else None

    base_size = min(dim + 1, n)
    base = list(combinations(range(n), base_size))
    ranks = [rank(b) for b in base]
    base_failures = tuple(b for b, r in zip(base, ranks) if r is None or r > dim)
    anchor = next((b for b, r in zip(base, ranks) if r == dim), None)

    def flat_failures(size, must_contain=()):
        subsets = [
            c for c in combinations(range(n), size) if set(must_contain) <= set(c)
        ]
        failing = tuple(
            c for c in subsets if not is_flat(SimplexSides(s.d.restrict(c)))
        )
        return len(subsets), failing

    flat2 = flat_failures(dim + 2)
    flat3 = flat_failures(dim + 3)
    flat3a = flat_failures(dim + 3, anchor) if anchor is not None else (0, ())
    return MengerReport(
        dim=dim,
        embeddable=not base_failures and not flat2[1] and not flat3[1],
        anchor_subset=anchor,
        base_size=base_size,
        base_checked=len(base),
        base_failures=base_failures,
        flat2_checked=flat2[0],
        flat2_failures=flat2[1],
        flat3_checked=flat3[0],
        flat3_failures=flat3[1],
        flat3_anchored_checked=flat3a[0],
        flat3_anchored_failures=flat3a[1],
    )


def reference_witness(s, dim):
    """First failing subset of the size-then-lexicographic scan."""
    for size in range(2, min(s.n, dim + 3) + 1):
        for subset in combinations(range(s.n), size):
            c = classify_edm(s.d.restrict(subset))
            if not (c.is_edm and c.dim <= dim):
                return subset
    return None


@settings(derandomize=True, max_examples=120, deadline=None)
@given(spaces)
def test_menger_report_matches_subset_by_subset_reference(case):
    s, dim = case
    assert verify_menger_criterion(s, dim) == reference_report(s, dim)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(spaces)
def test_witness_is_first_failing_subset_of_lex_scan(case):
    s, dim = case
    verdict = congruently_embeddable(s, dim)
    if not verdict.embeddable:
        assert verdict.failing_subset == reference_witness(s, dim)


def _invariants(s, dim):
    verdict = congruently_embeddable(s, dim)
    r = verify_menger_criterion(s, dim)
    witness = verdict.failing_subset
    # The anchored failure count is left out: it depends on which base
    # subset comes first in the labelling, and so becomes the anchor.
    return (
        verdict.embeddable,
        None if witness is None else len(witness),
        r.embeddable,
        r.anchor_subset is None,
        r.base_checked,
        len(r.base_failures),
        r.flat2_checked,
        len(r.flat2_failures),
        r.flat3_checked,
        len(r.flat3_failures),
        r.flat3_anchored_checked,
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(spaces, st.randoms(use_true_random=False))
def test_relabelling_leaves_verdicts_and_counts_unchanged(case, random):
    s, dim = case
    perm = list(range(s.n))
    random.shuffle(perm)
    relabelled = FiniteSemiMetricSpace(s.labels, DistanceMatrix(s.d.d[np.ix_(perm, perm)]))
    assert _invariants(relabelled, dim) == _invariants(s, dim)
