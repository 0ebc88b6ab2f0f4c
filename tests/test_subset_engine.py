"""The batched subset engine against a subset-by-subset reference.

``verify_menger_criterion`` tests all subsets of one size as one stacked
array, and the witness search in ``congruently_embeddable`` must find the
witness of a scan of every subset by size and then lexicographically.  The
reference here restricts the space to each subset and asks
``classify_edm``, or for flatness numpy's ``eigvalsh`` against the whole
space's rank cut, one subset at a time; both must give the same report,
field for field, on random spaces of every kind and unit of measure.
Relabelling the points must not change any verdict or count.  Past its
budget the witness search falls back to Menger's anchored theorem, whose
witness must be inclusion-minimal, and on large spaces it must test a
bounded number of subsets.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgeo import semimetric
from distgeo.embedding import classify_edm
from distgeo.matrices import DEFAULT_TOLERANCES, DistanceMatrix, Realization, edm_from_realization
from distgeo.semimetric import (
    FiniteSemiMetricSpace,
    MengerReport,
    congruently_embeddable,
    verify_menger_criterion,
)


def _edm(pts):
    return edm_from_realization(Realization(pts)).d


def make_space(kind, seed):
    """A random space of one kind with n <= 9 points (14 for "thin_lift"),
    a target dimension 0-3 and a unit of measure 10^u, u in [-6, 6], all
    drawn from the seed."""
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
    elif kind == "thin_lift":
        # Up to 14 points, one at a random index lifted 1e-5 to 1 off R^dim.
        n = int(rng.integers(dim + 2, 15))
        k = max(dim, 1)
        pts = np.zeros((n, k + 1))
        pts[:, :k] = rng.standard_normal((n, k))
        pts[int(rng.integers(n)), k] = 10 ** rng.uniform(-5, 0)
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

witness_spaces = st.builds(
    make_space,
    st.sampled_from(["edm", "lifted", "thin_lift", "semi", "noisy"]),
    st.integers(0, 2**32 - 1),
)

# The Menger report is capped at 12 points.  "thin_lift" is where a subset's
# flatness at the whole space's rank cut and at its own cut part ways.
menger_spaces = witness_spaces.filter(lambda case: case[0].n <= 12)


def large_space(kind, n=500, seed=0):
    """``(space, must, dim)``: n points that do not embed in R^dim, and the
    points every witness must contain.

    "lifted": generic points in a 3-flat, one of them, at a random index,
    lifted off it; dim 3.  "perturbed": generic points in R^3 with the
    distance of one random pair lengthened by 1e-3 of itself, so the space
    is not Euclidean; dim 3.  "collinear": points at integer positions on a
    line, the adjacent pair at 0 and 1 labelled last and its distance
    lengthened by 10 %; dim 2, where the greedy pass meets no point off the
    line through points 0 and 1.  "collinear-far": the same line labelled in
    position order, so the stretched pair lies at the far end from points 0
    and 1; from n = 100 up, every set of 0, 1 and two more points passes the
    rank cut.
    """
    rng = np.random.default_rng(seed)
    if kind.startswith("collinear"):
        x = np.arange(float(n))
        if kind == "collinear":
            x = np.roll(x, -2)
        d = np.abs(x[:, None] - x[None, :])
        d[n - 2, n - 1] = d[n - 1, n - 2] = 1.1
        return FiniteSemiMetricSpace(tuple(range(n)), DistanceMatrix(d)), (n - 2, n - 1), 2
    pts = np.zeros((n, 4))
    pts[:, :3] = rng.standard_normal((n, 3))
    if kind == "lifted":
        lifted = int(rng.integers(n))
        pts[lifted, 3] = 1.0
        return FiniteSemiMetricSpace(tuple(range(n)), DistanceMatrix(_edm(pts))), (lifted,), 3
    d = np.array(_edm(pts))
    p, q = sorted(int(i) for i in rng.choice(n, 2, replace=False))
    d[p, q] = d[q, p] = d[p, q] * (1 + 1e-3)
    return FiniteSemiMetricSpace(tuple(range(n)), DistanceMatrix(d)), (p, q), 3


def embeds(s, subset, dim):
    c = classify_edm(s.d.restrict(subset))
    return c.is_edm and c.dim <= dim


def centered_gram(d):
    j = np.eye(len(d)) - 1.0 / len(d)
    return -0.5 * j @ (d * d) @ j


def reference_report(s, dim):
    """MengerReport built one restricted subset at a time.  A subset is flat
    when its centered Gram has, besides the centering null, an eigenvalue
    within the rank cut of the whole space's centered Gram."""
    n = s.n
    whole = np.linalg.eigvalsh(centered_gram(s.d.d))
    cut = DEFAULT_TOLERANCES.rank_tol * max(whole[-1], -whole[0])

    def is_flat(subset):
        w = np.linalg.eigvalsh(centered_gram(s.d.d[np.ix_(subset, subset)]))
        return np.count_nonzero(np.abs(w) <= cut) >= 2

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
        failing = tuple(c for c in subsets if not is_flat(c))
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
@given(menger_spaces)
def test_menger_report_matches_subset_by_subset_reference(case):
    s, dim = case
    assert verify_menger_criterion(s, dim) == reference_report(s, dim)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(witness_spaces)
def test_witness_is_first_failing_subset_of_lex_scan(case):
    s, dim = case
    verdict = congruently_embeddable(s, dim)
    if not verdict.embeddable:
        assert verdict.failing_subset == reference_witness(s, dim)


@pytest.mark.parametrize("seed", [5, 6, 35, 42, 45])
def test_routes_agree_on_thin_lifts(seed):
    # In each space some subset is flat by one rule and not by the other:
    # |CM| at most rank_tol in units of the subset's largest side, and an
    # eigenvalue within the whole space's rank cut.  The Menger route takes
    # the second, the PSD route's threshold, and so agrees with it.
    s, dim = make_space("thin_lift", seed)
    assert verify_menger_criterion(s, dim).embeddable == congruently_embeddable(s, dim).embeddable


def test_space_that_fails_only_as_a_whole_has_no_witness():
    # The whole space is an EDM of rank 3 at its own rank cut, while every
    # subset of at most dim+3 points passes its own cut.  The verdict stays
    # negative with no witness.
    s, dim = make_space("thin_lift", 1590)
    assert (s.n, dim) == (8, 2)
    whole = classify_edm(s.d)
    assert whole.is_edm and whole.dim == 3
    assert reference_witness(s, dim) is None
    verdict = congruently_embeddable(s, dim)
    assert (verdict.embeddable, verdict.failing_subset) == (False, None)


def assert_inclusion_minimal(s, witness, dim):
    assert not embeds(s, witness, dim)
    for size in range(2, len(witness)):
        for subset in combinations(witness, size):
            assert embeds(s, subset, dim), subset


@settings(derandomize=True, max_examples=120, deadline=None)
@given(spaces)
def test_anchored_witness_is_inclusion_minimal(case):
    s, dim = case
    with mock.patch.object(semimetric, "_WITNESS_BUDGET", 0):
        verdict = congruently_embeddable(s, dim)
    if verdict.embeddable:
        return
    # Euclidean input never reaches the budget, so ask the fallback itself.
    d2, _ = semimetric._unit_squares(s.d.d)
    anchored = semimetric._anchored_witness(d2, dim, semimetric.DEFAULT_TOLERANCES)
    for witness in {verdict.failing_subset, anchored} - {None}:
        assert_inclusion_minimal(s, witness, dim)


@pytest.mark.parametrize("kind", ["lifted", "perturbed", "collinear", "collinear-far"])
def test_anchored_witness_on_a_large_space(monkeypatch, kind):
    s, must, dim = large_space(kind, n=100 if kind == "collinear-far" else 40)
    monkeypatch.setattr(semimetric, "_WITNESS_BUDGET", 0)
    if kind == "lifted":
        d2, _ = semimetric._unit_squares(s.d.d)
        witness = semimetric._anchored_witness(d2, dim, semimetric.DEFAULT_TOLERANCES)
    else:
        witness = congruently_embeddable(s, dim).failing_subset
    assert set(must) <= set(witness)
    assert_inclusion_minimal(s, witness, dim)


def test_chunk_that_crosses_the_budget_keeps_its_own_witness(monkeypatch):
    # The first chunk of 16 triangles takes the scan past a budget of 0 and
    # holds a failing triangle, so the anchored search does not run.
    s, dim = make_space("semi", 0)
    assert (s.n, dim) == (8, 2)
    monkeypatch.setattr(semimetric, "_WITNESS_BUDGET", 0)
    d2, _ = semimetric._unit_squares(s.d.d)
    assert semimetric._anchored_witness(d2, dim, semimetric.DEFAULT_TOLERANCES) == (1, 2, 3)
    assert congruently_embeddable(s, dim).failing_subset == (0, 2, 4)


def assert_witness_has_at_most_dim_plus_3_points(s, dim):
    with mock.patch.object(semimetric, "_WITNESS_BUDGET", 0):
        verdict = congruently_embeddable(s, dim)
    if not verdict.embeddable:
        assert len(verdict.failing_subset) <= dim + 3


@settings(derandomize=True, max_examples=150, deadline=None)
@given(witness_spaces)
def test_witness_past_the_budget_has_at_most_dim_plus_3_points(case):
    assert_witness_has_at_most_dim_plus_3_points(*case)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    st.sampled_from(["lifted", "perturbed", "collinear", "collinear-far"]),
    st.integers(50, 200),
    st.integers(0, 2**32 - 1),
)
def test_witness_on_a_large_space_has_at_most_dim_plus_3_points(kind, n, seed):
    s, _, dim = large_space(kind, n=n, seed=seed)
    assert_witness_has_at_most_dim_plus_3_points(s, dim)


@pytest.mark.parametrize("n", range(13))
def test_combination_rows_are_the_lexicographic_combinations(n):
    for k in range(n + 4):
        rows = semimetric._combination_rows(n, k)
        assert rows.shape == (math.comb(n, k), k)
        assert list(map(tuple, rows.tolist())) == list(combinations(range(n), k))


def test_combination_rows_are_read_only():
    rows = semimetric._combination_rows(6, 3)
    with pytest.raises(ValueError):
        rows[0, 0] = 5
    assert semimetric._combination_rows(6, 3)[0].tolist() == [0, 1, 2]


@pytest.fixture
def classified_rows(monkeypatch):
    """Counts the subsets the witness search passes to ``_classify_stack``."""
    count = [0]
    classify = semimetric._classify_stack

    def counting(stack, tol):
        count[0] += stack.shape[0]
        return classify(stack, tol)

    monkeypatch.setattr(semimetric, "_classify_stack", counting)
    return count


def test_lifted_witness_search_is_linear(classified_rows):
    s, (lifted,), dim = large_space("lifted")
    witness = congruently_embeddable(s, dim).failing_subset
    # Points 0-3 span the flat, so only the lifted point raises the rank.
    assert witness == (0, 1, 2, 3, max(lifted, 4))
    assert classified_rows[0] <= dim * s.n


def assert_anchored_search_is_bounded(classified_rows, kind):
    s, must, dim = large_space(kind)
    n = s.n
    assert not classify_edm(s.d).is_edm
    # Every triangle passes, so the lexicographic scan runs past its budget.
    assert all(embeds(s, sorted({*must, r}), dim) for r in range(n) if r not in must)
    witness = congruently_embeddable(s, dim).failing_subset
    assert set(must) <= set(witness)
    assert_inclusion_minimal(s, witness, dim)
    budget = semimetric._WITNESS_BUDGET + semimetric._CHUNK_CAP
    anchored = dim * n + n + math.comb(n, 2) + 2 ** (dim + 3)
    assert budget < classified_rows[0] <= budget + anchored


def test_non_euclidean_witness_search_is_bounded(classified_rows):
    assert_anchored_search_is_bounded(classified_rows, "perturbed")


def test_witness_search_from_a_smaller_anchor_is_bounded(classified_rows):
    # The greedy pass meets no point off the line, so the anchor is (0, 1).
    assert_anchored_search_is_bounded(classified_rows, "collinear")


def test_witness_search_past_every_anchored_set_is_bounded(classified_rows):
    # No anchored set fails, so the whole line is shrunk by deletion.
    assert_anchored_search_is_bounded(classified_rows, "collinear-far")


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
