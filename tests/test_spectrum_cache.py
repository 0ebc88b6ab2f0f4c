"""One eigendecomposition per distance matrix.

``DistanceMatrix._spectrum`` holds the spectrum of the centered Gram matrix
in units of the largest distance, computed on first use.  classify_edm,
classical_mds and congruently_embeddable all read it, each with its own
rank cut, so their results must not depend on which of them factored the
matrix, in what order, or under which Tolerances; and they must equal the
uncached path, spelled out here from the matrix core's primitives.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgeo import matrices
from distgeo.embedding import _max_relative_distance_error, classical_mds, classify_edm
from distgeo.errors import FloatRangeError
from distgeo.matrices import (
    DistanceMatrix,
    Realization,
    Tolerances,
    _center,
    _in_units,
    _unit_squares,
    edm_from_realization,
    symmetric_eigendecomposition,
    validate_distance_matrix,
)
from distgeo.semimetric import FiniteSemiMetricSpace, congruently_embeddable

SQUARE = [[0, 1, 2**0.5, 1], [1, 0, 1, 2**0.5], [2**0.5, 1, 0, 1], [1, 2**0.5, 1, 0]]
TOLS = (Tolerances(), Tolerances(rank_tol=1e-4, dist_tol=1e-4))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records each call of matrices.symmetric_eigendecomposition."""
    calls = []
    real = matrices.symmetric_eigendecomposition

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(matrices, "symmetric_eigendecomposition", counting)
    return calls


class TestOneFactorization:
    def test_every_reader_shares_one_eigensolve(self, eigh_calls):
        d = validate_distance_matrix(SQUARE)
        classify_edm(d)
        classical_mds(d)
        congruently_embeddable(FiniteSemiMetricSpace(tuple("abcd"), d), 2)
        classify_edm(d, TOLS[1])
        classical_mds(d, TOLS[1], dim_cap=1)
        assert len(eigh_calls) == 1

    def test_negative_dim_cap_is_rejected_before_factoring(self, eigh_calls):
        d = validate_distance_matrix(SQUARE)
        with pytest.raises(ValueError, match="dim_cap"):
            classical_mds(d, dim_cap=-1)
        assert eigh_calls == []
        assert "_spectrum" not in vars(d)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda d: d.restrict(range(d.n)),
            lambda d: validate_distance_matrix(d.d),
            dataclasses.replace,
        ],
        ids=["restrict", "validate", "replace"],
    )
    def test_derived_matrices_start_uncached(self, eigh_calls, derive):
        d = validate_distance_matrix(SQUARE)
        classify_edm(d)
        fresh = derive(d)
        assert "_spectrum" not in vars(fresh)
        classify_edm(fresh)
        assert len(eigh_calls) == 2

    def test_equality_and_repr_ignore_the_cache(self):
        d = validate_distance_matrix(SQUARE)
        before = repr(d)
        classify_edm(d)
        assert repr(d) == before
        assert [f.name for f in dataclasses.fields(d)] == ["d"]
        # Dataclass equality compares the arrays; it has a truth value at n = 1.
        point = DistanceMatrix(np.zeros((1, 1)))
        classify_edm(point)
        assert point == DistanceMatrix(np.zeros((1, 1)))

    def test_cached_arrays_are_read_only(self):
        d = validate_distance_matrix(SQUARE)
        unit, dec = d._spectrum
        assert unit == 1.0
        assert not dec.eigenvalues.flags.writeable
        assert not dec.eigenvectors.flags.writeable
        result = classical_mds(d)
        assert not np.shares_memory(result.eigenvalues, dec.eigenvalues)


# --- bit-identity with the uncached path ---------------------------------------


def bits(x) -> tuple:
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


CANON = {
    "classify": lambda c: (c.is_edm, c.dim, bits(c.witness_eigenvalue)),
    "mds": lambda r: (bits(r.realization.coords), bits(r.eigenvalues), r.inherent_dim, bits(r.residual)),
    "embed": lambda v: (
        v.embeddable,
        bits(v.realization.coords) if v.embeddable else None,
        v.failing_subset,
    ),
}


def run(calls: dict, order) -> dict:
    """Each reader's result as raw bytes, or the range error it raised."""
    out = {}
    for name in order:
        try:
            out[name] = CANON[name](calls[name]())
        except FloatRangeError as err:
            out[name] = ("raised", str(err))
    return out


def readers(d: DistanceMatrix, tol: Tolerances, dim: int) -> dict:
    space = FiniteSemiMetricSpace(tuple(range(d.n)), d)
    return {
        "classify": lambda: classify_edm(d, tol),
        "mds": lambda: classical_mds(d, tol),
        "embed": lambda: congruently_embeddable(space, dim, tol),
    }


def reference(d: np.ndarray, tol: Tolerances, dim: int) -> dict:
    """What the readers return, each from its own eigendecomposition; for
    congruently_embeddable, only the verdict and realization of the PSD
    route, which is all it reads from the spectrum.  The rank cut is spelled
    out too: rank_tol times the spectral radius."""
    d2, unit = _unit_squares(d)
    dec = symmetric_eigendecomposition(_center(d2))
    w = dec.eigenvalues
    cut = tol.rank_tol * max(w[0], -w[-1])
    rank, is_psd = int(np.count_nonzero(w > cut)), w[-1] >= -cut
    coords = dec.eigenvectors[:, :rank] * np.sqrt(w[:rank])
    within = np.abs(w) <= cut
    if within[-1]:
        witness = float(_in_units(w[-1], unit, 2, "eigenvalue", residue=True))
    else:
        witness = float(w[-1]) * unit * unit
    out = {"classify": (bool(is_psd), int(rank), bits(witness))}
    realized = edm_from_realization(Realization(coords)).d
    residual = _max_relative_distance_error(realized, d / unit)
    try:
        scaled = _in_units(w, unit, 2, "eigenvalue", residue=within)
        out["mds"] = (bits(coords * unit), bits(scaled), int(rank), bits(residual))
    except FloatRangeError as err:
        out["mds"] = ("raised", str(err))
    fits = bool(is_psd) and rank <= dim
    out["embed"] = (fits, bits(coords * unit) if fits else None)
    return out


@st.composite
def cases(draw):
    """A distance matrix of n points in R^k, or one with a pair stretched to
    three times the largest distance, in a unit 10^u with u in [-300, 300],
    and a target dimension.  The last axis may be squashed by 1e-3, which
    leaves an eigenvalue between the two rank cuts of TOLS."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_normal((n, k))
    pts[:, -1] *= draw(st.sampled_from([1.0, 1e-3]))
    d = np.array(edm_from_realization(Realization(pts)).d)
    if n > 2 and draw(st.booleans()):
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] = d[j, i] = 3.0 * d.max()
    u = draw(st.one_of(st.sampled_from([-300, 300]), st.integers(-300, 300)))
    return d * 10.0**u, draw(st.integers(0, 3))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(cases())
def test_readers_agree_cold_warm_in_any_order_and_with_the_uncached_path(case):
    d, dim = case
    names = ("classify", "mds", "embed")
    for tol in TOLS:
        cold = {name: run(readers(DistanceMatrix(d), tol, dim), [name])[name] for name in names}
        want = reference(d, tol, dim)
        assert cold["classify"] == want["classify"]
        assert cold["mds"] == want["mds"]
        assert cold["embed"][:2] == want["embed"]
        for order in itertools.permutations(names):
            assert run(readers(DistanceMatrix(d), tol, dim), order) == cold
    # One matrix read under both tolerances, in either order.
    for first, second in (TOLS, TOLS[::-1]):
        shared = DistanceMatrix(d)
        for tol in (first, second):
            assert run(readers(shared, tol, dim), names) == run(readers(DistanceMatrix(d), tol, dim), names)
