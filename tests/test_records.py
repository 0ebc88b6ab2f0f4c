"""Records that hold arrays: value equality and read-only arrays.

Every frozen record with an array field compares by value, arrays by
``np.array_equal``, and so does any record that holds one.  Every array a
record holds, whether its constructor or a library call built it, rejects
in-place writes.
"""

import dataclasses

import numpy as np
import pytest

import distgeo
from distgeo.embedding import MdsResult, TrilaterationProblem, classical_mds
from distgeo.matrices import (
    DistanceMatrix,
    GramMatrix,
    Realization,
    SpectralDecomposition,
    double_center,
    symmetric_eigendecomposition,
    validate_distance_matrix,
)
from distgeo.semimetric import congruently_embeddable, validate_semi_metric
from distgeo.sphere import (
    Circumsphere,
    GeodesicTetrahedron,
    SphericalEmbedding,
    circumradius,
    embed_on_sphere,
)

TRIANGLE = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
CORNERS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def records(k=1.0):
    """One record of each type that holds an array, built afresh at scale k."""
    d = validate_distance_matrix(TRIANGLE * k)
    mds = classical_mds(d)
    tetra = GeodesicTetrahedron(np.full(6, 1.910633) * k)
    return {
        DistanceMatrix: d,
        GramMatrix: double_center(d),
        SpectralDecomposition: symmetric_eigendecomposition(double_center(d)),
        Realization: mds.realization,
        MdsResult: mds,
        TrilaterationProblem: TrilaterationProblem(Realization(CORNERS * k), np.ones(4) * k),
        GeodesicTetrahedron: tetra,
        SphericalEmbedding: embed_on_sphere(tetra),
        Circumsphere: circumradius(Realization(CORNERS * k)),
    }


def test_every_record_with_an_array_field_is_listed():
    public = [getattr(distgeo, name) for name in distgeo.__all__]
    declared = {
        obj
        for obj in public
        if dataclasses.is_dataclass(obj)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))
    }
    assert declared == set(records())


@pytest.mark.parametrize("kind", list(records()), ids=lambda t: t.__name__)
def test_equal_values_compare_equal(kind):
    a, b = records()[kind], records()[kind]
    assert a is not b
    assert a == b and not a != b
    assert a != records(2.0)[kind] and not a == records(2.0)[kind]
    with pytest.raises(TypeError):
        hash(a)


def test_records_of_different_types_differ():
    built = records()
    assert built[DistanceMatrix] != built[GramMatrix]
    assert built[Circumsphere] != built[SphericalEmbedding]


def test_one_differing_array_entry_makes_records_differ():
    center = np.zeros(3)
    assert Circumsphere(1.0, center) == Circumsphere(1.0, center.copy())
    assert Circumsphere(1.0, center) != Circumsphere(1.0, np.array([0.0, 0.0, 1e-300]))
    assert Circumsphere(1.0, center) != Circumsphere(1.0, None)
    assert Circumsphere(np.inf, None) == Circumsphere(np.inf, None)
    line = Realization([[0.0], [1.0]])
    assert line != Realization([[0.0, 0.0], [1.0, 0.0]])


def test_records_holding_records_compare_by_value():
    m = np.ones((4, 4)) - np.eye(4)
    assert validate_semi_metric(m) == validate_semi_metric(m)
    assert validate_semi_metric(m) != validate_semi_metric(2 * m)
    assert validate_semi_metric(m) != validate_semi_metric(m, labels="abcd")
    a = congruently_embeddable(validate_semi_metric(m), 3)
    assert a.realization is not None
    assert a == congruently_embeddable(validate_semi_metric(m), 3)
    assert a != congruently_embeddable(validate_semi_metric(2 * m), 3)
    assert a != congruently_embeddable(validate_semi_metric(m), 2)


@pytest.mark.parametrize("kind", list(records()), ids=lambda t: t.__name__)
def test_every_array_field_is_read_only(kind):
    record = records()[kind]
    arrays = [getattr(record, f.name) for f in dataclasses.fields(record)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert arrays
    for a in arrays:
        assert a.size
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_directly_built_records_are_read_only():
    center, eigenvalues = np.zeros(3), np.array([2.0, 1.0])
    sphere = Circumsphere(1.0, center)
    mds = MdsResult(Realization([[0.0], [1.0]]), eigenvalues, 1, 0.0)
    for a in (sphere.center, mds.eigenvalues):
        with pytest.raises(ValueError):
            a[0] = 5.0
    assert center[0] == 0.0 and eigenvalues[0] == 2.0
