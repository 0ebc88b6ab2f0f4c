"""Distance geometry toolkit.

Classify distance matrices, convert between distances, Gram matrices and
point coordinates, measure simplex volumes from side lengths, test
embeddability of finite semi-metric spaces, locate points by trilateration,
and place 4-point metrics on spheres with geodesic distances.

Every public name below is importable from the package.  Its module is
imported on first use (PEP 562), so ``import distgeo`` loads neither numpy
nor any submodule.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AsymmetricMatrixError",
        "DependentAnchorsError",
        "DistanceGeometryError",
        "FloatRangeError",
        "GeodesicTooLongError",
        "InfeasibleError",
        "MatrixValidationError",
        "NegativeEntryError",
        "NoConvergenceError",
        "NonSquareError",
        "NonzeroDiagonalError",
        "NoSolutionError",
        "NotApplicableError",
        "NotPSDInputError",
        "NotRealizableError",
        "SizeMismatchError",
        "TooLargeError",
        "ZeroOffDiagonalError",
    ),
    "matrices": (
        "DEFAULT_TOLERANCES",
        "DistanceMatrix",
        "GramMatrix",
        "PsdVerdict",
        "Realization",
        "SpectralDecomposition",
        "Tolerances",
        "center_realization",
        "double_center",
        "edm_from_realization",
        "gram_from_realization",
        "psd_verdict",
        "realization_from_gram",
        "schoenberg_gram",
        "symmetric_eigendecomposition",
        "validate_distance_matrix",
    ),
    "simplex": (
        "SimplexSides",
        "TriangleSides",
        "cayley_menger_determinant",
        "heron_area",
        "inradius",
        "is_flat",
        "simplex_volume",
    ),
    "embedding": (
        "EdmClassification",
        "MdsResult",
        "TrilaterationProblem",
        "classical_mds",
        "classify_edm",
        "trilaterate",
    ),
    "semimetric": (
        "CONGRUENCE_SEARCH_CAP",
        "MENGER_SUBSET_CAP",
        "CongruenceWitness",
        "EmbeddabilityVerdict",
        "FiniteSemiMetricSpace",
        "MengerReport",
        "congruently_embeddable",
        "find_congruence",
        "validate_semi_metric",
        "verify_menger_criterion",
    ),
    "sphere": (
        "VERTEX_PAIRS",
        "Circumsphere",
        "GeodesicTetrahedron",
        "SphericalEmbedding",
        "chord_length",
        "circumradius",
        "embed_on_sphere",
        "inverse_circumradius",
        "tetrahedron_from_chords",
    ),
    "rigidity": (
        "CyclicSignSequence",
        "PolyhedralCounts",
        "cyclic_sign_changes",
        "euler_characteristic_holds",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module_name = _OWNER.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    # Bind all of the module's names at once, as an eager
    # ``from .module import (...)`` would; later lookups are dict hits.
    namespace = globals()
    for export in _EXPORTS[module_name]:
        namespace[export] = getattr(module, export)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
