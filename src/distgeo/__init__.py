"""Distance geometry toolkit.

Classify distance matrices, convert between distances, Gram matrices and
point coordinates, measure simplex volumes from side lengths, test
embeddability of finite semi-metric spaces, locate points by trilateration,
and place 4-point metrics on spheres with geodesic distances.
"""

from .errors import (
    AsymmetricMatrixError,
    DependentAnchorsError,
    DistanceGeometryError,
    FloatRangeError,
    GeodesicTooLongError,
    InfeasibleError,
    MatrixValidationError,
    NegativeEntryError,
    NoConvergenceError,
    NonSquareError,
    NonzeroDiagonalError,
    NoSolutionError,
    NotApplicableError,
    NotPSDInputError,
    NotRealizableError,
    SizeMismatchError,
    TooLargeError,
    ZeroOffDiagonalError,
)
from .matrices import (
    DEFAULT_TOLERANCES,
    DistanceMatrix,
    GramMatrix,
    PsdVerdict,
    Realization,
    SpectralDecomposition,
    Tolerances,
    center_realization,
    double_center,
    edm_from_realization,
    gram_from_realization,
    psd_verdict,
    realization_from_gram,
    schoenberg_gram,
    symmetric_eigendecomposition,
    validate_distance_matrix,
)
from .simplex import (
    SimplexSides,
    TriangleSides,
    cayley_menger_determinant,
    heron_area,
    inradius,
    is_flat,
    simplex_volume,
)
from .embedding import (
    EdmClassification,
    MdsResult,
    TrilaterationProblem,
    classical_mds,
    classify_edm,
    trilaterate,
)
from .semimetric import (
    CongruenceWitness,
    EmbeddabilityVerdict,
    FiniteSemiMetricSpace,
    MengerReport,
    congruently_embeddable,
    find_congruence,
    validate_semi_metric,
    verify_menger_criterion,
)
from .sphere import (
    VERTEX_PAIRS,
    Circumsphere,
    GeodesicTetrahedron,
    SphericalEmbedding,
    chord_length,
    circumradius,
    embed_on_sphere,
    inverse_circumradius,
    tetrahedron_from_chords,
)
from .rigidity import (
    CyclicSignSequence,
    PolyhedralCounts,
    cyclic_sign_changes,
    euler_characteristic_holds,
)

__version__ = "0.1.0"
