"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = [
    "DistanceGeometryError",
    "MatrixValidationError",
    "NonSquareError",
    "AsymmetricMatrixError",
    "NegativeEntryError",
    "NonzeroDiagonalError",
    "ZeroOffDiagonalError",
    "NoConvergenceError",
    "NotPSDInputError",
    "InfeasibleError",
    "FloatRangeError",
    "SizeMismatchError",
    "TooLargeError",
    "DependentAnchorsError",
    "NoSolutionError",
    "GeodesicTooLongError",
    "NotRealizableError",
    "NotApplicableError",
]


class DistanceGeometryError(Exception):
    """Base class for every toolkit-specific error."""


class MatrixValidationError(DistanceGeometryError, ValueError):
    """A raw matrix failed structural validation."""


class NonSquareError(MatrixValidationError):
    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"matrix is not square: shape {self.shape}")


class AsymmetricMatrixError(MatrixValidationError):
    def __init__(self, index, delta):
        self.index = tuple(index)
        self.delta = float(delta)
        i, j = self.index
        super().__init__(
            f"matrix not symmetric at ({i},{j})/({j},{i}): difference {self.delta:g}"
        )


class NegativeEntryError(MatrixValidationError):
    def __init__(self, index, value):
        self.index = tuple(index)
        self.value = float(value)
        super().__init__(f"negative entry {self.value:g} at {self.index}")


class NonzeroDiagonalError(MatrixValidationError):
    def __init__(self, index, value):
        self.index = int(index)
        self.value = float(value)
        super().__init__(
            f"nonzero diagonal entry {self.value:g} at ({self.index},{self.index})"
        )


class ZeroOffDiagonalError(MatrixValidationError):
    def __init__(self, index):
        self.index = tuple(index)
        super().__init__(
            f"distinct points {self.index} at distance zero (not a semi-metric)"
        )


class NoConvergenceError(DistanceGeometryError):
    """The sphere's fixed-point scan found no sign change, or a planar chord tetrahedron."""


class NotPSDInputError(DistanceGeometryError, ValueError):
    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"matrix is not positive semidefinite (eigenvalue {self.min_eigenvalue:g})"
        )


class InfeasibleError(DistanceGeometryError):
    """Side lengths admit no realization; carries the offending value."""

    def __init__(self, message, value):
        self.value = float(value)
        super().__init__(f"{message} (value {self.value:g})")


class FloatRangeError(DistanceGeometryError, OverflowError):
    """A result exists but its magnitude does not fit in a float."""

    def __init__(self, quantity, log10_magnitude):
        self.quantity = str(quantity)
        self.log10_magnitude = float(log10_magnitude)
        super().__init__(
            f"{self.quantity} of about 10^{self.log10_magnitude:.1f} does not fit in a float"
        )


class SizeMismatchError(DistanceGeometryError, ValueError):
    def __init__(self, n_left, n_right):
        self.n_left = int(n_left)
        self.n_right = int(n_right)
        super().__init__(f"point counts differ: {self.n_left} vs {self.n_right}")


class TooLargeError(DistanceGeometryError, ValueError):
    def __init__(self, n, limit):
        self.n = int(n)
        self.limit = int(limit)
        super().__init__(f"{self.n} points exceeds the exhaustive-search cap {self.limit}")


class DependentAnchorsError(DistanceGeometryError, ValueError):
    """Anchor points are affinely dependent; the solution is not unique."""


class NoSolutionError(DistanceGeometryError):
    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(
            f"distances are inconsistent: residual {self.residual:g} exceeds tolerance"
        )


class GeodesicTooLongError(DistanceGeometryError, ValueError):
    def __init__(self, geodesic, inverse_radius):
        self.geodesic = float(geodesic)
        self.inverse_radius = float(inverse_radius)
        super().__init__(
            f"geodesic {self.geodesic:g} exceeds the great circle of the sphere "
            f"with inverse radius {self.inverse_radius:g}"
        )


class NotRealizableError(DistanceGeometryError):
    def __init__(self, eigenvalue):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"chord lengths are not realizable in 3-space (eigenvalue {self.eigenvalue:g})"
        )


class NotApplicableError(DistanceGeometryError):
    """Input violates the hypothesis of the spherical embedding construction."""
