"""Exception types shared across the package."""


class CutDGError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(CutDGError):
    """Mesh or cut-geometry data violates a structural assumption
    (non-manifold face, degenerate surface segment, missing entity)."""


class GeometryError(CutDGError, ValueError):
    """A point where the exact geometry is evaluated lies outside the
    validity radius of the closest-point map."""


class ConfigurationError(CutDGError):
    """A run configuration is unusable, e.g. the surface misses the
    background box entirely."""


class SolverError(CutDGError):
    """The linear solver failed to reach the requested tolerance."""


class DegenerateMatrixError(CutDGError):
    """All eigenvalues of a matrix fall below the zero threshold."""
