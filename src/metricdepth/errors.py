"""Exception hierarchy shared across the package."""


class MetricDepthError(Exception):
    """Base class for all library errors."""


class GeometryError(MetricDepthError, ValueError):
    """Invalid point, dimension mismatch, or ill-posed geometric operation."""


class PointValidationError(GeometryError):
    """Raw input could not be normalized into a valid point.

    ``row`` is the index of the offending point when a stacked check
    (``Space.validate_points`` or ``Space.decode_points``) raised it.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class UndefinedLogError(GeometryError):
    """Inverse exponential map is not defined for the given pair
    (e.g. antipodal points on a sphere)."""


class DataError(MetricDepthError, ValueError):
    """Malformed input data (files, encodings, shapes)."""


class NumericalError(MetricDepthError, RuntimeError):
    """A numerical routine failed (eigendecomposition, estimator divergence)."""
