"""Exception types shared across the toolkit."""


class ToruskitError(Exception):
    """Base class for all toolkit errors."""


class SingularGenerators(ToruskitError):
    """Generator matrix is singular: its exact determinant is zero."""


class DimensionMismatch(ToruskitError):
    """A vector or index does not match the configured dimension."""


class InvalidOrder(ToruskitError):
    """Compound-matrix order outside 1..min(rows, cols)."""


class ShapeMismatch(ToruskitError):
    """Matrix shapes are incompatible for the requested product."""


class DependentVectors(ToruskitError):
    """Vectors expected to be linearly independent are not."""


class DeltaOutOfRange(ToruskitError):
    """Cluster exponent delta outside the theorem range (0, delta0(d))."""


class BoxMismatch(ToruskitError):
    """Block matrix and partition were built on different boxes."""


class IntraClusterEntry(ToruskitError):
    """A matrix expected to be purely cross-cluster carries an intra-cluster entry."""


class GammaOutOfRange(ToruskitError):
    """Measure-estimate gamma outside (0, c(L)/4]."""


class IdentityViolation(ToruskitError):
    """An identity that must hold exactly failed.

    This always indicates an implementation bug, never legitimate input.
    """


class ParseError(ToruskitError):
    """Config or data file could not be parsed; message carries the field path."""


class ValidationError(ToruskitError):
    """Config parsed but a field value is out of its documented range."""


class UnknownSeries(ToruskitError):
    """Requested plot-data series does not exist in the report."""
