"""Exception types shared across the package."""


class TensorChernoffError(Exception):
    """Base class for every package-specific error."""


class ShapeError(TensorChernoffError, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class ArgumentError(TensorChernoffError, ValueError):
    """A parameter is outside its documented range."""


class DomainError(TensorChernoffError, ValueError):
    """A spectral function was evaluated outside its domain."""


class NumericalError(TensorChernoffError, RuntimeError):
    """A numerical routine failed to converge or produced inconsistent output."""


class PreconditionError(TensorChernoffError, ValueError):
    """The hypotheses of a bound do not hold, so the bound is not claimed."""


class ConfigError(TensorChernoffError, ValueError):
    """An experiment configuration is malformed."""
