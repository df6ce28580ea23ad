"""Exception hierarchy shared by all gpinverse modules.

Exit-code mapping used by the CLI lives in ``gpinverse.cli``; library code
raises these types and never calls ``sys.exit`` itself.
"""

__all__ = [
    "GpInverseError", "ShapeError", "DomainError", "ConfigurationError",
    "UnsupportedDimensionError", "DegenerateDataError", "NumericalError",
    "InferenceError",
]


class GpInverseError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GpInverseError):
    """Input has the wrong dimensionality or length."""


class DomainError(GpInverseError):
    """A point lies outside the admissible box of the model or problem."""


class ConfigurationError(GpInverseError):
    """A configuration value violates its documented constraints."""


class UnsupportedDimensionError(ConfigurationError):
    """Operation only defined for a different input dimension."""


class DegenerateDataError(GpInverseError):
    """Training data cannot support the requested fit (duplicates, constants)."""


class NumericalError(GpInverseError):
    """A linear-algebra or optimization step failed beyond recovery."""


class InferenceError(GpInverseError):
    """Posterior exploration failed (optimizer divergence, sampler init)."""
