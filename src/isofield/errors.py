"""Exception types shared across the package."""


class IsoFieldError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(IsoFieldError, ValueError):
    """A parameter lies outside its mathematical domain (exponents, dimensions)."""


class DomainError(IsoFieldError, ValueError):
    """A function argument is outside the supported domain beyond clamp tolerance."""


class UsageError(IsoFieldError, ValueError):
    """Inconsistent inputs: mismatched spaces, wrong lag domain, heterogeneous ensembles."""


class GeometryError(IsoFieldError):
    """Point-level geometry is not available for this space (octonionic plane)."""


class ModelError(IsoFieldError, ValueError):
    """A covariance model failed validation where a valid one is required."""


class IndefiniteMatrixError(IsoFieldError, ValueError):
    """A matrix expected to be nonnegative definite has a negative eigenvalue."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NumericError(IsoFieldError, RuntimeError):
    """A numerical routine (such as an eigen solver) failed."""


class ModelFormatError(IsoFieldError, ValueError):
    """A model or realization document does not match the file schema."""
