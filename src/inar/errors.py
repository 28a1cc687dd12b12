"""Exception taxonomy shared across the package."""


class InarError(Exception):
    """Base class for all domain errors raised by this package."""


class NonStationaryKernel(InarError):
    """Kernel fails the model conditions (l1 norm >= 1, or invalid entries)."""


class InvalidRate(InarError):
    """Poisson rate is negative or non-finite."""


class Overflow(InarError):
    """A simulated intensity exceeded the configured cap."""


class LagTooLarge(InarError):
    """Requested lag order p exceeds T - 1."""


class SingularDesign(InarError):
    """Design matrix is numerically singular (insufficient data or collinear lags)."""


class DimensionMismatch(InarError):
    """Vector/matrix dimensions do not agree."""


class InvalidLevel(InarError):
    """Confidence level outside the open interval (0, 1)."""


class ZeroVariance(InarError):
    """Sample has zero variance; the statistic is undefined."""


class SampleSizeOutOfRange(InarError):
    """Sample size outside the supported range for a test."""


class DomainError(InarError):
    """Argument outside the mathematical domain of a function."""


class AllReplicationsFailed(InarError):
    """Every Monte Carlo replication failed to produce an estimate."""


class ParseError(InarError):
    """Malformed configuration document or kernel specification."""


class ValidationError(InarError):
    """Config value of the wrong type for its key, or a seed or stream id
    outside its 64-bit range."""
