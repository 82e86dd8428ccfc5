"""Exception types shared across the package."""


class AdmfluxError(Exception):
    """Base of the package's own errors; each is built from one message."""


class DomainError(AdmfluxError, ValueError):
    """A point or surface lies outside the region where a metric field is defined."""


class SingularMetricError(AdmfluxError, ArithmeticError):
    """The metric at an evaluation point is singular or too ill-conditioned to invert."""


class UndefinedCenterError(AdmfluxError, ValueError):
    """A center-of-mass functional was requested with a mass too close to zero."""


class NonFiniteError(AdmfluxError, ValueError):
    """A computed value that must be finite is NaN or infinite."""


class ConfigError(AdmfluxError, ValueError):
    """A run configuration failed to parse or validate."""
