"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point or surface lies outside the region where a metric field is defined."""


class SingularMetricError(ArithmeticError):
    """The metric at an evaluation point is singular or too ill-conditioned to invert."""


class UndefinedCenterError(ValueError):
    """A center-of-mass functional was requested with a mass too close to zero."""


class NonFiniteError(ValueError):
    """A computed value that must be finite is NaN or infinite."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""
