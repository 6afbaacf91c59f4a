"""Exception hierarchy shared across the package."""


class LooAdaptError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LooAdaptError):
    """Array shapes or lengths do not line up."""


class DomainError(LooAdaptError):
    """A numeric argument is outside its valid domain."""


class ValidationError(LooAdaptError):
    """Structured input rejection carrying one message per violation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))
