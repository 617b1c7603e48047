"""Exception types shared across the package."""


class PostoptError(ValueError):
    """Base class for all errors raised by this package."""


class CapacityError(PostoptError):
    """Requested register pair is too large for the dense simulator."""


class DomainError(PostoptError):
    """An argument lies outside its valid range (index, outcome, cost, ...)."""


class ConfigurationError(PostoptError):
    """Inconsistent layouts or invalid generator/encoder parameters."""
