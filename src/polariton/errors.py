"""Exception types shared across the package."""


class PolaritonError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PolaritonError):
    """Operator or state dimensions are invalid or incompatible."""


class ParameterError(PolaritonError):
    """A physical parameter violates its constraints (e.g. negative rate)."""


class SteadyStateError(PolaritonError):
    """The steady-state solve failed to produce a valid density matrix."""


class NonUniqueSteadyStateError(SteadyStateError):
    """The Liouvillian has a degenerate (>= 2 dimensional) null space."""


class IntegrationError(PolaritonError):
    """Time propagation of the master equation failed."""


class UndefinedCorrelationError(PolaritonError):
    """A correlation function is undefined (occupation below the floor)."""


class ClassificationError(PolaritonError):
    """Inputs to a case classification are missing or undefined."""


class InsufficientDataError(PolaritonError):
    """A delay-time curve does not cover the required window."""


class ResonanceSingularityError(PolaritonError):
    """The weak-drive linear system is singular at the requested point."""


class ConfigError(PolaritonError):
    """A run configuration failed schema validation."""
