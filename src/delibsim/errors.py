"""Exception types shared across the library."""


class DelibError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(DelibError):
    """A space, rule, policy, or run configuration is internally inconsistent."""


class InvalidPointError(DelibError):
    """A point does not belong to the space it was used with."""


class UnsupportedSizeError(DelibError):
    """A computation was requested above its hard size limit."""


class InfeasibleStepError(DelibError):
    """No move can satisfy the step constraints from the given position."""


class ConstraintViolationError(DelibError):
    """A produced move violates the active movement constraints."""

    def __init__(self, message: str, agent: int | None = None, iteration: int | None = None):
        super().__init__(message)
        self.agent = agent
        self.iteration = iteration


class ParseError(DelibError):
    """A profile, script, or configuration file is malformed."""
