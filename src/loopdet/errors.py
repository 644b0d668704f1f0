"""Exception hierarchy shared by all loopdet modules.

Three broad classes map onto CLI exit codes: configuration problems,
physical/model domain violations, and bad or insufficient input data.
"""


class LoopdetError(Exception):
    """Base class for all loopdet errors."""


class ConfigError(LoopdetError):
    """Malformed or inconsistent run configuration (exit code 2)."""


class DomainError(LoopdetError):
    """Request outside the validity domain of the model (exit code 3)."""


class ParameterError(DomainError):
    """A physical coefficient is out of its allowed range."""


class DegenerateDeviceError(DomainError):
    """The device transmits nothing; normalized quantities are undefined."""


class UndefinedContentError(DomainError):
    """Multi-photon content requested for an all-vacuum signal."""


class NoMaximumError(DomainError):
    """The entropy landscape is flat; no optimum exists."""


class NoAcceptanceError(DomainError):
    """The postselection rule accepts with probability zero."""


class DataError(LoopdetError):
    """Bad or insufficient measured input data (exit code 4)."""


class InsufficientDataError(DataError):
    """Too few usable channels for the requested estimate."""


class InconsistentMeasurementError(DataError):
    """An inverted loss estimate fell outside the physical range [0, 1]."""
