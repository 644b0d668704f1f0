"""Exception hierarchy and domain checker shared by all loopdet modules.

Three broad classes map onto CLI exit codes: configuration problems,
physical/model domain violations, and bad or insufficient input data.
A domain is a plain predicate on one value, NaN failing every bound, and
``check_fields`` checks each declared field of a dataclass in turn.
"""

import math
import sys
from dataclasses import MISSING, field, fields
from typing import Callable, NamedTuple

import numpy as np


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


class Domain(NamedTuple):
    accepts: Callable[[object], bool]  # x -> whether x lies in the domain
    text: str  # ends "<name> must ..."
    integer: bool  # a run file gives the value as an int literal


def _domain(bounds, text: str, integer: bool = False) -> Domain:
    """Numbers of the domain's kind, never bools, within ``bounds``.  A float16 or
    float32 meets them as a double, as the largest double cast to its type overflows."""
    kinds = (int, np.integer) if integer else (float, int, np.floating, np.integer)
    return Domain(lambda x: isinstance(x, kinds) and not isinstance(x, bool)
                  and bounds(float(x) if isinstance(x, (np.float16, np.float32)) else x),
                  text, integer)


UNIT = _domain(lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]")
POSITIVE = _domain(lambda x: 0.0 < x <= sys.float_info.max, "be positive and finite")
NONNEGATIVE = _domain(lambda x: 0.0 <= x <= sys.float_info.max, "be finite and >= 0")
COUNT = _domain(lambda x: 0 <= x < math.inf and int(x) == x, "be a nonnegative integer")
SEED = _domain(lambda x: x >= 0, "be an integer >= 0", True)
POSITIVE_INT = _domain(lambda x: x >= 1, "be an integer >= 1", True)
CHANNELS = _domain(lambda x: 1 <= x <= 2 ** 16, "be an integer in [1, 65536]", True)


def check(name: str, value, domain: Domain):
    """``value`` if ``domain`` accepts it, else a ParameterError naming ``name``."""
    if domain.accepts(value):
        return value
    raise ParameterError(f"{name} must {domain.text}, got {value!r}")


def declared(domain: Domain, default=MISSING):
    """A dataclass field whose values ``domain`` accepts, for ``check_fields``."""
    return field(default=default, metadata={"domain": domain})


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` that declares a domain."""
    for f in fields(obj):
        if "domain" in f.metadata:
            check(f.name, getattr(obj, f.name), f.metadata["domain"])
