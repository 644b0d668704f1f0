"""Exception hierarchy and domain checker shared by all loopdet modules.

Three broad classes map onto CLI exit codes: configuration problems,
physical/model domain violations, and bad or insufficient input data.
"""

import math
import sys
from dataclasses import MISSING, field, fields
from functools import cache
from typing import NamedTuple

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
    """The values x for which the expression ``test`` (compiled: ``accepts``) holds;
    ``text`` ends "<name> must ...", and ``integer`` marks a run file's int literal."""

    accepts: object
    test: str
    text: str
    integer: bool


#: Numbers of these concrete types, never bools; NaN fails every bound.
_SCOPE = {"REAL": (float, int, np.floating, np.integer), "INT": (int, np.integer),
          "LARGEST": sys.float_info.max, "inf": math.inf}


def _domain(kind: str, bounds: str, text: str) -> Domain:
    test = f"isinstance(x, {kind}) and x is not True and x is not False and {bounds}"
    return Domain(eval(f"lambda x: {test}", _SCOPE), test, text, kind == "INT")


UNIT = _domain("REAL", "0.0 <= x <= 1.0", "lie in [0, 1]")
POSITIVE = _domain("REAL", "0.0 < x <= LARGEST", "be positive and finite")
NONNEGATIVE = _domain("REAL", "0.0 <= x <= LARGEST", "be finite and >= 0")
COUNT = _domain("REAL", "0 <= x < inf and int(x) == x", "be a nonnegative integer")
SEED = _domain("INT", "x >= 0", "be an integer >= 0")
POSITIVE_INT = _domain("INT", "x >= 1", "be an integer >= 1")
CHANNELS = _domain("INT", "1 <= x <= 2 ** 16", "be an integer in [1, 65536]")


def check(name: str, value, domain: Domain):
    """``value`` if ``domain`` accepts it, else a ParameterError naming ``name``."""
    if domain.accepts(value):
        return value
    raise ParameterError(f"{name} must {domain.text}, got {value!r}")


def declared(domain: Domain, default=MISSING):
    """A dataclass field whose values ``domain`` accepts, for ``check_fields``."""
    return field(default=default, metadata={"domain": domain})


@cache
def _fields_check(cls):
    """The domain checks of the fields of ``cls`` inline in one function, compiled
    as dataclasses compiles ``__init__``: a call per field doubles the cost."""
    named = [(f.name, f.metadata["domain"]) for f in fields(cls) if "domain" in f.metadata]
    body = "".join(f"    x = obj.{name}\n    if not ({d.test}): check({name!r}, x, D[{i}])\n"
                   for i, (name, d) in enumerate(named))
    scope = {**_SCOPE, "check": check, "D": [d for _, d in named]}
    exec(f"def check_fields(obj):\n{body}", scope)
    return scope["check_fields"]


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` that declares a domain."""
    _fields_check(type(obj))(obj)
