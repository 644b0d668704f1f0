"""Run-configuration files: flat key=value text with INI-style sections.

Grammar::

    [device]
    t0 = 0.92
    theta = 0.955
    tl = 0.94
    eta = 0.6
    r = 0.446            # or the four couplings t13/t14/t23/t24
    dark_prob_per_bin = 2e-7
    afterpulse_prob = 8e-3
    afterpulse_decay_ns = 200
    dead_time_ns = 50
    loop_delay_ns = 60
    bin_width_ns = 5
    duty_factor_q = 0.17

    [source]
    kind = poissonian    # poissonian | fock | custom
    mu = 4.26            # for poissonian
    n = 1                # for fock
    pmf = 0.5, 0.5       # for custom

    [simulation]
    seed = 1             # mandatory for Monte Carlo commands
    n_trials = 100000
    n_bins = 1024
    time_offset_ns = 100
    max_channels = 512
    workers = 1

    [output]
    format = csv         # csv | json
    path = out.csv
    reference_plane = input   # input | detected

Keys are the fields they set: ``[device]`` takes those of ``DeviceParams``
and, for the coupler, ``CouplerSetting``; ``[simulation]`` takes ``seed``,
``n_trials`` and ``workers`` of ``RunConfig`` and those of ``SimSettings``.
Unknown sections or keys, and any key under ``[DEFAULT]``, are rejected.
``int`` fields and ``[source] n`` take integer literals only, every other
value a number.  The seed must lie in [0, 2**64) and ``workers`` must be at
least 1; all other values are range-checked when the dataclasses are built,
so at load time (NaN fails every range check).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

import numpy as np

from .clickstats import PhotonSource
from .device import CouplerSetting, DeviceParams
from .errors import ConfigError
from .montecarlo import SimSettings


@dataclass
class RunConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    source: PhotonSource | None = None
    seed: int | None = None
    n_trials: int = 100_000
    workers: int = 1
    sim: SimSettings = field(default_factory=SimSettings)
    out_format: str = "csv"
    out_path: str | None = None
    reference_plane: str = "input"

    def check(self, where) -> None:
        """Reject a seed outside [0, 2**64), the range a run file or the
        CLI may give, and a worker count below 1."""
        if self.seed is not None and not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"{where}: seed must lie in [0, 2**64), got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"{where}: workers must be at least 1, got {self.workers}")


def _number(parse, what):
    def get(section, key, path):
        try:
            return parse(section[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} = {section[key]!r} is not {what}") from exc
    return get


_get_int = _number(int, "an integer")
_get_float = _number(float, "a number")


def _parsers(*classes) -> dict:
    """Key -> parser for each field of the dataclasses.  Under postponed
    annotations ``f.type`` is the annotation's text."""
    return {f.name: _get_int if f.type == "int" else _get_float
            for cls in classes for f in fields(cls)}


_COUPLER_KEYS = tuple(f.name for f in fields(CouplerSetting))
_RUN_KEYS = ("seed", "n_trials", "workers")
#: [output] key -> (RunConfig field, accepted values or None for any).
_OUTPUT = {"format": ("out_format", ("csv", "json")), "path": ("out_path", None),
           "reference_plane": ("reference_plane", ("input", "detected"))}
_SECTIONS = {
    "device": {k: p for k, p in _parsers(DeviceParams, CouplerSetting).items()
               if k != "coupler"},
    "source": {f.name for f in fields(PhotonSource)},
    "simulation": dict.fromkeys(_RUN_KEYS, _get_int) | _parsers(SimSettings),
    "output": _OUTPUT,
}


def _values(parser, name, path) -> dict:
    """Parsed values of the keys given in a [device] or [simulation] section."""
    if not parser.has_section(name):
        return {}
    section = parser[name]
    return {key: _SECTIONS[name][key](section, key, path) for key in section}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    if parser.defaults():
        raise ConfigError(f"{path}: keys in [{parser.default_section}] are not accepted")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    device = _parse_device(_values(parser, "device", path), path)
    source = (_parse_source(parser["source"], path)
              if parser.has_section("source") else None)
    sim = _values(parser, "simulation", path)
    cfg = RunConfig(device=device, source=source,
                    **{k: sim.pop(k) for k in _RUN_KEYS if k in sim},
                    sim=SimSettings(**sim))
    for key, value in (parser["output"].items()
                       if parser.has_section("output") else ()):
        name, accepted = _OUTPUT[key]
        if accepted and value not in accepted:
            raise ConfigError(f"{path}: {key} must be {' or '.join(accepted)}")
        setattr(cfg, name, value)
    cfg.check(path)
    return cfg


def _parse_device(kwargs, path) -> DeviceParams:
    coupler = {k: kwargs.pop(k) for k in _COUPLER_KEYS if k in kwargs}
    if "r" in coupler and len(coupler) > 1:
        raise ConfigError(f"{path}: give either r or the four t_ij, not both")
    if "r" in coupler:
        kwargs["coupler"] = CouplerSetting.ideal(coupler["r"])
    elif coupler:
        if len(coupler) != 4:
            raise ConfigError(f"{path}: all four of t13/t14/t23/t24 are required")
        kwargs["coupler"] = CouplerSetting(**coupler)
    return DeviceParams(**kwargs)


def _parse_source(section, path) -> PhotonSource:
    kind = section.get("kind", "poissonian")
    if kind == "poissonian":
        if "mu" not in section:
            raise ConfigError(f"{path}: poissonian source needs mu")
        return PhotonSource.poissonian(_get_float(section, "mu", path))
    if kind == "fock":
        if "n" not in section:
            raise ConfigError(f"{path}: fock source needs n")
        return PhotonSource.fock(_get_int(section, "n", path))
    if kind == "custom":
        if "pmf" not in section:
            raise ConfigError(f"{path}: custom source needs pmf")
        try:
            pmf = np.array([float(x) for x in section["pmf"].split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad pmf list") from exc
        return PhotonSource.custom(pmf)
    raise ConfigError(f"{path}: unknown source kind {kind!r}")
