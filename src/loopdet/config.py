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
    workers = 1

    [output]
    format = csv         # csv | json
    path = out.csv
    reference_plane = input   # input | detected

Unknown sections or keys are rejected.  ``seed``, ``n_trials``, ``n_bins``,
``workers``, ``max_channels`` and ``n`` take integer literals only.  The seed
must lie in [0, 2**64) and ``workers`` must be at least 1; all other values
are range-checked while the device parameters are constructed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .clickstats import PhotonSource
from .device import CouplerSetting, DeviceParams
from .errors import ConfigError

_DEVICE_KEYS = {
    "t0", "theta", "tl", "eta", "r", "t13", "t14", "t23", "t24",
    "dark_prob_per_bin", "afterpulse_prob", "afterpulse_decay_ns",
    "dead_time_ns", "loop_delay_ns", "bin_width_ns", "duty_factor_q",
}
_SOURCE_KEYS = {"kind", "mu", "n", "pmf"}
_SIM_KEYS = {"seed", "n_trials", "n_bins", "time_offset_ns", "workers",
             "max_channels"}
_OUTPUT_KEYS = {"format", "path", "reference_plane"}
_SECTIONS = {"device": _DEVICE_KEYS, "source": _SOURCE_KEYS,
             "simulation": _SIM_KEYS, "output": _OUTPUT_KEYS}


@dataclass
class RunConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    source: PhotonSource | None = None
    seed: int | None = None
    n_trials: int = 100_000
    n_bins: int = 1024
    time_offset_ns: float = 100.0
    workers: int = 1
    max_channels: int = 512
    out_format: str = "csv"
    out_path: str | None = None
    reference_plane: str = "input"

    def check(self, where) -> None:
        """Reject a seed outside the uint64 key of the Monte Carlo generator
        and a worker count below 1."""
        if self.seed is not None and not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"{where}: seed must lie in [0, 2**64), got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"{where}: workers must be at least 1, got {self.workers}")


def _get_int(section, key, line_context):
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"{line_context}: {key} = {section[key]!r} "
                          "is not an integer") from exc


def _get_float(section, key, line_context):
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{line_context}: {key} = {section[key]!r} "
                          "is not a number") from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    cfg = RunConfig()
    if parser.has_section("device"):
        cfg.device = _parse_device(parser["device"], path)
    if parser.has_section("source"):
        cfg.source = _parse_source(parser["source"], path)
    if parser.has_section("simulation"):
        sim = parser["simulation"]
        if "seed" in sim:
            cfg.seed = _get_int(sim, "seed", path)
        if "n_trials" in sim:
            cfg.n_trials = _get_int(sim, "n_trials", path)
        if "n_bins" in sim:
            cfg.n_bins = _get_int(sim, "n_bins", path)
        if "time_offset_ns" in sim:
            cfg.time_offset_ns = _get_float(sim, "time_offset_ns", path)
        if "workers" in sim:
            cfg.workers = _get_int(sim, "workers", path)
        if "max_channels" in sim:
            cfg.max_channels = _get_int(sim, "max_channels", path)
    if parser.has_section("output"):
        out = parser["output"]
        if "format" in out:
            if out["format"] not in ("csv", "json"):
                raise ConfigError(f"{path}: format must be csv or json")
            cfg.out_format = out["format"]
        if "path" in out:
            cfg.out_path = out["path"]
        if "reference_plane" in out:
            if out["reference_plane"] not in ("input", "detected"):
                raise ConfigError(
                    f"{path}: reference_plane must be input or detected")
            cfg.reference_plane = out["reference_plane"]
    cfg.check(path)
    return cfg


def _parse_device(section, path) -> DeviceParams:
    kwargs = {}
    for key in ("t0", "theta", "tl", "eta", "dark_prob_per_bin",
                "afterpulse_prob", "afterpulse_decay_ns", "dead_time_ns",
                "loop_delay_ns", "bin_width_ns", "duty_factor_q"):
        if key in section:
            kwargs[key] = _get_float(section, key, path)
    full_keys = [k for k in ("t13", "t14", "t23", "t24") if k in section]
    if "r" in section and full_keys:
        raise ConfigError(f"{path}: give either r or the four t_ij, not both")
    if full_keys:
        if len(full_keys) != 4:
            raise ConfigError(f"{path}: all four of t13/t14/t23/t24 are required")
        kwargs["coupler"] = CouplerSetting(
            t13=_get_float(section, "t13", path),
            t14=_get_float(section, "t14", path),
            t23=_get_float(section, "t23", path),
            t24=_get_float(section, "t24", path),
        )
    elif "r" in section:
        kwargs["coupler"] = CouplerSetting.ideal(_get_float(section, "r", path))
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
