"""Run-configuration files: flat key=value text with INI-style sections::

    [device]
    r = 0.446                 # or the four couplings t13/t14/t23/t24
    [source]
    kind = poissonian         # poissonian (mu) | fock (n) | custom (pmf = 0.5, 0.5)
    mu = 4.26
    [simulation]
    seed = 1                  # mandatory for Monte Carlo commands
    [output]
    format = csv              # csv | json, written to path
    reference_plane = input   # input | detected

One pass reads the lines (ended by LF, CR LF or CR) by this grammar.  A
``#`` or ``;`` at the start of a line or after whitespace starts a comment
to the end of the line, and the rest is stripped.  ``[name]`` opens section
``name`` (case-sensitive).  ``key = value`` or ``key : value`` sets a key of
the open section: the key runs to the first ``=`` or ``:`` and is
lower-cased, and both sides are stripped.  A line indented deeper than the
last key line, with no section line since, continues the key's value on a
new line; an empty line without a comment inside a value adds an empty
line, and trailing empty lines are dropped.  A section opened twice, a key
set twice in its section, a key before the first section, an empty key and
any other nonempty line are errors.  configparser (inline comments, no
interpolation) reads the same, except that ``[DEFAULT]`` is ordinary here
and that its comment search can skip the first prefix after whitespace.

Keys are the fields they set: ``[device]`` takes those of ``DeviceParams``
and, for the coupler, ``CouplerSetting``; ``[simulation]`` takes ``seed``,
``n_trials`` and ``workers`` of ``RunConfig`` and those of ``SimSettings``.
Unknown sections or keys, and any key under ``[DEFAULT]``, are rejected;
``[source]`` takes ``kind`` and the one key its kind reads (``mu``, ``n`` or ``pmf``).
Fields of an integer domain, the run keys and ``[source] n`` take integer
literals only, every other value a number.  The seed must lie in [0, 2**64)
and ``workers`` must be at least 1; every other value is checked against its
field's domain when the dataclasses are built, so at load time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from .clickstats import SOURCE_FIELDS, PhotonSource
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
_get_pmf = _number(lambda text: [float(x) for x in text.split(",")], "a list of numbers")


def _parsers(*classes) -> dict:
    """Key -> parser per field: an integer domain takes integer literals only."""
    return {f.name: _get_int if getattr(f.metadata.get("domain"), "integer", False)
            else _get_float for cls in classes for f in fields(cls)}


_COUPLER_KEYS = tuple(f.name for f in fields(CouplerSetting))
_RUN_KEYS = ("seed", "n_trials", "workers")
#: [output] key -> (RunConfig field, accepted values or None for any).
_OUTPUT = {"format": ("out_format", ("csv", "json")), "path": ("out_path", None),
           "reference_plane": ("reference_plane", ("input", "detected"))}
_SECTIONS = {
    "device": {k: p for k, p in _parsers(DeviceParams, CouplerSetting).items()
               if k != "coupler"},
    "source": {"kind": None, "mu": _get_float, "n": _get_int, "pmf": _get_pmf},
    "simulation": dict.fromkeys(_RUN_KEYS, _get_int) | _parsers(SimSettings),
    "output": _OUTPUT,
}


_COMMENT = re.compile(r"(?:^|\s)[#;]")
_LINE = re.compile(r"\[(?P<section>.+)\]|(?P<key>[^=:]*?)\s*[=:]\s*(?P<value>.*)")


def _read_sections(lines, path) -> dict:
    """{section: {key: value}} of a run file's lines, by the grammar above."""
    sections, keys, key, indent = {}, None, None, 0
    for number, line in enumerate(lines, 1):
        comment = _COMMENT.search(line)
        text = line[: comment.start() if comment else None].strip()
        depth = len(line) - len(line.lstrip())
        if key and (depth > indent or not text):  # a continuation or empty line
            if text or not comment:
                keys[key].append(text)
            continue
        if not text:
            continue
        indent, key, where, m = depth, None, f"{path}, line {number}", _LINE.fullmatch(text)
        if m and m["section"]:
            if m["section"] in sections:
                raise ConfigError(f"{where}: section [{m['section']}] opened twice")
            keys = sections[m["section"]] = {}
        elif keys is None or not m or not m["key"]:
            raise ConfigError(f"{where}: expected [section] or key = value, got {text!r}")
        elif (key := m["key"].lower()) in keys:
            raise ConfigError(f"{where}: key {key!r} set twice in its section")
        else:
            keys[key] = [m["value"]]
    return {name: {k: "\n".join(v).rstrip() for k, v in section.items()}
            for name, section in sections.items()}


def _values(sections, name, path) -> dict:
    """Parsed values of the keys given in a [device] or [simulation] section."""
    section = sections.get(name, {})
    return {key: _SECTIONS[name][key](section, key, path) for key in section}


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            sections = _read_sections(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if sections.pop("DEFAULT", None):
        raise ConfigError(f"{path}: keys in [DEFAULT] are not accepted")
    for section, keys in sections.items():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in keys:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    device = _parse_device(_values(sections, "device", path), path)
    source = _parse_source(sections["source"], path) if "source" in sections else None
    sim = _values(sections, "simulation", path)
    cfg = RunConfig(device=device, source=source,
                    **{k: sim.pop(k) for k in _RUN_KEYS if k in sim},
                    sim=SimSettings(**sim))
    for key, value in sections.get("output", {}).items():
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
    if kind not in SOURCE_FIELDS:
        raise ConfigError(f"{path}: unknown source kind {kind!r}")
    key = SOURCE_FIELDS[kind]
    for other in section:
        if other not in ("kind", key):
            raise ConfigError(f"{path}: a {kind} source does not read {other!r} in [source]")
    if key not in section:
        raise ConfigError(f"{path}: {kind} source needs {key}")
    return PhotonSource(kind, **{key: _SECTIONS["source"][key](section, key, path)})
