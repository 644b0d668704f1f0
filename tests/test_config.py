"""Property tests of the run-configuration parser: INI text written from the
dataclasses loads back equal, the one-pass reader reads its grammar as
configparser does, and no malformed file escapes as anything but a
configuration or domain error."""

import configparser
import io
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from loopdet import CouplerSetting, DeviceParams, PhotonSource, SimSettings
from loopdet.cli import EXIT_CONFIG, main
from loopdet.config import _read_sections, load_config
from loopdet.errors import ConfigError, DomainError

U64 = 2 ** 64 - 1

unit = st.floats(0.0, 1.0)
positive = st.floats(1e-6, 1e6)
# t14 <= 1 - t13 and t24 <= 1 - t23 keep each sum at or below 1 in floats.
couplers = st.one_of(st.builds(CouplerSetting.ideal, unit),
                     st.builds(lambda a, b, c, d: CouplerSetting(
                         a, (1.0 - a) * b, c, (1.0 - c) * d), unit, unit, unit, unit))


@st.composite
def devices(draw):
    dead_time = draw(positive)
    return DeviceParams(
        t0=draw(unit), theta=draw(unit), tl=draw(unit), eta=draw(unit),
        coupler=draw(couplers), dark_prob_per_bin=draw(unit),
        afterpulse_prob=draw(unit), afterpulse_decay_ns=draw(positive),
        dead_time_ns=dead_time, loop_delay_ns=dead_time + draw(positive),
        bin_width_ns=draw(positive), duty_factor_q=draw(unit))


sim_settings = st.builds(SimSettings, time_offset_ns=st.floats(0.0, 1e6),
                         n_bins=st.integers(1, U64),
                         max_channels=st.integers(1, U64))


def ini_text(params, sim, seed, n_trials, workers) -> str:
    """INI text that sets every field of ``params`` and ``sim``."""
    device = {f.name: getattr(params, f.name) for f in fields(params)
              if f.name != "coupler"}
    c = params.coupler
    device |= ({"r": c.r} if c.r is not None else
               {k: getattr(c, k) for k in ("t13", "t14", "t23", "t24")})
    simulation = dict(seed=seed, n_trials=n_trials, workers=workers) | asdict(sim)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items())
                   for name, keys in (("device", device), ("simulation", simulation)))


@settings(max_examples=50, deadline=None)
@given(devices(), sim_settings, st.integers(0, U64), st.integers(1, U64),
       st.integers(1, U64))
def test_round_trip(tmp_path_factory, params, sim, seed, n_trials, workers):
    path = tmp_path_factory.getbasetemp() / "round_trip.ini"
    path.write_text(ini_text(params, sim, seed, n_trials, workers))
    cfg = load_config(path)
    assert cfg.device == params and cfg.sim == sim
    assert (cfg.seed, cfg.n_trials, cfg.workers) == (seed, n_trials, workers)


KEYS = {
    "device": ("t0", "theta", "tl", "eta", "r", "t13", "t14", "t23", "t24",
               "dark_prob_per_bin", "afterpulse_prob", "afterpulse_decay_ns",
               "dead_time_ns", "loop_delay_ns", "bin_width_ns",
               "duty_factor_q"),
    "source": ("kind", "mu", "n", "pmf"),
    "simulation": ("seed", "n_trials", "n_bins", "time_offset_ns",
                   "max_channels", "workers"),
    "output": ("format", "path", "reference_plane"),
    "detector": ("t0",),
}

values = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["poissonian", "fock", "custom", "csv", "json", "input",
                     "detected", "", "1e999", "0.5, 0.5", "1,", "%(x)s"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
).map(str.encode) | st.binary(max_size=6)


DELIMITERS = ["=", " = ", ":", " : ", "\t=  "]
COMMENTS = ["", " # note", "\t; a = b", " #"]
BLANKS = ["", "   ", "# note", "  ; note"]


@st.composite
def ini_files(draw) -> bytes:
    """Files of the grammar's shapes, valid or not: repeated sections and
    keys, [DEFAULT], keys in any case, either delimiter, comments, blank and
    continuation lines, a key before the first section and bare words."""
    text = b"t0 = 0.5\n" if draw(st.integers(0, 9)) == 0 else b""
    for section in draw(st.lists(st.sampled_from(sorted(KEYS) + ["DEFAULT"]), max_size=4)):
        text += f"[{section}]{draw(st.sampled_from(COMMENTS))}\n".encode()
        keys = KEYS.get(section, ()) + ("t_zero", "mu2", "dark", "n_bin")
        for key in draw(st.lists(st.sampled_from(keys), max_size=6)):
            key = draw(st.sampled_from([key, key.upper(), key.title()]))
            text += (key + draw(st.sampled_from(DELIMITERS))).encode() + draw(values)
            text += draw(st.sampled_from(COMMENTS)).encode() + b"\n"
            text += draw(st.sampled_from(BLANKS + ["    0.5", "bogus"])).encode() + b"\n"
    return text


@settings(max_examples=100, deadline=None)
@given(ini_files())
def test_malformed_files_fail_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_bytes(data)
    try:
        load_config(path)
    except (ConfigError, DomainError):
        pass


NAME = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
               min_size=1, max_size=6)
#: Values hold no comment prefix, so the two readers' inline-comment rules
#: cannot differ on them.
VALUE = st.text("abcXYZ0123456789_ .,+-%()/=:[]", max_size=10)


@st.composite
def grammar_texts(draw) -> str:
    """Run-file text in the documented grammar: distinct sections, an empty
    [DEFAULT] anywhere, distinct keys in any case, = or : with any spacing,
    comments, blank lines, and continuation lines indented under their key."""
    lines = draw(st.lists(st.sampled_from(BLANKS), max_size=2))
    names = draw(st.lists(NAME.filter(lambda n: n != "DEFAULT"), unique=True, max_size=4))
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), "DEFAULT")
    for name in names:
        lines.append(f"[{name}]{draw(st.sampled_from(COMMENTS))}")
        keys = [] if name == "DEFAULT" else draw(st.lists(NAME, unique_by=str.lower, max_size=4))
        for key in keys:
            lines.append(key + draw(st.sampled_from(DELIMITERS)) + draw(VALUE)
                         + draw(st.sampled_from(COMMENTS)))
            for _ in range(draw(st.integers(0, 3))):
                indent = draw(st.sampled_from(["", "  ", "\t"]))
                lines.append(indent + draw(VALUE) if indent else draw(st.sampled_from(BLANKS)))
    return "\n".join(lines) + "\n"


def configparser_sections(text) -> dict:
    reference = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                          interpolation=None)
    reference.read_string(text)
    assert reference.defaults() == {}
    return {name: dict(reference[name]) for name in reference.sections()}


@settings(max_examples=100, deadline=None)
@given(grammar_texts())
def test_reader_matches_configparser(text):
    sections = _read_sections(io.StringIO(text), "run.ini")
    assert sections.pop("DEFAULT", {}) == {}
    assert sections == configparser_sections(text)


@pytest.mark.parametrize("text", [
    "[device]\n[device]\n",           # a section twice
    "[device]\nt0 = 1\nT0 : 2\n",     # a key twice, in another case
    "t0 = 1\n[device]\n",             # a key before the first section
    "[device]\nt0\n",                 # a line without a delimiter
    "[device]\n = 1\n",               # an empty key
])
def test_reader_and_configparser_both_reject(text):
    with pytest.raises(configparser.Error):
        configparser_sections(text)
    with pytest.raises(ConfigError):
        _read_sections(io.StringIO(text), "run.ini")


@pytest.mark.parametrize("source,extra", [
    ("kind = fock\nn = 3\nmu = not-a-number\npmf = 0.2,0.8", "mu"),
    ("kind = poissonian\nmu = 2\nn = 3", "n"),
    ("mu = 2\npmf = 1", "pmf"),               # poissonian by default
    ("kind = custom\npmf = 0.5,0.5\nn = 1", "n"),
])
def test_source_key_its_kind_does_not_read(tmp_path, capsys, source, extra):
    # The Fock case used to load as a Fock-3 source, its mu and pmf unread.
    path = tmp_path / "run.ini"
    path.write_text(f"[source]\n{source}\n")
    with pytest.raises(ConfigError, match=f"does not read '{extra}' in \\[source\\]"):
        load_config(path)
    assert main(["cm-curve", "--mu-grid", "1", "--config", str(path)]) == EXIT_CONFIG
    assert f"does not read '{extra}'" in capsys.readouterr().err


@pytest.mark.parametrize("source,expected", [
    ("kind = fock\nn = 3", PhotonSource.fock(3)),
    ("mu = 2", PhotonSource.poissonian(2.0)),
    ("kind = custom\npmf = 0.5,0.5", PhotonSource.custom([0.5, 0.5])),
])
def test_source_reads_kind_and_its_key(tmp_path, source, expected):
    path = tmp_path / "run.ini"
    path.write_text(f"[source]\n{source}\n")
    source = load_config(path).source
    assert (source.kind, source.mu, source.n) == (expected.kind, expected.mu, expected.n)
    assert repr(source.pmf) == repr(expected.pmf)
