"""Property tests of the run-configuration parser: INI text written from the
dataclasses loads back equal, and no malformed file escapes as anything but
a configuration or domain error."""

from dataclasses import asdict, fields

from hypothesis import given, settings, strategies as st

from loopdet import CouplerSetting, DeviceParams, SimSettings
from loopdet.config import load_config
from loopdet.errors import ConfigError, DomainError

U64 = 2 ** 64 - 1

unit = st.floats(0.0, 1.0)
positive = st.floats(1e-6, 1e6)
couplers = st.one_of(st.builds(CouplerSetting.ideal, unit),
                     st.builds(CouplerSetting, unit, unit, unit, unit))


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


@st.composite
def ini_files(draw) -> bytes:
    text = b""
    for section in draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=4)):
        text += f"[{section}]\n".encode()
        keys = KEYS[section] + ("t_zero", "mu2", "dark", "n_bin")
        for key in draw(st.lists(st.sampled_from(keys), max_size=6)):
            text += key.encode() + b" = " + draw(values) + b"\n"
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
