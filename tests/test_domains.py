"""Field and argument domains: every field declares one, the one checker
refuses each value outside it, and hostile values reach no public entry
point or CLI command as anything but a loopdet error or finite output."""

import csv
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import loopdet
from loopdet import (ChannelProfile, ClickDistribution, CouplerSetting, DeviceParams,
                     PhotonSource, SimSettings, reference_device)
from loopdet import errors, montecarlo
from loopdet.clickstats import SOURCE_FIELDS, binomial_matrix
from loopdet.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DOMAIN, EXIT_OK, main
from loopdet.errors import DataError, DomainError, LoopdetError, ParameterError
from loopdet.montecarlo import MAX_TRIALS
from loopdet.postselect import acceptance_probability, herald_acceptance_from_mc

#: The hostile values: NaN, the infinities, a negative zero, the largest
#: and the smallest doubles, a bool, a fraction and an int beyond uint64.
HOSTILE = [math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324, True, 1.5, 2 ** 64]
values = st.one_of(st.sampled_from(HOSTILE), st.floats(), st.integers(-2, 40))


#: The checked dataclasses, each with its fields that declare no domain.
DECLARING = [(DeviceParams, ("coupler",)), (CouplerSetting, ("r",)), (SimSettings, ()),
             (PhotonSource, ("kind", "pmf"))]


@pytest.mark.parametrize("cls,exempt", DECLARING, ids=[
    f"{cls.__name__}-{','.join(exempt) or None}" for cls, exempt in DECLARING])
def test_every_field_declares_a_domain(cls, exempt):
    # A new field without a domain would skip the checker and the run-file
    # reader's int/float choice.
    for f in dataclasses.fields(cls):
        assert (f.name in exempt) != ("domain" in f.metadata), f.name


def test_readme_lists_each_declared_domain():
    # The README's list of field domains is the declarations, read back.
    by_domain = {}
    for cls, _ in DECLARING:
        for f in dataclasses.fields(cls):
            if "domain" in f.metadata:
                by_domain.setdefault(f.metadata["domain"], []).append(f"`{f.name}`")
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    for domain, names in by_domain.items():
        const = next(n for n in dir(errors) if getattr(errors, n) is domain)
        assert f"- `{const}`, must {domain.text}: {', '.join(names)}" in lines


DOMAINS = ("UNIT", "POSITIVE", "NONNEGATIVE", "COUNT", "SEED", "POSITIVE_INT", "CHANNELS")
#: Value -> the domains that accept it, in the order of DOMAINS.
TABLE = [
    (math.nan, ""), (math.inf, ""), (-math.inf, ""),
    (0.0, "UNIT NONNEGATIVE COUNT"), (-0.0, "UNIT NONNEGATIVE COUNT"),
    (5e-324, "UNIT POSITIVE NONNEGATIVE"), (sys.float_info.max, "POSITIVE NONNEGATIVE COUNT"),
    (0.5, "UNIT POSITIVE NONNEGATIVE"), (1.5, "POSITIVE NONNEGATIVE"), (-1, ""),
    (1, "UNIT POSITIVE NONNEGATIVE COUNT SEED POSITIVE_INT CHANNELS"),
    (2 ** 16, "POSITIVE NONNEGATIVE COUNT SEED POSITIVE_INT CHANNELS"),
    (2 ** 16 + 1, "POSITIVE NONNEGATIVE COUNT SEED POSITIVE_INT"),
    (2 ** 64, "POSITIVE NONNEGATIVE COUNT SEED POSITIVE_INT"),
    (10 ** 400, "COUNT SEED POSITIVE_INT"),  # beyond every double, still an integer
    (True, ""), (np.bool_(True), ""),
    (np.float16(2.0), "POSITIVE NONNEGATIVE COUNT"), (np.float16(math.inf), ""),
    (np.float32(50.0), "POSITIVE NONNEGATIVE COUNT"), (np.float32(math.inf), ""),
    (np.float64(0.5), "UNIT POSITIVE NONNEGATIVE"),
    (np.int32(0), "UNIT NONNEGATIVE COUNT SEED"),
    (np.int64(2 ** 16), "POSITIVE NONNEGATIVE COUNT SEED POSITIVE_INT CHANNELS"),
    (np.uint64(2 ** 64 - 1), "POSITIVE NONNEGATIVE COUNT SEED POSITIVE_INT"),
    ("1", ""), (None, ""),
]


def test_table_covers_every_domain():
    assert {n for n in dir(errors) if isinstance(getattr(errors, n), errors.Domain)} == \
        set(DOMAINS)


@pytest.mark.parametrize("value,accepted", TABLE, ids=[f"{v!r:.24}" for v, _ in TABLE])
def test_domain_table(value, accepted):
    # A float16 or float32 used to warn: its bound, the largest double, was
    # cast to its type and overflowed, so its inf passed as finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [n for n in DOMAINS if getattr(errors, n).accepts(value)] == accepted.split()


@pytest.mark.parametrize("call", [
    lambda: DeviceParams(dead_time_ns=np.float32(50.0)),
    lambda: PhotonSource.poissonian(np.float32(2.0)),
    lambda: SimSettings(time_offset_ns=np.float16(1.0)),
    lambda: CouplerSetting.ideal(np.float32(0.25))])
def test_narrow_numpy_float_is_a_number(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


@pytest.mark.parametrize("call", [
    lambda: SimSettings(n_bins=10.5), lambda: SimSettings(max_channels=2.5),
    lambda: SimSettings(n_bins=True), lambda: DeviceParams(loop_delay_ns=math.inf),
    lambda: SimSettings(time_offset_ns=math.inf), lambda: PhotonSource.poissonian(True),
    lambda: PhotonSource.fock(True), lambda: ChannelProfile([0.5, math.nan], 0.0),
    lambda: ChannelProfile([0.5], math.nan), lambda: ChannelProfile([0.9, 0.9], 0.0),
    lambda: loopdet.run_simulation(PhotonSource.poissonian(1.0), reference_device(), 10,
                                   seed=True),
    lambda: herald_acceptance_from_mc(reference_device(), 1, "exactly-one", 10, seed=True),
    lambda: loopdet.infer_mu(0.5, math.nan)])
def test_value_outside_its_domain_refused(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call", [
    lambda: loopdet.postselect(PhotonSource("custom", pmf=np.array([0.0, 3.0])), PROFILE),
    lambda: loopdet.custom_click_distribution(
        PhotonSource("custom", pmf=np.array([0.5, 0.7])), PROFILE),
    lambda: loopdet.postselect(PhotonSource("poissonian", mu=-1.0), PROFILE),
    lambda: loopdet.postselect(PhotonSource("poissonian", mu=math.nan), PROFILE),
    lambda: loopdet.postselect(PhotonSource("Fock", n=3), PROFILE),
    lambda: PhotonSource.custom(["a", "b"]),
    lambda: PhotonSource("fock", n=3, mu=5.0, pmf="junk"),
    lambda: PhotonSource("poissonian", mu=1.0, pmf=[1.0])],
    ids=["pmf-sums-to-3", "pmf-sums-to-1.2", "mu-negative", "mu-nan", "kind-Fock",
         "pmf-text", "fock-with-mu-and-pmf", "poissonian-with-pmf"])
def test_source_built_by_its_constructor_is_checked(call):
    # The constructor used to check nothing: the pmf summing to 3 gave a
    # herald_rate of 1.432, the one summing to 1.2 was renormalised with a
    # dropped_mass of 0, mu = -1 or NaN raised a bare ValueError and kind
    # "Fock" an AttributeError.  A text pmf raised a bare ValueError, and a
    # field the kind does not read was kept.
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("action", ["error", "ignore", "default"])
def test_complex_pmf_refused_under_any_warning_filter(action):
    # [1 + 0j] raised a bare TypeError; a complex array was cast to its real
    # part, or raised ComplexWarning, as the filters said.
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        for pmf in ([1 + 0j], np.array([1 + 0j]), np.array([0.5, 0.5 + 0j])):
            with pytest.raises(ParameterError, match="integers or floats"):
                PhotonSource.custom(pmf)


def test_unread_field_at_its_default_is_accepted():
    fock = PhotonSource("fock", n=3, mu=0, pmf=None)
    assert (fock.mu, fock.n, fock.pmf) == (0.0, 3, None)
    assert dataclasses.replace(fock, n=4).n == 4
    assert PhotonSource("poissonian", mu=1.0, n=0.0).mu == 1.0
    assert dataclasses.replace(PhotonSource.custom([0.5, 0.5]), pmf=[1.0]).pmf.tolist() == [1.0]


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, [1, math.inf], True,
                               np.bool_(True), 2 ** 64])
def test_acceptance_probability_refuses_non_counts(n):
    # inf used to warn from n % 1, and True counted as one photon.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="nonnegative integers"):
            acceptance_probability("exactly-one", n, PROFILE)


@pytest.mark.parametrize("p,t", [(2.0, 1.0), (-0.5, 1.0), (math.nan, 1.0), (0.5, 1.5),
                                 (0.5, -1e-9), (0.5, math.inf), (0.5, True)])
def test_binomial_matrix_refuses_p_or_t_outside_unit(p, t):
    # p = 2 used to give C(n, j) 2^(n-j) with no error.
    with pytest.raises(ParameterError, match="must lie in \\[0, 1\\]"):
        binomial_matrix(3, p, t)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_binomial_matrix_at_zero_transmission(p):
    # t = 0 used to raise a math domain error from log(t).
    M = binomial_matrix(5, p, 0.0)
    assert np.all(M[:, 1:] == 0.0)
    np.testing.assert_allclose(M[:, 0], p ** np.arange(5), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(binomial_matrix(5, p, 1e-300), M, rtol=1e-15, atol=1e-299)


@pytest.fixture
def no_batch_runs(monkeypatch):
    def no_run(job):
        raise AssertionError("a batch ran")
    monkeypatch.setattr(montecarlo, "_batch_worker", no_run)


def test_trials_above_max_refused_before_any_batch(no_batch_runs, capsys, tmp_path):
    # 2**64 trials used to ask for a list of 2**51 batch sizes.
    source = PhotonSource.poissonian(1.0)
    with pytest.raises(DomainError, match="MAX_TRIALS"):
        loopdet.run_simulation(source, GOOD, MAX_TRIALS + 1, seed=1)
    with pytest.raises(DomainError, match="MAX_TRIALS"):
        herald_acceptance_from_mc(GOOD, 1, "exactly-one", MAX_TRIALS + 1, 1)
    with pytest.raises(AssertionError, match="a batch ran"):  # the bound is inclusive
        loopdet.run_simulation(source, GOOD, MAX_TRIALS, seed=1)
    ini, out = tmp_path / "run.ini", tmp_path / "tof.csv"
    ini.write_text(f"[simulation]\nn_trials = {MAX_TRIALS + 1}\n")
    for options in (["--trials", str(MAX_TRIALS + 1)], ["--config", str(ini)]):
        assert main(["simulate-tof", "--seed", "1", "--mu", "1", "--out", str(out), *options]) \
            == EXIT_DOMAIN
        assert "MAX_TRIALS" in capsys.readouterr().err and not out.exists()


# --- the contract: each public call raises a LoopdetError or returns finite output


def check_finite(out):
    """Every number in ``out`` is finite and every click or source pmf sums to 1."""
    if isinstance(out, ClickDistribution):
        assert abs(out.p_click.sum() - 1.0) <= 1e-9
    if isinstance(out, PhotonSource) and out.kind == "custom":
        assert abs(out.pmf.sum() - 1.0) <= 1e-9
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        for item in out:
            check_finite(item)
    elif isinstance(out, (float, np.ndarray)):
        assert np.all(np.isfinite(out)), out


def defined(rows):
    """Postselection rows without their documented NaNs: a mu at which the
    rule never fires, and w_M where cm_in = 0."""
    if isinstance(rows, loopdet.PostselectResult):
        rows = [dataclasses.asdict(rows)]
    return [{k: v for k, v in row.items() if k != "w_M" or row["cm_in"] > 0.0}
            for row in rows if not math.isnan(row["herald_rate"])]


GOOD = reference_device()
PROFILE = loopdet.channel_transmissions(GOOD, 15).truncated(15)
H = [0.39, 0.42, 0.13, 0.04, 0.012, 0.004, 0.0013]


def with_entry(seq, i, v):
    return [v if j == i else x for j, x in enumerate(seq)]


def simulate(params=GOOD, settings=None, n_trials=100, seed=1, workers=1, mu=2.0):
    result = loopdet.run_simulation(PhotonSource.poissonian(mu), params, n_trials, seed,
                                    workers=workers, settings=settings)
    return (result, loopdet.accumulate_histogram(result),
            loopdet.empirical_click_distribution(result, 15))


def coupler(i, v):
    return CouplerSetting(*with_entry((0.5, 0.45, 0.2, 0.75), i, v))


#: Entry point and argument -> a call putting the value there.  The engine
#: gets no n_trials above 100 that the check accepts, and no worker count
#: above 1 where a run has several jobs, so that no example starts a pool.
#: A constructor's output is the object built, so a field it lets through
#: fails here even where the engine's own checks would refuse it later.
CONTRACT = {
    **{f"DeviceParams.{f.name}{run}": lambda v, name=f.name, run=run: (
        lambda p: simulate(p) if run else (p, loopdet.total_transmission(p)))(
        DeviceParams(**{name: v}))
       for f in dataclasses.fields(DeviceParams) if f.name != "coupler" for run in ("", " run")},
    **{f"CouplerSetting.t{n}": lambda v, i=i: coupler(i, v)
       for i, n in enumerate((13, 14, 23, 24))},
    **{f"CouplerSetting.t{n} run": lambda v, i=i: simulate(DeviceParams(coupler=coupler(i, v)))
       for i, n in enumerate((13, 14, 23, 24))},
    "CouplerSetting.ideal": lambda v: simulate(GOOD.with_ratio(v)),
    "reference_device": lambda v: loopdet.channel_transmissions(reference_device(v)),
    **{f"SimSettings.{f.name}{run}": lambda v, name=f.name, run=run: (
        lambda s: simulate(settings=s) if run else s)(SimSettings(**{name: v}))
       for f in dataclasses.fields(SimSettings) for run in ("", " run")},
    "ChannelProfile.h": lambda v: loopdet.poisson_click_distribution(
        1.0, ChannelProfile([0.3, v], 0.1)),
    "ChannelProfile.remainder": lambda v: loopdet.normalized_channels(
        ChannelProfile([0.3, 0.2], v)),
    "ClickDistribution": lambda v: ClickDistribution([0.5, 0.5], dropped_mass=v),
    "PhotonSource.poissonian": lambda v: (lambda s: (
        s, s.pmf_array(), loopdet.source_multi_photon_content(s)))(PhotonSource.poissonian(v)),
    "PhotonSource.fock": lambda v: PhotonSource.fock(v).pmf_array(),
    "PhotonSource.custom": lambda v: PhotonSource.custom([v, 1.0]).pmf_array(),
    **{f"PhotonSource.{name}": lambda v, kind=kind, name=name: (lambda s: (
        s, s.pmf_array(), loopdet.custom_click_distribution(s, PROFILE),
        loopdet.source_multi_photon_content(s)))(
        PhotonSource(kind, **{name: [v, 1.0] if name == "pmf" else v}))
       for kind, name in SOURCE_FIELDS.items()},
    "pmf_array": lambda v: PhotonSource.poissonian(1.0).pmf_array(v),
    "channel_transmissions": lambda v: loopdet.channel_transmissions(GOOD, v),
    "poisson_click_distribution": lambda v: loopdet.poisson_click_distribution(v, PROFILE),
    "fock_click_distribution": lambda v: loopdet.fock_click_distribution(v, PROFILE),
    "fock_click_matrix": lambda v: loopdet.fock_click_matrix(v, PROFILE),
    "custom_click_distribution": lambda v: loopdet.custom_click_distribution(
        PhotonSource.poissonian(1.0), PROFILE, v),
    "infer_mu.p": lambda v: loopdet.infer_mu(v, 0.5),
    "infer_mu.T": lambda v: loopdet.infer_mu(0.5, v),
    "infer_tl.ratio": lambda v: loopdet.infer_tl(v, 0.955),
    "infer_tl.theta": lambda v: loopdet.infer_tl(0.8, v),
    "infer_t0.T_over_eta": lambda v: loopdet.infer_t0(v, 0.94, 0.955),
    "infer_t0.tl": lambda v: loopdet.infer_t0(0.78, v, 0.955),
    **{f"calibrate.H[{i}]": lambda v, i=i: loopdet.calibrate_from_channels(
        with_entry(H, i, v), 0.78, 0.955) for i in (0, 1, 3)},
    **{f"calibrate.sigma[{i}]": lambda v, i=i: loopdet.calibrate_from_channels(
        H, 0.78, 0.955, sigma=with_entry([0.001] * 7, i, v)) for i in (0, 2)},
    "calibrate.T_over_eta": lambda v: loopdet.calibrate_from_channels(H, v, 0.955),
    "calibrate.theta": lambda v: loopdet.calibrate_from_channels(H, 0.78, v),
    "calibrate.T_over_eta_sigma": lambda v: loopdet.calibrate_from_channels(
        H, 0.78, 0.955, T_over_eta_sigma=v),
    "optimize_ratio": lambda v: loopdet.optimize_ratio(DeviceParams(tl=v)),
    "shannon_entropy": lambda v: loopdet.shannon_entropy(ChannelProfile([0.3, v], 0.0)),
    "false_cm_bound": lambda v: loopdet.false_cm_bound(GOOD, v),
    "postselect.signal_transmission": lambda v: defined(loopdet.postselect(
        PhotonSource.poissonian(2.0), PROFILE, signal_transmission=v)),
    "postselect.n_max": lambda v: defined(loopdet.postselect(
        PhotonSource.poissonian(2.0), PROFILE, n_max=v)),
    "postselect.acceptance": lambda v: defined(loopdet.postselect(
        PhotonSource.fock(2), PROFILE, acceptance=[0.0, 0.5, v])),
    "wm_curve.mu": lambda v: defined(loopdet.wm_curve([v, 1.0], PROFILE)),
    "wm_curve.signal_transmission": lambda v: defined(
        loopdet.wm_curve([1.0], PROFILE, signal_transmission=v)),
    "run_simulation.n_trials": lambda v: simulate(n_trials=v) if not v > 100 else None,
    "run_simulation.seed": lambda v: simulate(seed=v),
    "run_simulation.workers": lambda v: simulate(workers=v),
    "run_simulation.mu": lambda v: simulate(mu=v),
    "empirical_click_distribution": lambda v: loopdet.empirical_click_distribution(
        SMALL_RUN, v),
    "herald.n_max": lambda v: herald_acceptance_from_mc(GOOD, v, "exactly-one", 20, 1),
    "herald.n_trials": lambda v: herald_acceptance_from_mc(
        GOOD, 1, "exactly-one", v, 1) if not v > 100 else None,
    "herald.seed": lambda v: herald_acceptance_from_mc(GOOD, 1, "exactly-one", 20, v),
    "herald.n_channels": lambda v: herald_acceptance_from_mc(
        GOOD, 1, "exactly-one", 20, 1, n_channels=v),
    "herald.workers": lambda v: herald_acceptance_from_mc(
        GOOD, 1, "exactly-one", 20, 1, workers=v) if not v > 1 else None,
    "acceptance_probability": lambda v: acceptance_probability("exactly-one", v, PROFILE),
    "binomial_matrix.p": lambda v: binomial_matrix(4, v),
    "binomial_matrix.t": lambda v: binomial_matrix(4, 0.5, v),
}
SMALL_RUN = simulate()[0]


def every_hostile_value(test):
    """Each entry point on each hostile value, as explicit examples that run
    before the drawn ones."""
    for where in CONTRACT:
        for value in HOSTILE:
            test = example(where, value)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CONTRACT)), values)
@every_hostile_value
def test_hostile_values_raise_or_give_finite_output(where, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning escapes as an exception
        try:
            out = CONTRACT[where](value)
        except LoopdetError:
            return
    check_finite(out)


# --- the run-file value fuzz: every command on hostile run-file values


FIELDS = {"device": [f.name for f in dataclasses.fields(DeviceParams) if f.name != "coupler"]
          + ["r", "t13"], "simulation": [f.name for f in dataclasses.fields(SimSettings)],
          "source": ["mu"]}
TEXTS = ["nan", "inf", "-inf", "-0.0", "1e308", "1e300", "1e307", "5e-324", "1.5",
         "18446744073709551616", "True", "0", "1", "-1"]
COMMANDS = {
    "channels": ["channels", "--n-channels", "4"],
    "sweep": ["channels", "--r-sweep", "0.3:0.5:3", "--n-channels", "3"],
    "optimize": ["optimize"],
    "cm-curve": ["cm-curve", "--mu-grid", "0.5,2"],
    "simulate-tof": ["simulate-tof", "--seed", "1", "--trials", "100"],
    "calibrate": ["calibrate", "--channels", ",".join(map(str, H))],
    "postselect": ["postselect", "--mu-grid", "0.5,2"],
}
#: Columns in which a NaN is documented: undefined c_M, a never-firing rule.
UNDEFINED = {"cm_device", "cm_source", "ratio", "cm_in", "cm_out", "w_M", "herald_rate"}


def run_command(command, keys, d):
    """Run ``command`` on a run file setting ``keys`` (with a Poisson source);
    it must end in a documented exit code, and exit 0 in finite output."""
    keys = {("source", "kind"): "poissonian", ("source", "mu"): "1"} | keys
    (d / "run.ini").write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in keys.items() if s == section)
        for section in FIELDS))
    out = d / "out.csv"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning escapes main as an exception
        code = main([*COMMANDS[command], "--config", str(d / "run.ini"), "--out", str(out)])
    assert code in {EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_DATA}, keys
    if code == EXIT_OK and out.exists():
        with open(out, newline="") as fh:
            for row in csv.DictReader(fh):
                for column, cell in row.items():
                    if cell != "tail" and not (column in UNDEFINED and cell == "nan"):
                        assert math.isfinite(float(cell)), (column, keys)


KEYS = [(section, key) for section in FIELDS for key in FIELDS[section]]


def test_simulate_tof_on_every_hostile_value(tmp_path):
    # Each key on each value, one at a time: the engine is where an infinite
    # time used to pass the load checks and exit 0.
    for key in KEYS:
        for text in TEXTS:
            run_command("simulate-tof", {key: text}, tmp_path)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)),
       st.dictionaries(st.sampled_from(KEYS), st.sampled_from(TEXTS), min_size=1, max_size=3))
def test_run_file_values_end_in_documented_exit_code(tmp_path_factory, command, keys):
    run_command(command, keys, tmp_path_factory.mktemp("fuzz"))


def test_simulate_tof_on_a_late_channel_is_finite(tmp_path):
    # Channels 2..512 arrive from 1e7 ns on, far beyond the window: they are
    # overflow, and no time beyond the window is cast to a bin.  At 1e300 ns
    # times no longer resolve the dead time (test_unresolved_times_refused).
    ini = tmp_path / "run.ini"
    ini.write_text("[device]\nloop_delay_ns = 1e7\n[source]\nmu = 2\n")
    out = tmp_path / "tof.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate-tof", "--config", str(ini), "--seed", "1", "--trials", "1000",
                     "--format", "json", "--out", str(out)]) == EXIT_OK
    hist = json.loads(out.read_text())
    result = loopdet.run_simulation(PhotonSource.poissonian(2.0),
                                    reference_device(loop_delay_ns=1e7), 1000, 1)
    window = 1024 * 5.0
    assert np.count_nonzero(result.time_ns >= 1e7) > 0
    assert hist["meta"]["overflow"] == np.count_nonzero(result.time_ns >= window)
    assert sum(hist["counts"]) == np.count_nonzero(result.time_ns < window)


@pytest.mark.parametrize("line", ["[device]\nloop_delay_ns = inf",
                                  "[simulation]\ntime_offset_ns = inf",
                                  "[device]\nbin_width_ns = 1e307",
                                  "[device]\nafterpulse_decay_ns = 1e308",
                                  "[simulation]\nn_bins = 18446744073709551616"])
def test_simulate_tof_refuses_infinite_times(capsys, tmp_path, line):
    ini = tmp_path / "run.ini"
    ini.write_text(line + "\n")
    out = tmp_path / "tof.csv"
    code = main(["simulate-tof", "--config", str(ini), "--seed", "1", "--mu", "2",
                 "--trials", "100", "--out", str(out)])
    assert code == EXIT_DOMAIN and not out.exists()
    assert capsys.readouterr().err.startswith("domain error: ")


#: The run that showed unresolved times: at 1e20 ns floats lie 16,384 ns
#: apart, and the engine kept 1,855 of 2,393 channel clicks and no afterpulse.
UNRESOLVED = (reference_device(afterpulse_prob=0.5), SimSettings(time_offset_ns=1e20))


def largest_accepted_offset(params):
    """The largest float time offset ``_check_times`` accepts, by bisection
    over the ordered bit patterns of the nonnegative doubles."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))  # accepted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            montecarlo._check_times(params, SimSettings(
                time_offset_ns=float(np.int64(mid).view(np.float64))))
            lo = mid
        except ParameterError:
            hi = mid
    return float(np.int64(lo).view(np.float64))


def test_unresolved_times_refused(no_batch_runs, capsys, tmp_path):
    params, settings = UNRESOLVED
    with pytest.raises(ParameterError, match="do not resolve"):
        loopdet.run_simulation(PhotonSource.fock(3), params, 2000, 3, settings=settings)
    ini, out = tmp_path / "run.ini", tmp_path / "tof.csv"
    ini.write_text("[device]\nafterpulse_prob = 0.5\n[simulation]\ntime_offset_ns = 1e20\n"
                   "[source]\nkind = fock\nn = 3\n")
    assert main(["simulate-tof", "--config", str(ini), "--seed", "3", "--trials", "2000",
                 "--out", str(out)]) == EXIT_DOMAIN
    assert "do not resolve" in capsys.readouterr().err and not out.exists()
    for field, value in [("dead_time_ns", 5e-324), ("bin_width_ns", 5e-324),
                         ("duty_factor_q", 5e-324), ("loop_delay_ns", 1e300)]:
        with pytest.raises(ParameterError, match="do not resolve"):
            montecarlo._check_times(reference_device(**{field: value}), SimSettings())


def test_largest_accepted_offset_registers_the_default_clicks():
    # Without dark counts, which fall in the window whatever the offset, a
    # run's clicks do not depend on where the offset puts them.
    params = dataclasses.replace(UNRESOLVED[0], dark_prob_per_bin=0.0)
    offset = largest_accepted_offset(params)
    assert 1e10 < offset < 1e20
    runs = [loopdet.run_simulation(PhotonSource.fock(3), params, 2000, 3,
                                   settings=SimSettings(time_offset_ns=t))
            for t in (100.0, offset)]
    assert np.count_nonzero(runs[0].origin == montecarlo.ORIGIN_AFTERPULSE) > 500
    for name in ("pulse", "origin", "n_photons"):
        np.testing.assert_array_equal(getattr(runs[1], name), getattr(runs[0], name))
    np.testing.assert_allclose(runs[1].time_ns - offset, runs[0].time_ns - 100.0,
                               rtol=0.0, atol=1e-4)


def test_zero_duty_factor_has_no_window_scale():
    # With q = 0 the windows are points: only the dead time and bin width count.
    result = loopdet.run_simulation(PhotonSource.fock(3), reference_device(duty_factor_q=0.0),
                                    100, 1)
    check_finite(loopdet.empirical_click_distribution(result, 15))


@pytest.mark.parametrize("kwargs", [{"sigma": [-1.0] * 7}, {"T_over_eta_sigma": -1.0},
                                    {"T_over_eta_sigma": math.nan}])
def test_negative_uncertainty_is_data_error(kwargs):
    # sigma = -1 used to give the tl_sigma of sigma = +1.
    with pytest.raises(DataError, match="nonnegative"):
        loopdet.calibrate_from_channels(H, 0.78, 0.955, **kwargs)


@pytest.mark.parametrize("channels", ["1e-300,0.42,0.13,0.04,0.012,0.004,0.0013",
                                      "0.39,1e-300,0.13,0.04,0.012,0.004,0.0013",
                                      "1,1e-310,9e-311,0.1"])
def test_tiny_channel_is_data_error_without_warning(capsys, channels):
    # The ratios of a tiny H overflow; that used to print RuntimeWarnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["calibrate", "--channels", channels]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("command", [["channels"], ["channels", "--r-sweep", "0.3,0.5"],
                                     ["cm-curve", "--mu-grid", "1"],
                                     ["postselect", "--mu-grid", "1"]])
def test_huge_channel_count_is_domain_error(capsys, command):
    # 2**64 channels used to end in a numpy ValueError traceback.
    assert main([*command, "--n-channels", str(2 ** 64)]) == EXIT_DOMAIN
    assert "n_channels must be an integer in [1, 65536]" in capsys.readouterr().err
