"""Golden byte gate for the Monte Carlo stream.

The reproducibility contract promises byte-identical output for a fixed
seed at any worker count, block grouping and routing slice size, on one
numpy version and one SIMD target.  Reruns within one version of the code
cannot show that a refactor changed the random stream; these SHA-256
digests, recorded from the engine as released, can.

The digests were recorded with numpy 2.4.6 on an AVX-512 host.  numpy's
AVX2 and baseline exp, expm1, log, log1p and power round differently by
1 ulp on some inputs, so under
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" the noisy runs'
afterpulse times move (their pulse and origin columns do not), and with
them these pins: test_run_simulation_bytes[noisy-3] and
[noisy-9223372036854775819], test_duplicate_window_bytes,
test_afterpulse_device_bytes[1-registering] and [2-registering], and
test_block_grouping_bytes[one-batch-per-block], [one-block] and
[chunk-97]; and in tests/test_cli.py the six test_postselect_output_bytes
cases and TestOptimizeCommand::test_output_bytes[] and [--normalized].
Every noise-free pin holds on either target: the router only compares
uniforms.  test_cross_target_agreement checks that relation on a small
noisy run and two wm_curve grids.  A change that must alter the
stream says so and updates the digests in the same change:

    PYTHONPATH=src python tests/test_golden.py          # print old -> new
    PYTHONPATH=src python tests/test_golden.py --write  # and re-record

recomputes every pin of this file, and the diff of the file is the record.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import loopdet
from loopdet import (
    CouplerSetting,
    DeviceParams,
    PhotonSource,
    SimSettings,
    reference_device,
    run_simulation,
)
from loopdet.cli import main
import loopdet.montecarlo as mc
from loopdet.montecarlo import BATCH_SIZE, empirical_click_distribution, window_clicks
from loopdet.postselect import herald_acceptance_from_mc

#: Three batches: one block by default, so test_block_grouping_bytes runs
#: them one batch per block to send workers=2 through the process pool.
TRIALS = 2 * BATCH_SIZE + 1000

DEVICES = {
    "noiseless": reference_device(dark_prob_per_bin=0.0, afterpulse_prob=0.0),
    # Noise well above the reference, so that many pulses take the
    # sequential dead-time / afterpulse path.
    "noisy": reference_device(r=0.3, dark_prob_per_bin=2e-5,
                              afterpulse_prob=0.05),
}

RUN_DIGESTS = {
    ("noiseless", 3):
        "35c920f8da84c6ecda72ef6cd3b1e9de294c084677b2cc1ae1ac9ea1a177f624",
    ("noiseless", 2 ** 63 + 11):
        "0cda5c473f9c5cb90d0c4b83e9b631ef2ebff612ddf5fb025e7c83c3705eaf1c",
    ("noisy", 3):
        "51c7b72842e171a3b59d3e81b775a8a500e53abd244b52dafd1c1c6f9ca79ce3",
    ("noisy", 2 ** 63 + 11):
        "1b00518fc71b25282da6641ee5ffa184ca0174b25b8b363c277e70b206339a8e",
}

#: A noise-free custom source, whose photon numbers come from rng.choice:
#: 400,000 pulses on seed 23, the run test_montecarlo.py checks against the
#: analytic pmf.
CUSTOM_SOURCE = PhotonSource.custom([0.2, 0.3, 0.1, 0.4])
CUSTOM_DIGESTS = {
    23: "6345285741b24db0084a2ce5fb151592528eb8f4a8c3d63f93229ab62510066a",
}

#: Empirical click pmf (15 channels) of each run in RUN_DIGESTS.
PMF_DIGESTS = {
    ("noiseless", 3):
        "13aac3f7c9f619fbcacbb500df0ec35b1f6d562bce47b0528c8556dc1fffffa7",
    ("noiseless", 2 ** 63 + 11):
        "11a89e5821142b466ddd0f8ab24d648e7f7723e334eb0e0ecc2d80ac1f789892",
    ("noisy", 3):
        "d99a9e2998cf6f383664d4822378d721e12483ab9d190f67324e70ce9ff6a667",
    ("noisy", 2 ** 63 + 11):
        "fb0c248675a89455eb94bee3ad376b4caaf853447386cd0bb51adbc91e62d077",
}

#: Monte Carlo herald tables on the noisy device, n = 0..6, 2,000 trials.
HERALD_DIGESTS = {
    "exactly-one":
        "2d2b276f140d8f3c8b1811fac9f35bca9d25e3769ae175d75161d2df9424dc2e",
    "one-or-more":
        "d0bf5320ecab6819ae5ba4d4da9d3c884816d035bfb85ebfde06be67f622d74a",
    "first-channel-only":
        "22f511dcd9fa713b4d571b5bbd5a7ac883cb67db791d5bebb2bb44592f306934",
}

#: A dead time shorter than the accepted window (5 ns < q * 60 = 10.2 ns),
#: so that a channel window can hold two registered clicks of one pulse;
#: the reference device never produces such a pair.
DUPLICATE_WINDOW_DEVICE = reference_device(
    dead_time_ns=5.0, dark_prob_per_bin=2e-3, afterpulse_prob=0.3,
    afterpulse_decay_ns=8.0)
#: Window clicks on channels 1..15, and how many of them share a window.
DUPLICATE_WINDOW_HITS = (60173, 180)
DUPLICATE_WINDOW_DIGESTS = {
    "run": "2b3b23a80739dff80e355a1601e78080d4a796f83b0c9938175bcc10df2e59e2",
    "pmf": "f7e0b5df55b87751fa0d10e09ddd626987afa13b4ecccbaeb08ea5c22047f188",
}

#: Afterpulse probability 1: every registered click leaves a pending
#: afterpulse.  "pending" has about five dark counts per pulse and a 1 ns
#: decay inside a 59 ns dead time, so every afterpulse is suppressed;
#: "registering" has a 30 ns decay past a 20 ns dead time, so a third of
#: its clicks are afterpulses.  First recorded before the dead-time loop
#: became array passes.
AFTERPULSE_DEVICES = {
    "pending": reference_device(dark_prob_per_bin=5e-3, afterpulse_prob=1.0,
                                afterpulse_decay_ns=1.0, dead_time_ns=59.0),
    "registering": reference_device(dark_prob_per_bin=1e-3,
                                    afterpulse_prob=1.0,
                                    afterpulse_decay_ns=30.0,
                                    dead_time_ns=20.0),
}
AFTERPULSE_DIGESTS = {
    "pending": (
        "52db4b2cfa87915c00a8bb0ed3e757328407174027f51e4a1e3daa6b5500a10c",
        "3617bf825e5f24d12cc13961db7bc1e52950faeb02997dda65c4759a2686e9ca"),
    "registering": (
        "b85e715c7e47a59ed902d7e1a48ffebe13f990597480b37cd8a484a5df98c5cb",
        "59b75e9308df1f9f928f8abcd43c96bb69ea130bec8a184893553a51d302ebf7"),
}

JSON_DIGESTS = {
    "ideal":
        "fa022afd2ba3dba5ac8294359fdfe3f7953a74e0aecb59351e0e4e8219ea06ca",
    "four-tij":
        "00ddd25bd03bcf2957f1ec621cf6cd9869f41bace29577186882fb73cf641731",
}


def digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def golden_run(device: str, seed: int, workers: int = 1):
    return run_simulation(PhotonSource.poissonian(2.13), DEVICES[device],
                          TRIALS, seed, workers=workers)


def run_digest(device: str, seed: int, workers: int) -> str:
    res = golden_run(device, seed, workers)
    return digest(res.pulse, res.time_ns, res.origin, res.n_photons)


def custom_digest(seed: int, workers: int) -> str:
    res = run_simulation(CUSTOM_SOURCE, DEVICES["noiseless"], 400_000, seed, workers=workers)
    return digest(res.pulse, res.time_ns, res.origin, res.n_photons)


def pmf_digest(device: str, seed: int) -> str:
    return digest(empirical_click_distribution(golden_run(device, seed))
                  .distribution.p_click)


def herald_digest(rule: str, workers: int) -> str:
    return digest(herald_acceptance_from_mc(DEVICES["noisy"], 6, rule, 2000, 29,
                                            workers=workers))


def afterpulse_digests(device: str, workers: int) -> tuple[str, str]:
    res = run_simulation(PhotonSource.poissonian(2.13),
                         AFTERPULSE_DEVICES[device], TRIALS, 7,
                         workers=workers)
    emp = empirical_click_distribution(res)
    return (digest(res.pulse, res.time_ns, res.origin, res.n_photons),
            digest(emp.distribution.p_click))


def json_digest(kind: str, tmp_path) -> str:
    ini = tmp_path / "device.ini"
    if kind == "ideal":
        ini.write_text("[device]\nr = 0.4\ntl = 0.93\n")
    else:
        ini.write_text("[device]\nt13 = 0.45\nt14 = 0.5\nt23 = 0.52\n"
                       "t24 = 0.44\ndark_prob_per_bin = 1e-5\n")
    out = tmp_path / "tof.json"
    code = main(["simulate-tof", "--config", str(ini), "--seed", "17",
                 "--mu", "1.5", "--trials", "3000", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("device,seed", sorted(RUN_DIGESTS))
def test_run_simulation_bytes(device, seed):
    expected = RUN_DIGESTS[device, seed]
    assert run_digest(device, seed, workers=1) == expected
    assert run_digest(device, seed, workers=2) == expected


@pytest.mark.parametrize("seed", sorted(CUSTOM_DIGESTS))
def test_custom_source_bytes(seed):
    for workers in (1, 2):
        assert custom_digest(seed, workers) == CUSTOM_DIGESTS[seed]


@pytest.mark.parametrize("kind", sorted(JSON_DIGESTS))
def test_simulate_tof_json_bytes(kind, tmp_path):
    assert json_digest(kind, tmp_path) == JSON_DIGESTS[kind]


@pytest.mark.parametrize("device,seed", sorted(PMF_DIGESTS))
def test_empirical_pmf_bytes(device, seed):
    assert pmf_digest(device, seed) == PMF_DIGESTS[device, seed]


@pytest.mark.parametrize("rule", sorted(HERALD_DIGESTS))
def test_herald_table_bytes(rule):
    # workers=2 sends the seven one-batch runs through one process pool.
    for workers in (1, 2):
        assert herald_digest(rule, workers) == HERALD_DIGESTS[rule]


def herald_from_runs(device, n_channels: int) -> dict:
    """The herald table of each rule as built from whole runs: run n = 0..6
    on seed 29 + n, its window clicks, and the rule's share of pulses."""
    tables = {"exactly-one": [], "one-or-more": [], "first-channel-only": []}
    for n in range(7):
        res = run_simulation(PhotonSource.fock(n), device, 2000, 29 + n)
        pulse, channel = window_clicks(res, n_channels)
        clicks = np.bincount(pulse, minlength=res.n_trials)
        one = clicks == 1
        tables["exactly-one"].append(np.mean(one))
        tables["one-or-more"].append(1.0 - np.mean(clicks == 0))
        one[pulse[channel != 1]] = False
        tables["first-channel-only"].append(np.mean(one))
    return {rule: np.array(table) for rule, table in tables.items()}


@pytest.mark.parametrize("device,n_channels", [
    (DEVICES["noisy"], 4), (DUPLICATE_WINDOW_DEVICE, 3),
    (AFTERPULSE_DEVICES["pending"], 15), (AFTERPULSE_DEVICES["registering"], 15)],
    ids=["noisy", "duplicate-window", "pending", "registering"])
def test_herald_tally_matches_runs(device, n_channels):
    # The herald tallies each block without its events, counting the clicks
    # of noise-free pulses as sitting on their window centres; 3 and 4
    # channels cut some of those clicks.  The afterpulse devices (p_ap = 1)
    # flag every pulse that clicks.
    for rule, expected in herald_from_runs(device, n_channels).items():
        for workers in (1, 2):
            assert np.array_equal(herald_acceptance_from_mc(
                device, 6, rule, 2000, 29, n_channels, workers), expected)


def duplicate_window_pins():
    """(window hits, hits sharing a window) and the run and pmf digests."""
    res = run_simulation(PhotonSource.poissonian(3.0),
                         DUPLICATE_WINDOW_DEVICE, 50_000, 5)
    p, s = res.params, res.settings
    k = np.rint((res.time_ns - s.time_offset_ns) / p.loop_delay_ns) + 1
    centre = s.time_offset_ns + (k - 1) * p.loop_delay_ns
    hit = ((np.abs(res.time_ns - centre) <= 0.5 * p.duty_factor_q
            * p.loop_delay_ns) & (k >= 1) & (k <= 15))
    pairs = set(zip(res.pulse[hit].tolist(), k[hit].tolist()))
    emp = empirical_click_distribution(res)
    return ((int(hit.sum()), int(hit.sum()) - len(pairs)),
            {"run": digest(res.pulse, res.time_ns, res.origin, res.n_photons),
             "pmf": digest(emp.distribution.p_click)})


def test_duplicate_window_bytes():
    hits, digests = duplicate_window_pins()
    # The run really puts two clicks of one pulse into one channel window.
    assert hits == DUPLICATE_WINDOW_HITS and hits[1] > 0
    assert digests == DUPLICATE_WINDOW_DIGESTS


@pytest.mark.parametrize("device", sorted(AFTERPULSE_DIGESTS))
@pytest.mark.parametrize("workers", [1, 2])
def test_afterpulse_device_bytes(device, workers):
    assert afterpulse_digests(device, workers) == AFTERPULSE_DIGESTS[device]


@pytest.mark.parametrize("block_rows,chunk_rows", [
    (0, mc._CHUNK_ROWS), (2 ** 40, mc._CHUNK_ROWS), (mc._BLOCK_ROWS, 97)],
    ids=["one-batch-per-block", "one-block", "chunk-97"])
def test_block_grouping_bytes(block_rows, chunk_rows, monkeypatch, tmp_path):
    # Blocks only group batches for compute, and a routing pass's slices
    # only cut its rows; every batch keeps its stream.  97 rows cut through
    # pulses and batches, and the histogram's and the pmf's slices too.
    monkeypatch.setattr(mc, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(mc, "_CHUNK_ROWS", chunk_rows)
    for workers in (1, 2):
        for device, seed in sorted(RUN_DIGESTS):
            res = golden_run(device, seed, workers)
            assert (digest(res.pulse, res.time_ns, res.origin, res.n_photons)
                    == RUN_DIGESTS[device, seed])
            emp = empirical_click_distribution(res)
            assert digest(emp.distribution.p_click) == PMF_DIGESTS[device, seed]
        for rule, expected in HERALD_DIGESTS.items():
            assert herald_digest(rule, workers) == expected
    if chunk_rows == 97:
        for kind, expected in JSON_DIGESTS.items():
            assert json_digest(kind, tmp_path) == expected


@pytest.mark.parametrize("source,per_block", [
    (PhotonSource.poissonian(2.13), 5), (PhotonSource.poissonian(0.0), 16),
    (PhotonSource.fock(7), 2), (PhotonSource.fock(8), 1),
    (PhotonSource.fock(20), 1), (PhotonSource.custom([0.5, 0.0, 0.5]), 8)],
    ids=["poisson-2.13", "poisson-0", "fock-7", "fock-8", "fock-20", "custom"])
def test_block_size(source, per_block, monkeypatch):
    blocks = []

    def record(args):
        *_, first_batch, sizes = args
        blocks.append((first_batch, sizes))
        return (np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0),
                np.zeros(sum(sizes), np.int64))

    monkeypatch.setattr(mc, "_batch_worker", record)
    n_trials = 40 * BATCH_SIZE + 5
    run_simulation(source, DEVICES["noiseless"], n_trials, 1)
    assert [b for b, _ in blocks] == list(range(0, 41, per_block))
    assert [list(sizes) for _, sizes in blocks] == [
        [BATCH_SIZE] * per_block] * (len(blocks) - 1) + [
        [BATCH_SIZE] * (40 - blocks[-1][0]) + [5]]
    # At most 2**17 expected rows (pulses plus photons), or one batch.
    mean = source.pmf_array() @ np.arange(source.n_max + 1)
    assert per_block == 1 or per_block * BATCH_SIZE * (1 + mean) <= 2 ** 17


@pytest.mark.parametrize("device,settings", [
    (DEVICES["noisy"], SimSettings()),
    (DUPLICATE_WINDOW_DEVICE, SimSettings()),
    (DeviceParams(coupler=CouplerSetting(0.45, 0.5, 0.52, 0.44), dark_prob_per_bin=1e-5),
     SimSettings()),
    (DEVICES["noisy"], SimSettings(time_offset_ns=37.3, max_channels=4))],
    ids=["noisy", "duplicate-window", "four-tij", "max-channels-4"])
def test_channel_click_time_is_its_round_trip(device, settings):
    # The histogram and the windows place a channel click by its origin, so
    # its time must be the engine's own expression of it, bit for bit.
    res = run_simulation(PhotonSource.poissonian(2.13), device, TRIALS, 3,
                         settings=settings)
    channel = res.origin >= 1
    assert (~channel).any() and res.origin.max() <= settings.max_channels
    k = res.origin[channel]
    expected = settings.time_offset_ns + (k - 1.0) * device.loop_delay_ns
    assert np.array_equal(res.time_ns[channel].view(np.int64), expected.view(np.int64))


#: numpy's AVX-512 dispatch targets; switching them off leaves its AVX2 kernels.
AVX512_OFF = "AVX512_SPR AVX512_ICL X86_V4"

#: A small noisy run and two 10-point wm_curve grids (unit and 0.8 signal
#: transmission), whose floats pass through numpy's exp, expm1, log, log1p
#: and power, saved with whether numpy dispatches its AVX-512 kernels.
CROSS_TARGET_RUN = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from loopdet import PhotonSource, channel_transmissions, reference_device, run_simulation
from loopdet.postselect import wm_curve
params = reference_device(dark_prob_per_bin=2e-5, afterpulse_prob=0.08)
run = run_simulation(PhotonSource.poissonian(2.13), params, 50_000, seed=7)
profile = channel_transmissions(params, 15)
wm = [list(row.values()) for t in (1.0, 0.8)
      for row in wm_curve(np.linspace(0.5, 5.0, 10), profile, signal_transmission=t)]
np.savez(sys.argv[1], avx512=__cpu_features__["AVX512_SKX"], pulse=run.pulse,
         origin=run.origin, time=run.time_ns, wm=np.array(wm))
"""

#: Largest distance in ulp between the two targets' floats: measured 2 for
#: the times (104 of 46,277 differ) and 3 for the wm_curve values (41 of 100
#: differ), with a margin of twice that.
TIME_ULPS = 4
WM_ULPS = 6


def test_cross_target_agreement(tmp_path):
    # The contract across SIMD targets: with numpy's AVX-512 kernels off the
    # integer columns are identical and every float is within a few ulp.
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if not features.get("AVX512_SKX"):
        pytest.skip("numpy dispatches no AVX-512 kernels here")
    src = str(Path(loopdet.__file__).resolve().parents[1])
    runs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": AVX512_OFF}):
        path = tmp_path / f"run{len(runs)}.npz"
        subprocess.run([sys.executable, "-c", CROSS_TARGET_RUN, str(path)],
                       env={**os.environ, "PYTHONPATH": src, **extra}, check=True)
        runs.append(np.load(path))
    on, off = runs
    assert on["avx512"] and not off["avx512"]
    assert np.array_equal(on["pulse"], off["pulse"])
    assert np.array_equal(on["origin"], off["origin"])
    for key, bound in (("time", TIME_ULPS), ("wm", WM_ULPS)):
        assert np.all(on[key] > 0.0) and np.all(off[key] > 0.0)  # so ulp = bit-pattern distance
        assert np.abs(on[key].view(np.int64) - off[key].view(np.int64)).max() <= bound, key


def recorded() -> dict:
    """Every pin of this file recomputed from the engine, by table name."""
    with tempfile.TemporaryDirectory() as tmp:
        json_digests = {kind: json_digest(kind, Path(tmp)) for kind in JSON_DIGESTS}
    hits, duplicate = duplicate_window_pins()
    return {
        "RUN_DIGESTS": {key: run_digest(*key, workers=1) for key in RUN_DIGESTS},
        "CUSTOM_DIGESTS": {seed: custom_digest(seed, 1) for seed in CUSTOM_DIGESTS},
        "PMF_DIGESTS": {key: pmf_digest(*key) for key in PMF_DIGESTS},
        "HERALD_DIGESTS": {rule: herald_digest(rule, 1) for rule in HERALD_DIGESTS},
        "DUPLICATE_WINDOW_HITS": hits,
        "DUPLICATE_WINDOW_DIGESTS": duplicate,
        "AFTERPULSE_DIGESTS": {device: afterpulse_digests(device, 1)
                               for device in AFTERPULSE_DIGESTS},
        "JSON_DIGESTS": json_digests,
    }


def pins(table) -> list:
    """(key, text) of each pin of a table as this file spells it: a digest
    as its bare hex string, the duplicate-window hits as their repr."""
    if not isinstance(table, dict):
        return [(None, repr(table))]
    return [(key, pin) for key, value in table.items()
            for pin in (value if isinstance(value, tuple) else (value,))]


if __name__ == "__main__":
    path = Path(__file__)
    text = path.read_text()
    for name, table in recorded().items():
        for (key, old), (_, new) in zip(pins(globals()[name]), pins(table)):
            if new == old:
                print(f"{name}[{key}]: {old} unchanged")
                continue
            print(f"{name}[{key}]: {old} -> {new}")
            assert text.count(old) == 1, f"{name}[{key}] is not unique"
            text = text.replace(old, new)
    if "--write" in sys.argv[1:]:
        path.write_text(text)
