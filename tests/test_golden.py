"""Golden byte gate for the Monte Carlo stream.

The reproducibility contract promises byte-identical output for a fixed
seed at any worker count.  Reruns within one version of the code cannot
show that a refactor changed the random stream; these SHA-256 digests,
recorded from the engine as released, can.  A change that must alter the
stream says so and updates the digests in the same change:

    PYTHONPATH=src python tests/test_golden.py          # print old -> new
    PYTHONPATH=src python tests/test_golden.py --write  # and re-record

recomputes every pin of this file, and the diff of the file is the record.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from loopdet import (
    PhotonSource,
    reference_device,
    run_simulation,
)
from loopdet.cli import main
import loopdet.montecarlo as mc
from loopdet.montecarlo import BATCH_SIZE, empirical_click_distribution
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
        "7f905456c8900967107be29be84c0cd8fab550733b1cab35db77be4729becaf7",
    ("noiseless", 2 ** 63 + 11):
        "725f19edd700c44df54226d476a8037f935dfebbc977fe86652a8a1615b51b4c",
    ("noisy", 3):
        "77cc5e04cca178212f3292d9bc8c97a4e09f19b57a4e4fabb4e97a6da907500d",
    ("noisy", 2 ** 63 + 11):
        "49b4deaa61bc4b711f4c2c3ef45ae21f556a52ef1ebe713e90888241968da0e0",
}

#: Empirical click pmf (15 channels) of each run in RUN_DIGESTS.
PMF_DIGESTS = {
    ("noiseless", 3):
        "4cba8f76e12c337a6f4a35f2c08100f611929943ca9c8c78e455b64048b78a8f",
    ("noiseless", 2 ** 63 + 11):
        "34d054137038c14c60a40f5908227a7b118e8825e559ce69158945b271a0cb8a",
    ("noisy", 3):
        "c7a72027203ec1efaa2721c5bdc445f51071ac9fe991232556ac57bbc02ccceb",
    ("noisy", 2 ** 63 + 11):
        "6a9da3a84ac6d13d3943a78b93ee5f372065224cbc10b92014591b82ab518721",
}

#: Monte Carlo herald tables on the noisy device, n = 0..6, 2,000 trials.
HERALD_DIGESTS = {
    "exactly-one":
        "170eeb3e619aefb54db00dc57b5ffed967b739493af4187d6a17a2f321eee74c",
    "one-or-more":
        "6cb873827e3a79ac2ef2787a65e54632db0178bce87f0118d3082214c50f9e07",
}

#: A dead time shorter than the accepted window (5 ns < q * 60 = 10.2 ns),
#: so that a channel window can hold two registered clicks of one pulse;
#: the reference device never produces such a pair.
DUPLICATE_WINDOW_DEVICE = reference_device(
    dead_time_ns=5.0, dark_prob_per_bin=2e-3, afterpulse_prob=0.3,
    afterpulse_decay_ns=8.0)
#: Window clicks on channels 1..15, and how many of them share a window.
DUPLICATE_WINDOW_HITS = (59541, 184)
DUPLICATE_WINDOW_DIGESTS = {
    "run": "c4522bab90b41461783a59aea1a40f66b2c2c6581d0a1d594b9a21aecf431742",
    "pmf": "ca9b5b92f02611ea42fa5e6d01d1ea1e0720bf935659d88abe6998fe2bceb13f",
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
        "8a21f0eb231aceb2dd8a4f3be73b84520b5e718a39547731d872511072b2dedd",
        "4028e28a31572dec6dc8e257bbbdc82ff490d076a22eea4fc11f6c8770ab9bac"),
    "registering": (
        "9bbf1d8029b2631b086cd71fbf74a2133a56e0ef57c810638ec4c2348dc1c8fa",
        "ba7d18f3b15a99a884fb4fd43c04161dc757ba6a234c6ca6c20d7753a853591a"),
}

JSON_DIGESTS = {
    "ideal":
        "49c911d5bc0cdb49dc76ffa0baca28111cbb1a202ee2e64dc501549a35f7bdcb",
    "four-tij":
        "c06f5c4981f79d97c67b0cbba5fd63767edfbb97f91251171c6727771d24c97c",
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


@pytest.mark.parametrize("block_rows", [0, 2 ** 40],
                         ids=["one-batch-per-block", "one-block"])
def test_block_grouping_bytes(block_rows, monkeypatch):
    # Blocks only group batches for compute; every batch keeps its stream.
    monkeypatch.setattr(mc, "_BLOCK_ROWS", block_rows)
    for workers in (1, 2):
        for device, seed in sorted(RUN_DIGESTS):
            res = golden_run(device, seed, workers)
            assert (digest(res.pulse, res.time_ns, res.origin, res.n_photons)
                    == RUN_DIGESTS[device, seed])
            emp = empirical_click_distribution(res)
            assert digest(emp.distribution.p_click) == PMF_DIGESTS[device, seed]
        for rule, expected in HERALD_DIGESTS.items():
            assert herald_digest(rule, workers) == expected


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
        return (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int32),
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


def recorded() -> dict:
    """Every pin of this file recomputed from the engine, by table name."""
    with tempfile.TemporaryDirectory() as tmp:
        json_digests = {kind: json_digest(kind, Path(tmp)) for kind in JSON_DIGESTS}
    hits, duplicate = duplicate_window_pins()
    return {
        "RUN_DIGESTS": {key: run_digest(*key, workers=1) for key in RUN_DIGESTS},
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
