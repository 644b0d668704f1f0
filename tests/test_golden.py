"""Golden byte gate for the Monte Carlo stream.

The reproducibility contract promises byte-identical output for a fixed
seed at any worker count.  Reruns within one version of the code cannot
show that a refactor changed the random stream; these SHA-256 digests,
recorded from the engine as released, can.  A change that must alter the
stream says so and updates the digests in the same change.
"""

import hashlib

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
        "ebf71c5d716d705751b22e5195395b3c551edb141ad874f723e92d6867485436",
    ("noiseless", 2 ** 63 + 11):
        "be272aa271141e67fd39951ff3b77bfd2b9e407a4c18e6a79961694a62154a49",
    ("noisy", 3):
        "d94e06a3b29a4587eb7eb12b72adc2d77e51d000b539f4e7a63e36205fff1d91",
    ("noisy", 2 ** 63 + 11):
        "2b828bc2b821fc58beda1ecf58c2cc8795dabc2575efdab65973c5c3d6d3905d",
}

#: Empirical click pmf (15 channels) of each run in RUN_DIGESTS.
PMF_DIGESTS = {
    ("noiseless", 3):
        "70181a9e54c4ef0cc91e6672560a92c32ca713e58aea1cd24a1ef5827a0a9a4c",
    ("noiseless", 2 ** 63 + 11):
        "5322ab7ba16fca5eafb5b8d5f6baad7b73ed0bbe70a6453abd0467a9c3de4e94",
    ("noisy", 3):
        "10675ac503ad5970a7c4a164ba7d1a338fc7e71874ee6d94d2f4f6caa3efdad7",
    ("noisy", 2 ** 63 + 11):
        "11b19c65ee7ae1c8039d9e7a3110da1bf69c418288b3fbe168d8652c0b27ac0f",
}

#: Monte Carlo herald tables on the noisy device, n = 0..6, 2,000 trials.
HERALD_DIGESTS = {
    "exactly-one":
        "3a5499c8d1a80b1e201dba71c6e5373163064dee38ba0f4869a30ee93027c7dd",
    "one-or-more":
        "119c1f95d199e662cb6c37988af6f76aa38995e2b880750be2899321d91a94c0",
}

#: A dead time shorter than the accepted window (5 ns < q * 60 = 10.2 ns),
#: so that a channel window can hold two registered clicks of one pulse;
#: the reference device never produces such a pair.
DUPLICATE_WINDOW_DEVICE = reference_device(
    dead_time_ns=5.0, dark_prob_per_bin=2e-3, afterpulse_prob=0.3,
    afterpulse_decay_ns=8.0)
DUPLICATE_WINDOW_DIGESTS = {
    "run": "7b6441b059f05a97d56b69228e9562e393a687bb8ed620f94c29525eb6a32626",
    "pmf": "511ec9f3d5827dde92350d7f8c8ed2b7782a2a63fe3c26557504a8f4df39842e",
}

#: Afterpulse probability 1: every registered click leaves a pending
#: afterpulse.  "pending" has about five dark counts per pulse and a 1 ns
#: decay inside a 59 ns dead time, so every afterpulse is suppressed;
#: "registering" has a 30 ns decay past a 20 ns dead time, so a third of
#: its clicks are afterpulses.  Recorded before the dead-time loop became
#: array passes.
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
        "e9da16d8f40f615aadf0a90559d31995789126166024771c9088bfc047ddeee6",
        "7517cc79ca504de6fc0fca0e5ae0c4ac2e9503aaf47cb5e0726c45962322ce5a"),
    "registering": (
        "1ab1ad6c627ac288e4d8dd0fc0d46eec8fc740f59b85535a450b581ebd9fdc8d",
        "26baf72f9b481e0e6e8e3f6c9ad49ed374d35a4f6cd46274da07d73231a59208"),
}

JSON_DIGESTS = {
    "ideal":
        "fdd3398894e22d64564e845566b4476a55dcf762f611db1195b5b3730a87e1a2",
    "four-tij":
        "8b6e132731d1d5b3f7614e4eda5c4141aeb0ef17d319f9e0639861b0e9aec8fe",
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
    emp = empirical_click_distribution(golden_run(device, seed))
    assert digest(emp.distribution.p_click) == PMF_DIGESTS[device, seed]


@pytest.mark.parametrize("rule", sorted(HERALD_DIGESTS))
def test_herald_table_bytes(rule):
    # workers=2 sends the seven one-batch runs through one process pool.
    for workers in (1, 2):
        table = herald_acceptance_from_mc(DEVICES["noisy"], 6, rule, 2000, 29,
                                          workers=workers)
        assert digest(table) == HERALD_DIGESTS[rule]


def test_duplicate_window_bytes():
    res = run_simulation(PhotonSource.poissonian(3.0),
                         DUPLICATE_WINDOW_DEVICE, 50_000, 5)
    # The run really puts two clicks of one pulse into one channel window.
    p, s = res.params, res.settings
    k = np.rint((res.time_ns - s.time_offset_ns) / p.loop_delay_ns) + 1
    centre = s.time_offset_ns + (k - 1) * p.loop_delay_ns
    hit = ((np.abs(res.time_ns - centre) <= 0.5 * p.duty_factor_q
            * p.loop_delay_ns) & (k >= 1) & (k <= 15))
    pairs = set(zip(res.pulse[hit].tolist(), k[hit].tolist()))
    assert (int(hit.sum()), int(hit.sum()) - len(pairs)) == (59_754, 192)

    assert (digest(res.pulse, res.time_ns, res.origin, res.n_photons)
            == DUPLICATE_WINDOW_DIGESTS["run"])
    emp = empirical_click_distribution(res)
    assert digest(emp.distribution.p_click) == DUPLICATE_WINDOW_DIGESTS["pmf"]


@pytest.mark.parametrize("device", sorted(AFTERPULSE_DIGESTS))
@pytest.mark.parametrize("workers", [1, 2])
def test_afterpulse_device_bytes(device, workers):
    res = run_simulation(PhotonSource.poissonian(2.13),
                         AFTERPULSE_DEVICES[device], TRIALS, 7,
                         workers=workers)
    emp = empirical_click_distribution(res)
    assert (digest(res.pulse, res.time_ns, res.origin, res.n_photons),
            digest(emp.distribution.p_click)) == AFTERPULSE_DIGESTS[device]


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
            table = herald_acceptance_from_mc(DEVICES["noisy"], 6, rule, 2000,
                                              29, workers=workers)
            assert digest(table) == expected


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
