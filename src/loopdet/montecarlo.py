"""Stochastic pulse-by-pulse simulation of the physical loop detector.

Photons are routed pass-by-pass through the coupler and delay loop (rather
than sampled from the analytic channel profile, so the analytic model is
validated independently).  Detector imperfections are applied on top:
photons arriving in the same channel merge into one click, the dead time
paralyzes the detector, dark counts appear uniformly over the acquisition
window, and every registered click may trigger at most one afterpulse at an
exponentially distributed delay (suppressed while the detector is dead).

Pulses without noise candidates register every channel click.  For the
others, each flagged candidate's afterpulse time is known before any click
registers, so candidates and afterpulses are sorted once by (pulse, time),
a candidate before an afterpulse at the same time, and swept in array
passes, one event per pulse per pass.  An afterpulse needs its candidate to
have registered.

Reproducibility contract: trials are processed in fixed-size batches and
each batch owns a counter-based random substream keyed by (seed, batch
index), so results are bit-identical for any worker count.  Batches are the
unit of the random stream only: a block of consecutive batches is simulated
in lock step, each batch filling its slice of every draw from its own
stream, and how batches are grouped into blocks changes no output byte.
"""

from __future__ import annotations

import json
import csv
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .clickstats import ClickDistribution, PhotonSource
from .device import DeviceParams
from .errors import ParameterError

ORIGIN_DARK = 0
ORIGIN_AFTERPULSE = -1

#: Fixed batch size; part of the reproducibility contract (results depend on
#: it, so it is a constant rather than a tuning knob).
BATCH_SIZE = 8192

#: Expected rows (pulses plus photons) of a block of batches simulated in
#: lock step: it amortises per-call cost, changes no draw, and keeps a block
#: no larger than the largest single batch.
_BLOCK_ROWS = 2 ** 17


@dataclass(frozen=True)
class SimSettings:
    """Acquisition-window settings of the simulated time-of-flight recorder."""

    time_offset_ns: float = 100.0  # arrival time of channel 1
    n_bins: int = 1024
    max_channels: int = 512  # photons still looping beyond this are dropped

    def __post_init__(self) -> None:
        if self.n_bins < 1 or self.max_channels < 1:
            raise ParameterError("n_bins and max_channels must be >= 1")
        if not self.time_offset_ns >= 0:
            raise ParameterError("time_offset_ns must be >= 0")


@dataclass(frozen=True)
class SimulationResult:
    """Flat event record of a full run: one row per registered click.
    Invariant: the rows are sorted by (pulse, time, origin)."""

    params: DeviceParams
    settings: SimSettings
    seed: int
    n_trials: int
    pulse: np.ndarray      # pulse index of each click
    time_ns: np.ndarray    # click time
    origin: np.ndarray     # channel k >= 1, ORIGIN_DARK, or ORIGIN_AFTERPULSE
    n_photons: np.ndarray  # photons generated per pulse


@dataclass(frozen=True)
class TofHistogram:
    """Binned time-of-flight click counts."""

    bin_width_ns: float
    counts: np.ndarray
    n_trials: int
    overflow: int = 0

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)


class FalseClickBounds(NamedTuple):
    cm_bound: float  # bound on the afterpulse contribution to c_M
    pm_bound: float  # bound on the afterpulse contribution to p_M


def false_cm_bound(params: DeviceParams, p1: float) -> FalseClickBounds:
    """Upper bounds on afterpulse-induced false multichannel detections.

    An afterpulse can mimic a channel click only when it falls inside one of
    the accepted channel windows, which cover a fraction q of the time axis;
    hence c_M^false < p_ap * q and p_M^false < p1 * p_ap * q.
    """
    cm = params.afterpulse_prob * params.duty_factor_q
    return FalseClickBounds(cm_bound=cm, pm_bound=p1 * cm)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_photon_numbers(source: PhotonSource, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    if source.kind == "poissonian":
        return rng.poisson(source.mu, size)
    if source.kind == "fock":
        return np.full(size, source.n, dtype=np.int64)
    return rng.choice(source.pmf.size, size=size, p=source.pmf)


def _route_photons(params: DeviceParams, uniform, pulse_of_photon: np.ndarray,
                   max_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Pass-by-pass routing of every photon; returns (pulse, channel) of
    each channel click, in channel order.  Photons of one pulse arriving in
    one channel merge into one click: the detector produces a single
    avalanche regardless of multiplicity.  ``uniform(a)`` draws one variate
    per row of the pulse-sorted ``a``."""
    c = params.coupler
    # np.compress beats a boolean index on numpy 2.4 unless the mask is nearly all true.
    pulse = np.compress(uniform(pulse_of_photon) < params.t0, pulse_of_photon)

    det_pulse = []
    k = 1
    while pulse.size and k <= max_channels:
        # Coupler pass: exit toward the detector, stay in the loop, or be
        # lost to excess loss.  Ports differ between the first pass (input
        # port 1) and all later passes (loop port 2).
        p_det = params.theta * (c.t13 if k == 1 else c.t23)
        p_loop = params.theta * (c.t14 if k == 1 else c.t24)
        u = uniform(pulse)
        to_det = u < p_det
        exiting = np.compress(to_det, pulse)
        looping = np.compress(~to_det & (u < p_det + p_loop), pulse)
        hit = np.compress(uniform(exiting) < params.eta, exiting)
        # Each pass keeps the pulse order of pulse_of_photon, so photons of
        # one pulse in this channel are adjacent.
        first = np.ones(hit.size, dtype=bool)
        np.not_equal(hit[1:], hit[:-1], out=first[1:])
        det_pulse.append(hit[first])
        pulse = np.compress(uniform(looping) < params.tl, looping)
        k += 1

    return (np.concatenate(det_pulse or [pulse]),
            np.repeat(np.arange(1, k, dtype=np.int32), [a.size for a in det_pulse]))


def _resolve_flagged(pulse, time, origin, ap_flag, ap_delay, dead_time: float):
    """Dead time and afterpulses for candidate clicks in any order, tied
    candidates going in their given order (see the module docstring).  An
    event registers if the event it depends on did and it does not fall
    within the dead time of the pulse's last registered click; afterpulses
    never chain.  Returns the registered (pulse, time, origin), sorted by
    (pulse, time)."""
    src = np.flatnonzero(ap_flag)  # the candidate each afterpulse needs
    n, size = pulse.size, pulse.size + src.size
    pulse = np.concatenate((pulse, pulse[src]))
    time = np.concatenate((time, time[src] + ap_delay[src]))
    # Stable, so tied candidates keep their given order; a candidate goes
    # before an afterpulse at the same time.
    order = np.lexsort((np.arange(size) >= n, time, pulse))
    pulse, time = pulse[order], time[order]
    origin = np.r_[origin, np.full(src.size, ORIGIN_AFTERPULSE, origin.dtype)][order]
    # Sorted position of the event each event needs: a candidate needs the
    # always-registered sentinel at position ``size``.
    at = np.empty(size + 1, np.intp)
    at[order], at[size] = np.arange(size), size
    needs = at[np.r_[np.full(n, size), src][order]]
    registered = np.arange(size + 1) == size

    ptr = np.flatnonzero(np.diff(pulse, prepend=-1))  # each pulse's next event
    end = np.r_[ptr[1:], size]
    last = np.full(ptr.size, -np.inf)  # each pulse's last registered click
    while ptr.size:
        t = time[ptr]
        ok = registered[needs[ptr]] & ~(t - last < dead_time)
        registered[ptr] = ok
        np.copyto(last, t, where=ok)
        ptr += 1
        live = ptr < end
        if not live.all():
            ptr, end, last = ptr[live], end[live], last[live]
    return tuple(a[registered[:size]] for a in (pulse, time, origin))


def _simulate_block(source: PhotonSource, params: DeviceParams,
                    settings: SimSettings, seed: int, first_batch: int,
                    sizes: list[int]):
    """Batches first_batch, first_batch + 1, ... of ``sizes`` pulses in lock
    step: each makes its own stream's draws in order, all else runs once over
    the block, whose pulse b * BATCH_SIZE + i is batch b's pulse i."""
    rngs = [_batch_rng(seed, first_batch + b) for b in range(len(sizes))]
    edges = BATCH_SIZE * np.arange(len(sizes) + 1, dtype=np.int32)

    def fill(pulse, method=np.random.Generator.random):
        out = np.empty(pulse.size)  # each batch fills its slice of ``pulse``
        cut = np.searchsorted(pulse, edges)
        for rng, lo, hi in zip(rngs, cut[:-1], cut[1:]):
            method(rng, out=out[lo:hi])
        return out

    n_photons = np.concatenate([_draw_photon_numbers(source, rng, n)
                                for rng, n in zip(rngs, sizes)])
    index = np.arange(n_photons.size, dtype=np.int32)
    ph_pulse, ph_channel = _route_photons(params, fill, np.repeat(index, n_photons),
                                          settings.max_channels)

    # Passes come out in channel order, so this sorts by (pulse, channel).
    order = np.argsort(ph_pulse, kind="stable")
    ph_pulse, ph_channel = ph_pulse[order], ph_channel[order]
    ph_time = settings.time_offset_ns + (ph_channel - 1) * params.loop_delay_ns

    # Dark counts: per-bin probability, uniform over the acquisition window
    # (rng.uniform(0, w) draws w * rng.random(), bit for bit).
    dark_counts = np.concatenate([rng.binomial(settings.n_bins, params.dark_prob_per_bin, n)
                                  for rng, n in zip(rngs, sizes)])
    dk_pulse = np.repeat(index, dark_counts)
    dk_time = settings.n_bins * params.bin_width_ns * fill(dk_pulse)

    # Afterpulse pre-draws for every candidate click.  Flags only take
    # effect if the candidate actually registers.  The exponential draw is
    # scale * standard_exponential, bit for bit.
    exponential = np.random.Generator.standard_exponential
    ph_ap_flag = fill(ph_pulse) < params.afterpulse_prob
    ph_ap_delay = params.afterpulse_decay_ns * fill(ph_pulse, exponential)
    dk_ap_flag = fill(dk_pulse) < params.afterpulse_prob
    dk_ap_delay = params.afterpulse_decay_ns * fill(dk_pulse, exponential)

    # Fast path: pulses with neither dark counts nor afterpulse candidates.
    # Same-pulse photon clicks sit one loop delay apart, and the loop delay
    # exceeds the dead time by construction, so they all register.
    flagged = np.zeros(index.size, dtype=bool)
    flagged[dk_pulse] = True
    flagged[np.compress(ph_ap_flag, ph_pulse)] = True

    slow = flagged[ph_pulse]
    fast = ~slow
    pulse, time, origin = ph_pulse[fast], ph_time[fast], ph_channel[fast]
    if flagged.any():
        dk_origin = np.full(dk_pulse.size, ORIGIN_DARK, dtype=np.int32)
        cand = [np.concatenate((np.compress(slow, ph), dk)) for ph, dk in (
            (ph_pulse, dk_pulse), (ph_time, dk_time), (ph_channel, dk_origin),
            (ph_ap_flag, dk_ap_flag), (ph_ap_delay, dk_ap_delay))]
        resolved = _resolve_flagged(*cand, params.dead_time_ns)
        pulse, time, origin = (np.concatenate(pair) for pair in zip(
            (pulse, time, origin), resolved))

    # Fast and flagged pulses are disjoint, and each pulse's rows are in
    # strictly increasing time, so a stable sort by pulse alone gives the
    # (pulse, time, origin) order.
    order = np.argsort(pulse, kind="stable")
    return (np.add(pulse[order], first_batch * BATCH_SIZE, dtype=np.int64),
            time[order], origin[order], n_photons)


def _batch_worker(args):
    return _simulate_block(*args)


def _simulations(runs, params: DeviceParams, n_trials: int, workers: int = 1,
                 settings: SimSettings | None = None):
    """Yield the :class:`SimulationResult` of each (source, seed) in
    ``runs`` in turn.  The blocks of all runs form one job list, checked
    before any runs, so ``workers`` > 1 starts a single process pool."""
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    settings = settings or SimSettings()
    n_batches = (n_trials + BATCH_SIZE - 1) // BATCH_SIZE
    sizes = [min(BATCH_SIZE, n_trials - b * BATCH_SIZE) for b in range(n_batches)]
    if any(seed < 0 for _, seed in runs):
        raise ParameterError("seed must be a nonnegative integer")
    # Batches per block: about _BLOCK_ROWS expected pulses plus photons, or
    # one batch.  Raises DomainError above MAX_PHOTONS, before any run.
    means = [s.pmf_array() @ np.arange(s.n_max + 1) for s, _ in runs]
    per_block = [max(1, int(_BLOCK_ROWS // (BATCH_SIZE * (1 + m)))) for m in means]
    jobs = [(source, params, settings, seed, b, sizes[b:b + per])
            for (source, seed), per in zip(runs, per_block)
            for b in range(0, n_batches, per)]
    with ExitStack() as stack:
        blocks = map(_batch_worker, jobs)  # lazy: one block at a time
        if workers > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            blocks = pool.map(_batch_worker, jobs, chunksize=1)
        for (_, seed), per in zip(runs, per_block):
            parts = list(zip(*islice(blocks, -(-n_batches // per))))
            # One column at a time, freeing its parts before the next.
            pulse, time, origin, n_photons = (np.concatenate(parts.pop(0))
                                              for _ in range(4))
            yield SimulationResult(params=params, settings=settings, seed=seed,
                                   n_trials=n_trials, pulse=pulse, time_ns=time,
                                   origin=origin, n_photons=n_photons)


def run_simulation(source: PhotonSource, params: DeviceParams,
                   n_trials: int, seed: int, workers: int = 1,
                   settings: SimSettings | None = None) -> SimulationResult:
    """Simulate ``n_trials`` pulses; deterministic for a given seed and
    settings, independent of ``workers``."""
    result, = _simulations([(source, seed)], params, n_trials, workers, settings)
    return result


def accumulate_histogram(result: SimulationResult) -> TofHistogram:
    """Bin all registered clicks into the acquisition window.

    Clicks beyond the window are tallied as overflow, never silently
    dropped.
    """
    bw = result.params.bin_width_ns
    n_bins = result.settings.n_bins
    bins = np.floor(result.time_ns / bw).astype(np.int64)
    in_window = (bins >= 0) & (bins < n_bins)
    counts = np.bincount(bins[in_window], minlength=n_bins)
    return TofHistogram(bin_width_ns=bw, counts=counts,
                        n_trials=result.n_trials,
                        overflow=int((~in_window).sum()))


@dataclass(frozen=True)
class EmpiricalClickDistribution:
    """Click-count pmf estimated from simulated pulses, with standard errors."""

    distribution: ClickDistribution
    stderr: np.ndarray
    n_trials: int

    @property
    def p0(self) -> float:
        return self.distribution.p0

    @property
    def p1(self) -> float:
        return self.distribution.p1

    @property
    def pM(self) -> float:
        return self.distribution.pM


def window_clicks(result: SimulationResult,
                  n_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """(pulse, channel) of each distinct accepted-window click.

    A click counts for channel k <= n_channels when it falls within the
    window of width q * loop_delay centered on that channel's arrival time,
    so noise clicks can masquerade as channel detections.  ``result`` is
    time-ordered within a pulse, so clicks sharing a window are adjacent
    and count once.
    """
    p = result.params
    s = result.settings
    half_width = 0.5 * p.duty_factor_q * p.loop_delay_ns
    k = (result.time_ns - s.time_offset_ns) / p.loop_delay_ns
    np.rint(k, out=k)  # nearest channel - 1; float until the rows are kept
    dist = k * p.loop_delay_ns + s.time_offset_ns - result.time_ns
    in_window = (np.abs(dist, out=dist) <= half_width) & (k >= 0) & (k < n_channels)
    del dist
    pulse, channel = result.pulse[in_window], k[in_window].astype(np.int64) + 1
    first = np.ones(pulse.size, dtype=bool)
    first[1:] = (pulse[1:] != pulse[:-1]) | (channel[1:] != channel[:-1])
    return pulse[first], channel[first]


def empirical_click_distribution(result: SimulationResult,
                                 n_channels: int = 15) -> EmpiricalClickDistribution:
    """Pmf of the number of :func:`window_clicks` per pulse."""
    pulse, _ = window_clicks(result, n_channels)
    clicks_per_pulse = np.bincount(pulse, minlength=result.n_trials)
    pmf_counts = np.bincount(clicks_per_pulse, minlength=n_channels + 1)
    pmf = pmf_counts / float(result.n_trials)
    stderr = np.sqrt(pmf * (1.0 - pmf) / result.n_trials)
    return EmpiricalClickDistribution(distribution=ClickDistribution(pmf),
                                      stderr=stderr, n_trials=result.n_trials)


def histogram_to_csv(hist: TofHistogram, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_index", "time_ns", "count", "probability"])
        for i, count in enumerate(hist.counts):
            writer.writerow([i, f"{i * hist.bin_width_ns:.6g}", int(count),
                             repr(float(count / hist.n_trials))])


def histogram_to_json(hist: TofHistogram, path, *, seed: int | None = None,
                      params: DeviceParams | None = None) -> None:
    meta = {
        "bin_width_ns": hist.bin_width_ns,
        "n_bins": hist.n_bins,
        "n_trials": hist.n_trials,
        "overflow": hist.overflow,
        "seed": seed,
    }
    if params is not None:
        meta["params"] = asdict(params)
    payload = {"meta": meta, "counts": [int(c) for c in hist.counts]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
