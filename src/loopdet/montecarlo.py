"""Stochastic pulse-by-pulse simulation of the physical loop detector.

Photons are routed pass-by-pass through the coupler and delay loop on the
physical coefficients, one uniform variate per photon per pass picking a
click, another pass or loss (never sampled from the analytic channel
profile, so the analytic model is validated independently).  Detector
imperfections are applied on top: photons arriving in the same channel
merge into one click, the dead time paralyzes the detector, dark counts
appear uniformly over the acquisition window, and every registered click
may trigger at most one afterpulse at an exponentially distributed delay
(suppressed while the detector is dead), its flag and delay from one variate.
A pass takes its live photons in slices of _CHUNK_ROWS rows, each batch
drawing its variates in row order, and writes each slice's survivors over
the front of the photons' pulse array: a block holds about 4 bytes per
photon, and the slicing changes no draw.

Pulses without noise candidates register every channel click.  The other
pulses' candidates and afterpulses are sorted once by (pulse, time), a
candidate before an afterpulse at the same time, and swept in array passes,
one event per pulse per pass; an afterpulse needs its candidate.  A block
hands both sets to a reducer where it is simulated: run_simulation's sorts
the events once by pulse, and the herald table's only counts pulses.
run_simulation builds its result as the blocks arrive, keeping 8 bytes per
click until the last; the histogram and click pmf read it in _CHUNK_ROWS slices.

Reproducibility contract: trials are processed in fixed-size batches and
batch b draws from PCG64 child b of the seed's SeedSequence, so results are
bit-identical for any worker count.  A batch's Poisson photon numbers are
one Poisson(mu * size) total spread uniformly over its pulses (exactly size
independent Poisson(mu) counts).  Batches are the unit of the random stream
only: a block of consecutive batches is simulated in lock step, each batch
filling its slice of every draw from its own stream, and how batches are
grouped into blocks changes no output byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .clickstats import ACCEPT_RULES, ClickDistribution, PhotonSource, _check_photons
from .device import DeviceParams
from .errors import (CHANNELS, NONNEGATIVE, POSITIVE_INT, SEED, UNIT, DomainError,
                     ParameterError, check, check_fields, declared)

ORIGIN_DARK = 0
ORIGIN_AFTERPULSE = -1

#: Fixed batch size; part of the reproducibility contract (results depend on
#: it, so it is a constant rather than a tuning knob).
BATCH_SIZE = 8192

#: Expected rows (pulses plus photons) of a block of batches simulated in
#: lock step: it amortises per-call cost, changes no draw, and keeps a block
#: no larger than the largest single batch.
_BLOCK_ROWS = 2 ** 17
#: Rows of a routing pass taken at once (256 KB of variates); changes no draw.
_CHUNK_ROWS = 2 ** 15

#: Largest time-of-flight window in bins (a 16-bit histogram), checked as a run starts.
MAX_BINS = 2 ** 16
#: Largest Monte Carlo run in pulses: 524,288 batches of 8,192, checked before
#: the run's batch and job lists are built.
MAX_TRIALS = 2 ** 32


@dataclass(frozen=True)
class SimSettings:
    """Acquisition-window settings of the simulated time-of-flight recorder."""

    time_offset_ns: float = declared(NONNEGATIVE, 100.0)  # arrival time of channel 1
    n_bins: int = declared(POSITIVE_INT, 1024)
    max_channels: int = declared(POSITIVE_INT, 512)  # photons looping beyond it are dropped

    __post_init__ = check_fields  # no rule joins these fields


@dataclass(frozen=True)
class SimulationResult:
    """One row per registered click, sorted by (pulse, time, origin); a row of
    origin k >= 1 has time_ns == time_offset_ns + (k - 1.0) * loop_delay_ns."""

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
    check("p1", p1, UNIT)
    cm = params.afterpulse_prob * params.duty_factor_q
    return FalseClickBounds(cm_bound=cm, pm_bound=p1 * cm)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Spawn-key child, not list entropy: that zero-pads, so (3, 5) == (3 + 5 * 2**32, 0)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(batch_index,))))


def _draw_photon_numbers(source: PhotonSource, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    if source.kind == "poissonian":
        total = rng.poisson(source.mu * size)
        return np.bincount(rng.integers(size, size=total), minlength=size)
    if source.kind == "fock":
        return np.full(size, source.n, dtype=np.int64)
    return rng.choice(source.pmf.size, size=size, p=source.pmf)


def _route_photons(params: DeviceParams, uniform, pulse_of_photon: np.ndarray,
                   max_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Pass-by-pass routing of every photon; returns (pulse, channel) of
    each channel click, in channel order, photons of one pulse in one
    channel merged into one avalanche.  Each pass draws one variate u per
    live photon: u < p_det is a click in channel k, the next p_loop reaches
    pass k + 1, the rest is lost.  Pass 1 enters port 1 through t0, later
    passes port 2.  ``uniform(a)`` draws one variate per row of the
    pulse-sorted ``a``.  Consumes ``pulse_of_photon``: each pass writes its
    survivors over its front, one slice of _CHUNK_ROWS rows at a time."""
    c, pulse, reach = params.coupler, pulse_of_photon, params.t0
    det_pulse, det_channel = [], []
    k = 1
    while pulse.size and k <= max_channels:
        t_exit, t_stay = (c.t13, c.t14) if k == 1 else (c.t23, c.t24)
        p_det = reach * params.theta * t_exit * params.eta
        p_loop = reach * params.theta * t_stay * params.tl
        live, last = 0, -1  # survivors so far, and the pass's last hit pulse
        for lo in range(0, pulse.size, _CHUNK_ROWS):
            rows = pulse[lo:lo + _CHUNK_ROWS]
            u = uniform(rows)
            to_det = u < p_det
            # np.compress beats a boolean index on numpy 2.4 unless the mask is nearly all true.
            hit = np.compress(to_det, rows)
            # Each pass keeps the pulse order of pulse_of_photon, so photons of
            # one pulse in this channel are adjacent, across slices too.
            det_pulse.append(hit[hit != np.concatenate(([last], hit[:-1]))])
            det_channel.append(k)
            last = hit[-1] if hit.size else last
            kept = np.compress(~to_det & (u < p_det + p_loop), rows)
            pulse[live:live + kept.size] = kept
            live += kept.size
        pulse = pulse[:live]
        reach = 1.0
        k += 1

    return (np.concatenate(det_pulse or [pulse]),
            np.repeat(np.array(det_channel, np.int32), [a.size for a in det_pulse]))


def _click_time(params: DeviceParams, settings: SimSettings, channel):
    return settings.time_offset_ns + (channel - 1.0) * params.loop_delay_ns


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


def _simulate_block(reduce, source: PhotonSource, params: DeviceParams,
                    settings: SimSettings, seed: int, first_batch: int,
                    sizes: list[int]):
    """Batches first_batch, first_batch + 1, ... of ``sizes`` pulses in lock
    step: each makes its own stream's draws in order, all else runs once over
    the block, whose pulse b * BATCH_SIZE + i is batch b's pulse i.  Returns
    ``reduce(params, settings, n_photons, fast, resolved)``: the block-local
    (pulse, channel) of the channel-major clicks of pulses without noise candidates,
    and the other pulses' registered clicks' (pulse, time, origin), by (pulse, time)."""
    rngs = [_batch_rng(seed, first_batch + b) for b in range(len(sizes))]
    edges = BATCH_SIZE * np.arange(len(sizes) + 1, dtype=np.int32)

    def fill(pulse):
        out = np.empty(pulse.size)  # each batch fills its slice of ``pulse``
        cut = np.searchsorted(pulse, edges)
        for rng, lo, hi in zip(rngs, cut[:-1], cut[1:]):
            rng.random(out=out[lo:hi])
        return out

    n_photons = np.concatenate([_draw_photon_numbers(source, rng, n)
                                for rng, n in zip(rngs, sizes)])
    index = np.arange(n_photons.size, dtype=np.int32)
    ph_pulse, ph_channel = _route_photons(params, fill, np.repeat(index, n_photons),
                                          settings.max_channels)

    # Dark counts: per-bin probability, uniform over the acquisition window
    # (rng.uniform(0, w) draws w * rng.random(), bit for bit).
    dark_counts = np.concatenate([rng.binomial(settings.n_bins, params.dark_prob_per_bin, n)
                                  for rng, n in zip(rngs, sizes)])
    dk_pulse = np.repeat(index, dark_counts)
    dk_time = settings.n_bins * params.bin_width_ns * fill(dk_pulse)

    # Afterpulse flag u < p_ap per candidate click, in (pulse, channel) order,
    # which needs only the sorted pulses; given the flag, u / p_ap is uniform.
    p_ap, tau = params.afterpulse_prob, params.afterpulse_decay_ns
    by_pulse = np.sort(ph_pulse)
    ph_u, dk_u = fill(by_pulse), fill(dk_pulse)

    # Fast path: pulses with neither dark counts nor afterpulse candidates.
    # Same-pulse photon clicks sit one loop delay apart, and the loop delay
    # exceeds the dead time by construction, so they all register.
    flagged = np.zeros(index.size, dtype=bool)
    flagged[dk_pulse] = True
    flagged[np.compress(ph_u < p_ap, by_pulse)] = True
    slow = flagged[ph_pulse]
    fast, cand = ([np.compress(m, a) for a in (ph_pulse, ph_channel)] for m in (~slow, slow))

    # Candidates: the flagged pulses' clicks in (pulse, channel) order, as
    # their u were drawn, then the dark counts.
    order = np.argsort(cand[0], kind="stable")
    cand = (cand[0][order], _click_time(params, settings, cand[1][order]), cand[1][order])
    dark = (dk_pulse, dk_time, np.full(dk_pulse.size, ORIGIN_DARK, np.int32))
    u = np.concatenate((np.compress(flagged[by_pulse], ph_u), dk_u))
    ap_flag = u < p_ap
    u[ap_flag] = -tau * np.log1p(-u[ap_flag] / p_ap)  # inverted to the delay
    resolved = _resolve_flagged(*(np.concatenate(pair) for pair in zip(cand, dark)),
                                ap_flag, u, params.dead_time_ns)
    return reduce(params, settings, n_photons, fast, resolved)


def _keep_events(params, settings, n_photons, fast, resolved):
    """``run_simulation``'s reducer: a stable sort by pulse orders the disjoint fast and
    flagged pulses' time-ordered rows; the noise rows' times follow in that order."""
    pulse, origin = (np.concatenate(pair) for pair in zip(fast, resolved[::2]))
    order = np.argsort(pulse, kind="stable")
    return pulse[order], origin[order], np.compress(resolved[2] < 1, resolved[1]), n_photons


def _batch_worker(args):
    return _simulate_block(*args)


def _check_times(params: DeviceParams, settings: SimSettings) -> None:
    """At most MAX_BINS bins, and event times that resolve the engine's time scales.

    The latest event time is the latest arrival or window end plus 37 decay
    times, above any afterpulse delay -log1p(-u / p_ap) <= 53 ln 2.  The float
    spacing there must be at most 2**-20 of the finest scale the engine compares
    times against: the dead time, the bin width and, unless q = 0, the window
    half-width q * loop_delay / 2.  A time then errs by about a millionth of
    that scale, so rounding moves an event across a dead-time, window or bin
    edge about a millionth of the time, below the 2**-16 standard error of
    even a MAX_TRIALS run.  An infinite time has a NaN spacing and fails too.
    """
    if settings.n_bins > MAX_BINS:
        raise DomainError(f"n_bins = {settings.n_bins} exceeds MAX_BINS = {MAX_BINS}")
    try:
        latest = float(max(settings.time_offset_ns + settings.max_channels * params.loop_delay_ns,
                           settings.n_bins * params.bin_width_ns)
                       + 37.0 * params.afterpulse_decay_ns)
    except OverflowError:  # an int beyond every float
        latest = np.inf
    scales = [params.dead_time_ns, params.bin_width_ns]
    if params.duty_factor_q > 0:  # at q = 0 no window has a width to resolve
        scales.append(params.duty_factor_q * params.loop_delay_ns / 2)
    finest, spacing = float(min(scales)), np.spacing(latest)
    if not spacing <= 2.0 ** -20 * finest:
        raise ParameterError(f"event times reach {latest} ns, where floats lie {spacing} ns "
                             f"apart: they do not resolve the {finest} ns time scale")


def _reduced_runs(runs, params: DeviceParams, n_trials: int, workers: int,
                  settings: SimSettings, reduce):
    """Yields (i, ``reduce``'s result) over the blocks of runs[i] = (source, seed), in
    order, as they arrive.  The blocks of all runs form one job list, checked before
    any runs, so ``workers`` > 1 starts one pool of at most one process per CPU and
    job, and a worker returns what ``reduce`` keeps."""
    if check("n_trials", n_trials, POSITIVE_INT) > MAX_TRIALS:
        raise DomainError(f"n_trials = {n_trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
    check("workers", workers, POSITIVE_INT)
    for _, seed in runs:
        check("seed", seed, SEED)
    _check_times(params, settings)
    n_batches = (n_trials + BATCH_SIZE - 1) // BATCH_SIZE
    sizes = [min(BATCH_SIZE, n_trials - b * BATCH_SIZE) for b in range(n_batches)]
    # Batches per block: about _BLOCK_ROWS expected pulses plus photons, or
    # one batch.  Raises DomainError above MAX_PHOTONS, before any run.
    means = [s.pmf_array() @ np.arange(s.n_max + 1) for s, _ in runs]
    per_block = [max(1, int(_BLOCK_ROWS // (BATCH_SIZE * (1 + m)))) for m in means]
    run_of, jobs = zip(*[(i, (reduce, source, params, settings, seed, b, sizes[b:b + per]))
                         for i, ((source, seed), per) in enumerate(zip(runs, per_block))
                         for b in range(0, n_batches, per)])
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs),
                                                 os.cpu_count() or 1)) as pool:
            yield from zip(run_of, pool.map(_batch_worker, jobs, chunksize=1))
    else:
        yield from zip(run_of, map(_batch_worker, jobs))


def run_simulation(source: PhotonSource, params: DeviceParams,
                   n_trials: int, seed: int, workers: int = 1,
                   settings: SimSettings | None = None) -> SimulationResult:
    """Simulate ``n_trials`` pulses; deterministic for a given seed and
    settings, independent of ``workers``."""
    settings = settings or SimSettings()
    n_photons, blocks, start = None, [], 0  # per block: first pulse, pulses, origins, noise times
    for _, (*kept, photons) in _reduced_runs(
            [(source, seed)], params, n_trials, workers, settings, _keep_events):
        if n_photons is None:  # at the first block, so that a refused run allocates none
            n_photons = np.empty(n_trials, np.int64)
        n_photons[start:start + photons.size] = photons
        blocks.append([start, *kept])
        start += photons.size
    pulse, at = np.empty(sum(b[1].size for b in blocks), np.int64), 0
    for b in blocks:  # each block's pulses shifted into place, then freed
        np.add(b[1], b[0], out=pulse[at:at + b[1].size], dtype=np.int64)
        at, b[1] = at + b[1].size, None
    origin, noise_time = (np.concatenate([b.pop(2) for b in blocks]) for _ in range(2))
    time = _click_time(params, settings, origin)  # each time once; the noise's in place
    np.place(time, origin < 1, noise_time)
    return SimulationResult(params=params, settings=settings, seed=seed,
                            n_trials=n_trials, pulse=pulse, time_ns=time,
                            origin=origin, n_photons=n_photons)


def accumulate_histogram(result: SimulationResult) -> TofHistogram:
    """Bin all registered clicks into the acquisition window.

    Clicks beyond the window are tallied as overflow, never silently
    dropped.  Channel clicks are binned per channel, noise clicks singly.
    """
    p, s, origin = result.params, result.settings, result.origin
    per_origin = np.zeros(origin.max(initial=0) - ORIGIN_AFTERPULSE + 1, np.int64)
    for lo in range(0, origin.size, _CHUNK_ROWS):
        per_origin += np.bincount(origin[lo:lo + _CHUNK_ROWS] - ORIGIN_AFTERPULSE,
                                  minlength=per_origin.size)
    per_channel = per_origin[2:]
    time = np.r_[_click_time(p, s, np.arange(1, per_channel.size + 1)),
                 np.compress(origin < 1, result.time_ns)]
    weight = np.r_[per_channel, np.ones(time.size - per_channel.size, np.int64)]
    with np.errstate(over="ignore"):  # a quotient beyond every float is overflow too
        bins = time / p.bin_width_ns
    in_window = (bins >= 0) & (bins < s.n_bins)  # before the cast, which sees no late time
    counts = np.bincount(bins[in_window].astype(np.int64), weight[in_window], s.n_bins)
    return TofHistogram(bin_width_ns=p.bin_width_ns, counts=counts.astype(np.int64),
                        n_trials=result.n_trials, overflow=int(weight[~in_window].sum()))


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

    A channel click counts for its channel k <= n_channels.  A noise click
    counts for channel k when it falls within the window of width q *
    loop_delay centered on k's arrival time, so it can masquerade as one.
    """
    check("n_channels", n_channels, CHANNELS)
    return _window_clicks(result.params, result.settings, result.pulse, result.time_ns,
                          result.origin, n_channels)


def _window_clicks(p: DeviceParams, s: SimSettings, pulse, time, origin, n_channels: int):
    """``window_clicks`` of rows time-ordered within a pulse (channel clicks by origin,
    noise by time), so that clicks sharing a window are adjacent and count once."""
    noise = np.flatnonzero(origin < 1)
    k = np.rint((time[noise] - s.time_offset_ns) / p.loop_delay_ns)  # nearest channel - 1
    dist = np.abs(k * p.loop_delay_ns + s.time_offset_ns - time[noise])
    hit = (dist <= 0.5 * p.duty_factor_q * p.loop_delay_ns) & (k >= 0) & (k < n_channels)
    channel = np.maximum(origin, 0)  # a noise click outside every window is in none
    channel[noise[hit]] = k[hit] + 1
    first = (channel >= 1) & (channel <= n_channels)
    first[1:] &= (pulse[1:] != pulse[:-1]) | (channel[1:] != channel[:-1])
    return np.compress(first, pulse), np.compress(first, channel)


def _window_tally(n_channels, params, settings, n_photons, fast, resolved):
    """A block's counts of pulses with no window click, with exactly one, and
    with exactly one, in channel 1: the herald's reducer.  Fast clicks sit on
    their window centres, so only the resolved clicks go through the windows."""
    keep = fast[1] <= n_channels
    pulse, channel = (np.concatenate((np.compress(keep, a), w)) for a, w in zip(
        fast, _window_clicks(params, settings, *resolved, n_channels)))
    clicks = np.bincount(pulse, minlength=n_photons.size)
    # A pulse has at most one window click per channel.
    return np.array([np.count_nonzero(clicks == 0), np.count_nonzero(clicks == 1),
                     np.count_nonzero(clicks[pulse[channel == 1]] == 1)])


def herald_acceptance_from_mc(params: DeviceParams, n_max: int,
                              rule: str, n_trials: int, seed: int,
                              n_channels: int = 15,
                              workers: int = 1) -> np.ndarray:
    """Empirical P(accept | n) for n = 0..n_max from noisy herald runs.

    Used instead of the analytic Fock statistics when dark counts and
    afterpulses in the herald arm should be taken into account.  Photon
    number n runs on seed + n; the batches of all n share one job list, and
    each block is tallied where it is simulated.
    """
    if rule not in ACCEPT_RULES:
        raise ParameterError(f"unknown accept rule {rule!r}")
    n_max = _check_photons(n_max, f"n_max = {n_max}")  # before any run, not at n_max
    check("n_channels", n_channels, CHANNELS)
    check("seed", seed, SEED)  # runs use seed + n, which would take True as 1
    runs = [(PhotonSource.fock(n), seed + n) for n in range(n_max + 1)]
    counts = np.zeros((len(runs), 3), np.int64)
    for n, block in _reduced_runs(runs, params, n_trials, workers, SimSettings(),
                                  partial(_window_tally, n_channels)):
        counts[n] += block
    zero, one, first = counts.T
    # one-or-more as 1 - P(0 clicks) rounds as the empirical 1 - p0 does
    return {"exactly-one": one / n_trials, "one-or-more": 1.0 - zero / n_trials,
            "first-channel-only": first / n_trials}[rule]


def empirical_click_distribution(result: SimulationResult,
                                 n_channels: int = 15) -> EmpiricalClickDistribution:
    """Pmf of the number of :func:`window_clicks` per pulse, from their pulse runs,
    counted over slices of about _CHUNK_ROWS rows cut at pulse boundaries."""
    check("n_channels", n_channels, CHANNELS)
    r = result
    cut = np.r_[0, np.searchsorted(r.pulse, r.pulse[_CHUNK_ROWS::_CHUNK_ROWS]), r.pulse.size]
    pmf_counts = np.zeros(n_channels + 1, np.int64)
    for lo, hi in zip(cut[:-1], cut[1:]):
        pulse, _ = _window_clicks(r.params, r.settings, r.pulse[lo:hi], r.time_ns[lo:hi],
                                  r.origin[lo:hi], n_channels)
        edge = np.ones(pulse.size + 1, dtype=bool)  # each run's start, and the end
        np.not_equal(pulse[1:], pulse[:-1], out=edge[1:-1])
        pmf_counts += np.bincount(np.diff(np.flatnonzero(edge)), minlength=n_channels + 1)
    pmf_counts[0] = result.n_trials - pmf_counts.sum()  # the pulses in no run
    pmf = pmf_counts / float(result.n_trials)
    stderr = np.sqrt(pmf * (1.0 - pmf) / result.n_trials)
    return EmpiricalClickDistribution(distribution=ClickDistribution(pmf),
                                      stderr=stderr, n_trials=result.n_trials)


def histogram_to_json(hist: TofHistogram, path, *, seed: int, params: DeviceParams) -> None:
    meta = {f.name: getattr(hist, f.name) for f in fields(hist) if f.name != "counts"}
    meta.update(n_bins=hist.n_bins, seed=seed, params=asdict(params))
    payload = {"meta": meta, "counts": [int(c) for c in hist.counts]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
