"""Stochastic pulse-by-pulse simulation of the physical loop detector.

Photons are routed pass-by-pass through the coupler and delay loop (rather
than sampled from the analytic channel profile, so the analytic model is
validated independently).  Detector imperfections are applied on top:
photons arriving in the same channel merge into one click, the dead time
paralyzes the detector, dark counts appear uniformly over the acquisition
window, and every registered click may trigger at most one afterpulse at an
exponentially distributed delay (suppressed while the detector is dead).

Pulses without noise candidates register every channel click.  The others
are resolved together in array passes, one event per pulse per pass: the
earlier of the pulse's next time-sorted candidate and its earliest pending
afterpulse, a candidate winning a tie and afterpulses going in the order
they were created.

Reproducibility contract: trials are processed in fixed-size batches and
each batch owns a counter-based random substream keyed by (seed, batch
index), so results are bit-identical for any worker count.
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


def _route_photons(params: DeviceParams, rng: np.random.Generator,
                   pulse_of_photon: np.ndarray,
                   max_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Pass-by-pass routing of every photon; returns (pulse, channel) of
    each channel click, in channel order.  Photons of one pulse arriving in
    one channel merge into one click: the detector produces a single
    avalanche regardless of multiplicity."""
    c = params.coupler
    # np.compress: several times faster than a boolean index on numpy 2.4.
    pulse = np.compress(rng.random(pulse_of_photon.size) < params.t0, pulse_of_photon)

    det_pulse = []
    k = 1
    while pulse.size and k <= max_channels:
        # Coupler pass: exit toward the detector, stay in the loop, or be
        # lost to excess loss.  Ports differ between the first pass (input
        # port 1) and all later passes (loop port 2).
        p_det = params.theta * (c.t13 if k == 1 else c.t23)
        p_loop = params.theta * (c.t14 if k == 1 else c.t24)
        u = rng.random(pulse.size)
        to_det = u < p_det
        exiting = np.compress(to_det, pulse)
        looping = np.compress(~to_det & (u < p_det + p_loop), pulse)
        # Detection and loop survival in one draw: a generator fills doubles
        # one after another, so this equals two consecutive draws.
        v = rng.random(exiting.size + looping.size)
        hit = np.compress(v[:exiting.size] < params.eta, exiting)
        # Each pass keeps the pulse order of pulse_of_photon, so photons of
        # one pulse in this channel are adjacent.
        det_pulse.append(np.compress(np.diff(hit, prepend=-1) != 0, hit))
        pulse = np.compress(v[exiting.size:] < params.tl, looping)
        k += 1

    return (np.concatenate(det_pulse or [pulse]),
            np.repeat(np.arange(1, k, dtype=np.int32), [a.size for a in det_pulse]))


def _first_of_runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal consecutive (a, b)."""
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return first


def _resolve_flagged(pulse, time, origin, ap_flag, ap_delay, dead_time: float):
    """Dead time and afterpulses for candidate clicks sorted by (pulse,
    time), one event per pulse per pass (see the module docstring).  An
    event registers unless it falls within the dead time of the pulse's
    last registered click; a registered candidate with its flag set adds a
    pending afterpulse, which never chains.  Returns the registered (pulse,
    time, origin), time-ordered within each pulse."""
    # One slot per candidate, and an inf sentinel after each pulse's last.
    head = np.r_[True, pulse[1:] != pulse[:-1]]
    rank = np.cumsum(head) - 1
    slot = np.arange(pulse.size) + rank
    t_c = np.full(pulse.size + rank[-1] + 1, np.inf)
    o_c, f_c, d_c = (np.zeros(t_c.size, a.dtype) for a in (origin, ap_flag, ap_delay))
    t_c[slot], o_c[slot], f_c[slot], d_c[slot] = time, origin, ap_flag, ap_delay

    pid = pulse[head]
    ptr = slot[head]  # slot of each pulse's next candidate
    last = np.full(pid.size, -np.inf)
    made = np.zeros(pid.size, np.intp)  # afterpulses created so far
    # Pending afterpulse times, one column per creation, inf when empty.
    pend = np.full((pid.size, max(1, np.bincount(rank[ap_flag]).max(initial=0))),
                   np.inf)
    out = []
    while pid.size:
        rows = np.arange(pid.size)
        col = pend.argmin(axis=1)  # first of equal times: created first
        t_cand, t_ap = t_c[ptr], pend[rows, col]
        is_cand = t_cand <= t_ap
        t = np.where(is_cand, t_cand, t_ap)
        ok = ~(t - last < dead_time)
        out.append((pid[ok], t[ok], np.where(is_cand, o_c[ptr], ORIGIN_AFTERPULSE)[ok]))
        last[ok] = t[ok]
        pend[rows[~is_cand], col[~is_cand]] = np.inf
        spawn = is_cand & ok & f_c[ptr]
        pend[rows[spawn], made[spawn]] = t[spawn] + d_c[ptr[spawn]]
        made += spawn
        ptr += is_cand
        busy = (t_c[ptr] < np.inf) | (pend.min(axis=1) < np.inf)
        if not busy.all():
            pid, ptr, last, made, pend = (a[busy] for a in (pid, ptr, last, made, pend))
    return tuple(np.concatenate(column) for column in zip(*out))


def _simulate_batch(source: PhotonSource, params: DeviceParams,
                    settings: SimSettings, rng: np.random.Generator,
                    n_pulses: int):
    window_ns = settings.n_bins * params.bin_width_ns

    n_photons = _draw_photon_numbers(source, rng, n_pulses)
    pulse_of_photon = np.repeat(np.arange(n_pulses, dtype=np.int32), n_photons)
    ph_pulse, ph_channel = _route_photons(params, rng, pulse_of_photon,
                                          settings.max_channels)

    # Passes come out in channel order, so this sorts by (pulse, channel).
    order = np.argsort(ph_pulse, kind="stable")
    ph_pulse, ph_channel = ph_pulse[order], ph_channel[order]
    ph_time = (settings.time_offset_ns
               + (ph_channel - 1) * params.loop_delay_ns)

    # Dark counts: per-bin probability, uniform over the acquisition window.
    dark_counts = rng.binomial(settings.n_bins, params.dark_prob_per_bin,
                               n_pulses)
    dk_pulse = np.repeat(np.arange(n_pulses, dtype=np.int32), dark_counts)
    dk_time = rng.uniform(0.0, window_ns, dk_pulse.size)

    # Afterpulse pre-draws for every candidate click.  Flags only take
    # effect if the candidate actually registers.
    ph_ap_flag = rng.random(ph_pulse.size) < params.afterpulse_prob
    ph_ap_delay = rng.exponential(params.afterpulse_decay_ns, ph_pulse.size)
    dk_ap_flag = rng.random(dk_pulse.size) < params.afterpulse_prob
    dk_ap_delay = rng.exponential(params.afterpulse_decay_ns, dk_pulse.size)

    # Fast path: pulses with neither dark counts nor afterpulse candidates.
    # Same-pulse photon clicks sit one loop delay apart, and the loop delay
    # exceeds the dead time by construction, so they all register.
    flagged = np.zeros(n_pulses, dtype=bool)
    flagged[dk_pulse] = True
    flagged[ph_pulse[ph_ap_flag]] = True

    fast = ~flagged[ph_pulse]
    pulse, time, origin = ph_pulse[fast], ph_time[fast], ph_channel[fast]
    if flagged.any():
        slow = ~fast
        cand = [np.concatenate(pair) for pair in (
            (ph_pulse[slow], dk_pulse), (ph_time[slow], dk_time),
            (ph_channel[slow], np.full(dk_pulse.size, ORIGIN_DARK, dtype=np.int32)),
            (ph_ap_flag[slow], dk_ap_flag), (ph_ap_delay[slow], dk_ap_delay))]
        order = np.lexsort((cand[1], cand[0]))
        resolved = _resolve_flagged(*(a[order] for a in cand), params.dead_time_ns)
        pulse, time, origin = (np.concatenate(pair) for pair in zip(
            (pulse, time, origin), resolved))

    # Fast and flagged pulses are disjoint, and each pulse's rows are in
    # strictly increasing time, so a stable sort by pulse alone gives the
    # (pulse, time, origin) order.
    order = np.argsort(pulse, kind="stable")
    return pulse[order].astype(np.int64), time[order], origin[order], n_photons


def _batch_worker(args):
    source, params, settings, seed, batch_index, n_pulses = args
    pulse, *rest = _simulate_batch(source, params, settings,
                                   _batch_rng(seed, batch_index), n_pulses)
    return (pulse + batch_index * BATCH_SIZE, *rest)


def _simulations(runs, params: DeviceParams, n_trials: int, workers: int = 1,
                 settings: SimSettings | None = None):
    """Yield the :class:`SimulationResult` of each (source, seed) in
    ``runs`` in turn.  The batches of all runs form one job list, checked
    before any runs, so ``workers`` > 1 starts a single process pool."""
    if n_trials < 1:
        raise ParameterError("n_trials must be >= 1")
    settings = settings or SimSettings()
    n_batches = (n_trials + BATCH_SIZE - 1) // BATCH_SIZE
    for source, seed in runs:
        if seed < 0:
            raise ParameterError("seed must be a nonnegative integer")
        source.n_max  # raises DomainError above MAX_PHOTONS
    jobs = [(source, params, settings, seed, b,
             min(BATCH_SIZE, n_trials - b * BATCH_SIZE))
            for source, seed in runs for b in range(n_batches)]
    with ExitStack() as stack:
        batches = map(_batch_worker, jobs)  # lazy: one batch at a time
        if workers > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            batches = pool.map(_batch_worker, jobs, chunksize=4)
        for _, seed in runs:
            pulse, time, origin, n_photons = (
                np.concatenate(a) for a in zip(*islice(batches, n_batches)))
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
    rel = (result.time_ns - s.time_offset_ns) / p.loop_delay_ns
    k_near = np.rint(rel).astype(np.int64) + 1
    center = s.time_offset_ns + (k_near - 1) * p.loop_delay_ns
    in_window = ((np.abs(result.time_ns - center) <= half_width)
                 & (k_near >= 1) & (k_near <= n_channels))
    pulse, channel = result.pulse[in_window], k_near[in_window]
    first = _first_of_runs(pulse, channel)
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
