"""Monte Carlo engine: agreement with the analytic model, noise behavior,
and the reproducibility contract."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopdet import (
    DeviceParams,
    CouplerSetting,
    PhotonSource,
    SimSettings,
    accumulate_histogram,
    channel_transmissions,
    empirical_click_distribution,
    false_cm_bound,
    poisson_click_distribution,
    reference_device,
    run_simulation,
    total_transmission,
)
from loopdet.clickstats import MAX_PHOTONS
from loopdet.montecarlo import (BATCH_SIZE, ORIGIN_AFTERPULSE, ORIGIN_DARK,
                                _resolve_flagged)
from loopdet.errors import DomainError, ParameterError


def noiseless(params):
    return DeviceParams(
        t0=params.t0, theta=params.theta, tl=params.tl, eta=params.eta,
        coupler=params.coupler, dark_prob_per_bin=0.0, afterpulse_prob=0.0)


@pytest.fixture(scope="module")
def quiet_run():
    params = noiseless(reference_device())
    return params, run_simulation(PhotonSource.poissonian(4.26), params,
                                  200_000, seed=11)


@pytest.fixture(scope="module")
def noisy_run():
    params = reference_device()
    return params, run_simulation(PhotonSource.poissonian(4.26), params,
                                  200_000, seed=11)


class TestAgainstAnalytics:
    def test_channel_occupation(self, quiet_run):
        # Per-channel click rates from raw routing must match the analytic
        # transmissions within counting noise.
        params, result = quiet_run
        profile = channel_transmissions(params, 8)
        mu, n = 4.26, result.n_trials
        expected = -np.expm1(-mu * profile.h)  # thinned-Poisson click prob
        for k in range(1, 9):
            rate = np.unique(result.pulse[result.origin == k]).size / n
            sigma = np.sqrt(expected[k - 1] * (1 - expected[k - 1]) / n)
            assert abs(rate - expected[k - 1]) < 4 * sigma + 1e-9

    @pytest.mark.parametrize("coupler", [
        (0.3, 0.6, 0.35, 0.6),  # a t14 <-> t23 swap makes t14 + t24 > 1
        (0.5, 0.45, 0.2, 0.75),
        (0.2, 0.7, 0.6, 0.0),   # t24 = 0: nothing beyond channel 2
        (0.05, 0.95, 0.1, 0.9),
    ])
    def test_general_coupler_occupation(self, coupler):
        # Off the ideal coupler the exit and stay ports differ between the
        # first pass and the later ones.  Each channel's noise-free Fock-1
        # click count must match n * h_k within 5 sigma.
        params = noiseless(DeviceParams(t0=0.95, theta=0.97, tl=0.93, eta=0.8,
                                        coupler=CouplerSetting(*coupler)))
        n, h = 100_000, channel_transmissions(params, 8).h
        origin = run_simulation(PhotonSource.fock(1), params, n, seed=31).origin
        counts = np.bincount(origin, minlength=9)[1:9]
        assert np.all(np.abs(counts - n * h) <= 5 * np.sqrt(n * h * (1 - h)))

    def test_click_distribution(self, quiet_run):
        params, result = quiet_run
        emp = empirical_click_distribution(result, n_channels=15)
        ana = poisson_click_distribution(
            4.26, channel_transmissions(params, 15).truncated(15))
        for i in (0, 1, 2, 3, 4):
            tol = 4 * max(emp.stderr[i], 1e-5)
            assert abs(emp.distribution.p_click[i] - ana.p_click[i]) < tol

    def test_total_click_rate_scaling(self):
        # Error vs analytic p0 shrinks like 1/sqrt(n).
        params = noiseless(reference_device())
        T = total_transmission(params)
        mu = 1.0
        errs = []
        for n in (5_000, 500_000):
            result = run_simulation(PhotonSource.poissonian(mu), params, n,
                                    seed=3)
            p0 = 1.0 - np.unique(result.pulse).size / n
            errs.append(abs(p0 - np.exp(-mu * T)))
        assert errs[1] < max(errs[0], 3e-4)

    def test_fock_source(self):
        params = noiseless(reference_device())
        result = run_simulation(PhotonSource.fock(1), params, 100_000, seed=5)
        T = total_transmission(params)
        rate = np.unique(result.pulse).size / 100_000
        assert rate == pytest.approx(T, abs=4 * np.sqrt(T * (1 - T) / 1e5))
        assert np.all(result.n_photons == 1)


class TestTimingModel:
    def test_arrival_comb(self, quiet_run):
        params, result = quiet_run
        hist = accumulate_histogram(result)
        peaks = np.nonzero(hist.counts > 0)[0]
        # All clicks sit exactly on the channel comb: offset + (k-1)*delay.
        assert set(peaks[:4]) == {20, 32, 44, 56}
        times = result.time_ns
        rel = (times - 100.0) / params.loop_delay_ns
        assert np.allclose(rel, np.rint(rel))

    def test_dead_time_invariant(self, noisy_run):
        # No two registered clicks of one pulse are closer than the dead time.
        params, result = noisy_run
        order = np.lexsort((result.time_ns, result.pulse))
        p, t = result.pulse[order], result.time_ns[order]
        same = p[1:] == p[:-1]
        gaps = (t[1:] - t[:-1])[same]
        assert gaps.min() >= params.dead_time_ns - 1e-9

    def test_loop_delay_beats_dead_time(self, quiet_run):
        # Consecutive channel clicks are one loop delay apart, so without
        # noise the dead time never eats a photon click.
        params, result = quiet_run
        assert params.loop_delay_ns > params.dead_time_ns
        assert np.all(result.origin >= 1)

    def test_afterpulses_trail_their_trigger(self, noisy_run):
        params, result = noisy_run
        ap = result.origin == ORIGIN_AFTERPULSE
        assert ap.any()
        for i in np.nonzero(ap)[0][:50]:
            mask = (result.pulse == result.pulse[i]) & \
                (result.time_ns < result.time_ns[i])
            assert mask.any()  # some earlier click triggered it

    def test_dark_counts_present_and_uniform(self):
        params = DeviceParams(dark_prob_per_bin=1e-3, afterpulse_prob=0.0)
        result = run_simulation(PhotonSource.poissonian(0.0), params,
                                50_000, seed=9)
        dark = result.origin == ORIGIN_DARK
        assert dark.all()
        n_bins = result.settings.n_bins
        expected = 50_000 * n_bins * 1e-3
        assert result.pulse.size == pytest.approx(expected,
                                                  abs=5 * np.sqrt(expected))
        # Uniformity: mean arrival near the window midpoint.
        window = n_bins * params.bin_width_ns
        assert result.time_ns.mean() == pytest.approx(
            window / 2, rel=0.02)


class TestNoiseBounds:
    def test_false_cm_bound_values(self, ref_params):
        b = false_cm_bound(ref_params, p1=0.3)
        assert b.cm_bound == pytest.approx(8e-3 * 0.17, rel=1e-12)
        assert b.pm_bound == pytest.approx(0.3 * 8e-3 * 0.17, rel=1e-12)

    def test_noise_excess_within_bound(self):
        # c_M excess of the noisy device over the quiet one stays below the
        # analytic afterpulse bound (common random numbers via shared seed).
        quiet = noiseless(reference_device())
        noisy = reference_device()
        src = PhotonSource.poissonian(4.26)
        eq = empirical_click_distribution(
            run_simulation(src, quiet, 300_000, seed=21))
        en = empirical_click_distribution(
            run_simulation(src, noisy, 300_000, seed=21))
        cm_q = eq.pM / (eq.p1 + eq.pM)
        cm_n = en.pM / (en.p1 + en.pM)
        bound = false_cm_bound(noisy, en.p1).cm_bound
        assert cm_n - cm_q < bound + 4e-4


class TestReproducibility:
    def test_same_seed_same_result(self):
        params = reference_device()
        src = PhotonSource.poissonian(2.0)
        a = run_simulation(src, params, 20_000, seed=42)
        b = run_simulation(src, params, 20_000, seed=42)
        assert np.array_equal(a.time_ns, b.time_ns)
        assert np.array_equal(a.pulse, b.pulse)
        assert np.array_equal(a.origin, b.origin)

    def test_worker_count_invariance(self):
        params = reference_device()
        src = PhotonSource.poissonian(2.0)
        n = 3 * BATCH_SIZE + 17
        serial = run_simulation(src, params, n, seed=7, workers=1)
        parallel = run_simulation(src, params, n, seed=7, workers=4)
        assert np.array_equal(serial.pulse, parallel.pulse)
        assert np.array_equal(serial.time_ns, parallel.time_ns)
        assert np.array_equal(serial.origin, parallel.origin)
        assert np.array_equal(serial.n_photons, parallel.n_photons)

    def test_different_seeds_differ(self):
        params = reference_device()
        src = PhotonSource.poissonian(2.0)
        a = run_simulation(src, params, 20_000, seed=1)
        b = run_simulation(src, params, 20_000, seed=2)
        assert not (a.time_ns.size == b.time_ns.size
                    and np.array_equal(a.time_ns, b.time_ns))


class TestInterfaces:
    def test_single_pulse(self, ref_params):
        result = run_simulation(PhotonSource.poissonian(4.26), ref_params, 1,
                                seed=20240817)
        assert result.pulse.shape == result.time_ns.shape == result.origin.shape
        assert result.n_photons.shape == (1,) and result.n_photons[0] >= 0
        assert np.all(result.pulse == 0)
        assert np.all(np.diff(result.time_ns) >= 0)

    def test_outcome_roundtrip(self, noisy_run):
        # A click's origin is an afterpulse (-1), a dark count (0) or its
        # channel k in 1..max_channels, so its channel is max(origin, 0).
        _, result = noisy_run
        origins = np.unique(result.origin)
        assert origins[:3].tolist() == [ORIGIN_AFTERPULSE, ORIGIN_DARK, 1]
        assert origins[-1] <= result.settings.max_channels

    def test_histogram_totals(self, noisy_run):
        _, result = noisy_run
        hist = accumulate_histogram(result)
        assert hist.counts.sum() + hist.overflow == result.time_ns.size
        bins = np.floor(result.time_ns / hist.bin_width_ns)
        assert hist.counts.sum() == np.count_nonzero((bins >= 0) & (bins < hist.n_bins))

    def test_invalid_args(self, ref_params):
        with pytest.raises(ParameterError):
            run_simulation(PhotonSource.poissonian(1.0), ref_params, 0, seed=1)
        with pytest.raises(ParameterError):
            run_simulation(PhotonSource.poissonian(1.0), ref_params, 10, seed=-1)
        with pytest.raises(ParameterError):
            SimSettings(n_bins=0)


def heap_resolve_pulse(times, origins, ap_flags, ap_delays, dead_time):
    """Reference dead-time / afterpulse resolution of one pulse: an event
    queue popped one event at a time.  Candidates come sorted by time, which
    makes their list a heap already; a registered candidate with its flag
    set pushes an afterpulse, whose key 1 sorts it after a candidate at the
    same time and whose sequence number sorts it after earlier afterpulses.
    Afterpulses never chain."""
    queue = [(t, 0, seq, f, d, o) for seq, (t, o, f, d) in enumerate(zip(
        times.tolist(), origins.tolist(), ap_flags.tolist(),
        ap_delays.tolist()))]
    accepted = []
    last = -np.inf
    seq = len(queue)
    while queue:
        t, _, _, ap_flag, ap_delay, origin = heapq.heappop(queue)
        if t - last < dead_time:
            continue  # detector still paralyzed; candidate vanishes
        accepted.append((t, origin))
        last = t
        if ap_flag:
            heapq.heappush(queue, (t + ap_delay, 1, seq, False, 0.0,
                                   ORIGIN_AFTERPULSE))
            seq += 1
    return accepted


def heap_resolve(pulse, time, origin, ap_flag, ap_delay, dead_time):
    """:func:`heap_resolve_pulse` over every pulse, in pulse order."""
    rows = [(p, t, o) for p in np.unique(pulse)
            for t, o in heap_resolve_pulse(
                time[pulse == p], origin[pulse == p], ap_flag[pulse == p],
                ap_delay[pulse == p], dead_time)]
    return (np.array([r[0] for r in rows], dtype=pulse.dtype),
            np.array([r[1] for r in rows], dtype=float),
            np.array([r[2] for r in rows], dtype=np.int32))


def columns(rows):
    """Candidate arrays from (pulse, time, origin, ap_flag, ap_delay) rows,
    in the given row order, with the engine's dtypes."""
    pulse, time, origin, flag, delay = (np.array(c) for c in zip(*rows))
    return (pulse.astype(np.int32), time.astype(float), origin.astype(np.int32),
            flag.astype(bool), delay.astype(float))


def sorted_columns(rows):
    """:func:`columns` sorted by (pulse, time), stable, so that rows at
    equal times keep their given order."""
    cols = columns(rows)
    order = np.lexsort((cols[1], cols[0]))
    return tuple(c[order] for c in cols)


@st.composite
def candidate_sets(draw):
    """Candidate rows in a random order, on a coarse time grid, so that
    candidates tie with each other and with afterpulses, and afterpulses
    tie with each other."""
    dead_time = draw(st.sampled_from([0.5, 1.0, 2.5, 7.0, 20.0, 59.0, 60.0]))
    ap = draw(st.sampled_from(["never", "always", "sometimes"]))
    rows = []
    for pulse in draw(st.lists(st.integers(0, 30), min_size=1, max_size=6,
                               unique=True)):
        for _ in range(draw(st.integers(1, 8))):
            flag = ap == "always" or (ap == "sometimes" and draw(st.booleans()))
            rows.append((pulse, draw(st.integers(0, 80)) * 0.5,
                         draw(st.integers(ORIGIN_DARK, 4)), flag,
                         draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0,
                                               20.0, 61.0]))))
    return draw(st.permutations(rows)), dead_time


class TestFlaggedResolver:
    """The engine's resolver gets the rows unsorted, the event-queue oracle
    gets them sorted by (pulse, time)."""

    @settings(max_examples=200, deadline=None)
    @given(candidate_sets())
    def test_matches_event_queue(self, case):
        rows, dead_time = case
        got = _resolve_flagged(*columns(rows), dead_time)
        want = heap_resolve(*sorted_columns(rows), dead_time)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    # (rows, dead time, expected (time, origin) of pulse 0)
    TIES = {
        # A photon and a dark count at one time: the first in given order
        # registers, the other falls in its dead time.
        "photon-then-dark": ([(0, 10.0, 1, False, 0.0),
                              (0, 10.0, ORIGIN_DARK, False, 0.0)], 5.0,
                             [(10.0, 1)]),
        "dark-then-photon": ([(0, 10.0, ORIGIN_DARK, False, 0.0),
                              (0, 10.0, 1, False, 0.0)], 5.0,
                             [(10.0, ORIGIN_DARK)]),
        # An afterpulse due at 10 ns meets a candidate at 10 ns: the
        # candidate goes first.
        "afterpulse-on-candidate": ([(0, 10.0, 2, False, 0.0),
                                     (0, 0.0, 1, True, 10.0)], 5.0,
                                    [(0.0, 1), (10.0, 2)]),
        # Two afterpulses both due at 10 ns: one registers.
        "two-afterpulses": ([(0, 0.0, 1, True, 10.0),
                             (0, 5.0, ORIGIN_DARK, True, 5.0)], 1.0,
                            [(0.0, 1), (5.0, ORIGIN_DARK),
                             (10.0, ORIGIN_AFTERPULSE)]),
        # An afterpulse never chains, and one in the dead time vanishes.
        "no-chain": ([(0, 0.0, 1, True, 3.0), (0, 60.0, 2, True, 70.0)], 5.0,
                     [(0.0, 1), (60.0, 2), (130.0, ORIGIN_AFTERPULSE)]),
        # A flagged candidate that the dead time suppresses never gets its
        # afterpulse, though that would fall outside every dead time.
        "suppressed-flag": ([(0, 2.0, ORIGIN_DARK, True, 10.0),
                             (0, 0.0, 1, False, 0.0)], 5.0, [(0.0, 1)]),
    }

    @pytest.mark.parametrize("case", sorted(TIES))
    def test_tie_breaks(self, case):
        rows, dead_time, expected = self.TIES[case]
        for resolve, cand in ((_resolve_flagged, columns(rows)),
                              (heap_resolve, sorted_columns(rows))):
            _, t, o = resolve(*cand, dead_time)
            assert list(zip(t.tolist(), o.tolist())) == expected


class TestRowOrder:
    @pytest.mark.parametrize("params", [
        reference_device(),
        reference_device(r=0.3, dark_prob_per_bin=2e-2, afterpulse_prob=0.5,
                         afterpulse_decay_ns=3.0, dead_time_ns=1.0),
        reference_device(dark_prob_per_bin=1e-3, afterpulse_prob=1.0,
                         afterpulse_decay_ns=30.0, dead_time_ns=20.0),
    ])
    def test_rows_sorted_by_pulse_time_origin(self, params):
        res = run_simulation(PhotonSource.poissonian(3.0), params,
                             BATCH_SIZE + 500, seed=13)
        assert (res.origin < 1).any()  # noise reached the resolver
        order = np.lexsort((res.origin, res.time_ns, res.pulse))
        np.testing.assert_array_equal(order, np.arange(res.pulse.size))
        assert (res.pulse.dtype, res.time_ns.dtype, res.origin.dtype,
                res.n_photons.dtype) == (np.int64, np.float64, np.int32,
                                         np.int64)


class TestPhotonCeiling:
    @pytest.mark.parametrize("source", [
        PhotonSource.fock(MAX_PHOTONS + 1),
        PhotonSource.custom(np.eye(MAX_PHOTONS + 2)[-1]),
        PhotonSource.poissonian(1e19),
        PhotonSource.poissonian(720.0),  # cut-off 1009
    ])
    def test_beyond_ceiling_is_domain_error(self, ref_params, source):
        with pytest.raises(DomainError, match="MAX_PHOTONS"):
            run_simulation(source, ref_params, 2, seed=1)

    def test_ceiling_runs(self, ref_params):
        res = run_simulation(PhotonSource.fock(MAX_PHOTONS), ref_params, 2,
                             seed=1)
        assert res.n_photons.tolist() == [MAX_PHOTONS] * 2
