"""Monte Carlo engine: agreement with the analytic model, noise behavior,
and the reproducibility contract."""

import concurrent.futures
import dataclasses
import heapq
import math
import os
import statistics
import tracemalloc

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
    custom_click_distribution,
    empirical_click_distribution,
    false_cm_bound,
    fock_click_matrix,
    poisson_click_distribution,
    reference_device,
    run_simulation,
    total_transmission,
)
from loopdet.clickstats import MAX_PHOTONS
from loopdet.montecarlo import (BATCH_SIZE, MAX_BINS, ORIGIN_AFTERPULSE, ORIGIN_DARK,
                                _batch_rng, _resolve_flagged, window_clicks)
from loopdet.postselect import herald_acceptance_from_mc
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

    def test_conserving_coupler_sweep(self):
        # Twelve noise-free devices whose couplers create no light: six
        # random four-t_ij couplers, t24 = 0, t14 = 0 and t23 = 0, a lossless
        # loop (theta = tl = 1, t23 + t24 = 1), one where a t14 <-> t23 swap
        # would clip the loop interval (theta * (t14 * eta + t24 * tl) > 1),
        # and the reference coupler.  Fock 1, Fock 3 and a custom pmf run on
        # each, 4 channels, 50,000 pulses.  Every channel's occupation and
        # every cell of the click pmf must match the source mixed over
        # fock_click_matrix; a cell the model gives 0 must be empty, and the
        # z-scores of the rest share one two-sided 5 sigma false-alarm rate
        # (Bonferroni).  Smallest expected count: 6.
        base, rng = dict(t0=0.95, theta=0.97, tl=0.93, eta=0.8), np.random.default_rng(2026)
        couplers = [CouplerSetting(u13, u14 * (1 - u13), u23, u24 * (1 - u23))
                    for u13, u14, u23, u24 in rng.uniform(0.1, 0.9, size=(6, 4))]
        couplers += [CouplerSetting(0.3, 0.6, 0.5, 0.0), CouplerSetting(0.7, 0.0, 0.4, 0.5),
                     CouplerSetting(0.4, 0.5, 0.0, 0.9)]
        devices = [DeviceParams(**base, coupler=c) for c in couplers] + [
            DeviceParams(t0=0.95, theta=1.0, tl=1.0, eta=0.8,
                         coupler=CouplerSetting(0.3, 0.7, 0.4, 0.6)),
            DeviceParams(t0=0.95, theta=0.99, tl=0.99, eta=0.95,
                         coupler=CouplerSetting(0.1, 0.85, 0.1, 0.88)),
            reference_device()]
        sources = [PhotonSource.fock(1), PhotonSource.fock(3),
                   PhotonSource.custom([0.2, 0.3, 0.1, 0.4])]
        K, n, z = 4, 50_000, []
        for i, params in enumerate(map(noiseless, devices)):
            profile = channel_transmissions(params, K)
            for source in sources:
                res = run_simulation(source, params, n, seed=100 + i,
                                     settings=SimSettings(max_channels=K))
                w = source.pmf_array()
                occupation = w @ -np.expm1(np.arange(w.size)[:, None] * np.log1p(-profile.h))
                pmf = w @ fock_click_matrix(w.size - 1, profile)
                for observed, p in ((np.bincount(res.origin, minlength=K + 1)[1:], occupation),
                                    (np.bincount(np.bincount(res.pulse, minlength=n),
                                                 minlength=K + 1), pmf)):
                    assert observed[p == 0].sum() == 0, (i, source)
                    p, observed = p[p > 0], observed[p > 0]
                    z += ((observed - n * p) / np.sqrt(n * p * (1 - p))).tolist()
        # m tests at |z| <= z_max: m * P(|Z| > z_max) = P(|Z| > 5).
        z_max = statistics.NormalDist().inv_cdf(1 - math.erfc(5 / math.sqrt(2)) / (2 * len(z)))
        assert max(map(abs, z)) <= z_max

    def test_max_channels_truncation(self):
        # Photons still looping after the last simulated channel are
        # dropped: channels 1..4 keep n * h_k, and the click fraction of
        # Fock-1 light falls short of T by the remainder beyond channel 4.
        params = noiseless(DeviceParams(t0=0.95, theta=0.97, tl=0.93, eta=0.8,
                                        coupler=CouplerSetting(0.05, 0.95, 0.1, 0.9)))
        n, profile = 100_000, channel_transmissions(params, 4)
        assert profile.remainder > 0.1
        res = run_simulation(PhotonSource.fock(1), params, n, seed=37,
                             settings=SimSettings(max_channels=4))
        assert res.origin.min() >= 1 and res.origin.max() <= 4
        h = profile.h
        counts = np.bincount(res.origin, minlength=5)[1:5]
        assert np.all(np.abs(counts - n * h) <= 5 * np.sqrt(n * h * (1 - h)))
        p = total_transmission(params) - profile.remainder
        assert abs(res.pulse.size / n - p) <= 5 * np.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("source", [PhotonSource.fock(3), PhotonSource.poissonian(2.0)],
                             ids=["fock3", "poisson2"])
    def test_click_pattern_law(self, source):
        # With 4 channels the full click pattern has 16 values and an exact
        # law.  Fock n, by inclusion-exclusion over the channels S that
        # click: P(S) = sum_{U in S} (-1)^(|S|-|U|) (q + h(U))^n, with
        # q = 1 - sum(h); Poisson: independent channels.  A G-test over
        # them sees correlations between channels that marginals do not.
        params, n = noiseless(reference_device()), 200_000
        h = channel_transmissions(params, 4).h
        res = run_simulation(source, params, n, seed=43, settings=SimSettings(max_channels=4))
        bits = (np.arange(16)[:, None] >> np.arange(4)) & 1  # pattern S -> its channels
        if source.kind == "fock":
            subset = (np.arange(16)[None, :] & ~np.arange(16)[:, None]) == 0  # U within S
            sign = (-1.0) ** (bits.sum(axis=1)[:, None] - bits.sum(axis=1)[None, :])
            law = np.where(subset, sign, 0.0) @ (1.0 - h.sum() + bits @ h) ** source.n
        else:
            c = -np.expm1(-source.mu * h)
            law = np.prod(np.where(bits == 1, c, 1.0 - c), axis=1)
        pattern = np.bincount(res.pulse, weights=2.0 ** (res.origin - 1), minlength=n)
        observed = np.bincount(pattern.astype(int), minlength=16)
        possible = law > 1e-12  # Fock n: more than n channels is 0 up to rounding
        assert observed[~possible].sum() == 0
        observed, expected = observed[possible], n * law[possible]
        small = expected < 5
        if small.any():  # pooled into one cell
            observed = np.r_[observed[~small], observed[small].sum()]
            expected = np.r_[expected[~small], expected[small].sum()]
        keep = observed > 0  # 0 ln 0 = 0
        g = 2.0 * np.sum(observed[keep] * np.log(observed[keep] / expected[keep]))
        # P(chi2_df > g) = Q(df / 2, g / 2), a finite sum for integer df.
        df, y = observed.size - 1, g / 2
        half = 0.5 * (df % 2)
        tail = (math.erfc(math.sqrt(y)) if df % 2 else 0.0) + math.exp(-y) * sum(
            y ** (j + half) / math.gamma(j + half + 1) for j in range(df // 2))
        assert tail >= 0.5 * math.erfc(5 / math.sqrt(2))  # one-sided 5 sigma

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

    def test_poisson_photon_numbers(self):
        # 24 batches of Poisson(mu) photon numbers, each batch one Poisson
        # total spread uniformly over its pulses.
        mu, n_batches = 2.13, 24
        n = run_simulation(PhotonSource.poissonian(mu),
                           noiseless(reference_device()),
                           n_batches * BATCH_SIZE, seed=19).n_photons
        # Per-n frequencies, n >= 11 lumped: 12 bins at |z| <= 5.
        pmf = np.array([math.exp(-mu) * mu ** k / math.factorial(k)
                        for k in range(11)])
        pmf = np.r_[pmf, 1 - pmf.sum()]
        freq = np.bincount(np.minimum(n, 11), minlength=12)
        z = (freq - n.size * pmf) / np.sqrt(n.size * pmf * (1 - pmf))
        assert np.abs(z).max() <= 5
        # Lag 1 includes the pairs across each batch boundary; lag
        # BATCH_SIZE pairs each pulse with its place in the next batch.
        for lag in (1, BATCH_SIZE):
            r = np.corrcoef(n[:-lag], n[lag:])[0, 1]
            assert abs(r) * math.sqrt(n.size - lag) <= 5
        # The first and the last pulse of every batch get photons too.
        batches = n.reshape(n_batches, BATCH_SIZE)
        for edge in (batches[:, 0], batches[:, -1]):
            assert abs(edge.sum() - n_batches * mu) <= 5 * math.sqrt(n_batches * mu)
        # Batch totals are Poisson(mu * BATCH_SIZE): their chi-square with
        # n_batches (even) degrees of freedom has the closed-form tail
        # P(chi2 > x) = P(Poisson(x / 2) < n_batches / 2).
        x = np.sum((batches.sum(axis=1) - mu * BATCH_SIZE) ** 2) / (mu * BATCH_SIZE)
        tail = math.exp(-x / 2) * sum((x / 2) ** j / math.factorial(j)
                                      for j in range(n_batches // 2))
        one_sided_5_sigma = 0.5 * math.erfc(5 / math.sqrt(2))
        assert one_sided_5_sigma <= tail <= 1 - one_sided_5_sigma

    def test_custom_source(self):
        # The custom pmf's photon numbers come from rng.choice; the run is
        # the one tests/test_golden.py pins.  Its mean photon number and
        # p0..p3 must match the source and the analytic pmf at |z| <= 5.
        params, source = noiseless(reference_device()), PhotonSource.custom([0.2, 0.3, 0.1, 0.4])
        res = run_simulation(source, params, 400_000, seed=23)
        n = np.arange(4)
        mean, var = source.pmf @ n, source.pmf @ n ** 2 - (source.pmf @ n) ** 2
        assert abs(res.n_photons.mean() - mean) <= 5 * math.sqrt(var / res.n_trials)
        emp = empirical_click_distribution(res, n_channels=15)
        ana = custom_click_distribution(source, channel_transmissions(params, 15))
        z = (emp.distribution.p_click[:4] - ana.p_click[:4]) / emp.stderr[:4]
        assert np.abs(z).max() <= 5

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

    def test_windows_place_channel_clicks_by_origin(self):
        # At an offset of 1e20 ns every (time - offset) / loop_delay rounds to
        # 0, so placing channel clicks by time put them all into channel 1.
        # The engine refuses that offset, so the run is moved there by hand,
        # each time written as the engine writes it.
        params = reference_device(dark_prob_per_bin=0.0, afterpulse_prob=0.0)
        res = run_simulation(PhotonSource.fock(3), params, 2000, seed=3)
        res = dataclasses.replace(res, settings=SimSettings(time_offset_ns=1e20),
                                  time_ns=1e20 + (res.origin - 1.0) * params.loop_delay_ns)
        in_range = res.origin <= 15  # noise-free: every row is a channel click
        pulse, channel = window_clicks(res, 15)
        np.testing.assert_array_equal(pulse, res.pulse[in_range])
        np.testing.assert_array_equal(channel, res.origin[in_range])
        distinct = np.bincount(res.pulse[in_range], minlength=res.n_trials)
        np.testing.assert_array_equal(
            empirical_click_distribution(res, 15).distribution.p_click,
            np.bincount(distinct, minlength=16) / res.n_trials)

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

    def test_afterpulse_delay_law(self):
        # Noise-free Fock-1 light gives each pulse at most one channel
        # click, its afterpulse the next row.  An afterpulse registers only
        # past the dead time, so by memorylessness its delay beyond the dead
        # time is Exp(tau).  With p_ap < 1 a delay drawn from the flag's
        # variate without conditioning on the flag comes out too short.
        p_ap, tau, dead = 0.3, 200.0, 1.0
        params = DeviceParams(dark_prob_per_bin=0.0, afterpulse_prob=p_ap,
                              afterpulse_decay_ns=tau, dead_time_ns=dead)
        res = run_simulation(PhotonSource.fock(1), params, 100_000, seed=41)
        ap = np.flatnonzero(res.origin == ORIGIN_AFTERPULSE)
        clicks = np.count_nonzero(res.origin >= 1)
        assert np.all(res.pulse[ap - 1] == res.pulse[ap])
        assert np.all(res.origin[ap - 1] >= 1)
        # Flagged, and not lost in the dead time.
        f = p_ap * np.exp(-dead / tau)
        assert abs(ap.size - clicks * f) <= 5 * np.sqrt(clicks * f * (1 - f))
        x, m = res.time_ns[ap] - res.time_ns[ap - 1] - dead, ap.size
        assert abs(x.mean() - tau) <= 5 * tau / np.sqrt(m)
        for s in (0.8, 0.5, 0.2, 0.05, 0.01):  # survival at quantile 1 - s
            above = np.count_nonzero(x > -tau * np.log(s)) / m
            assert abs(above - s) <= 5 * np.sqrt(s * (1 - s) / m)

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

    def test_batch_streams_keyed_apart(self):
        # (seed, batch) keys a spawned child, not zero-padded list entropy,
        # under which (3, 5) and (3 + 5 * 2**32, 0) are one stream.
        def first(seed, batch):
            return _batch_rng(seed, batch).random()
        assert first(3, 5) != first(3 + 5 * 2 ** 32, 0)
        for seed, batch in ((0, 0), (3, 5), (2 ** 64, 7)):
            assert first(seed, batch) != first(seed, batch + 1)
            assert first(seed, batch) != first(seed + 1, batch)

    def test_seeds_beyond_uint64(self, ref_params):
        # Any nonnegative integer seeds a run; herald run n uses seed + n.
        result = run_simulation(PhotonSource.poissonian(2.0), ref_params, 100,
                                seed=2 ** 64)
        assert result.n_photons.shape == (100,)
        table = herald_acceptance_from_mc(ref_params, 2, "exactly-one", 100,
                                          seed=2 ** 64 - 1)
        assert table.shape == (3,) and table[0] < table[1]
        # Only integers seed a run: a float is refused, not truncated.
        with pytest.raises(ParameterError):
            run_simulation(PhotonSource.poissonian(2.0), ref_params, 100, seed=3.5)

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

    def test_clickless_run(self, ref_params):
        # No rows at all: every pulse is in p0, and nothing is binned.
        result = run_simulation(PhotonSource.poissonian(0.0), noiseless(ref_params), 50, seed=1)
        assert result.pulse.size == 0 and window_clicks(result, 15)[0].size == 0
        np.testing.assert_array_equal(empirical_click_distribution(result).distribution.p_click,
                                      np.eye(16)[0])
        hist = accumulate_histogram(result)
        assert hist.counts.sum() == hist.overflow == 0

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

    @pytest.mark.parametrize("n_trials", [0, -1, 100.0, True, "100"])
    def test_trials_must_be_a_positive_integer(self, ref_params, n_trials):
        # A float used to raise a bare TypeError, and True ran one trial.
        source = PhotonSource.poissonian(1.0)
        with pytest.raises(ParameterError, match="n_trials"):
            run_simulation(source, ref_params, n_trials, seed=1)
        with pytest.raises(ParameterError, match="n_trials"):
            herald_acceptance_from_mc(ref_params, 2, "exactly-one", n_trials, 1)

    @pytest.mark.parametrize("workers", [0, -1, 2.0])
    def test_workers_must_be_a_positive_integer(self, ref_params, workers):
        # 0 and -1 used to run serially; the CLI already refused them.
        source = PhotonSource.poissonian(1.0)
        with pytest.raises(ParameterError, match="workers"):
            run_simulation(source, ref_params, 10, seed=1, workers=workers)
        with pytest.raises(ParameterError, match="workers"):
            herald_acceptance_from_mc(ref_params, 2, "exactly-one", 10, 1,
                                      workers=workers)
        # np.integer counts are integers.
        res = run_simulation(source, ref_params, np.int64(10), seed=1,
                             workers=np.int32(1))
        assert res.n_photons.shape == (10,)

    @pytest.mark.parametrize("settings,error", [
        (SimSettings(n_bins=2 ** 64), DomainError), (SimSettings(n_bins=MAX_BINS + 1), DomainError),
        (SimSettings(max_channels=10 ** 307), ParameterError)])
    def test_window_checked_before_any_run(self, ref_params, settings, error):
        # n_bins = 2**64 used to end in an OverflowError from the dark-count draw.
        with pytest.raises(error):
            run_simulation(PhotonSource.poissonian(1.0), ref_params, 10, seed=1,
                           settings=settings)

    def test_histogram_casts_only_in_window_times(self, noisy_run):
        params, result = noisy_run
        times = np.array([0.0, 4.99, 5.0, 5119.9, 5120.0, 1e300, 1.7e308])
        # Dark-count rows, which are binned by their time.
        rows = dict(pulse=np.arange(7), time_ns=times,
                    origin=np.full(7, ORIGIN_DARK, np.int32))
        hist = accumulate_histogram(dataclasses.replace(result, **rows))
        assert (hist.counts[0], hist.counts[1], hist.counts[-1], hist.overflow) == (2, 1, 1, 3)
        assert hist.counts.sum() == 4
        tiny = dataclasses.replace(result, **rows,
                                   params=dataclasses.replace(params, bin_width_ns=5e-324))
        assert accumulate_histogram(tiny).overflow == 6  # every quotient but 0 overflows

    @pytest.mark.parametrize("n_channels", [0, -3, 1.5])
    def test_channels_must_be_a_positive_integer(self, noisy_run, n_channels):
        # 0 and -3 used to give an all-zero herald table or a pmf of [1.0].
        params, result = noisy_run
        with pytest.raises(ParameterError, match="n_channels"):
            window_clicks(result, n_channels)
        with pytest.raises(ParameterError, match="n_channels"):
            empirical_click_distribution(result, n_channels)
        with pytest.raises(ParameterError, match="n_channels"):
            herald_acceptance_from_mc(params, 2, "exactly-one", 10, 1,
                                      n_channels=n_channels)


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

    def test_routing_memory_per_photon(self, ref_params):
        # A routing pass works in slices of _CHUNK_ROWS rows and compacts its
        # survivors in place, so a one-batch Fock-300 run holds little beyond
        # the 4-byte pulse index of each photon.
        n = 300
        run_simulation(PhotonSource.fock(n), ref_params, BATCH_SIZE, seed=1)
        tracemalloc.start()
        try:
            run_simulation(PhotonSource.fock(n), ref_params, BATCH_SIZE, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * BATCH_SIZE


def test_result_path_memory():
    # The histogram and the click pmf take the run in slices of 2**15 rows,
    # so neither copies a column of the run: on 344,341 clicks they trace
    # about 0.4 and 1.2 MiB (the histogram's one-byte noise mask is most of
    # its share), against 3.9 and 8.2 MiB taken whole.
    res = run_simulation(PhotonSource.poissonian(2.13), reference_device(), 400_000, seed=1)
    for reduce in (accumulate_histogram, empirical_click_distribution):
        reduce(res)
        tracemalloc.start()
        try:
            reduce(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20, reduce.__name__


class TestPoolBound:
    """A run starts at most one process per CPU and per job, however many
    workers it asks for.  The pool is patched, so no process starts."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return started

    @pytest.mark.parametrize("cpus,expected", [(64, 4), (3, 3), (None, 1)])
    def test_herald(self, ref_params, monkeypatch, pools, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        table = herald_acceptance_from_mc(ref_params, 3, "exactly-one", 50, 9,
                                          workers=100_000)
        assert pools == [expected]
        assert np.array_equal(table, herald_acceptance_from_mc(ref_params, 3, "exactly-one",
                                                               50, 9))

    def test_cli_workers(self, monkeypatch, pools, tmp_path):
        from loopdet.cli import main
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        argv = ["simulate-tof", "--seed", "4", "--mu", "1", "--trials", str(9 * BATCH_SIZE)]
        for workers, out in (("100000", "many.csv"), ("1", "one.csv")):
            assert main([*argv, "--workers", workers, "--out", str(tmp_path / out)]) == 0
        assert pools == [2]  # nine batches in two blocks
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
