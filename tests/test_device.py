"""Channel-transmission model: closed forms, tails, and consistency checks."""

import math

import numpy as np
import pytest

from loopdet import (
    ChannelProfile,
    CouplerSetting,
    DeviceParams,
    calibrate_from_channels,
    channel_transmissions,
    infer_t0,
    normalized_channels,
    reference_device,
    total_transmission,
)
from loopdet.errors import (
    DegenerateDeviceError,
    DomainError,
    InsufficientDataError,
    ParameterError,
)


def lossless(r):
    return DeviceParams(t0=1, theta=1, tl=1, eta=1,
                        coupler=CouplerSetting.ideal(r))


class TestChannelTransmissions:
    def test_r_one_all_light_exits_first_pass(self):
        params = DeviceParams(t0=1, theta=1, tl=1, eta=0.6,
                              coupler=CouplerSetting.ideal(1.0))
        profile = channel_transmissions(params, 5)
        assert profile.h == pytest.approx([0.6, 0, 0, 0, 0], abs=1e-15)

    def test_r_zero_one_full_loop_then_certain_exit(self):
        profile = channel_transmissions(lossless(0.0), 5)
        assert profile.h == pytest.approx([0, 1, 0, 0, 0], abs=1e-15)

    def test_balanced_lossless_is_binary_cascade(self):
        profile = channel_transmissions(lossless(0.5), 4)
        assert profile.h == pytest.approx([0.5, 0.25, 0.125, 0.0625], rel=1e-12)

    def test_general_closed_form(self, ref_params):
        c = ref_params.coupler
        p = ref_params
        profile = channel_transmissions(p, 10)
        assert profile.h[0] == pytest.approx(p.t0 * p.theta * c.t13 * p.eta)
        for k in range(2, 11):
            expected = (p.t0 * c.t14 * p.theta ** k * p.tl ** (k - 1)
                        * c.t23 * c.t24 ** (k - 2) * p.eta)
            assert profile.h[k - 1] == pytest.approx(expected, rel=1e-12)

    def test_geometric_tail_ratio(self, ref_params):
        profile = channel_transmissions(ref_params, 12)
        ratios = profile.h[2:] / profile.h[1:-1]
        rho = ref_params.theta * ref_params.tl * ref_params.coupler.t24
        assert ratios == pytest.approx([rho] * ratios.size, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 200])
    def test_truncation_consistency(self, ref_params, n):
        profile = channel_transmissions(ref_params, n)
        T = total_transmission(ref_params)
        assert abs(profile.total - T) < 1e-10

    def test_invalid_n_channels(self, ref_params):
        with pytest.raises(ParameterError):
            channel_transmissions(ref_params, 0)

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(ParameterError):
            DeviceParams(t0=1.2)
        for name in ("t0", "dead_time_ns", "bin_width_ns",
                     "afterpulse_decay_ns", "loop_delay_ns"):
            with pytest.raises(ParameterError):
                DeviceParams(**{name: float("nan")})
        for name in ("bin_width_ns", "afterpulse_decay_ns"):
            with pytest.raises(ParameterError):
                DeviceParams(**{name: float("inf")})
        with pytest.raises(ParameterError):
            CouplerSetting.ideal(-0.1)

    def test_loop_delay_must_beat_dead_time(self):
        with pytest.raises(ParameterError):
            DeviceParams(loop_delay_ns=40.0, dead_time_ns=50.0)


class TestTotalTransmission:
    def test_lossless_balanced_conserves_probability(self):
        assert total_transmission(lossless(0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self, ref_params):
        T = total_transmission(ref_params.with_ratio(0.45))
        assert 0.78 <= T / ref_params.eta <= 0.80

    def test_truncated_sum_oracle(self):
        # Independent oracle: brute-force partial sum of the channel series.
        for r in (0.2, 0.446, 0.7):
            for tl in (0.85, 0.94):
                p = DeviceParams(t0=0.9, theta=0.96, tl=tl, eta=0.55,
                                 coupler=CouplerSetting.ideal(r))
                profile = channel_transmissions(p, 200)
                partial = profile.h.sum() + profile.remainder
                assert abs(total_transmission(p) - partial) < 1e-10

    @pytest.mark.parametrize("coupler", [
        CouplerSetting(t13=0.45, t14=0.5, t23=0.52, t24=0.44),
        CouplerSetting(t13=0.65, t14=0.3, t23=0.03, t24=0.97),
        CouplerSetting(t13=0.2, t14=0.7, t23=0.6, t24=0.0),
        CouplerSetting(t13=0.6, t14=0.0, t23=0.5, t24=0.5),
        CouplerSetting(t13=0.6, t14=0.4, t23=0.0, t24=0.5),
    ])
    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_general_coupler_partial_sum_oracle(self, coupler, n):
        # Independent oracle: every channel from its own power formula,
        # summed in full precision over 3,000 channels (rho <= 0.9 here).
        p = DeviceParams(t0=0.93, theta=0.97, tl=0.95, eta=0.7, coupler=coupler)
        c = coupler
        brute = [p.t0 * p.theta * c.t13 * p.eta] + [
            p.t0 * c.t14 * p.theta ** k * p.tl ** (k - 1) * c.t23
            * c.t24 ** (k - 2) * p.eta for k in range(2, 3001)]
        profile = channel_transmissions(p, n)
        assert profile.h == pytest.approx(brute[:n], rel=1e-12, abs=1e-300)
        assert profile.remainder == pytest.approx(math.fsum(brute[n:]),
                                                  rel=1e-12, abs=1e-300)
        assert total_transmission(p) == pytest.approx(math.fsum(brute),
                                                      rel=1e-12)

    def test_series_guard_follows_the_loop_coupling(self):
        # The convergence guard looks at whether light enters the loop
        # (t14 * t23 > 0), not at the input losses: a closed lossless loop
        # is rejected even when t0 = 0 makes every channel dark.
        edge = CouplerSetting(t13=0.5, t14=0.5, t23=1e-12, t24=1 - 1e-12)
        for t0 in (0.0, 1.0):
            p = DeviceParams(t0=t0, theta=1, tl=1, eta=1, coupler=edge)
            with pytest.raises(DomainError):
                total_transmission(p)
        # No light in the loop: the first channel carries everything.
        shut = DeviceParams(t0=1, theta=1, tl=1, eta=1,
                            coupler=CouplerSetting(t13=0.8, t14=0.0,
                                                   t23=1e-12, t24=1 - 1e-12))
        profile = channel_transmissions(shut, 3)
        assert (profile.h.tolist(), profile.remainder) == ([0.8, 0.0, 0.0], 0.0)
        assert total_transmission(shut) == 0.8

    def test_divergent_series_rejected(self):
        p = DeviceParams(t0=1, theta=1, tl=1, eta=1,
                         coupler=CouplerSetting(t13=0.5, t14=0.5, t23=1e-12,
                                                t24=1 - 1e-12))
        with pytest.raises(DomainError):
            total_transmission(p)
        with pytest.raises(DomainError):
            channel_transmissions(p, 5)

    def test_t24_zero_branch(self):
        p = DeviceParams(t0=1, theta=1, tl=1, eta=1,
                         coupler=CouplerSetting.ideal(0.0))
        assert total_transmission(p) == pytest.approx(1.0)

    def test_monotone_in_each_loss(self):
        base = dict(t0=0.9, theta=0.95, tl=0.9, eta=0.6)
        for name in base:
            lo = DeviceParams(coupler=CouplerSetting.ideal(0.45), **base)
            hi_kwargs = dict(base, **{name: base[name] + 0.05})
            hi = DeviceParams(coupler=CouplerSetting.ideal(0.45), **hi_kwargs)
            assert total_transmission(hi) >= total_transmission(lo)

    def test_physicality_bounds(self):
        for r in np.linspace(0, 1, 11):
            for eta in (0.3, 0.6, 1.0):
                p = DeviceParams(t0=0.92, theta=0.955, tl=0.94, eta=eta,
                                 coupler=CouplerSetting.ideal(float(r)))
                profile = channel_transmissions(p)
                assert np.all(profile.h >= 0) and np.all(profile.h <= 1)
                assert 0 <= total_transmission(p) <= eta + 1e-12


def simplified_total(r, p):
    """The paper's simplified T for the ideal coupler at ratio r, with
    a = tl*theta: eta*t0*(2a - 1)/tl (the first term) minus
    eta*t0*(a - 1)**2 / (tl*(r*a - 1))."""
    a = p.tl * p.theta
    first = p.eta * p.t0 * (2 * a - 1) / p.tl
    return first, first - p.eta * p.t0 * (a - 1) ** 2 / (p.tl * (r * a - 1))


class TestSimplifiedTransmission:
    """total_transmission against the paper's simplified closed form."""

    def test_lossless_is_unity(self):
        p = lossless(0.3)
        for r in (0.1, 0.5, 0.9):
            assert simplified_total(r, p)[1] == pytest.approx(1.0)
            assert total_transmission(p.with_ratio(r)) == pytest.approx(1.0)

    def test_first_term_only_reference(self, ref_params):
        # The r-independent first term is what the loss calibration inverts.
        first, _ = simplified_total(0.45, ref_params)
        assert first / ref_params.eta == pytest.approx(0.778, abs=5e-4)
        assert infer_t0(first / ref_params.eta, ref_params.tl,
                        ref_params.theta) == pytest.approx(ref_params.t0, rel=1e-12)

    def test_full_form_reference(self, ref_params):
        for T in (total_transmission(ref_params.with_ratio(0.45)),
                  simplified_total(0.45, ref_params)[1]):
            assert T / ref_params.eta == pytest.approx(0.796, abs=5e-4)

    def test_matches_exact_form_for_ideal_coupler(self, ref_params):
        # For an ideal coupler the simplified form is not an approximation.
        for r in (0.2, 0.446, 0.8):
            exact = total_transmission(ref_params.with_ratio(r))
            assert simplified_total(r, ref_params)[1] == \
                pytest.approx(exact, rel=1e-12)


class TestNormalizedChannels:
    def test_balanced_lossless(self):
        profile = channel_transmissions(lossless(0.5), 6)
        H = normalized_channels(profile)
        assert H[:3] == pytest.approx([0.5, 0.25, 0.125], rel=1e-12)

    def test_sums_to_one_with_remainder(self, ref_params):
        profile = channel_transmissions(ref_params, 7)
        H = normalized_channels(profile)
        assert H.sum() + profile.remainder / profile.total == pytest.approx(
            1.0, abs=1e-12)

    def test_degenerate_device(self):
        with pytest.raises(DegenerateDeviceError):
            normalized_channels(ChannelProfile(np.zeros(4), 0.0))

    def test_balanced_three_channel_setting_exists(self, ref_params):
        # Some division ratio produces first-three shares near 39:42:13.
        best = None
        for r in np.linspace(0.25, 0.45, 201):
            H = normalized_channels(
                channel_transmissions(ref_params.with_ratio(float(r))))
            err = abs(H[0] - 0.39) + abs(H[1] - 0.42) + abs(H[2] - 0.13)
            best = min(best, err) if best is not None else err
        assert best < 0.12


def ratio_stat(params, n=30):
    """Mean H_{k+1}/(H_k H_1) over k = 2..6 of the model's profile, as the
    loss calibration computes it."""
    profile = channel_transmissions(params, n)
    return calibrate_from_channels(
        normalized_channels(profile), T_over_eta=profile.total / params.eta,
        theta=params.theta).ratio_stat


class TestChannelRatioStatistic:
    def test_lossless_balanced_is_unity(self):
        assert ratio_stat(lossless(0.5)) == pytest.approx(1.0, rel=1e-9)

    def test_approximates_loss_product(self, ref_params):
        # The statistic tracks 2*theta*tl - 1 = 0.7954 up to the weak
        # r-dependence of the total transmission.
        stat = ratio_stat(ref_params.with_ratio(0.45))
        target = 2 * ref_params.theta * ref_params.tl - 1
        assert target == pytest.approx(0.7954, abs=1e-4)
        assert stat == pytest.approx(target, abs=0.03)

    def test_nearly_independent_of_r(self, ref_params):
        stats = [ratio_stat(ref_params.with_ratio(float(r)))
                 for r in np.linspace(0.3, 0.6, 13)]
        assert max(stats) - min(stats) < 0.02

    def test_zero_channel_pair_skipped(self):
        # A zero H_k drops its pairs with a warning; a zero H_1 or fewer
        # than three channels leave no statistic at all.
        res = calibrate_from_channels([0.5, 0.0, 0.2, 0.1], T_over_eta=0.78,
                                      theta=1.0)
        assert res.used_k.tolist() == [3] and res.ratio_stat == pytest.approx(1.0)
        assert res.warnings == (
            "channel pair (k=2, k+1=3) skipped: nonpositive probability",)
        for H in ([0.0, 0.5, 0.2, 0.1], [0.5, 0.3]):
            with pytest.raises(InsufficientDataError):
                calibrate_from_channels(H, T_over_eta=0.78, theta=1.0)


class TestCouplerSetting:
    def test_ideal_mapping(self):
        c = CouplerSetting.ideal(0.3)
        assert (c.t13, c.t24) == (0.3, 0.3)
        assert (c.t14, c.t23) == (0.7, 0.7)

    def test_full_profile_matches_ideal(self):
        # Full coefficients set to the ideal mapping reproduce the ideal
        # two-parameter formulas exactly.
        r, tl = 0.37, 0.91
        full = DeviceParams(t0=1, theta=1, tl=tl, eta=1,
                            coupler=CouplerSetting(t13=r, t14=1 - r,
                                                   t23=1 - r, t24=r))
        profile = channel_transmissions(full, 12)
        k = np.arange(2, 13)
        expected = np.concatenate(
            [[r], (1 - r) ** 2 * tl ** (k - 1) * r ** (k - 2)])
        assert profile.h == pytest.approx(expected, rel=1e-12)

    def test_lossy_full_coupler_accepted(self):
        # A coupler may lose light.
        CouplerSetting(t13=0.4, t14=0.4, t23=0.5, t24=0.3)

    @pytest.mark.parametrize("t", [(0.9, 0.3, 0.8, 0.97), (0.6, 0.41, 0.2, 0.3),
                                   (0.2, 0.3, 0.6, 0.5), (1.0, 1e-12, 0.0, 0.0)])
    def test_coupler_creating_light_rejected(self, t):
        with pytest.raises(ParameterError, match="creates light"):
            CouplerSetting(*t)

    def test_ideal_coupler_in_domain(self):
        # r + (1 - r) never rounds above 1, so every ideal coupler passes.
        for r in np.r_[np.linspace(0.0, 1.0, 10_001),
                       np.random.default_rng(0).random(10_000)]:
            CouplerSetting.ideal(float(r))
