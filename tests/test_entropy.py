"""Entropy figure of merit and division-ratio optimization."""

import math

import numpy as np
import pytest

from loopdet import (
    CouplerSetting,
    DeviceParams,
    channel_transmissions,
    optimize_ratio,
    reference_device,
    shannon_entropy,
)
from loopdet.errors import DegenerateDeviceError, NoMaximumError, ParameterError

#: Channels of the long-sum oracle.  On the reference device rho <= 0.898,
#: so the tail beyond them is below 1e-18.
LONG = 400


def lossless(r):
    return DeviceParams(t0=1, theta=1, tl=1, eta=1,
                        coupler=CouplerSetting.ideal(r))


def ideal_entropy(r: float) -> float:
    """Oracle: entropy of the lossless ideal-coupler profile h_1 = r,
    h_k = (1-r)**2 r**(k-2), in closed form: E = -2r ln(r) - 2(1-r) ln(1-r),
    maximal at r = 1/2."""
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"r must lie in [0, 1], got {r}")
    e = 0.0
    if 0.0 < r:
        e -= 2.0 * r * math.log(r)
    if r < 1.0:
        e -= 2.0 * (1.0 - r) * math.log(1.0 - r)
    return e


def pass_entropy(params, r, normalized=False):
    """Oracle: the entropy of the first LONG channels at each ratio of the
    array r, each channel from pass-by-pass products of the ideal coupler's
    t13 = t24 = r and t14 = t23 = 1 - r, not from the closed-form series.
    The normalized entropy is E(h/T) = E(h)/T + ln T with T = sum(h)."""
    reach = params.t0 * params.theta * (1.0 - r) * params.tl  # light into the loop
    h = params.t0 * params.theta * r * params.eta
    e, total = np.zeros_like(r), np.zeros_like(r)
    for _ in range(LONG):
        e -= h * np.log(np.where(h > 0.0, h, 1.0))
        total += h
        h = reach * params.theta * (1.0 - r) * params.eta
        reach = reach * params.theta * r * params.tl
    return e / total + np.log(total) if normalized else e


#: The devices whose optimum is checked against the grid and the pass-by-pass oracle.
OPTIMA = {
    "reference": (reference_device(), False),
    "reference-normalized": (reference_device(), True),
    "lossless": (lossless(0.5), False),
    "tl0": (reference_device(tl=0.0), False),
    # Optimum 2.3e-7 below the grid point 0.417, which the fine scan's
    # linspace misses by an ulp: only the grid point itself scores top.
    "tl0-near-grid": (DeviceParams(t0=1.0, theta=1.0, tl=0.0, eta=1 / (math.e * 0.41699977),
                                   coupler=CouplerSetting.ideal(0.5)), False),
}


def long_entropy(params, r, normalized=False):
    """Oracle: the entropy of the first LONG channels at ratio r."""
    return shannon_entropy(channel_transmissions(params.with_ratio(float(r)), LONG),
                           normalized=normalized)


class TestShannonEntropy:
    def test_balanced_lossless_two_bits(self):
        # h = (1/2, 1/4, 1/8, ...) has entropy sum k/2^k = 2 bits.
        profile = channel_transmissions(lossless(0.5), 60)
        assert shannon_entropy(profile) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-9)

    def test_deterministic_profile_zero(self):
        assert shannon_entropy(channel_transmissions(lossless(1.0), 5)) == 0.0

    def test_matches_direct_sum(self, ref_params):
        profile = channel_transmissions(ref_params, 40)
        h = profile.h[profile.h > 0]
        assert shannon_entropy(profile) == pytest.approx(
            -(h * np.log(h)).sum(), rel=1e-12)

    def test_normalized_variant(self, ref_params):
        profile = channel_transmissions(ref_params, 40)
        T = profile.total
        # E_norm = (E_raw - (1-tail share adjustments))... use the algebraic
        # identity E(h/T) = E(h)/T + ln(T) * sum(h)/T with sum(h) ~ T.
        expected = shannon_entropy(profile) / T + math.log(T) * profile.h.sum() / T
        assert shannon_entropy(profile, normalized=True) == pytest.approx(
            expected, rel=1e-9)

    def test_normalized_exceeds_raw_for_lossy_device(self, ref_params):
        profile = channel_transmissions(ref_params, 40)
        assert shannon_entropy(profile, normalized=True) > shannon_entropy(profile)


class TestIdealEntropy:
    def test_endpoints(self):
        assert ideal_entropy(0.0) == 0.0
        assert ideal_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert ideal_entropy(0.5) == pytest.approx(2.0 * math.log(2.0))
        for r in (0.3, 0.49, 0.51, 0.7):
            assert ideal_entropy(r) < ideal_entropy(0.5)

    def test_symmetry(self):
        for r in (0.1, 0.25, 0.4):
            assert ideal_entropy(r) == pytest.approx(ideal_entropy(1 - r))

    def test_matches_profile_entropy(self):
        for r in (0.2, 0.5, 0.8):
            profile = channel_transmissions(lossless(r), 400)
            assert ideal_entropy(r) == pytest.approx(
                shannon_entropy(profile), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ParameterError):
            ideal_entropy(1.5)


class TestOptimizeRatio:
    def test_lossless_optimum_is_half(self):
        scan = optimize_ratio(lossless(0.5))
        assert scan.r_star == pytest.approx(0.5, abs=1e-6)
        assert scan.e_star == pytest.approx(2.0 * math.log(2.0), rel=1e-6)

    def test_reference_device_optimum(self, ref_params):
        scan = optimize_ratio(ref_params)
        assert scan.r_star == pytest.approx(0.446, abs=0.010)

    def test_refined_beats_grid(self):
        for device, (params, normalized) in OPTIMA.items():
            scan = optimize_ratio(params, normalized=normalized)
            assert scan.e_star >= scan.entropy.max(), device

    def test_scan_arrays_consistent(self, ref_params):
        scan = optimize_ratio(ref_params)
        assert scan.r_grid.shape == scan.entropy.shape
        i = int(np.argmax(scan.entropy))
        assert abs(scan.r_star - scan.r_grid[i]) <= 5e-3

    def test_normalized_optimum_close_to_raw(self, ref_params):
        # Both entropy conventions place the optimum in the same band.
        raw = optimize_ratio(ref_params).r_star
        norm = optimize_ratio(ref_params, normalized=True).r_star
        assert abs(raw - norm) < 0.01
        assert norm == pytest.approx(0.446, abs=0.010)

    def test_losses_pull_optimum_below_half(self, ref_params):
        assert optimize_ratio(ref_params).r_star < 0.5

    def test_flat_landscape_raises(self):
        dead = DeviceParams(t0=0.92, theta=0.955, tl=0.94, eta=0.0,
                            coupler=CouplerSetting.ideal(0.5))
        with pytest.raises(NoMaximumError):
            optimize_ratio(dead)

    def test_r_star_matches_long_profile_argmax(self):
        # The LONG-channel oracle scanned at steps of 1e-3, then across the
        # bracket of its maximum at steps of 1e-7.
        for device, (params, normalized) in OPTIMA.items():
            scan = optimize_ratio(params, normalized=normalized)
            r = np.linspace(0.0, 1.0, 1001)
            i = int(np.argmax(pass_entropy(params, r, normalized)))
            r = np.linspace(r[max(i - 1, 0)], r[min(i + 1, 1000)], 20001)
            r_long = r[np.argmax(pass_entropy(params, r, normalized))]
            assert scan.r_star == pytest.approx(r_long, abs=1e-6), device

    @pytest.mark.parametrize("normalized", [False, True])
    def test_grid_matches_per_ratio_profiles(self, ref_params, normalized):
        # Oracle: the public one-ratio path, summed over LONG channels.
        scan = optimize_ratio(ref_params, normalized=normalized)
        expected = [long_entropy(ref_params, r, normalized) for r in scan.r_grid]
        assert scan.entropy == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert scan.e_star == pytest.approx(
            long_entropy(ref_params, scan.r_star, normalized), rel=1e-12)

    def test_lossless_grid_matches_ideal_entropy(self):
        # Near r = 1, rho = r nears 1 and the channels reach far: at r = 0.985
        # the first 60 of them hold 0.063 nats less than the whole series.
        scan = optimize_ratio(lossless(0.5))
        expected = [ideal_entropy(float(r)) for r in scan.r_grid]
        assert scan.entropy == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("loss", ["eta", "t0", "theta", "tl"])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_dark_devices(self, loss, normalized):
        # A zero total transmission at any grid point cannot be normalised;
        # raw entropy is flat when no light arrives at all.  With tl = 0
        # only channel 1 is lit, and -h ln h peaks at h_1 = 1/e.
        params = reference_device(**{loss: 0.0})
        if normalized:
            with pytest.raises(DegenerateDeviceError):
                optimize_ratio(params, normalized=True)
        elif loss != "tl":
            with pytest.raises(NoMaximumError):
                optimize_ratio(params)
        else:
            scan = optimize_ratio(params)
            h1_per_r = params.t0 * params.theta * params.eta
            assert scan.r_star == pytest.approx(1 / (math.e * h1_per_r), abs=1e-6)
            assert scan.e_star == pytest.approx(1 / math.e, rel=1e-12)
