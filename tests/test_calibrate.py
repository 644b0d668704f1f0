"""Loss-calibration chain: ratio statistic -> tl -> t0, with uncertainties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopdet import (
    CouplerSetting,
    DeviceParams,
    calibrate_from_channels,
    channel_transmissions,
    infer_t0,
    infer_tl,
    normalized_channels,
)
from loopdet.calibrate import DEFAULT_K_RANGE, CalibrationResult, read_channel_csv
from loopdet.errors import (
    DataError,
    DomainError,
    InconsistentMeasurementError,
    InsufficientDataError,
    ParameterError,
)


def device(t0, tl, r=0.45, theta=0.955, eta=0.6):
    return DeviceParams(t0=t0, theta=theta, tl=tl, eta=eta,
                        coupler=CouplerSetting.ideal(r))


class TestInferTl:
    def test_reference_point(self):
        assert infer_tl(0.80, 0.955) == pytest.approx(0.9424, abs=5e-4)

    def test_lossless_limit(self):
        assert infer_tl(1.0, 1.0) == pytest.approx(1.0)

    def test_out_of_range_measurement(self):
        with pytest.raises(InconsistentMeasurementError):
            infer_tl(1.2, 1.0)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            infer_tl(0.8, 0.0)
        with pytest.raises(ParameterError):
            infer_tl(-1.5, 0.955)


class TestInferT0:
    def test_reference_point(self):
        tl = infer_tl(0.80, 0.955)
        assert infer_t0(0.78, tl, 0.955) == pytest.approx(0.9188, abs=5e-4)

    def test_lossless_limit(self):
        assert infer_t0(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_singular_model(self):
        with pytest.raises(DomainError):
            infer_t0(0.78, 0.5, 0.955)

    def test_out_of_range_measurement(self):
        with pytest.raises(InconsistentMeasurementError):
            infer_t0(1.5, 0.98, 1.0)


class TestCalibrateFromChannels:
    def test_reference_measurement(self):
        # Measured ratio statistic 0.80 and T/eta = 0.78 give the published
        # pair (tl, t0) = (0.942, 0.919).
        H = np.array([0.39, 0.42, 0.13, 0.04, 0.012, 0.004, 0.0013])
        result = calibrate_from_channels(H, T_over_eta=0.78, theta=0.955)
        assert 0.75 < result.ratio_stat < 0.86
        assert result.tl_hat == pytest.approx(result.ratio_stat / (2 * 0.955)
                                              + 1 / (2 * 0.955), rel=1e-12)

    @pytest.mark.parametrize("t0", [0.85, 0.92, 0.97])
    @pytest.mark.parametrize("tl", [0.90, 0.94, 0.97])
    def test_round_trip_on_synthetic_device(self, t0, tl):
        # Channels generated by the forward model must calibrate back to the
        # generating losses within the (small, positive) approximation bias
        # of the ratio statistic.
        params = device(t0, tl)
        profile = channel_transmissions(params, 30)
        H = normalized_channels(profile)
        T_over_eta = profile.total / params.eta
        result = calibrate_from_channels(H, T_over_eta=T_over_eta, theta=0.955)
        assert result.tl_hat == pytest.approx(tl, rel=0.02)
        assert result.t0_hat == pytest.approx(t0, rel=0.02)
        assert result.tl_hat >= tl  # bias is systematically upward

    def test_lossless_loop_trips_consistency_check(self):
        # At tl = 1 the upward bias pushes the inferred tl just past 1, which
        # the consistency check flags rather than silently clipping.
        params = device(0.92, 1.0)
        profile = channel_transmissions(params, 30)
        with pytest.raises(InconsistentMeasurementError):
            calibrate_from_channels(normalized_channels(profile),
                                    T_over_eta=profile.total / params.eta,
                                    theta=0.955)

    def test_round_trip_across_ratios(self):
        for r in (0.35, 0.45, 0.55):
            params = device(0.92, 0.94, r=r)
            profile = channel_transmissions(params, 30)
            result = calibrate_from_channels(
                normalized_channels(profile),
                T_over_eta=profile.total / params.eta, theta=0.955)
            assert result.tl_hat == pytest.approx(0.94, rel=0.015)
            assert result.t0_hat == pytest.approx(0.92, rel=0.025)

    def test_sigma_propagation_scales_linearly(self):
        H = np.array([0.39, 0.42, 0.13, 0.04, 0.012, 0.004, 0.0013])
        sigma = 0.01 * H
        r1 = calibrate_from_channels(H, T_over_eta=0.78, theta=0.955,
                                     sigma=sigma)
        r2 = calibrate_from_channels(H, T_over_eta=0.78, theta=0.955,
                                     sigma=2 * sigma)
        assert r1.ratio_sigma > 0
        assert r2.ratio_sigma == pytest.approx(2 * r1.ratio_sigma, rel=1e-9)
        assert r2.tl_sigma == pytest.approx(2 * r1.tl_sigma, rel=1e-9)
        assert r2.t0_sigma == pytest.approx(2 * r1.t0_sigma, rel=1e-9)

    def test_zero_channels_skipped_with_warning(self):
        H = np.array([0.39, 0.42, 0.13, 0.0, 0.012, 0.004, 0.0013])
        result = calibrate_from_channels(H, T_over_eta=0.78, theta=0.955)
        assert len(result.warnings) == 2  # pairs (3,4) and (4,5)
        assert 3 not in result.used_k and 4 not in result.used_k

    def test_too_few_channels(self):
        with pytest.raises(InsufficientDataError):
            calibrate_from_channels([0.5, 0.3], T_over_eta=0.78, theta=0.955)

    def test_all_pairs_unusable(self):
        with pytest.raises(InsufficientDataError):
            calibrate_from_channels([0.5, 0.0, 0.0, 0.0],
                                    T_over_eta=0.78, theta=0.955)

    def test_residuals_center_on_zero(self):
        profile = channel_transmissions(device(0.92, 0.94), 30)
        result = calibrate_from_channels(
            normalized_channels(profile), T_over_eta=0.78, theta=0.955)
        assert result.residuals.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(result.used_k, np.arange(2, 7))


class TestReadChannelCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "channels.csv"
        p.write_text("k,H_k,sigma_k\n1,0.39,0.004\n2,0.42,0.004\n3,0.13,0.002\n")
        H, sigma = read_channel_csv(p)
        assert H == pytest.approx([0.39, 0.42, 0.13])
        assert sigma == pytest.approx([0.004, 0.004, 0.002])

    def test_sigma_optional_and_order_insensitive(self, tmp_path):
        p = tmp_path / "channels.csv"
        p.write_text("k,H_k\n2,0.42\n1,0.39\n3,0.13\n")
        H, sigma = read_channel_csv(p)
        assert H == pytest.approx([0.39, 0.42, 0.13])
        assert np.all(sigma == 0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("channel,prob\n1,0.5\n")
        with pytest.raises(DataError):
            read_channel_csv(p)

    def test_gapped_indices(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("k,H_k\n1,0.39\n3,0.13\n")
        with pytest.raises(DataError):
            read_channel_csv(p)

    def test_non_numeric_row(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("k,H_k\n1,oops\n")
        with pytest.raises(DataError):
            read_channel_csv(p)


def per_k_calibration(H, T_over_eta, theta, sigma=None, T_over_eta_sigma=0.0):
    """Oracle: the calibration chain one channel pair at a time, as first
    written, with a Python loop and list appends over k = 2..6."""
    H = np.asarray(H, dtype=float)
    if sigma is None:
        sigma = np.zeros_like(H)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != H.shape:
            raise DataError("sigma must have one entry per channel")
    if H.size < 3:
        raise InsufficientDataError(
            f"need at least 3 channels, got {H.size}")
    if H[0] <= 0.0:
        raise InsufficientDataError("H_1 must be positive")
    k_lo, k_hi = DEFAULT_K_RANGE
    k_hi = min(k_hi, H.size - 1)
    warnings, used_k, ratios, variances = [], [], [], []
    for k in range(k_lo, k_hi + 1):
        Hk, Hk1 = H[k - 1], H[k]
        if Hk <= 0.0 or Hk1 <= 0.0:
            warnings.append(f"channel pair (k={k}, k+1={k + 1}) skipped: zero probability")
            continue
        ratio = Hk1 / (Hk * H[0])
        var = ((sigma[k] / (Hk * H[0])) ** 2
               + (ratio / Hk * sigma[k - 1]) ** 2
               + (ratio / H[0] * sigma[0]) ** 2)
        used_k.append(k)
        ratios.append(ratio)
        variances.append(var)
    if len(ratios) < 1:
        raise InsufficientDataError("no usable channel ratios in the requested range")
    ratios = np.array(ratios)
    ratio_stat = float(ratios.mean())
    ratio_sigma = float(np.sqrt(np.sum(variances)) / len(ratios))
    tl_hat = infer_tl(ratio_stat, theta)
    t0_hat = infer_t0(T_over_eta, tl_hat, theta)
    tl_sigma = ratio_sigma / (2.0 * theta)
    denom = 2.0 * tl_hat * theta - 1.0
    t0_sigma = float(np.hypot(tl_hat / denom * T_over_eta_sigma,
                              -T_over_eta / denom ** 2 * tl_sigma))
    return CalibrationResult(
        tl_hat=tl_hat, t0_hat=t0_hat, ratio_stat=ratio_stat,
        T_over_eta=T_over_eta, used_k=np.array(used_k), ratios=ratios,
        residuals=ratios - ratio_stat, ratio_sigma=ratio_sigma,
        tl_sigma=tl_sigma, t0_sigma=t0_sigma, warnings=tuple(warnings))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are compared
        return exc


#: A channel value: measured, zero, negative or missing (NaN).
CHANNEL = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.0, -0.1, math.nan]))


@st.composite
def calibration_inputs(draw):
    """Channels from the forward model with a few entries overwritten, or
    arbitrary ones; with or without per-channel sigma."""
    theta, T_over_eta = draw(st.floats(0.5, 1.0)), draw(st.floats(0.3, 1.0))
    if draw(st.integers(0, 3)):
        n = draw(st.integers(3, 9))
        params = device(draw(st.floats(0.8, 1.0)), draw(st.floats(0.85, 0.99)),
                        r=draw(st.floats(0.2, 0.7)))
        profile = channel_transmissions(params, n)
        H = normalized_channels(profile)
        theta, T_over_eta = params.theta, profile.total / params.eta
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            H[i] = draw(CHANNEL)
    else:
        n = draw(st.integers(0, 9))
        H = np.array(draw(st.lists(CHANNEL, min_size=n, max_size=n)))
    sigma = draw(st.one_of(
        st.none(), st.lists(st.floats(0.0, 0.05), min_size=n, max_size=n)))
    return H, T_over_eta, theta, sigma, draw(st.floats(0.0, 0.05))


@settings(max_examples=300, deadline=None)
@given(calibration_inputs())
def test_array_pass_matches_per_k_loop(args):
    got = outcome(calibrate_from_channels, *args)
    want = outcome(per_k_calibration, *args)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert isinstance(got, CalibrationResult)
    for name in ("tl_hat", "t0_hat", "ratio_stat", "T_over_eta", "warnings"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("used_k", "ratios", "residuals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("ratio_sigma", "tl_sigma", "t0_sigma"):
        assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                   rel=1e-15, abs=0.0), name
