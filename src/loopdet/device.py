"""Analytic model of the coupler + fiber-loop + click-detector chain.

A light pulse enters port 1 of a variable-ratio coupler.  Port 3 feeds a
binary click detector, ports 2 and 4 are connected through a fiber delay
loop, so a photon that stays in the loop comes back to the coupler once per
round trip.  Detection in round trip k defines time-multiplexed channel k.

The per-channel transmissions are

    h_1 = t0 * theta * t13 * eta
    h_k = h_2 * rho**(k-2)   (k >= 2),  h_2 = t0 * theta**2 * tl * t14 * t23 * eta,
                                        rho = theta * tl * t24,

so (h_1, h_2, rho) fix the whole profile, its tail beyond any channel and
the total transmission T = h_1 + h_2 / (1 - rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (CHANNELS, NONNEGATIVE, POSITIVE, UNIT, DegenerateDeviceError,
                     DomainError, ParameterError, check, check_fields, declared)

#: Default channel truncation for analytic work.  The profile's remainder
#: carries the closed-form tail beyond it, so totals stay exact.
DEFAULT_N_CHANNELS = 30

#: Series convergence guard: the geometric tail ratio theta*tl*t24 must stay
#: below 1 by at least this margin.
CONVERGENCE_MARGIN = 1e-9


@dataclass(frozen=True)
class CouplerSetting:
    """Intensity transmissions t_ij from port i to port j of the coupler.

    A lossy coupler may pass less than all light (t13 + t14 < 1; its excess
    loss is also factored into the separate ``theta`` coefficient), but it
    never creates light: t13 + t14 > 1 or t23 + t24 > 1 is a ParameterError.

    An idealized coupler is described by the single division ratio r via
    t13 = t24 = r and t14 = t23 = 1 - r; use :meth:`ideal`.  An ``r`` that
    disagrees with the four t_ij is a ParameterError.
    """

    t13: float = declared(UNIT)
    t14: float = declared(UNIT)
    t23: float = declared(UNIT)
    t24: float = declared(UNIT)
    r: float | None = None  # division ratio of an ideal() coupler

    def __post_init__(self) -> None:
        check_fields(self)
        if self.t13 + self.t14 > 1.0 or self.t23 + self.t24 > 1.0:
            raise ParameterError(
                f"coupler creates light: t13 + t14 = {self.t13 + self.t14!r} and "
                f"t23 + t24 = {self.t23 + self.t24!r} must not exceed 1")
        if self.r is not None and (self.t13, self.t14, self.t23, self.t24) != (
                self.r, 1.0 - self.r, 1.0 - self.r, self.r):
            raise ParameterError(f"r = {self.r!r} disagrees with the four t_ij of ideal(r)")

    @classmethod
    def ideal(cls, r: float) -> "CouplerSetting":
        """Idealized single-parameter coupler with division ratio r."""
        check("r", r, UNIT)
        return cls(t13=r, t14=1.0 - r, t23=1.0 - r, t24=r, r=r)


@dataclass(frozen=True)
class DeviceParams:
    """All physical coefficients of the loop detector.

    Transmissions and probabilities are dimensionless in [0, 1]; times are
    in nanoseconds.  The loop delay must exceed the detector dead time --
    that is the whole point of the delay line.
    """

    t0: float = declared(UNIT, 0.92)  # input coupling transmission
    theta: float = declared(UNIT, 0.955)  # coupler excess transmission per pass
    tl: float = declared(UNIT, 0.94)  # fiber-loop transmission per round trip
    eta: float = declared(UNIT, 0.6)  # detector quantum efficiency
    coupler: CouplerSetting = field(default_factory=lambda: CouplerSetting.ideal(0.446))
    dark_prob_per_bin: float = declared(UNIT, 2e-7)
    afterpulse_prob: float = declared(UNIT, 8e-3)
    afterpulse_decay_ns: float = declared(POSITIVE, 200.0)
    dead_time_ns: float = declared(POSITIVE, 50.0)
    loop_delay_ns: float = declared(POSITIVE, 60.0)
    bin_width_ns: float = declared(POSITIVE, 5.0)
    duty_factor_q: float = declared(UNIT, 0.17)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.loop_delay_ns > self.dead_time_ns:
            raise ParameterError(
                "loop_delay_ns must exceed dead_time_ns "
                f"({self.loop_delay_ns} <= {self.dead_time_ns})"
            )

    def with_ratio(self, r: float) -> "DeviceParams":
        """Copy of these parameters with an ideal coupler at division ratio r."""
        return replace(self, coupler=CouplerSetting.ideal(r))


def reference_device(r: float = 0.446, **overrides) -> DeviceParams:
    """The measured reference device profile used throughout the toolkit.

    eta=0.6, theta=0.955, tl=0.94, t0=0.92, dark probability 2e-7 per 5 ns
    bin, afterpulse probability 8e-3, dead time 50 ns, loop delay 60 ns,
    duty factor 0.17.  ``r`` selects the ideal-coupler division ratio.
    """
    return DeviceParams(coupler=CouplerSetting.ideal(r), **overrides)


@dataclass(frozen=True)
class ChannelProfile:
    """Per-channel detection transmissions h_1..h_N plus the geometric tail.

    ``remainder`` carries the transmission mass beyond channel N so that
    sum(h) + remainder equals the total transmission exactly, at most 1.
    """

    h: np.ndarray
    remainder: float = declared(NONNEGATIVE)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        check_fields(self)
        if self.h.ndim != 1 or self.h.size < 1:
            raise ParameterError("profile needs at least one channel")
        if not np.all((self.h >= 0.0) & (self.h <= 1.0)):  # NaN fails too
            raise ParameterError("channel transmissions must lie in [0, 1]")
        if self.total > 1.0 + 1e-12:
            raise ParameterError(f"channel transmissions sum to {self.total!r} > 1")

    @property
    def n_channels(self) -> int:
        return int(self.h.size)

    @property
    def total(self) -> float:
        """Total transmission T = sum of all channels including the tail."""
        return float(self.h.sum() + self.remainder)

    def truncated(self, n_channels: int) -> "ChannelProfile":
        """Profile counting only the first ``n_channels``; the rest is
        treated as lost light (folded into the remainder)."""
        if not 1 <= n_channels <= self.n_channels:
            raise ParameterError(
                f"n_channels must be in [1, {self.n_channels}], got {n_channels}"
            )
        dropped = float(self.h[n_channels:].sum())
        return ChannelProfile(self.h[:n_channels].copy(), self.remainder + dropped)


def _geometric(params: DeviceParams, r=None):
    """(h_1, h_2, rho) of the channel series h_k = h_2 * rho**(k-2), k >= 2.

    A scalar or array ``r`` in [0, 1] swaps in the ideal coupler at that
    ratio.  With no light into the loop (t14 * t23 = 0) the series is finite
    whatever theta*tl*t24, and rho is returned as 0.
    """
    c = params.coupler
    if r is None:
        t13, t14, t23, t24 = c.t13, c.t14, c.t23, c.t24
    else:
        r = t13 = t24 = np.asarray(r, dtype=float)
        bad = r[~((r >= 0.0) & (r <= 1.0))]  # NaN is outside too
        if bad.size:
            check("r", float(bad[0]), UNIT)
        t14 = t23 = 1.0 - r
    a = params.t0 * params.theta * params.eta
    rho = params.theta * params.tl * t24
    looped = t14 * t23 > 0.0
    if np.any(looped & (rho >= 1.0 - CONVERGENCE_MARGIN)):
        raise DomainError(
            "channel series does not converge: theta*tl*t24 = "
            f"{float(np.max(rho * looped))!r} is too close to or above 1"
        )
    return a * t13, a * t14 * params.theta * params.tl * t23, rho * looped


def _series(params: DeviceParams, n_channels: int, r=None):
    """Channels h_1..h_N (last axis) and tail h_2 * rho**(N-1) / (1 - rho)
    beyond N, of the coupler of ``params`` or at each ratio of ``r``."""
    check("n_channels", n_channels, CHANNELS)
    h1, h2, rho = (np.asarray(x, dtype=float) for x in _geometric(params, r))
    tail = h2[..., None] * rho[..., None] ** np.arange(n_channels - 1)
    h = np.concatenate([h1[..., None], tail], axis=-1)
    return h, h2 * rho ** (n_channels - 1) / (1.0 - rho)


def channel_transmissions(params: DeviceParams,
                          n_channels: int = DEFAULT_N_CHANNELS) -> ChannelProfile:
    """Per-channel transmissions h_1..h_N and the closed-form tail
    h_2 * rho**(N-1) / (1 - rho) beyond N."""
    h, remainder = _series(params, n_channels)
    return ChannelProfile(h, float(remainder))


def total_transmission(params: DeviceParams) -> float:
    """Closed-form total transmission T = h_1 + h_2 / (1 - rho), the sum
    over all channels; requires theta*tl*t24 < 1."""
    h1, h2, rho = _geometric(params)
    return float(h1 + h2 / (1.0 - rho))


def _normalized(h, remainder):
    """(H, H_rest): channels h (last axis) and remainder over T = sum(h) + remainder."""
    total = h.sum(axis=-1) + remainder
    if np.any(total <= 0.0):
        raise DegenerateDeviceError("total transmission is zero")
    return h / total[..., None], remainder / total


def normalized_channels(profile: ChannelProfile) -> np.ndarray:
    """Normalized channel probabilities H_k = h_k / T.

    Together with the normalized remainder these sum to 1 exactly.
    """
    return _normalized(profile.h, profile.remainder)[0]
