"""Shannon-entropy figure of merit and coupler-ratio optimization.

The entropy E = -sum_k h_k ln(h_k) is evaluated on the *unnormalized*
channel transmissions by default (for a lossy device sum(h) < 1), which is
the convention under which the reference-device optimum lands at r = 0.446.
A flag exposes the normalized variant for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import ChannelProfile, DeviceParams, _series, normalized_channels
from .errors import DegenerateDeviceError, NoMaximumError, ParameterError

#: Channel truncation for entropy work.  The tail beyond it is dropped: that
#: lowers E by up to 1.6e-5 nats on the reference device (r = 0.971; 3.0e-5
#: normalized) and 0.063 nats on the lossless one (r = 0.985, rho = r near 1).
#: The optimum does not move: r_star is the same with 3,000 channels.
ENTROPY_N_CHANNELS = 60

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _plogp(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def shannon_entropy(profile: ChannelProfile, normalized: bool = False) -> float:
    """E = -sum_k h_k ln(h_k) in nats, with 0*ln(0) taken as 0.

    With ``normalized=True`` the entropy of H_k = h_k/T is returned instead.
    """
    values = normalized_channels(profile) if normalized else profile.h
    return float(-_plogp(np.asarray(values, dtype=float)).sum())


def ideal_entropy(r: float) -> float:
    """Closed-form entropy of the lossless ideal-coupler profile:
    E = -2r ln(r) - 2(1-r) ln(1-r), maximal at r = 1/2."""
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"r must lie in [0, 1], got {r}")
    e = 0.0
    if 0.0 < r:
        e -= 2.0 * r * math.log(r)
    if r < 1.0:
        e -= 2.0 * (1.0 - r) * math.log(1.0 - r)
    return e


@dataclass(frozen=True)
class EntropyScan:
    """Entropy-vs-ratio scan with the refined maximizer."""

    r_grid: np.ndarray
    entropy: np.ndarray
    r_star: float
    e_star: float


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def optimize_ratio(params: DeviceParams,
                   grid_step: float = 1e-3,
                   refine_tol: float = 1e-5,
                   normalized: bool = False,
                   n_channels: int = ENTROPY_N_CHANNELS) -> EntropyScan:
    """Find the ideal-coupler division ratio maximizing the entropy.

    A coarse grid scan at ``grid_step`` brackets the maximum, then
    golden-section search refines it to |dr| < ``refine_tol``.  The fixed
    losses (t0, theta, tl, eta) are taken from ``params``; its coupler
    setting is ignored.
    """

    def entropy_at(r):
        """Entropy of the first ``n_channels`` at ratio r, a scalar or a grid."""
        h, remainder = _series(params, n_channels, r)
        if normalized:
            total = h.sum(axis=-1) + remainder
            if np.any(total <= 0.0):
                raise DegenerateDeviceError("total transmission is zero")
            h = h / total[..., None]
        return -_plogp(h).sum(axis=-1)

    n_grid = int(round(1.0 / grid_step)) + 1
    r_grid = np.linspace(0.0, 1.0, n_grid)
    e_grid = entropy_at(r_grid)
    if np.ptp(e_grid) < 1e-12:
        raise NoMaximumError("entropy landscape is flat; no maximum exists")
    i = int(np.argmax(e_grid))
    lo = r_grid[max(i - 1, 0)]
    hi = r_grid[min(i + 1, n_grid - 1)]
    r_star, e_star = _golden_section_max(entropy_at, lo, hi, refine_tol)
    # Refinement must never lose to the coarse grid.
    if e_grid[i] > e_star:
        r_star, e_star = float(r_grid[i]), float(e_grid[i])
    return EntropyScan(r_grid=r_grid, entropy=e_grid, r_star=float(r_star),
                       e_star=float(e_star))
