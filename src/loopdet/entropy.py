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

from .device import ChannelProfile, DeviceParams, _geometric, normalized_channels
from .errors import DegenerateDeviceError, NoMaximumError

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
                   normalized: bool = False) -> EntropyScan:
    """Find the ideal-coupler division ratio maximizing the entropy.

    A coarse grid scan at ``grid_step`` brackets the maximum, then
    golden-section search refines it to |dr| < ``refine_tol``.  The fixed
    losses (t0, theta, tl, eta) are taken from ``params``; its coupler
    setting is ignored.  The entropy sums every channel in closed form.
    """

    def entropy_at(r):
        """Entropy over all channels at ratio r, a scalar or a grid: with
        h_k = h_2 * rho**(k-2), E = -h_1 ln h_1 - h_2 ln h_2 / (1 - rho)
        - h_2 rho ln rho / (1 - rho)**2."""
        h1, h2, rho = (np.asarray(x, dtype=float) for x in _geometric(params, r))
        e = -_plogp(h1) - _plogp(h2) / (1.0 - rho) - h2 * _plogp(rho) / (1.0 - rho) ** 2
        if normalized:
            total = h1 + h2 / (1.0 - rho)
            if np.any(total <= 0.0):
                raise DegenerateDeviceError("total transmission is zero")
            e = e / total + np.log(total)
        return e

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
