"""Shannon-entropy figure of merit and coupler-ratio optimization.

The entropy E = -sum_k h_k ln(h_k) is evaluated on the *unnormalized*
channel transmissions by default (for a lossy device sum(h) < 1), which is
the convention under which the reference-device optimum lands at r = 0.446.
A flag exposes the normalized variant for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import ChannelProfile, DeviceParams, _geometric, normalized_channels
from .errors import DegenerateDeviceError, NoMaximumError

#: Coarse scan step, and fine-scan points across its maximum's bracket: 1e-6 apart.
_GRID_STEP = 1e-3
_FINE_POINTS = 2001


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


def optimize_ratio(params: DeviceParams, *, normalized: bool = False) -> EntropyScan:
    """Find the ideal-coupler division ratio maximizing the entropy.

    A grid scan at steps of 1e-3 brackets the maximum, and a second scan of
    the bracket at steps of at most 1e-6 picks it.  The fixed losses (t0,
    theta, tl, eta) are taken from ``params``; its coupler setting is
    ignored.  The entropy sums every channel in closed form.
    """

    def entropy_at(r: np.ndarray) -> np.ndarray:
        """Entropy over all channels at each ratio of the grid r: with
        h_k = h_2 * rho**(k-2), E = -h_1 ln h_1 - h_2 ln h_2 / (1 - rho)
        - h_2 rho ln rho / (1 - rho)**2."""
        h1, h2, rho = _geometric(params, r)
        e = -_plogp(h1) - _plogp(h2) / (1.0 - rho) - h2 * _plogp(rho) / (1.0 - rho) ** 2
        if normalized:
            total = h1 + h2 / (1.0 - rho)
            if np.any(total <= 0.0):
                raise DegenerateDeviceError("total transmission is zero")
            e = e / total + np.log(total)
        return e

    n_grid = int(round(1.0 / _GRID_STEP)) + 1
    r_grid = np.linspace(0.0, 1.0, n_grid)
    e_grid = entropy_at(r_grid)
    if np.ptp(e_grid) < 1e-12:
        raise NoMaximumError("entropy landscape is flat; no maximum exists")
    i = int(np.argmax(e_grid))
    # The coarse maximum goes first, as linspace may miss it by an ulp, so
    # e_star is never below the grid's and a tie keeps the grid point.
    r_fine = np.r_[r_grid[i], np.linspace(r_grid[max(i - 1, 0)],
                                          r_grid[min(i + 1, n_grid - 1)], _FINE_POINTS)]
    e_fine = entropy_at(r_fine)
    j = int(np.argmax(e_fine))
    return EntropyScan(r_grid=r_grid, entropy=e_grid, r_star=float(r_fine[j]),
                       e_star=float(e_fine[j]))
