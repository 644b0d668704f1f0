"""Loss-model inversion: estimate the loop and input-coupling transmissions
from measured normalized channel probabilities and the total transmission.

The chain is: the per-k ratio H_{k+1}/(H_k H_1) ~ 2*theta*tl - 1 gives tl,
then the r-independent part of the simplified total transmission,
T/eta ~ t0*(2*tl*theta - 1)/tl, gives t0.  The coupler excess transmission
theta is taken as a known, independently measured input; the module does
not attempt to fit three parameters from one ratio.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DomainError,
    InconsistentMeasurementError,
    InsufficientDataError,
    ParameterError,
)

#: 1-indexed channels k whose ratios H_{k+1}/(H_k H_1) enter the mean.
DEFAULT_K_RANGE = (2, 6)


def infer_tl(ratio_stat: float, theta: float) -> float:
    """Loop transmission from the channel-ratio statistic: (ratio+1)/(2*theta)."""
    if theta <= 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")
    if ratio_stat <= -1.0:
        raise ParameterError(f"ratio statistic must exceed -1, got {ratio_stat}")
    tl_hat = (ratio_stat + 1.0) / (2.0 * theta)
    if not 0.0 <= tl_hat <= 1.0:
        raise InconsistentMeasurementError(
            f"inferred tl = {tl_hat!r} is outside [0, 1]")
    return tl_hat


def infer_t0(T_over_eta: float, tl: float, theta: float) -> float:
    """Input coupling transmission from T/eta: T_over_eta * tl / (2*tl*theta - 1)."""
    denom = 2.0 * tl * theta - 1.0
    if denom <= 0.0:
        raise DomainError(
            f"2*tl*theta - 1 = {denom!r} <= 0: the first-term model does not apply")
    t0_hat = T_over_eta * tl / denom
    if not 0.0 <= t0_hat <= 1.0:
        raise InconsistentMeasurementError(
            f"inferred t0 = {t0_hat!r} is outside [0, 1]")
    return t0_hat


@dataclass(frozen=True)
class CalibrationResult:
    tl_hat: float
    t0_hat: float
    ratio_stat: float
    T_over_eta: float
    used_k: np.ndarray          # 1-indexed k values whose ratios were used
    ratios: np.ndarray          # per-k ratio H_{k+1}/(H_k H_1)
    residuals: np.ndarray       # per-k deviation from the mean ratio
    ratio_sigma: float
    tl_sigma: float
    t0_sigma: float
    warnings: tuple[str, ...] = field(default=())


def calibrate_from_channels(H,
                            T_over_eta: float,
                            theta: float,
                            sigma=None,
                            T_over_eta_sigma: float = 0.0) -> CalibrationResult:
    """Full calibration chain from measured normalized channel probabilities.

    ``H`` are the measured H_k (1-indexed channel k = position k+1 in the
    list), optionally with per-channel standard errors ``sigma``.  The pairs
    k = 2..6 that the data hold enter the mean; a pair with a nonpositive H
    is skipped with a warning.  Uncertainties are propagated linearly.
    """
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

    k = np.arange(DEFAULT_K_RANGE[0], min(DEFAULT_K_RANGE[1], H.size - 1) + 1)
    skipped = (H[k - 1] <= 0.0) | (H[k] <= 0.0)  # a NaN pair is kept
    warnings = tuple(f"channel pair (k={j}, k+1={j + 1}) skipped: zero probability"
                     for j in k[skipped])
    k = k[~skipped]
    if k.size < 1:
        raise InsufficientDataError("no usable channel ratios in the requested range")
    Hk = H[k - 1]
    ratios = H[k] / (Hk * H[0])
    # Linearized variance of each ratio in its three H entries.
    variances = ((sigma[k] / (Hk * H[0])) ** 2
                 + (ratios / Hk * sigma[k - 1]) ** 2
                 + (ratios / H[0] * sigma[0]) ** 2)
    ratio_stat = float(ratios.mean())
    ratio_sigma = float(np.sqrt(variances.sum()) / k.size)
    tl_hat = infer_tl(ratio_stat, theta)
    t0_hat = infer_t0(T_over_eta, tl_hat, theta)

    tl_sigma = ratio_sigma / (2.0 * theta)
    denom = 2.0 * tl_hat * theta - 1.0
    dt0_dT = tl_hat / denom
    dt0_dtl = -T_over_eta / denom ** 2
    t0_sigma = float(np.hypot(dt0_dT * T_over_eta_sigma, dt0_dtl * tl_sigma))

    return CalibrationResult(
        tl_hat=tl_hat,
        t0_hat=t0_hat,
        ratio_stat=ratio_stat,
        T_over_eta=T_over_eta,
        used_k=k,
        ratios=ratios,
        residuals=ratios - ratio_stat,
        ratio_sigma=ratio_sigma,
        tl_sigma=tl_sigma,
        t0_sigma=t0_sigma,
        warnings=warnings,
    )


def read_channel_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read measured channel probabilities from a CSV with columns
    k, H_k, sigma_k (header row required; sigma column optional)."""
    ks, Hs, sigmas = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty CSV")
        names = [n.strip() for n in reader.fieldnames]
        if "k" not in names or "H_k" not in names:
            raise DataError(f"{path}: expected columns 'k' and 'H_k', got {names}")
        has_sigma = "sigma_k" in names
        for row in reader:
            row = {k.strip(): v for k, v in row.items() if k is not None}
            try:
                ks.append(int(row["k"]))
                Hs.append(float(row["H_k"]))
                sigmas.append(float(row["sigma_k"]) if has_sigma and row["sigma_k"] else 0.0)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad row {row!r}") from exc
    if not ks:
        raise DataError(f"{path}: no data rows")
    order = np.argsort(ks)
    ks = np.array(ks)[order]
    if not np.array_equal(ks, np.arange(1, ks.size + 1)):
        raise DataError(f"{path}: channel indices must be 1..N, got {ks.tolist()}")
    return np.array(Hs)[order], np.array(sigmas)[order]
