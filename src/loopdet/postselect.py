"""Heralded postselection with perfectly correlated photon pairs.

A pair source emits n photons into each of two arms with the source's
photon-number statistics.  The herald arm is measured by the loop detector;
pulses whose herald outcome satisfies the accept rule keep their signal-arm
partner.  The conditioned photon-number pmf is

    pmf_out(n)  propto  pmf_in(n) * P(accept | n photons into herald arm)

and the figure of merit is w_M = c_M(out) / c_M(in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clickstats import PhotonSource, _check_photons, binomial_matrix
from .device import ChannelProfile, DeviceParams
from .errors import NoAcceptanceError, ParameterError

#: Supported herald accept rules.
ACCEPT_RULES = ("exactly-one", "one-or-more", "first-channel-only")


def acceptance_probability(rule: str, n, profile: ChannelProfile):
    """P(herald accepted | n photons into the herald arm).

    ``n`` is a photon number or an array of them; the result has its shape.
    With q = 1 - sum(h) the probability that a photon is lost, the rules are
    exactly-one: sum_k [(q + h_k)^n - q^n], one-or-more: 1 - q^n, and
    first-channel-only: (q + h_1)^n - q^n.
    """
    n = np.asarray(n)
    if np.any(n < 0) or np.any(n % 1):
        raise ParameterError(f"n must hold nonnegative integers, got {n}")
    h = profile.h
    lost = max(1.0 - float(h.sum()), 0.0)
    if rule == "exactly-one":
        # All photons in channel k or lost, at least one in channel k.
        accept = ((lost + h) ** n[..., None] - lost ** n[..., None]).sum(axis=-1)
    elif rule == "one-or-more":
        accept = 1.0 - lost ** n
    elif rule == "first-channel-only":
        accept = (lost + float(h[0])) ** n - lost ** n
    else:
        raise ParameterError(f"unknown accept rule {rule!r}; choose from {ACCEPT_RULES}")
    return float(accept) if accept.ndim == 0 else accept


@dataclass(frozen=True)
class PostselectResult:
    cm_in: float
    cm_out: float
    w_M: float  # cm_out / cm_in; NaN when cm_in = 0
    herald_rate: float
    conditioned_pmf: np.ndarray


def _thin_pmf(pmf: np.ndarray, transmission: float) -> np.ndarray:
    """Binomial loss applied to a photon-number pmf."""
    if transmission >= 1.0:
        return pmf
    return pmf @ binomial_matrix(pmf.size, 1.0 - transmission, transmission)


def _content(pmf: np.ndarray) -> float:
    p_ge1 = float(pmf[1:].sum())
    if p_ge1 <= 0.0:
        return 0.0
    return float(pmf[2:].sum()) / p_ge1


def postselect(source: PhotonSource, herald_profile: ChannelProfile,
               rule: str = "exactly-one",
               signal_transmission: float = 1.0,
               n_max: int | None = None,
               acceptance=None) -> PostselectResult:
    """Condition the signal arm on the herald-arm accept rule.

    ``signal_transmission`` models imperfect collection on the signal arm
    (default 1: ideal pair correlation and unit collection).  ``acceptance``
    may supply an externally estimated P(accept | n) array (e.g. from noisy
    Monte Carlo herald runs), overriding the analytic rule.
    """
    if not 0.0 < signal_transmission <= 1.0:
        raise ParameterError("signal_transmission must lie in (0, 1]")
    pmf = source.pmf_array(n_max)
    if acceptance is None:
        accept = acceptance_probability(rule, np.arange(pmf.size), herald_profile)
    else:
        accept = np.asarray(acceptance, dtype=float)
        if accept.size < pmf.size:
            raise ParameterError(
                f"acceptance table too short: {accept.size} < {pmf.size}")
        accept = accept[: pmf.size]

    joint = pmf * accept
    herald_rate = float(joint.sum())
    if herald_rate <= 0.0:
        raise NoAcceptanceError("accept rule never fires for this source")
    conditioned = joint / herald_rate
    output_pmf = _thin_pmf(conditioned, signal_transmission)

    cm_in = _content(pmf)
    cm_out = _content(output_pmf)
    w_M = cm_out / cm_in if cm_in > 0.0 else math.nan
    return PostselectResult(cm_in=cm_in, cm_out=cm_out, w_M=w_M,
                            herald_rate=herald_rate,
                            conditioned_pmf=output_pmf)


def herald_acceptance_from_mc(params: DeviceParams, n_max: int,
                              rule: str, n_trials: int, seed: int,
                              n_channels: int = 15,
                              workers: int = 1) -> np.ndarray:
    """Empirical P(accept | n) for n = 0..n_max from noisy herald runs.

    Used instead of the analytic Fock statistics when dark counts and
    afterpulses in the herald arm should be taken into account.  Photon
    number n runs on seed + n; the batches of all n share one job list.
    """
    from .montecarlo import _simulations, window_clicks

    if rule not in ACCEPT_RULES:
        raise ParameterError(f"unknown accept rule {rule!r}")
    _check_photons(n_max, f"n_max = {n_max}")  # before any run, not at n_max
    accept = np.zeros(n_max + 1)
    runs = [(PhotonSource.fock(n), seed + n) for n in range(n_max + 1)]
    for n, result in enumerate(_simulations(runs, params, n_trials, workers)):
        pulse, channel = window_clicks(result, n_channels)
        clicks = np.bincount(pulse, minlength=n_trials)
        one = clicks == 1
        if rule == "first-channel-only":
            one[pulse[channel != 1]] = False
        # one-or-more as 1 - P(0 clicks) rounds as the empirical 1 - p0 does
        accept[n] = (1.0 - np.mean(clicks == 0) if rule == "one-or-more"
                     else np.mean(one))
    return accept


def wm_curve(mu_grid, herald_profile: ChannelProfile,
             rule: str = "exactly-one",
             signal_transmission: float = 1.0,
             acceptance=None) -> list[dict]:
    """Postselection summary for each mu.

    A mu at which the rule never fires (mu = 0) becomes a NaN row; any other
    error, such as an ``acceptance`` table shorter than the Poisson cut-off,
    propagates.
    """
    rows = []
    for mu in mu_grid:
        row = {"mu": float(mu)}
        try:
            res = postselect(PhotonSource.poissonian(mu), herald_profile,
                             rule=rule, signal_transmission=signal_transmission,
                             acceptance=acceptance)
            row.update(cm_in=res.cm_in, cm_out=res.cm_out, w_M=res.w_M,
                       herald_rate=res.herald_rate)
        except NoAcceptanceError:
            row.update(cm_in=math.nan, cm_out=math.nan, w_M=math.nan,
                       herald_rate=math.nan)
        rows.append(row)
    return rows
