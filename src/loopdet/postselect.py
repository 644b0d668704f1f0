"""Heralded postselection with perfectly correlated photon pairs.

A pair source emits n photons into each of two arms with the source's
photon-number statistics.  The herald arm is measured by the loop detector;
pulses whose herald outcome satisfies the accept rule keep their signal-arm
partner.  The conditioned photon-number pmf is

    pmf_out(n)  propto  pmf_in(n) * P(accept | n photons into herald arm)

and the figure of merit is w_M = c_M(out) / c_M(in).  ``postselect`` runs one
conditioning kernel on one pmf, ``wm_curve`` on the pmfs of its whole mu grid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .clickstats import ACCEPT_RULES, PhotonSource, _poisson_rows, _ratio, binomial_matrix
from .device import ChannelProfile
from .errors import NoAcceptanceError, ParameterError
from .montecarlo import herald_acceptance_from_mc  # noqa: F401  the bench reaches it here


def acceptance_probability(rule: str, n, profile: ChannelProfile):
    """P(herald accepted | n photons into the herald arm).

    ``n`` is a photon number or an array of them; the result has its shape.
    With q = 1 - sum(h) the probability that a photon is lost, the rules are
    exactly-one: sum_k [(q + h_k)^n - q^n], one-or-more: 1 - q^n, and
    first-channel-only: (q + h_1)^n - q^n.
    """
    n = np.asarray(n)
    if n.dtype.kind not in "iuf" or not np.isfinite(n).all() or np.any(n < 0) or np.any(n % 1):
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
    cm_in: float  # NaN when the pmf has no mass at n >= 1
    cm_out: float  # likewise
    w_M: float  # cm_out / cm_in; NaN when cm_in is 0 or either is NaN
    herald_rate: float
    conditioned_pmf: np.ndarray
    dropped_mass: float = 0.0  # source mass beyond the photon-number cut-off


def _checked_table(acceptance) -> np.ndarray:
    """An external P(accept | n) table: 1-d floats, each finite and in [0, 1]."""
    accept = np.asarray(acceptance, dtype=float)
    if accept.ndim != 1 or not np.all((accept >= 0.0) & (accept <= 1.0)):  # NaN fails
        raise ParameterError("acceptance must be a 1-d table of numbers in [0, 1]")
    return accept


def _sums(rows, first, stop) -> np.ndarray:
    """Sum of rows[i, first:stop[i]] per row, bit for bit as np.sum of that
    slice: a masked reduction hands each unmasked run to numpy's pairwise
    summation alone, so no entry beyond it, even a zero, regroups its terms."""
    j = np.arange(rows.shape[1])
    return np.add.reduce(rows, axis=1, where=(j >= first) & (j < stop[:, None]))


def _condition(pmfs, sizes, rule, profile, acceptance, transmission):
    """Pmf rows conditioned on P(accept | n), the rule's on ``profile`` or the
    checked table ``acceptance``: (cm_in, cm_out, w_M, herald_rate), NaN where
    the rule never fires, and the output pmfs.  Row i is 0 from n = sizes[i]
    on; its sums and thinning stop there, so it matches alone."""
    accept = (acceptance_probability(rule, np.arange(pmfs.shape[1]), profile)
              if acceptance is None else _checked_table(acceptance))
    if not 0.0 < transmission <= 1.0:
        raise ParameterError("signal_transmission must lie in (0, 1]")
    if accept.size < pmfs.shape[1]:
        raise ParameterError(f"acceptance table too short: {accept.size} < {pmfs.shape[1]}")
    joint = pmfs * accept[: pmfs.shape[1]]
    rate = _sums(joint, 0, sizes)
    fired = rate > 0.0
    out = np.divide(joint, rate[:, None], out=np.zeros_like(joint), where=fired[:, None])
    if transmission < 1.0:  # binomial loss; row n of the matrix does not depend on its size
        thin = binomial_matrix(pmfs.shape[1], 1.0 - transmission, transmission)
        for row, size in zip(out, sizes):
            row[:size] = row[:size] @ thin[:size, :size]
    both, stop = np.concatenate([pmfs, out]), np.concatenate([sizes, sizes])
    ge1, ge2 = (_sums(both, k, stop).reshape(2, -1) for k in (1, 2))
    cm_in, cm_out = _ratio(ge2, ge1)
    return np.where(fired, [cm_in, cm_out, _ratio(cm_out, cm_in), rate], np.nan), out


def postselect(source: PhotonSource, herald_profile: ChannelProfile,
               rule: str = "exactly-one",
               signal_transmission: float = 1.0,
               n_max: int | None = None,
               acceptance=None) -> PostselectResult:
    """Condition the signal arm on the herald-arm accept rule.

    ``signal_transmission`` models imperfect collection on the signal arm
    (default 1: ideal pair correlation and unit collection).  ``acceptance``
    may supply an externally estimated P(accept | n) array (e.g. from noisy
    Monte Carlo herald runs), overriding the analytic rule; an entry that is
    not a number in [0, 1] is a ParameterError.  ``dropped_mass`` reports
    the source mass beyond the cut-off ``n_max``.
    """
    pmf = source.pmf_array(n_max)
    values, out = _condition(pmf[None], np.array([pmf.size]), rule, herald_profile, acceptance,
                             signal_transmission)
    if not values[3, 0] > 0.0:
        raise NoAcceptanceError("accept rule never fires for this source")
    return PostselectResult(*values[:, 0].tolist(), conditioned_pmf=out[0],
                            dropped_mass=max(1.0 - float(pmf.sum()), 0.0))


def wm_curve(mu_grid, herald_profile: ChannelProfile,
             rule: str = "exactly-one",
             signal_transmission: float = 1.0,
             acceptance=None) -> list[dict]:
    """Postselection summary for each mu: one pass of ``postselect``'s kernel
    over the Poisson pmfs, each to its own cut-off, with the rule's acceptance
    to the largest cut-off or ``acceptance``, checked once; each row has the
    bits ``postselect`` gives at its mu.  A mu at which the rule never fires
    (mu = 0) is a NaN row; any other error, such as a short table, propagates."""
    sources = [PhotonSource.poissonian(mu) for mu in mu_grid]
    cuts = np.array([source.n_max for source in sources], dtype=int)
    pmfs = _poisson_rows([source.mu for source in sources], cuts)
    values, _ = _condition(pmfs, cuts + 1, rule, herald_profile, acceptance, signal_transmission)
    keys = [f.name for f in fields(PostselectResult)[:4]]  # the rows of _condition
    return [{"mu": source.mu, **dict(zip(keys, row))}
            for source, row in zip(sources, values.T.tolist())]
