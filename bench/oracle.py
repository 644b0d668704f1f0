"""Independent reference computations for the benchmark's output checks.

Nothing here calls loopdet: every value is rebuilt from the model's
formulas (the loss formula in the docstring of ``loopdet.device``, Poisson
thinning, closed-form herald acceptances) so that a check compares the
program against a computation made apart from it.
"""

from __future__ import annotations

import math

import numpy as np

#: Sampling band of the Monte Carlo checks, in binomial standard deviations.
#: Six sigma keeps the chance of a false alarm below 1e-8 per comparison.
N_SIGMA = 6.0


def channel_h(t0, theta, tl, eta, r, n_channels):
    """h_1..h_N of the ideal coupler at ratio r (t13 = t24 = r, t14 = t23 = 1 - r).

    h_1 = t0 theta t13 eta, h_k = t0 t14 theta^k tl^(k-1) t23 t24^(k-2) eta.
    """
    k = np.arange(2, n_channels + 1, dtype=float)
    h = np.empty(n_channels)
    h[0] = t0 * theta * r * eta
    h[1:] = t0 * (1.0 - r) ** 2 * theta ** k * tl ** (k - 1.0) * r ** (k - 2.0) * eta
    return h


def total_h(t0, theta, tl, eta, r):
    """Sum over all channels: h_1 plus the geometric series from h_2 on."""
    h1, h2 = channel_h(t0, theta, tl, eta, r, 2)
    return h1 + h2 / (1.0 - theta * tl * r)


def poisson_pmf(mu, n_max):
    """Poisson pmf for n = 0..n_max by the recursion p_n = p_(n-1) mu / n."""
    p = np.empty(n_max + 1)
    p[0] = math.exp(-mu)
    for n in range(1, n_max + 1):
        p[n] = p[n - 1] * mu / n
    return p


def poisson_cutoff(mu):
    """The Fock cut-off loopdet documents for Poisson mixtures:
    ceil(mu + 10 sqrt(mu) + 20)."""
    return int(math.ceil(mu + 10.0 * math.sqrt(mu) + 20.0))


def acceptance(rule, h, n_max):
    """Closed-form P(accept | n) for n = 0..n_max; q = 1 - sum(h) is lost."""
    n = np.arange(n_max + 1, dtype=float)
    q = 1.0 - h.sum()
    if rule == "exactly-one":
        return ((q + h[:, None]) ** n - q ** n).sum(axis=0)
    if rule == "one-or-more":
        return 1.0 - q ** n
    if rule == "first-channel-only":
        return (q + h[0]) ** n - q ** n
    raise ValueError(rule)


def content(pmf):
    """Multi-photon content P(n >= 2) / P(n >= 1) of a photon-number pmf."""
    return pmf[2:].sum() / pmf[1:].sum()


def poisson_binomial(c):
    """pmf of the number of successes of independent events with
    probabilities c, by direct convolution."""
    p = np.zeros(len(c) + 1)
    p[0] = 1.0
    for j, ck in enumerate(c):
        p[1:j + 2] = p[1:j + 2] * (1.0 - ck) + p[:j + 1] * ck
        p[0] *= 1.0 - ck
    return p


def poisson_cm(mu, h):
    """Device c_M of a Poisson pulse: 1 - sum_k(e^(mu h_k) - 1)/(e^(mu T) - 1)."""
    return 1.0 - np.expm1(mu * h).sum() / math.expm1(mu * h.sum())


def source_cm(mu):
    """c_M of the bare Poisson source: 1 - mu e^-mu / (1 - e^-mu)."""
    return 1.0 - mu * math.exp(-mu) / -math.expm1(-mu)


def entropy_argmax(t0, theta, tl, eta, n_channels=60, step=1e-4):
    """Maximiser of -sum_k h_k ln h_k over r by a dense scan of [0, 1],
    refined by the parabola through the best grid point and its neighbours."""
    r = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    k = np.arange(1, n_channels + 1, dtype=float)[:, None]
    h = t0 * (1.0 - r) ** 2 * theta ** k * tl ** (k - 1.0) * r ** np.maximum(k - 2.0, 0.0) * eta
    h[0] = t0 * theta * r * eta
    with np.errstate(divide="ignore", invalid="ignore"):
        e = -np.where(h > 0.0, h * np.log(h), 0.0).sum(axis=0)
    i = int(np.clip(np.argmax(e), 1, r.size - 2))
    e0, e1, e2 = e[i - 1], e[i], e[i + 1]
    shift = 0.5 * (e0 - e2) / (e0 - 2.0 * e1 + e2)
    r_star = r[i] + shift * step
    e_star = e1 - 0.25 * (e0 - e2) * shift
    return float(r_star), float(e_star)


def within(value, expected, tol):
    return abs(value - expected) <= tol
