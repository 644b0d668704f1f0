"""Click-number statistics of the loop detector.

Given input photon statistics and a channel profile, these routines give
the exact distribution of the number of *distinct* channels that click in
one pulse, and the derived quantities p0, p1, pM and the multi-photon
content c_M = pM / (p1 + pM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import ChannelProfile
from .errors import DegenerateDeviceError, DomainError, ParameterError, UndefinedContentError


@dataclass(frozen=True)
class PhotonSource:
    """Input photon-number statistics.

    One of a Poissonian pulse of mean ``mu``, a Fock state of ``n`` photons,
    or an explicit pmf over n = 0..n_max.
    """

    kind: str
    mu: float = 0.0
    n: int = 0
    pmf: np.ndarray | None = None

    @classmethod
    def poissonian(cls, mu: float) -> "PhotonSource":
        if not 0 <= mu < math.inf:
            raise ParameterError(f"mu must be finite and >= 0, got {mu}")
        return cls(kind="poissonian", mu=float(mu))

    @classmethod
    def fock(cls, n: int) -> "PhotonSource":
        return cls(kind="fock", n=_check_count(n, "n"))

    @classmethod
    def custom(cls, pmf) -> "PhotonSource":
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ParameterError("pmf must be a nonempty 1-d sequence")
        if not np.all(pmf >= 0):
            raise ParameterError("pmf has negative or NaN entries")
        if abs(pmf.sum() - 1.0) > 1e-9:
            raise ParameterError(f"pmf sums to {pmf.sum()!r}, not 1")
        return cls(kind="custom", pmf=pmf)

    @property
    def n_max(self) -> int:
        """Largest photon number of the source: the Poisson cut-off, the
        Fock n or the last pmf index; above MAX_PHOTONS is a DomainError."""
        if self.kind == "poissonian":
            return poisson_truncation(self.mu)
        n = self.n if self.kind == "fock" else self.pmf.size - 1
        return _check_photons(n, f"a {self.kind} source")

    def pmf_array(self, n_max: int | None = None) -> np.ndarray:
        """Photon-number pmf truncated at ``n_max`` (inclusive), by default
        at :attr:`n_max`; above MAX_PHOTONS is a DomainError, and a negative
        or non-integer ``n_max`` a ParameterError.

        For a Poissonian source the default truncation mu + 10*sqrt(mu) + 20
        leaves tail mass far below 1e-9.
        """
        n_max = self.n_max if n_max is None else _check_photons(n_max, f"n_max = {n_max}")
        if self.kind == "custom":
            return self.pmf[: n_max + 1]
        if self.kind == "fock":
            out = np.zeros(n_max + 1)
            if self.n <= n_max:
                out[self.n] = 1.0
            return out
        ns = np.arange(n_max + 1)
        if self.mu == 0.0:
            out = np.zeros(n_max + 1)
            out[0] = 1.0
            return out
        # Stable Poisson pmf via log-space evaluation.
        logp = ns * math.log(self.mu) - self.mu - np.array(
            [math.lgamma(n + 1.0) for n in ns])
        return np.exp(logp)


#: Largest photon number a source may reach: the Poisson cut-off, the Fock
#: n or the last custom pmf entry.  The Monte Carlo holds about 30 bytes per
#: photon of a block, which is one 8,192-pulse batch or at most 2**17
#: expected pulses plus photons, so 1,000 photons per pulse peak near
#: 270 MB; the click kernel's (n+1) x (n+1) binomial matrices take 8 MB.
MAX_PHOTONS = 1000


def _check_count(n, name: str) -> int:
    if not (0 <= n < math.inf and int(n) == n):  # NaN and inf fail too
        raise ParameterError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def _check_photons(n_max: int, what: str) -> int:
    n_max = _check_count(n_max, "n_max")
    if n_max > MAX_PHOTONS:
        raise DomainError(f"{what} needs photon numbers above MAX_PHOTONS = {MAX_PHOTONS}")
    return n_max


def poisson_truncation(mu: float) -> int:
    """Default Fock truncation for Poissonian mixtures, at most MAX_PHOTONS."""
    return _check_photons(int(math.ceil(mu + 10.0 * math.sqrt(mu) + 20.0)), f"mu = {mu:g}")


@dataclass(frozen=True)
class ClickDistribution:
    """Probability of exactly m distinct channels clicking, m = 0..N."""

    p_click: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_click", np.asarray(self.p_click, dtype=float))
        if not np.all(self.p_click >= -1e-12):  # NaN fails too
            raise DomainError("negative or NaN click probability")
        if not abs(self.p_click.sum() - 1.0) <= 1e-9:
            raise DomainError(f"click pmf sums to {self.p_click.sum()!r}")

    @property
    def p0(self) -> float:
        return float(self.p_click[0])

    @property
    def p1(self) -> float:
        return float(self.p_click[1]) if self.p_click.size > 1 else 0.0

    @property
    def pM(self) -> float:
        return float(self.p_click[2:].sum())


def poisson_click_distribution(mu: float, profile: ChannelProfile) -> ClickDistribution:
    """Exact click-count pmf for a Poissonian pulse of mean ``mu``.

    Poissonian thinning makes the channels independent: channel k clicks
    with probability 1 - exp(-mu*h_k), and the number of distinct clicking
    channels follows the Poisson-binomial distribution of those N
    independent events.
    """
    mu = PhotonSource.poissonian(mu).mu
    c = -np.expm1(-mu * profile.h)
    p = np.array([1.0])
    for ck in c:
        p = np.convolve(p, [1.0 - ck, ck])
    return ClickDistribution(p)


def binomial_matrix(size: int, p: float, t: float = 1.0) -> np.ndarray:
    """M[n, j] = C(n, j) p^(n-j) t^j for 0 <= j <= n < size, else 0.

    Each entry is exponentiated from its logarithm, so C(n, j) never
    overflows as n! does, and 0^0 = 1.
    """
    n = np.arange(size)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    d = n[:, None] - n[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        log = (log_fact[:, None] - log_fact[None, :] - log_fact[np.abs(d)]
               + np.where(d == 0, 0.0, d * np.log(p)) + n * math.log(t))
    return np.exp(np.where(d >= 0, log, -np.inf))


def fock_click_matrix(n_max: int, profile: ChannelProfile) -> np.ndarray:
    """Exact distinct-channel click pmfs P[n, m] for n = 0..n_max photons.

    Each photon independently lands in channel k with probability h_k or is
    lost with probability q = 1 - sum(h).  G[n, m] sums the weights of all
    routings of n photons over the channels seen so far that leave m of them
    occupied; adding channel k moves n - j >= 1 of the photons into it, with
    weight C(n, n-j) h_k^(n-j).  The loss bin is folded in last.  Every term
    is nonnegative, so nothing cancels.  Row n is zero beyond m = n.
    """
    size = _check_photons(n_max, f"n_max = {n_max}") + 1
    h = profile.h
    q = 1.0 - float(h.sum())
    if q < -1e-12:
        raise ParameterError(f"channel transmissions sum to {1.0 - q!r} > 1")
    G = np.zeros((size, h.size + 1))
    G[0, 0] = 1.0
    for h_k in h:
        G[:, 1:] += (binomial_matrix(size, h_k) - np.eye(size)) @ G[:, :-1]
    return binomial_matrix(size, max(q, 0.0)) @ G


def fock_click_distribution(n: int, profile: ChannelProfile) -> ClickDistribution:
    """Exact distinct-channel click pmf for an n-photon Fock input: row n of
    ``fock_click_matrix``.  p_click[m] = 0 for m > n.
    """
    return ClickDistribution(fock_click_matrix(n, profile)[-1])


def custom_click_distribution(source: PhotonSource,
                              profile: ChannelProfile,
                              n_max: int | None = None) -> ClickDistribution:
    """Click pmf for an arbitrary source: Fock mixture with source weights."""
    pmf = source.pmf_array(n_max)
    out = pmf @ fock_click_matrix(pmf.size - 1, profile)
    total = out.sum()
    if total <= 0.0:
        raise ParameterError("source pmf carries no mass within the truncation")
    # Renormalize away the sliver of tail mass lost to pmf truncation.
    out /= total
    return ClickDistribution(out)


def multi_photon_content(dist: ClickDistribution) -> float:
    """c_M = pM / (p1 + pM): probability that a non-vacuum detection event
    involved more than one channel."""
    denom = dist.p1 + dist.pM
    if denom <= 0.0:
        raise UndefinedContentError("all-vacuum signal: p1 + pM = 0")
    return dist.pM / denom


def source_multi_photon_content(source: PhotonSource) -> float:
    """Multi-photon content of the bare source: P(n >= 2) / P(n >= 1)."""
    if source.kind == "poissonian":
        if source.mu == 0.0:
            raise UndefinedContentError("vacuum-only source")
        p_ge1 = -math.expm1(-source.mu)
        return (p_ge1 - source.mu * math.exp(-source.mu)) / p_ge1
    pmf = source.pmf_array()
    p_ge1 = float(pmf[1:].sum())
    if p_ge1 <= 0.0:
        raise UndefinedContentError("vacuum-only source")
    return float(pmf[2:].sum()) / p_ge1


def infer_mu(p_nonvacuum: float, total_transmission: float) -> float:
    """Mean photon number from the measured non-vacuum probability.

    Inverts p = 1 - exp(-T*mu) for a Poissonian signal detected with total
    transmission T.
    """
    if not 0.0 <= p_nonvacuum < 1.0:
        if p_nonvacuum == 1.0:
            raise DomainError("p_nonvacuum = 1 implies infinite mu")
        raise ParameterError(f"p_nonvacuum must lie in [0, 1), got {p_nonvacuum}")
    if total_transmission <= 0.0:
        raise DegenerateDeviceError("total transmission must be positive")
    return -math.log1p(-p_nonvacuum) / total_transmission
