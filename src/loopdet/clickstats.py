"""Click-number statistics of the loop detector.

Given input photon statistics and a channel profile, these routines give
the exact distribution of the number of *distinct* channels that click in
one pulse, and the derived quantities p0, p1, pM and the multi-photon
content c_M = pM / (p1 + pM).  Binomial and click matrices are sums of
products by Pascal's rule; only the Poisson pmfs take log-factorials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .device import ChannelProfile
from .errors import (COUNT, NONNEGATIVE, POSITIVE, POSITIVE_INT, UNIT, DegenerateDeviceError,
                     DomainError, ParameterError, UndefinedContentError, check, check_fields,
                     declared)


#: Source kind -> the one field besides ``kind`` that it reads.
SOURCE_FIELDS = {"poissonian": "mu", "fock": "n", "custom": "pmf"}

#: Supported herald accept rules.
ACCEPT_RULES = ("exactly-one", "one-or-more", "first-channel-only")


@dataclass(frozen=True)
class PhotonSource:
    """Input photon-number statistics.

    One of a Poissonian pulse of mean ``mu``, a Fock state of ``n`` photons,
    or an int or float pmf over n = 0..n_max, nonnegative, summing to 1 within
    1e-9; a field its kind does not read holds its default; checked when built.
    """

    kind: str
    mu: float = declared(NONNEGATIVE, 0.0)
    n: int = declared(COUNT, 0)
    pmf: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in SOURCE_FIELDS):
            raise ParameterError(f"kind must be one of {', '.join(SOURCE_FIELDS)}, "
                                 f"got {self.kind!r}")
        if any((v := getattr(self, f.name)) is not f.default and not np.array_equal(v, f.default)
               for f in fields(self)[1:] if f.name != SOURCE_FIELDS[self.kind]):
            raise ParameterError(f"a {self.kind} source reads only {SOURCE_FIELDS[self.kind]}")
        check_fields(self)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "n", int(self.n))
        if self.kind == "custom":
            try:  # complex, text or object pmfs are refused, not cast: no warning filter decides
                pmf = np.asarray(self.pmf)
            except ValueError:  # a ragged sequence
                pmf = None
            if pmf is None or pmf.dtype.kind not in "biuf" or pmf.ndim != 1 or pmf.size == 0:
                raise ParameterError("pmf must be a nonempty 1-d array of integers or floats")
            pmf = pmf.astype(float)
            if not np.all(pmf >= 0):
                raise ParameterError("pmf has negative or NaN entries")
            if abs(pmf.sum() - 1.0) > 1e-9:
                raise ParameterError(f"pmf sums to {pmf.sum()!r}, not 1")
            object.__setattr__(self, "pmf", pmf)

    @classmethod
    def poissonian(cls, mu: float) -> "PhotonSource":
        return cls("poissonian", mu=mu)

    @classmethod
    def fock(cls, n: int) -> "PhotonSource":
        return cls("fock", n=n)

    @classmethod
    def custom(cls, pmf) -> "PhotonSource":
        return cls("custom", pmf=pmf)

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
        return _poisson_rows([self.mu], [n_max])[0]


#: Largest photon number a source may reach: the Poisson cut-off, the Fock
#: n or the last custom pmf entry.  The Monte Carlo holds about 4 bytes per
#: photon of a block (its pulse index), which is one 8,192-pulse batch or at
#: most 2**17 expected pulses plus photons, so 1,000 photons per pulse trace
#: about 32 MiB.  An (n+1) x (n+1) binomial matrix takes 8 MB, and its
#: entries stay at most 2^n, finite while n < 1024.
MAX_PHOTONS = 1000
#: log(n!) for n = 0..MAX_PHOTONS, built once at import (8 KB) and sliced: a
#: Poisson product recurrence would start at e^-mu, subnormal above mu = 708.
_LOG_FACT = np.array([math.lgamma(n + 1.0) for n in range(MAX_PHOTONS + 1)])


def _poisson_rows(mus, cuts) -> np.ndarray:
    """Poisson pmfs exp(n log mu - mu - log n!) over n = 0..max(cuts), a row
    per mean, 0 beyond n = cuts[i] (n = 0 if mu = 0); log mu is ``math.log``'s,
    so a row's bits do not depend on the rows beside it."""
    ns = np.arange(max(cuts, default=0) + 1)
    mus = np.array(mus, dtype=float)
    log_mu = np.array([math.log(mu) if mu else 0.0 for mu in mus.tolist()])
    log = ns * log_mu[:, None] - mus[:, None] - _LOG_FACT[: ns.size]
    return np.exp(np.where(ns <= np.where(mus > 0.0, cuts, 0)[:, None], log, -np.inf))


def _check_photons(n_max: int, what: str) -> int:
    n_max = int(check("n_max", n_max, COUNT))
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
    dropped_mass: float = declared(UNIT, 0.0)  # source mass beyond the photon cut-off

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_click", np.asarray(self.p_click, dtype=float))
        check_fields(self)
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
    return ClickDistribution(_poisson_click_pmfs(PhotonSource.poissonian(mu).mu, profile.h))


def _poisson_click_pmfs(mu, h: np.ndarray) -> np.ndarray:
    """Click pmfs p[..., m], m = 0..N, one row per checked mean in ``mu``.
    Channel k clicks with c_k = 1 - exp(-mu*h_k); adding it to the
    Poisson-binomial recursion keeps m clicks with 1 - c_k, makes m + 1 with c_k."""
    c = -np.expm1(-np.multiply.outer(mu, h))
    p = np.zeros(c.shape[:-1] + (h.size + 1,))
    p[..., 0] = 1.0
    for k in range(h.size):
        ck = c[..., k, None]
        p[..., 1:] = p[..., 1:] * (1.0 - ck) + p[..., :-1] * ck
        p[..., 0] *= 1.0 - ck[..., 0]
    return p


def binomial_matrix(size: int, p: float, t: float = 1.0) -> np.ndarray:
    """M[n, j] = C(n, j) p^(n-j) t^j for j <= n < size <= MAX_PHOTONS + 1, else 0, by
    Pascal's rule: row n is row n - 1 times (p + t z), sums of nonnegative products
    with no factorial, log or power formed, and does not depend on ``size``."""
    size = _check_photons(check("size", size, POSITIVE_INT) - 1,
                          f"a binomial matrix of size {size}") + 1
    p, t = check("p", p, UNIT), check("t", t, UNIT)
    M = np.zeros((size, size))
    M[0, 0] = 1.0
    for n in range(1, size):
        M[n, :n + 1] = p * M[n - 1, :n + 1]
        M[n, 1:n + 1] += t * M[n - 1, :n]
    return M


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
    G = np.zeros((size, h.size + 1))
    G[0, 0] = 1.0
    for h_k in h:
        moved = binomial_matrix(size, h_k)
        np.fill_diagonal(moved, 0.0)  # at least one photon into channel k
        G[:, 1:] += moved @ G[:, :-1]
    return binomial_matrix(size, max(1.0 - float(h.sum()), 0.0)) @ G


def fock_click_distribution(n: int, profile: ChannelProfile) -> ClickDistribution:
    """Exact distinct-channel click pmf for an n-photon Fock input: row n of
    ``fock_click_matrix``.  p_click[m] = 0 for m > n.
    """
    return ClickDistribution(fock_click_matrix(n, profile)[-1])


def custom_click_distribution(source: PhotonSource,
                              profile: ChannelProfile,
                              n_max: int | None = None) -> ClickDistribution:
    """Click pmf for an arbitrary source.  A Poisson source without ``n_max``
    takes the exact, uncut ``poisson_click_distribution``; any other source
    or cut-off the Fock mixture ``pmf @ fock_click_matrix``, renormalised
    within the cut-off, with ``dropped_mass`` the source mass beyond it."""
    if source.kind == "poissonian" and n_max is None:
        return poisson_click_distribution(source.mu, profile)
    pmf = source.pmf_array(n_max)
    out = pmf @ fock_click_matrix(pmf.size - 1, profile)
    total = out.sum()
    if total <= 0.0:
        raise ParameterError("source pmf carries no mass within the truncation")
    out /= total
    return ClickDistribution(out, dropped_mass=max(1.0 - float(pmf.sum()), 0.0))


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, NaN where den is not positive: c_M with no events is undefined."""
    return np.divide(num, den, out=np.full(np.shape(den), math.nan), where=den > 0.0)


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
        p_ge1 = -math.expm1(-source.mu)
        p_ge2 = p_ge1 - source.mu * math.exp(-source.mu)
    else:
        pmf = source.pmf_array()
        p_ge1, p_ge2 = float(pmf[1:].sum()), float(pmf[2:].sum())
    if p_ge1 <= 0.0:
        raise UndefinedContentError("vacuum-only source")
    return p_ge2 / p_ge1


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
    T = check("total_transmission", total_transmission, POSITIVE)
    return check("mu", -math.log1p(-p_nonvacuum) / T, NONNEGATIVE)  # inf at a subnormal T
