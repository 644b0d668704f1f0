"""Exact-arithmetic oracles for the analytic click kernels.

``fractions.Fraction(x)`` is exact for a float x, and given their float
inputs the click kernels are rational: only the exp and log that make those
inputs are not.  So each kernel's true rounding error is measurable: these
tests take its largest entrywise relative error against an exact oracle, in
units of machine epsilon, and hold it to a budget of about four times the
error measured on the same case (Python 3.11, numpy 2.4, x86-64).

    PYTHONPATH=src python tests/test_exact.py   # print each error and time, to larger n
"""

import time
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np
import pytest

from loopdet import PhotonSource, channel_transmissions, fock_click_matrix, reference_device
from loopdet.clickstats import ACCEPT_RULES, _poisson_click_pmfs, binomial_matrix
from loopdet.postselect import acceptance_probability, postselect

EPS = float(np.finfo(float).eps)
#: The smallest normal double: below it a float has less than full precision.
TINY = Fraction(np.finfo(float).tiny)

#: Budgets in units of EPS, each about four times the error measured on its
#: case: 14.8 (3.3e-15), 9.4 (2.1e-15), 1.8 (4.0e-16), 389.9 (8.7e-14) and
#: 63.6 (1.4e-14).
FOCK_BUDGET = 60
EXACTLY_ONE_BUDGET = 40
POISSON_BUDGET = 8
BINOMIAL_BUDGET = 1600
POSTSELECT_BUDGET = 250

#: binomial_matrix's (p, t): every pair from {0, 0.2, 0.5, 1}, (0.2, 0.8), and
#: THINNING, the pair postselect's thinning forms at signal_transmission = 0.8.
THINNING = (1.0 - 0.8, 0.8)
BINOMIAL_PAIRS = [(p, t) for p in (0.0, 0.2, 0.5, 1.0) for t in (0.0, 0.2, 0.5, 1.0)] + [
    (0.2, 0.8), THINNING]
#: The pinned ``postselect --mu-grid 0.5:5:10 --signal-transmission 0.8`` case.
POSTSELECT_MUS = np.linspace(0.5, 5.0, 10).tolist()


def profile(n_channels):
    return channel_transmissions(reference_device(), n_channels)


def scaled(values) -> tuple[list[int], int]:
    """Integers a_i and one power of two D with values[i] = a_i / D exactly."""
    exact = [Fraction(x) for x in values]
    D = max(x.denominator for x in exact)
    return [int(x * D) for x in exact], D


def fock_oracle(n_max: int, h) -> list[list[Fraction]]:
    """P[n][m] by inclusion-exclusion, not by the kernel's channel recursion.

    All n photons land in the channel set U or are lost with probability
    (q + h(U))^n, q = 1 - sum(h), so exactly m of the N channels click with
    probability sum over U of (-1)^(m-|U|) C(N-|U|, m-|U|) (q + h(U))^n.
    Numerators over D^n keep every sum an integer."""
    a, D = scaled(h.tolist())
    q, N = D - sum(a), len(a)
    by_size = [[0] * (N + 1) for _ in range(n_max + 1)]  # [n][u]: sum over |U| = u
    for U in range(2 ** N):
        base, power = q + sum(a_k for k, a_k in enumerate(a) if U >> k & 1), 1
        for row in by_size:
            row[bin(U).count("1")] += power
            power *= base
    return [[Fraction(sum((-1) ** (m - u) * comb(N - u, m - u) * row[u] for u in range(m + 1)),
                      D ** n) for m in range(N + 1)] for n, row in enumerate(by_size)]


def exactly_one_oracle(n_max: int, h) -> list[Fraction]:
    """sum_k (q + h_k)^n - q^n for n = 0..n_max: every photon in channel k or
    lost, at least one in channel k."""
    a, D = scaled(h.tolist())
    q, powers, q_n, out = D - sum(a), [1] * len(a), 1, []
    for n in range(n_max + 1):
        out.append(Fraction(sum(powers) - len(a) * q_n, D ** n))
        powers = [p * (q + a_k) for p, a_k in zip(powers, a)]
        q_n *= q
    return out


def poisson_binomial_oracle(c) -> list[Fraction]:
    """P(m channels click) when channel k clicks with probability c_k, independently."""
    p = [Fraction(1)]
    for c_k in map(Fraction, c.tolist()):
        p = [stay * (1 - c_k) + up * c_k for stay, up in zip(p + [0], [0] + p)]
    return p


class Ratio(NamedTuple):
    """numerator / denominator, left unreduced: a large oracle's entries share
    one denominator, and reducing each by a gcd would cost more than the rest."""
    numerator: int
    denominator: int


def binomial_oracle(size: int, p: float, t: float) -> list[Ratio]:
    """C(n, j) p^(n-j) t^j for 0 <= n, j < size, 0 above the diagonal: row
    n + 1 is row n times (p + t z), so no factorial or logarithm is formed."""
    (a, b), D = scaled([p, t])
    row, out = [1], []
    for n in range(size):
        den = D ** n
        out += [Ratio(x, den) for x in row] + [Ratio(0, 1)] * (size - 1 - n)
        row = [a * x + b * y for x, y in zip(row + [0], [0] + row)]
    return out


def thinned_oracle(weights, p: float, t: float) -> tuple[list[int], int]:
    """sum_n w_n C(n, j) p^(n-j) t^j for j < len(w), as integers over one
    denominator: the coefficients of sum_n w_n (p + t z)^n by Horner's rule."""
    (a, b), D = scaled([p, t])
    w, W = scaled(weights)
    poly = []
    for n in reversed(range(len(w))):
        poly = [a * x + b * y for x, y in zip(poly + [0], [0] + poly)]
        poly[0] += w[n] * D ** (len(w) - 1 - n)
    return poly, W * D ** (len(w) - 1)


def condition_oracle(pmf, accept, transmission: float) -> list:
    """cm_in, cm_out, w_M, the herald rate and the conditioned pmf of
    ``postselect``, from its float pmf, acceptance table and transmission."""
    pmf = [Fraction(x) for x in pmf.tolist()]
    joint = [x * Fraction(a) for x, a in zip(pmf, accept.tolist())]
    rate = sum(joint)
    thinned, den = thinned_oracle(joint, 1.0 - transmission, transmission)
    cm_in, cm_out = sum(pmf[2:]) / sum(pmf[1:]), Fraction(sum(thinned[2:]), sum(thinned[1:]))
    out = [Ratio(x * rate.denominator, den * rate.numerator) for x in thinned]
    return [cm_in, cm_out, cm_out / cm_in, rate, *out]


def poisson_input(mu: float, h):
    """The kernel's float click probabilities c_k = 1 - exp(-mu h_k), its inputs."""
    return -np.expm1(-np.multiply.outer(mu, h))


def error(values, exact) -> float:
    """Largest relative error of ``values`` in units of EPS over the entries whose
    exact value (a Fraction or a Ratio) is a normal double; each smaller one
    must be within TINY of it."""
    worst = 0.0
    for value, want in zip(np.ravel(values).tolist(), exact, strict=True):
        (v, v_den), w, w_den = value.as_integer_ratio(), want.numerator, want.denominator
        miss = abs(v * w_den - w * v_den)  # |value - want| * v_den * w_den, in integers
        if abs(w) * TINY.denominator >= TINY.numerator * w_den:
            worst = max(worst, miss / (abs(w) * v_den))
        else:
            assert miss * TINY.denominator <= TINY.numerator * v_den * w_den, (value, float(want))
    return worst / EPS


def fock_case(n_max: int, n_channels: int):
    """The kernel and its oracle, as two calls."""
    prof = profile(n_channels)
    return (lambda: fock_click_matrix(n_max, prof),
            lambda: sum(fock_oracle(n_max, prof.h), []))


def exactly_one_case(n_max: int, n_channels: int):
    prof = profile(n_channels)
    return (lambda: acceptance_probability("exactly-one", np.arange(n_max + 1), prof),
            lambda: exactly_one_oracle(n_max, prof.h))


def poisson_case(mu: float, n_channels: int):
    h = profile(n_channels).h
    return (lambda: _poisson_click_pmfs(mu, h),
            lambda: poisson_binomial_oracle(poisson_input(mu, h)))


def binomial_case(size: int, p: float, t: float):
    return lambda: binomial_matrix(size, p, t), lambda: binomial_oracle(size, p, t)


def postselect_case(mu: float, rule: str, transmission: float = 0.8, n_channels: int = 15):
    """``postselect`` on a Poisson source, and the oracle on its float inputs."""
    source, prof = PhotonSource.poissonian(mu), profile(n_channels)

    def kernel():
        res = postselect(source, prof, rule, transmission)
        return [res.cm_in, res.cm_out, res.w_M, res.herald_rate, *res.conditioned_pmf.tolist()]

    def oracle():
        pmf = source.pmf_array()
        accept = acceptance_probability(rule, np.arange(pmf.size), prof)
        return condition_oracle(pmf, accept, transmission)
    return kernel, oracle


def measured(case) -> float:
    kernel, oracle = case
    return error(kernel(), oracle())


def test_oracles_are_distributions():
    h = profile(6).h
    P = fock_oracle(8, h)
    assert all(sum(row) == 1 for row in P)
    assert [row[1] for row in P] == exactly_one_oracle(8, h)
    assert sum(poisson_binomial_oracle(poisson_input(4.26, h))) == 1


def test_fock_click_matrix_within_budget():
    assert measured(fock_case(20, 6)) <= FOCK_BUDGET


def test_exactly_one_acceptance_within_budget():
    assert measured(exactly_one_case(59, 15)) <= EXACTLY_ONE_BUDGET


def test_poisson_click_pmf_within_budget():
    assert measured(poisson_case(4.26, 15)) <= POISSON_BUDGET


def test_binomial_oracles_agree():
    # Pascal rows and Horner's thinning are two routes to one matrix.
    rows = binomial_oracle(9, *THINNING)
    thinned, den = thinned_oracle([0] * 8 + [1], *THINNING)
    assert [Fraction(x, den) for x in thinned] == [Fraction(*r) for r in rows[-9:]]
    assert sum(Fraction(*r) for r in binomial_oracle(9, 0.5, 0.5)[-9:]) == 1


def test_binomial_matrix_within_budget():
    # Zero p or t takes 0^0 = 1 for the n = j or j = 0 entries.
    assert max(measured(binomial_case(60, p, t))
               for p, t in BINOMIAL_PAIRS) <= BINOMIAL_BUDGET


@pytest.mark.parametrize("rule", ACCEPT_RULES)
def test_postselect_thinning_within_budget(rule):
    assert max(measured(postselect_case(mu, rule)) for mu in POSTSELECT_MUS) <= POSTSELECT_BUDGET


#: The test cases first, then larger ones whose exact side ends within a minute.
CASES = [
    ("fock_click_matrix", fock_case, "n <= {}, {} channels",
     [(20, 6), (40, 6), (100, 6), (300, 6), (1000, 6), (30, 15), (60, 15)]),
    ("exactly-one acceptance", exactly_one_case, "n <= {}, {} channels",
     [(59, 15), (200, 15), (1000, 15), (1000, 60)]),
    ("_poisson_click_pmfs", poisson_case, "mu = {}, {} channels",
     [(4.26, 15), (4.26, 60), (50.0, 60), (700.0, 60)]),
    ("binomial_matrix", binomial_case, "n < {}, p, t = {:.2g}, {:.2g}",
     [(60, *THINNING), (200, *THINNING), (1000, *THINNING), (1000, 0.5, 0.5)]),
    ("postselect, t = 0.8", postselect_case, "mu = {}, {}",
     [(5.0, "one-or-more"), (50.0, "one-or-more"), (700.0, "one-or-more"),
      (700.0, "exactly-one")]),
]


def timed(call):
    start = time.perf_counter()
    return call(), time.perf_counter() - start


if __name__ == "__main__":
    print(f"{'kernel':24} {'case':24} {'error / eps':>11} {'error':>8} {'kernel':>9} {'exact':>8}")
    for kernel, case, label, sizes in CASES:
        for size in sizes:
            (values, t_kernel), (exact, t_exact) = map(timed, case(*size))
            err = error(values, exact)
            print(f"{kernel:24} {label.format(*size):24} {err:11.1f} {err * EPS:8.1e} "
                  f"{t_kernel * 1e3:7.2f} ms {t_exact:6.2f} s")
