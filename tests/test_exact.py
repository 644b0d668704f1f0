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

import numpy as np

from loopdet import channel_transmissions, fock_click_matrix, reference_device
from loopdet.clickstats import _poisson_click_pmfs
from loopdet.postselect import acceptance_probability

EPS = float(np.finfo(float).eps)
#: The smallest normal double: below it a float has less than full precision.
TINY = Fraction(np.finfo(float).tiny)

#: Budgets in units of EPS, each about four times the error measured on its
#: case: 14.8 (3.3e-15), 9.4 (2.1e-15) and 1.8 (4.0e-16).
FOCK_BUDGET = 60
EXACTLY_ONE_BUDGET = 40
POISSON_BUDGET = 8


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


def poisson_input(mu: float, h):
    """The kernel's float click probabilities c_k = 1 - exp(-mu h_k), its inputs."""
    return -np.expm1(-np.multiply.outer(mu, h))


def error(values, exact) -> float:
    """Largest relative error of ``values`` in units of EPS over the entries whose
    exact value is a normal double; each smaller one must be within TINY of it."""
    worst = Fraction(0)
    for value, want in zip(np.ravel(values).tolist(), exact, strict=True):
        if abs(want) >= TINY:
            worst = max(worst, abs(Fraction(value) / want - 1))
        else:
            assert abs(Fraction(value) - want) <= TINY, (value, float(want))
    return float(worst) / EPS


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


#: The test cases first, then larger ones whose exact side ends within a minute.
CASES = [
    ("fock_click_matrix", fock_case, "n <= {}, {} channels",
     [(20, 6), (40, 6), (100, 6), (300, 6), (1000, 6), (30, 15), (60, 15)]),
    ("exactly-one acceptance", exactly_one_case, "n <= {}, {} channels",
     [(59, 15), (200, 15), (1000, 15), (1000, 60)]),
    ("_poisson_click_pmfs", poisson_case, "mu = {}, {} channels",
     [(4.26, 15), (4.26, 60), (50.0, 60), (700.0, 60)]),
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
