"""Click-number statistics against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdet import (
    ChannelProfile,
    ClickDistribution,
    PhotonSource,
    custom_click_distribution,
    fock_click_distribution,
    infer_mu,
    multi_photon_content,
    poisson_click_distribution,
    reference_device,
    source_multi_photon_content,
    channel_transmissions,
    normalized_channels,
    total_transmission,
)
from loopdet.clickstats import (MAX_PHOTONS, _LOG_FACT, _poisson_click_pmfs,
                                binomial_matrix, fock_click_matrix, poisson_truncation)
from loopdet.errors import (
    DegenerateDeviceError,
    DomainError,
    ParameterError,
    UndefinedContentError,
)


def profile(*h):
    return ChannelProfile(np.array(h, dtype=float), 0.0)


def brute_force_fock(n, h):
    """Oracle: enumerate every routing of n photons over N channels + loss."""
    h = np.asarray(h, dtype=float)
    outcomes = list(range(h.size + 1))  # channel index or loss bin
    probs = np.concatenate([h, [1.0 - h.sum()]])
    pmf = np.zeros(h.size + 1)
    for routing in itertools.product(outcomes, repeat=n):
        w = math.prod(probs[o] for o in routing)
        clicked = len(set(o for o in routing if o < h.size))
        pmf[clicked] += w
    return pmf


def multiset_fock(n, h):
    """Oracle: sum multinomial weights over the occupation patterns of n
    photons in N channels plus a loss bin."""
    h = np.asarray(h, dtype=float)
    lost = 1.0 - h.sum()
    pmf = np.zeros(h.size + 1)

    def recurse(k, left, weight, clicked):
        if k == h.size:
            pmf[clicked] += weight * lost ** left
            return
        for c in range(left + 1):
            recurse(k + 1, left - c, weight * math.comb(left, c) * h[k] ** c,
                    clicked + (c > 0))

    recurse(0, n, 1.0, 0)
    return pmf


def poisson_pmf(mu, n):
    """e^-mu mu^n / n! by the recursion p_k = p_(k-1) mu / k."""
    p = math.exp(-mu)
    for k in range(1, n + 1):
        p *= mu / k
    return p


def poisson_binomial(c):
    """Oracle: number of successes among independent events of probability c_k."""
    pmf = np.array([1.0])
    for ck in c:
        pmf = np.convolve(pmf, [1.0 - ck, ck])
    return pmf


class TestFockClickDistribution:
    def test_single_photon(self):
        p = profile(0.2, 0.3, 0.1)
        d = fock_click_distribution(1, p)
        assert d.p1 == pytest.approx(0.6)
        assert d.p0 == pytest.approx(0.4)
        assert d.pM == 0.0

    def test_two_photons_balanced_lossless(self):
        d = fock_click_distribution(2, profile(0.5, 0.5))
        assert d.p1 == pytest.approx(0.5)
        assert d.pM == pytest.approx(0.5)

    def test_single_channel_cannot_multiclick(self):
        d = fock_click_distribution(2, profile(1.0))
        assert d.p1 == pytest.approx(1.0)
        assert d.pM == 0.0

    def test_no_more_clicks_than_photons(self, ref_params):
        prof = channel_transmissions(ref_params, 10)
        for n in (0, 1, 2, 3):
            d = fock_click_distribution(n, prof)
            assert np.all(d.p_click[n + 1:] == 0.0)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force(self, n, rng):
        for _ in range(3):
            h = rng.uniform(0, 0.3, size=rng.integers(1, 5))
            prof = ChannelProfile(h, 0.0)
            oracle = brute_force_fock(n, h)
            got = fock_click_distribution(n, prof).p_click
            assert got == pytest.approx(oracle, abs=1e-12)

    def test_matrix_rows_match_multiset_oracle(self, rng):
        for _ in range(3):
            h = rng.uniform(0, 0.2, size=5)
            prof = ChannelProfile(h, 0.0)
            P = fock_click_matrix(14, prof)
            for n in range(15):
                oracle = multiset_fock(n, h)
                assert P[n] == pytest.approx(oracle, abs=1e-12)
                assert fock_click_distribution(n, prof).p_click == pytest.approx(
                    oracle, abs=1e-12)

    def test_rows_normalised_and_triangular_up_to_large_n(self, ref_params):
        # At n = 141 the terms C(n, j) h^(n-j) span hundreds of orders of
        # magnitude; every row must still be a pmf.
        n_max = poisson_truncation(50.0)
        P = fock_click_matrix(n_max, channel_transmissions(ref_params, 30))
        assert P.shape == (n_max + 1, 31)
        assert np.all(P >= 0.0)
        assert P.sum(axis=1) == pytest.approx(np.ones(n_max + 1), abs=1e-12)
        assert np.all(np.triu(P, k=1) == 0.0)

    def test_rows_finite_and_normalised_at_the_ceiling(self, ref_params):
        # Rows normalised within eps * log(n!) at every n; tests/test_exact.py
        # holds the n = 1000 sums to 1e-13 by fsum.
        P = fock_click_matrix(MAX_PHOTONS, channel_transmissions(ref_params, 15))
        assert np.all(np.isfinite(P)) and np.all(P >= 0.0)
        bound = 1e-14 + 2 * np.finfo(float).eps * _LOG_FACT
        assert np.all(np.abs(P.sum(axis=1) - 1.0) <= bound)
        assert np.all(bound[:300] < 1e-12)

    def test_poisson_truncation_ceiling(self):
        assert poisson_truncation(710.0) == 997 <= MAX_PHOTONS
        for mu in (720.0, 1e19, 1e300):
            with pytest.raises(DomainError, match="MAX_PHOTONS"):
                poisson_truncation(mu)

    def test_photon_ceiling(self, ref_params):
        # Checked before the (n+1) x (n+1) kernel is built.
        prof = channel_transmissions(ref_params, 15)
        with pytest.raises(DomainError, match="MAX_PHOTONS"):
            fock_click_distribution(MAX_PHOTONS + 1, prof)
        for n in (MAX_PHOTONS + 1, 10 ** 400):  # too large for a float
            with pytest.raises(DomainError, match="MAX_PHOTONS"):
                custom_click_distribution(PhotonSource.fock(n), prof)

    def test_explicit_n_max_ceiling(self):
        source = PhotonSource.poissonian(1.0)
        with pytest.raises(DomainError, match="MAX_PHOTONS"):
            source.pmf_array(MAX_PHOTONS + 1)
        assert source.pmf_array(MAX_PHOTONS).size == MAX_PHOTONS + 1

    @pytest.mark.parametrize("n_max", [-1, 2.5, -0.5, math.nan, math.inf])
    def test_explicit_n_max_not_a_photon_number(self, n_max):
        for source in (PhotonSource.poissonian(1.0), PhotonSource.fock(2),
                       PhotonSource.custom([0.5, 0.5])):
            with pytest.raises(ParameterError, match="nonnegative integer"):
                source.pmf_array(n_max)
        assert PhotonSource.poissonian(1.0).pmf_array(2.0).size == 3

    def test_poisson_mixture_matches_poisson_binomial(self, ref_params):
        # Poisson input thins into independent channels, so the Fock mixture
        # must equal the Poisson-binomial of 1 - exp(-mu h_k).
        prof = channel_transmissions(ref_params, 15).truncated(15)
        for mu in (0.5, 4.26, 20.0, 50.0):
            pmf = PhotonSource.poissonian(mu).pmf_array()
            got = pmf @ fock_click_matrix(pmf.size - 1, prof)
            oracle = poisson_binomial(-np.expm1(-mu * prof.h))
            assert np.abs(got - oracle).max() <= 1e-12

    def test_empty_channel(self, rng):
        # A channel with h_k = 0 never clicks: same pmf as without it.
        h = rng.uniform(0, 0.3, size=3)
        with_empty = fock_click_matrix(6, profile(h[0], 0.0, h[1], h[2]))
        without = fock_click_matrix(6, profile(*h))
        assert with_empty[:, :-1] == pytest.approx(without, abs=1e-15)
        assert np.all(with_empty[:, -1] == 0.0)
        for n in range(5):
            assert with_empty[n] == pytest.approx(
                brute_force_fock(n, [h[0], 0.0, h[1], h[2]]), abs=1e-12)

    def test_lossless_profile(self):
        # q = 0: every photon lands in some channel.
        h = [0.5, 0.3, 0.2]
        P = fock_click_matrix(6, profile(*h))
        assert P[:, 0] == pytest.approx([1, 0, 0, 0, 0, 0, 0], abs=1e-15)
        for n in range(6):
            assert P[n] == pytest.approx(brute_force_fock(n, h), abs=1e-12)

    @pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf])
    def test_fock_n_not_a_photon_number(self, n):
        with pytest.raises(ParameterError, match="nonnegative integer"):
            PhotonSource.fock(n)
        with pytest.raises(ParameterError, match="nonnegative integer"):
            fock_click_distribution(n, profile(0.5))

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            fock_click_matrix(-1, profile(0.5))
        with pytest.raises(ParameterError):
            fock_click_matrix(3, profile(0.7, 0.6))


class TestBinomialMatrix:
    @pytest.mark.parametrize("p,t", [(0.0, 1.0), (0.3, 1.0), (0.2, 0.8),
                                     (1.0, 1.0), (0.0, 0.6), (0.05, 0.5)])
    def test_matches_math_comb(self, p, t):
        for size in range(1, 31):
            oracle = np.array([[math.comb(n, j) * p ** (n - j) * t ** j if j <= n else 0.0
                                for j in range(size)] for n in range(size)])
            M = binomial_matrix(size, p, t)
            np.testing.assert_allclose(M, oracle, rtol=1e-13, atol=0.0)
            assert np.all(M[oracle == 0.0] == 0.0)

    def test_photon_ceiling(self):
        # Checked before the size x size matrix is built.
        assert binomial_matrix(MAX_PHOTONS + 1, 0.5).shape == (MAX_PHOTONS + 1,) * 2
        for size in (MAX_PHOTONS + 2, 1500, 10 ** 400):
            with pytest.raises(DomainError, match="MAX_PHOTONS"):
                binomial_matrix(size, 0.5)
        for size in (0, -3, 2.5, True, 2.0):  # a bool or float size used to pass
            with pytest.raises(ParameterError):
                binomial_matrix(size, 0.5)


class TestPoissonClickDistribution:
    def test_vacuum(self, ref_params):
        d = poisson_click_distribution(0.0, channel_transmissions(ref_params))
        assert d.p0 == 1.0

    @pytest.mark.parametrize("mu", [-0.5, math.nan, math.inf])
    def test_bad_mu_rejected(self, mu):
        with pytest.raises(ParameterError):
            PhotonSource.poissonian(mu)
        with pytest.raises(ParameterError):
            poisson_click_distribution(mu, profile(0.3, 0.3))

    @pytest.mark.parametrize("pmf", [[math.nan, 0.5], [math.nan, 1.0],
                                     [0.5, 0.6], [1.5, -0.5]])
    def test_bad_click_pmf_rejected(self, pmf):
        with pytest.raises(DomainError):
            ClickDistribution(pmf)

    def test_saturation(self):
        d = poisson_click_distribution(200.0, profile(0.3, 0.3, 0.3))
        assert d.p_click[-1] == pytest.approx(1.0, abs=1e-9)

    def test_two_channel_closed_form(self):
        d = poisson_click_distribution(1.0, profile(0.3, 0.3))
        assert d.p0 == pytest.approx(math.exp(-0.6))
        assert d.p1 == pytest.approx(2 * (1 - math.exp(-0.3)) * math.exp(-0.3))
        assert d.pM == pytest.approx((1 - math.exp(-0.3)) ** 2)

    def test_p0_is_exp_mu_T(self, ref_params):
        prof = channel_transmissions(ref_params, 60)
        T = total_transmission(ref_params)
        for mu in (0.1, 1.0, 4.26):
            d = poisson_click_distribution(mu, prof)
            assert d.p0 == pytest.approx(math.exp(-mu * T), rel=1e-9)

    def test_mixture_identity(self, ref_params):
        # Thinned-Poisson closed form equals the Fock mixture with Poisson
        # weights.
        prof = channel_transmissions(ref_params, 12)
        for mu in (0.5, 2.0):
            direct = poisson_click_distribution(mu, prof).p_click
            pmf = PhotonSource.poissonian(mu).pmf_array()
            mixed = pmf @ fock_click_matrix(pmf.size - 1, prof)
            assert mixed == pytest.approx(direct, abs=1e-9)

    def test_recursion_matches_convolution_chain(self):
        # The array recursion does the convolution chain's arithmetic in the
        # same order, so the pmfs are equal, not just close.
        rng = np.random.default_rng(7)
        for _ in range(50):
            prof = channel_transmissions(
                reference_device(r=float(rng.uniform(0, 1)), tl=float(rng.uniform(0.5, 0.99))),
                int(rng.integers(1, 32)))
            mu = float(rng.uniform(0, 50))
            np.testing.assert_array_equal(poisson_click_distribution(mu, prof).p_click,
                                          poisson_binomial(-np.expm1(-mu * prof.h)))

    def test_grid_pass_matches_per_mu(self, ref_params):
        prof = channel_transmissions(ref_params, 15)
        mus = np.r_[0.0, np.linspace(0.01, 40.0, 37)]
        pmfs = _poisson_click_pmfs(mus, prof.h)
        assert pmfs.shape == (mus.size, 16)
        for mu, pmf in zip(mus, pmfs):
            np.testing.assert_allclose(pmf, poisson_click_distribution(mu, prof).p_click,
                                       rtol=1e-12, atol=0.0)

    @given(mu=st.floats(0.0, 8.0), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, mu, seed):
        h = np.random.default_rng(seed).uniform(0, 0.1, size=8)
        d = poisson_click_distribution(mu, ChannelProfile(h, 0.0))
        assert abs(d.p_click.sum() - 1.0) < 1e-9
        assert np.all(d.p_click >= -1e-12)


class TestCustomClickDistribution:
    def test_vacuum_delta(self, ref_params):
        prof = channel_transmissions(ref_params, 5)
        d = custom_click_distribution(PhotonSource.custom([1.0]), prof)
        assert d.p0 == 1.0

    def test_truncated_poisson_matches(self, ref_params):
        prof = channel_transmissions(ref_params, 10)
        pmf = PhotonSource.poissonian(2.0).pmf_array(60)
        d = custom_click_distribution(PhotonSource.custom(pmf / pmf.sum()), prof)
        direct = poisson_click_distribution(2.0, prof)
        assert d.p_click == pytest.approx(direct.p_click, abs=1e-9)

    def test_dropped_mass_reported(self, ref_params):
        # The renormalised pmf stays; the mass beyond n_max is reported.
        prof = channel_transmissions(ref_params, 15)
        kept = sum(poisson_pmf(50.0, n) for n in range(11))  # 6.5e-12
        d = custom_click_distribution(PhotonSource.poissonian(50.0), prof, n_max=10)
        assert 1.0 - d.dropped_mass == pytest.approx(kept, rel=1e-3)
        d = custom_click_distribution(PhotonSource.poissonian(4.26), prof, n_max=20)
        tail = 1.0 - sum(poisson_pmf(4.26, n) for n in range(21))
        assert d.dropped_mass == pytest.approx(tail, rel=1e-6)
        assert d.dropped_mass == pytest.approx(5.6e-9, rel=0.01)
        for mu in (0.5, 4.26, 50.0):
            d = custom_click_distribution(PhotonSource.poissonian(mu), prof)
            assert 0.0 <= d.dropped_mass < 1e-9
        assert poisson_click_distribution(1.0, prof).dropped_mass == 0.0

    def test_poisson_takes_the_closed_form(self, ref_params):
        # Without n_max a Poisson source needs no cut-off and drops nothing.
        prof = channel_transmissions(ref_params, 15)
        for mu in (0.0, 0.5, 4.26, 50.0):
            d = custom_click_distribution(PhotonSource.poissonian(mu), prof)
            direct = poisson_click_distribution(mu, prof)
            assert d.p_click.tobytes() == direct.p_click.tobytes()
            assert d.dropped_mass == 0.0

    def test_binary_mixture(self):
        prof = profile(0.35, 0.25)  # T = 0.6
        d = custom_click_distribution(PhotonSource.custom([0.5, 0.5]), prof)
        assert d.p0 == pytest.approx(0.7)
        assert d.p1 == pytest.approx(0.3)
        assert d.pM == 0.0

    def test_bad_pmf_rejected(self):
        with pytest.raises(ParameterError):
            PhotonSource.custom([0.5, 0.4])
        with pytest.raises(ParameterError):
            PhotonSource.custom([1.2, -0.2])
        with pytest.raises(ParameterError):
            PhotonSource.custom([np.nan, 1.0])


class TestMultiPhotonContent:
    def test_single_photon_zero(self):
        d = fock_click_distribution(1, profile(0.4, 0.2))
        assert multi_photon_content(d) == 0.0

    def test_two_photon_balanced(self):
        d = fock_click_distribution(2, profile(0.5, 0.5))
        assert multi_photon_content(d) == pytest.approx(0.5)

    def test_vacuum_undefined(self):
        d = fock_click_distribution(0, profile(0.5))
        with pytest.raises(UndefinedContentError):
            multi_photon_content(d)

    def test_monotone_in_counted_channels(self, ref_params):
        prof = channel_transmissions(ref_params, 15)
        values = [multi_photon_content(
                      poisson_click_distribution(4.26, prof.truncated(m)))
                  for m in range(2, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_small_mu_ratio_limit(self, ref_params):
        # Leading-order device/source content ratio approaches T*(1 - sum H^2)
        # with the source content taken at the input plane.
        mu = 1e-3
        prof = channel_transmissions(ref_params, 60)
        H = normalized_channels(prof)
        T = total_transmission(ref_params)
        ratio = (multi_photon_content(poisson_click_distribution(mu, prof))
                 / source_multi_photon_content(PhotonSource.poissonian(mu)))
        assert ratio == pytest.approx(T * (1 - (H ** 2).sum()), rel=0.01)


class TestSourceContent:
    def test_weak_pulse(self):
        cm = source_multi_photon_content(PhotonSource.poissonian(0.01))
        assert cm == pytest.approx(0.005, abs=5e-4)

    def test_strong_pulse_saturates(self):
        assert source_multi_photon_content(
            PhotonSource.poissonian(50.0)) == pytest.approx(1.0, abs=1e-12)

    def test_reference_operating_point(self):
        cm = source_multi_photon_content(PhotonSource.poissonian(4.26))
        expected = (1 - math.exp(-4.26) - 4.26 * math.exp(-4.26)) \
            / (1 - math.exp(-4.26))
        assert cm == pytest.approx(expected, rel=1e-12)
        assert cm == pytest.approx(0.939, abs=1e-3)

    def test_fock_and_custom_kinds(self):
        assert source_multi_photon_content(PhotonSource.fock(1)) == 0.0
        assert source_multi_photon_content(
            PhotonSource.custom([0.2, 0.4, 0.4])) == pytest.approx(0.5)

    def test_vacuum_undefined(self):
        with pytest.raises(UndefinedContentError):
            source_multi_photon_content(PhotonSource.poissonian(0.0))


class TestInferMu:
    def test_zero(self):
        assert infer_mu(0.0, 0.5) == 0.0

    def test_exact_inverse(self):
        assert infer_mu(1 - math.exp(-2.0), 1.0) == pytest.approx(2.0)

    def test_reference_round_trip(self):
        T = 0.78 * 0.6
        p = 1 - math.exp(-T * 4.26)
        assert infer_mu(p, T) == pytest.approx(4.26, rel=1e-12)

    def test_round_trips_with_p0(self, ref_params):
        prof = channel_transmissions(ref_params, 60)
        T = total_transmission(ref_params)
        d = poisson_click_distribution(1.7, prof)
        assert infer_mu(1 - d.p0, T) == pytest.approx(1.7, rel=1e-9)

    def test_errors(self):
        with pytest.raises(DomainError):
            infer_mu(1.0, 0.5)
        with pytest.raises(DegenerateDeviceError):
            infer_mu(0.5, 0.0)
