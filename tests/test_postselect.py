"""Heralded postselection: acceptance rules, conditioning, and the
multi-photon reduction factor."""

import math

import numpy as np
import pytest

from loopdet import (
    ChannelProfile,
    CouplerSetting,
    DeviceParams,
    PhotonSource,
    channel_transmissions,
    fock_click_distribution,
    postselect,
    source_multi_photon_content,
    wm_curve,
)
from loopdet.clickstats import MAX_PHOTONS, fock_click_matrix
from loopdet import reference_device
from loopdet.postselect import (
    ACCEPT_RULES,
    _thin_pmf,
    acceptance_probability,
    herald_acceptance_from_mc,
)
from loopdet.errors import DomainError, NoAcceptanceError, ParameterError


def profile(*h):
    return ChannelProfile(np.array(h, dtype=float), 0.0)


def lossless_profile(r, n=40):
    params = DeviceParams(t0=1, theta=1, tl=1, eta=1,
                          coupler=CouplerSetting.ideal(r))
    return channel_transmissions(params, n)


class TestAcceptanceProbability:
    def test_vacuum_never_accepted(self, ref_params):
        prof = channel_transmissions(ref_params, 10)
        for rule in ACCEPT_RULES:
            assert acceptance_probability(rule, 0, prof) == 0.0

    def test_single_photon(self):
        prof = profile(0.3, 0.2)
        assert acceptance_probability("exactly-one", 1, prof) == pytest.approx(0.5)
        assert acceptance_probability("one-or-more", 1, prof) == pytest.approx(0.5)
        assert acceptance_probability("first-channel-only", 1, prof) == \
            pytest.approx(0.3)

    def test_rules_ordered(self, ref_params):
        # one-or-more accepts everything exactly-one does, and exactly-one
        # accepts everything first-channel patterns contribute at n=1.
        prof = channel_transmissions(ref_params, 10)
        for n in range(1, 8):
            assert acceptance_probability("one-or-more", n, prof) >= \
                acceptance_probability("exactly-one", n, prof) - 1e-12

    def test_exactly_one_matches_fock_p1(self, ref_params):
        prof = channel_transmissions(ref_params, 10)
        for n in (1, 2, 5):
            assert acceptance_probability("exactly-one", n, prof) == \
                pytest.approx(fock_click_distribution(n, prof).p1, rel=1e-12)
        # The acceptance vector is column 1 of the click matrix.
        accept = acceptance_probability("exactly-one", np.arange(61), prof)
        assert accept == pytest.approx(fock_click_matrix(60, prof)[:, 1], abs=1e-12)

    def test_array_matches_scalar_calls(self, ref_params):
        prof = channel_transmissions(ref_params, 15).truncated(15)
        ns = np.arange(30)
        for rule in ACCEPT_RULES:
            accept = acceptance_probability(rule, ns, prof)
            assert accept.shape == ns.shape
            assert accept == pytest.approx(
                [acceptance_probability(rule, int(n), prof) for n in ns], abs=1e-15)

    def test_bad_photon_number(self, ref_params):
        prof = channel_transmissions(ref_params, 5)
        for n in (-1, 1.5, [0, 1, -2]):
            with pytest.raises(ParameterError):
                acceptance_probability("one-or-more", n, prof)

    def test_first_channel_only_closed_form(self):
        prof = profile(0.3, 0.2)
        # two photons: both avoid channel 2, not both lost
        assert acceptance_probability("first-channel-only", 2, prof) == \
            pytest.approx(0.8 ** 2 - 0.5 ** 2)

    def test_unknown_rule(self, ref_params):
        with pytest.raises(ParameterError):
            acceptance_probability("two-or-more", 1,
                                   channel_transmissions(ref_params, 5))


class TestPostselect:
    def test_bayes_consistency(self, ref_params):
        # The conditioned pmf is exactly pmf * accept / herald_rate.
        prof = channel_transmissions(ref_params, 15).truncated(15)
        src = PhotonSource.poissonian(1.3)
        res = postselect(src, prof)
        pmf = src.pmf_array(res.conditioned_pmf.size - 1)
        accept = np.array([acceptance_probability("exactly-one", n, prof)
                           for n in range(pmf.size)])
        expected = pmf * accept
        expected /= expected.sum()
        assert res.conditioned_pmf == pytest.approx(expected, abs=1e-12)
        assert res.herald_rate == pytest.approx((pmf * accept).sum(), rel=1e-12)

    def test_removes_vacuum(self, ref_params):
        prof = channel_transmissions(ref_params, 15).truncated(15)
        res = postselect(PhotonSource.poissonian(0.8), prof)
        assert res.conditioned_pmf[0] == 0.0

    def test_cm_in_matches_source_content(self, ref_params):
        prof = channel_transmissions(ref_params, 15).truncated(15)
        src = PhotonSource.poissonian(2.0)
        res = postselect(src, prof)
        assert res.cm_in == pytest.approx(source_multi_photon_content(src),
                                          rel=1e-9)

    def test_fock_one_herald_gives_nan_wm(self):
        # A single-photon source has no multi-photon content to reduce.
        res = postselect(PhotonSource.fock(1), lossless_profile(0.5, 20))
        assert res.cm_in == 0.0
        assert math.isnan(res.w_M)

    def test_lossless_herald_suppresses_multiphoton(self):
        # With an efficient herald the exactly-one rule strongly favors
        # true single pairs: w_M well below 1.
        prof = lossless_profile(0.5, 60)
        res = postselect(PhotonSource.poissonian(1.0), prof)
        assert res.w_M < 0.45

    def test_lossy_herald_cannot_reduce(self, ref_params):
        # When the herald detects less than half the light, accepting any
        # click pattern enriches multi-photon events instead.
        prof = channel_transmissions(ref_params, 15).truncated(15)
        for rule in ("exactly-one", "one-or-more"):
            res = postselect(PhotonSource.poissonian(1.0), prof, rule=rule)
            assert res.w_M > 1.0

    def test_signal_transmission_thins_output(self):
        prof = lossless_profile(0.5, 40)
        full = postselect(PhotonSource.poissonian(1.0), prof)
        thinned = postselect(PhotonSource.poissonian(1.0), prof,
                             signal_transmission=0.5)
        assert thinned.cm_out < full.cm_out
        assert thinned.herald_rate == pytest.approx(full.herald_rate)

    def test_external_acceptance_table(self, ref_params):
        prof = channel_transmissions(ref_params, 15).truncated(15)
        src = PhotonSource.poissonian(1.0)
        base = postselect(src, prof)
        accept = np.array([acceptance_probability("exactly-one", n, prof)
                           for n in range(src.pmf_array(None).size + 50)])
        override = postselect(src, prof, acceptance=accept)
        assert override.w_M == pytest.approx(base.w_M, rel=1e-12)

    def test_thinning_matches_binomial_sum(self, rng):
        pmf = rng.dirichlet(np.ones(25))
        for t in (0.05, 0.5, 0.93):
            oracle = np.zeros_like(pmf)
            for n, w in enumerate(pmf):
                for m in range(n + 1):
                    oracle[m] += w * math.comb(n, m) * t ** m * (1 - t) ** (n - m)
            assert _thin_pmf(pmf, t) == pytest.approx(oracle, abs=1e-15)

    def test_never_accepting_raises(self):
        with pytest.raises(NoAcceptanceError):
            postselect(PhotonSource.custom([1.0]), lossless_profile(0.5, 20))

    @pytest.mark.parametrize("kind", ["fock", "custom"])
    def test_photon_ceiling(self, ref_params, kind):
        pmf = np.zeros(MAX_PHOTONS + 2)
        pmf[-1] = 1.0
        source = (PhotonSource.fock(MAX_PHOTONS + 1) if kind == "fock"
                  else PhotonSource.custom(pmf))
        prof = channel_transmissions(ref_params, 15)
        with pytest.raises(DomainError, match="MAX_PHOTONS"):
            postselect(source, prof)
        assert postselect(PhotonSource.fock(MAX_PHOTONS), prof).herald_rate > 0

    def test_bad_signal_transmission(self, ref_params):
        prof = channel_transmissions(ref_params, 10)
        with pytest.raises(ParameterError):
            postselect(PhotonSource.poissonian(1.0), prof,
                       signal_transmission=0.0)


class TestHeraldAcceptanceFromMc:
    N_MAX, TRIALS = 8, 4000

    @pytest.mark.parametrize("rule", ACCEPT_RULES)
    def test_noise_free_matches_closed_form(self, rule):
        params = reference_device(dark_prob_per_bin=0.0, afterpulse_prob=0.0)
        table = herald_acceptance_from_mc(params, self.N_MAX, rule,
                                          self.TRIALS, seed=41)
        exact = acceptance_probability(
            rule, np.arange(self.N_MAX + 1), channel_transmissions(params, 15))
        sigma = np.sqrt(exact * (1.0 - exact) / self.TRIALS)
        assert table.shape == (self.N_MAX + 1,)
        assert table[0] == exact[0] == 0.0
        assert np.all(np.abs(table - exact) <= 6.0 * sigma)

    def test_first_channel_only_is_a_subset_of_exactly_one(self, ref_params):
        first, one = (herald_acceptance_from_mc(ref_params, 4, rule, 2000, 5)
                      for rule in ("first-channel-only", "exactly-one"))
        assert np.all(first <= one) and np.all(first[1:] > 0.0)

    def test_unknown_rule(self, ref_params):
        with pytest.raises(ParameterError):
            herald_acceptance_from_mc(ref_params, 2, "two-or-more", 100, 1)

    def test_photon_ceiling_checked_before_any_run(self, ref_params,
                                                   monkeypatch):
        import loopdet.montecarlo as mc

        def no_run(*args, **kwargs):
            raise AssertionError("ran a simulation")

        monkeypatch.setattr(mc, "_batch_worker", no_run)
        with pytest.raises(DomainError, match="MAX_PHOTONS"):
            herald_acceptance_from_mc(ref_params, MAX_PHOTONS + 1,
                                      "exactly-one", 2, 1)

    def test_one_process_pool_for_all_photon_numbers(self, ref_params,
                                                     monkeypatch):
        import concurrent.futures

        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        table = herald_acceptance_from_mc(ref_params, 3, "exactly-one", 500,
                                          9, workers=2)
        assert pools == [{"max_workers": 2}]
        assert np.array_equal(table, herald_acceptance_from_mc(
            ref_params, 3, "exactly-one", 500, 9, workers=1))


class TestWmCurve:
    def test_rows_and_finite_values(self, ref_params):
        prof = channel_transmissions(ref_params, 15).truncated(15)
        rows = wm_curve([0.5, 1.0, 2.0], prof)
        assert [r["mu"] for r in rows] == [0.5, 1.0, 2.0]
        for r in rows:
            assert np.isfinite(r["w_M"]) and r["herald_rate"] > 0

    def test_failed_points_become_nan(self, ref_params):
        prof = channel_transmissions(ref_params, 15).truncated(15)
        rows = wm_curve([0.0, 1.0], prof)
        assert math.isnan(rows[0]["w_M"])
        assert np.isfinite(rows[1]["w_M"])

    def test_caller_errors_propagate(self, ref_params):
        # Only a point where the rule never fires becomes a NaN row; a table
        # shorter than the Poisson cut-off is the caller's error.
        prof = channel_transmissions(ref_params, 15).truncated(15)
        short = acceptance_probability("exactly-one", np.arange(21), prof)
        for mu in (0.5, 2.0):
            with pytest.raises(ParameterError, match="too short"):
                wm_curve([mu], prof, acceptance=short)

    def test_monotone_in_mu_for_lossless(self):
        # Stronger pumping leaves more residual multi-photon content.
        prof = lossless_profile(0.5, 60)
        rows = wm_curve(np.linspace(0.5, 3.0, 6), prof)
        w = [r["w_M"] for r in rows]
        assert all(b >= a for a, b in zip(w, w[1:]))
