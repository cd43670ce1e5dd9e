import math

import numpy as np
import pytest
from scipy.special import digamma, gammaincc, gammaln

from sigmadiv import dpinfer, gibbs, specfun
from sigmadiv.errors import DomainError

from helpers import (grid_mean_log_kernel, grid_quantiles_log_kernel, poisson_quantile_walk,
                     trapezoid)

SG = dpinfer.StirlingGammaSpec
CP = dpinfer.CoarsenedPosterior


class TestSpecs:
    def test_sg_location_constraint(self):
        SG(a=1.0, b=0.0002, n_ref=553_949)
        with pytest.raises(DomainError):
            SG(a=1.0, b=2.0, n_ref=100)  # a/b < 1
        with pytest.raises(DomainError):
            SG(a=500.0, b=1.0, n_ref=100)  # a/b > n_ref
        with pytest.raises(DomainError):
            SG(a=-1.0, b=1.0, n_ref=10)

    def test_posterior_validation(self):
        prior = SG(2.0, 0.5, 50)
        with pytest.raises(DomainError):
            CP(prior=prior, n=10, k=11, rho=1.0)
        with pytest.raises(DomainError):
            CP(prior=prior, n=10, k=5, rho=0.0)

    def test_conjugate_collapse(self):
        # with n_ref == n the posterior kernel is SG(a + rho k, b + rho, n)
        prior = SG(2.0, 0.5, 60)
        post = CP(prior=prior, n=60, k=13, rho=0.25)
        alphas = np.array([0.5, 3.0, 40.0])
        direct = SG(2.0 + 0.25 * 13, 0.5 + 0.25, 60).log_kernel(alphas)
        assert post.log_kernel(alphas) == pytest.approx(direct, rel=1e-12)


class TestSliceSampler:
    def test_quantiles_match_grid_integration(self):
        post = CP(prior=SG(1.0, 0.1, 50), n=50, k=10, rho=1.0)
        draws = dpinfer.sg_posterior_sample(post, 60_000, rng_seed=3)
        got = np.quantile(draws.values, [0.05, 0.25, 0.5, 0.75, 0.95])
        want = grid_quantiles_log_kernel(post.log_kernel, 1e-4, 1e4,
                                         [0.05, 0.25, 0.5, 0.75, 0.95])
        assert np.abs(got / want - 1).max() < 0.01

    def test_thinned_to_low_autocorrelation(self):
        post = CP(prior=SG(1.0, 0.1, 50), n=50, k=10, rho=1.0)
        draws = dpinfer.sg_posterior_sample(post, 5_000, rng_seed=11)
        from sigmadiv.draws import autocorrelation

        assert abs(autocorrelation(draws.values, 1)) < 0.05
        assert draws.ess >= 500

    def test_deterministic(self):
        post = CP(prior=SG(1.0, 0.1, 50), n=50, k=10, rho=0.5)
        a = dpinfer.sg_posterior_sample(post, 500, rng_seed=9).values
        b = dpinfer.sg_posterior_sample(post, 500, rng_seed=9).values
        assert (a == b).all()

    def test_tempering_to_prior(self):
        prior = SG(2.0, 0.5, 40)
        post = CP(prior=prior, n=40, k=35, rho=1e-9)
        coarse = dpinfer.sg_posterior_sample(post, 40_000, rng_seed=1).values
        from_prior = dpinfer.sg_prior_sample(prior, 40_000, rng_seed=2).values
        qs = [0.1, 0.25, 0.5, 0.75, 0.9]
        assert np.abs(np.quantile(coarse, qs) / np.quantile(from_prior, qs) - 1).max() < 0.04


class TestHeavyLeftTail:
    # a one-observation branch under SG(0.3, 0.1, 100): the log-alpha density
    # decays only like e^{0.2 x} to the left, so a bracket cut at 1e-8 moves
    # the lower quartile by ~40% and the mean by ~2.5%
    @pytest.mark.parametrize("n", [1, 2])
    def test_quartiles_and_mean_match_wide_grid(self, n):
        post = CP(prior=SG(0.3, 0.1, 100), n=n, k=1, rho=1.0)
        draws = dpinfer.sg_posterior_sample(post, 1_000_000, rng_seed=12).values
        qs = [0.25, 0.5, 0.75]
        want = grid_quantiles_log_kernel(post.log_kernel, 1e-40, 1e6, qs)
        assert np.abs(np.quantile(draws, qs) / want - 1).max() < 0.02
        want_mean = grid_mean_log_kernel(post.log_kernel, 1e-40, 1e6)
        assert draws.mean() == pytest.approx(want_mean, rel=0.01)


class TestHeavyRightTail:
    # (50, 48) under the CLI default prior at rho = 1 and (1000, 100) at
    # rho = 0.001: the log-alpha density decays only like e^{-2 x} and
    # e^{-0.9 x} to the right, so the bracket walks past alpha ~ n 2^53,
    # where a plain gammaln difference for log (alpha)_n is rounding noise
    @pytest.mark.parametrize("n,k,rho", [(50, 48, 1.0), (1000, 100, 0.001)])
    def test_quartiles_match_grid(self, n, k, rho):
        post = CP(prior=SG(1.0, 1.0 / n, n), n=n, k=k, rho=rho)
        draws = dpinfer.sg_posterior_sample(post, 200_000, rng_seed=4).values
        qs = [0.25, 0.5, 0.75]
        want = grid_quantiles_log_kernel(post.log_kernel, 1e-8, 1e12, qs)
        assert np.abs(np.quantile(draws, qs) / want - 1).max() < 0.02

    def test_log_rising_for_alpha_far_above_n(self):
        for alpha in [10.0, 999.0, 1001.0, 1e6, 1e17, 1e300]:
            for n in [1, 50, 1000]:
                want = math.fsum(math.log(alpha) + math.log1p(j / alpha) for j in range(n))
                got = float(specfun.log_rising(np.array(alpha), n))
                assert got == pytest.approx(want, rel=1e-12)


class TestImproper:
    # a/b = n_ref with k = n leaves the kernel flat as alpha -> infinity,
    # and a/b = 1 leaves the prior flat as alpha -> 0
    def test_posterior_raises(self):
        post = CP(prior=SG(1.0, 1.0 / 50, 50), n=50, k=50, rho=1.0)
        with pytest.raises(DomainError):
            dpinfer.sg_posterior_sample(post, 100, rng_seed=0)

    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_fewer_than_one_draw(self, n_draws):
        prior = SG(2.0, 0.5, 50)
        with pytest.raises(DomainError, match="n_draws"):
            dpinfer.sg_prior_sample(prior, n_draws, rng_seed=0)
        with pytest.raises(DomainError, match="n_draws"):
            dpinfer.sg_posterior_sample(CP(prior=prior, n=50, k=10, rho=1.0), n_draws, 0)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0 / 50), (0.5, 0.5)])
    def test_prior_raises(self, a, b):
        with pytest.raises(DomainError):
            dpinfer.sg_prior_sample(SG(a, b, 50), 100, rng_seed=0)


class TestAmazonPosterior:
    def test_rho_one_row(self, amazon_stats):
        n, k = amazon_stats
        post = CP(prior=SG(1.0, 0.0002, n), n=n, k=k, rho=1.0)
        d = dpinfer.sg_posterior_sample(post, 30_000, rng_seed=5)
        q = np.quantile(d.values, [0.01, 0.5, 0.99])
        assert np.median(d.values) == pytest.approx(751, abs=2)
        assert q[0] == pytest.approx(725, abs=3)
        assert q[2] == pytest.approx(779, abs=3)

    def test_rho_centi_row(self, amazon_stats):
        n, k = amazon_stats
        post = CP(prior=SG(1.0, 0.0002, n), n=n, k=k, rho=0.01)
        d = dpinfer.sg_posterior_sample(post, 30_000, rng_seed=6)
        q01, q99 = np.quantile(d.values, [0.01, 0.99])
        assert q01 == pytest.approx(514, rel=0.02)
        assert q99 == pytest.approx(1048, rel=0.02)


class TestRichness:
    def test_point_mass_when_nhat_is_n(self):
        post = CP(prior=SG(1.0, 0.05, 50), n=50, k=10, rho=1.0)
        pred = dpinfer.richness_posterior(post, 50.0, 2_000, rng_seed=0)
        assert (pred.draws == 10).all()

    @pytest.mark.parametrize("nhat", [float("inf"), float("nan"), 49.0])
    def test_nhat_must_be_finite_and_at_least_n(self, nhat):
        post = CP(prior=SG(1.0, 0.05, 50), n=50, k=10, rho=1.0)
        with pytest.raises(DomainError):
            dpinfer.richness_posterior(post, nhat, 10, rng_seed=0)

    def test_draws_at_least_k(self):
        post = CP(prior=SG(1.0, 0.05, 50), n=50, k=10, rho=1.0)
        pred = dpinfer.richness_posterior(post, 5_000.0, 5_000, rng_seed=1)
        assert (pred.draws >= 10).all()

    def test_monotone_in_nhat_under_coupling(self):
        post = CP(prior=SG(1.0, 0.05, 50), n=50, k=10, rho=1.0)
        small = dpinfer.richness_posterior(post, 2_000.0, 3_000, rng_seed=7).draws
        large = dpinfer.richness_posterior(post, 20_000.0, 3_000, rng_seed=7).draws
        assert (large >= small).all()

    def test_poisson_approximation_total_variation(self):
        # fixed alpha: Poisson(lambda) vs the exact new-taxa pmf
        n, k, m, alpha = 100, 20, 500, 5.0
        lam = alpha * (digamma(alpha + n + m) - digamma(alpha + n))
        exact = gibbs.posterior_Km_pmf(gibbs.DirichletProcess(alpha), n, k, m)
        j = np.arange(m + 1)
        log_pois = j * math.log(lam) - lam - gammaln(j + 1.0)
        tv = 0.5 * np.abs(exact - np.exp(log_pois)).sum()
        assert tv < 0.02

    def test_discovery_mean_for_alpha_far_above_n(self):
        # psi(alpha + N) - psi(alpha + n) = sum_{n <= j < N} 1 / (alpha + j)
        for alpha in [10.0, 999.0, 1001.0, 1e6, 1e17, 1e300]:
            for N in [51, 2_000]:
                want = math.fsum(alpha / (alpha + j) for j in range(50, N))
                got = specfun.discovery_mean(np.array([alpha]), 50, np.array([N - 50.0]))
                assert got[0] == pytest.approx(want, rel=1e-12)

    def test_mean_matches_extrapolation_formula(self, amazon_stats):
        n, k = amazon_stats
        post = CP(prior=SG(1.0, 0.0002, n), n=n, k=k, rho=1.0)
        pred = dpinfer.richness_posterior(post, 3.949e11, 30_000, rng_seed=8)
        assert pred.draws.mean() == pytest.approx(15_051, rel=0.01)


class TestPoissonPpf:
    LAMS = (0.0, 1e-3, 0.5, 30.0, 9.5e3, 1e6, 1e8, 1e11)

    @pytest.mark.parametrize("lam", LAMS)
    def test_against_scipy_walk(self, lam):
        us = [0.5, 1e-4, 0.01, 0.99, 1.0 - 1e-4]
        if lam < 1e6:  # beyond 4.5 sd scipy's gammaincc is off at large lam
            us += [1e-12, 1e-7, 1.0 - 1e-7, 1.0 - 1e-12]
        us = np.array(us)
        got = dpinfer._poisson_ppf(us, np.full(us.size, lam))
        for u, j in zip(us, got):
            want = poisson_quantile_walk(u, lam)
            tie = min(abs(gammaincc(want + 1.0, lam) - u),
                      abs(gammaincc(max(want, 1.0), lam) - u)) < 1e-12
            assert j == want or tie, (u, lam, j, want)

    @pytest.mark.parametrize("lam", (9.5e3, 1e8, 1e11))
    def test_definition_in_the_far_tails(self, lam):
        # P(X <= j) >= u > P(X <= j - 1), read from gammainc_pq (checked against mpmath
        # where scipy is off) as P(X > j) = P(j + 1, lam) above 1/2 and as Q below: near
        # u = 1 the CDF has no float spacing for a pmf step of ~1e-17
        us = np.array([1e-300, 1e-12, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0 ** -53])
        j = dpinfer._poisson_ppf(us, np.full(us.size, lam)).astype(float)
        p_j, q_j = specfun.gammainc_pq(j + 1.0, lam)
        p_below, q_below = specfun.gammainc_pq(j, lam)
        lower = us < 0.5
        assert (q_j[lower] >= us[lower]).all() and (q_below[lower] < us[lower]).all()
        upper = ~lower
        assert (p_j[upper] <= 1.0 - us[upper]).all()
        assert (p_below[upper] > 1.0 - us[upper]).all()

    def test_monotone_in_lambda(self):
        lam = np.logspace(-3, 11, 3001)
        for u in (1e-12, 0.3, 0.5, 0.99, 1.0 - 1e-12):
            j = dpinfer._poisson_ppf(np.full(lam.size, u), lam)
            assert (np.diff(j) >= 0).all(), u

    @pytest.mark.parametrize("block", [1000, 1 << 16])
    def test_blocks_do_not_change_the_draws(self, monkeypatch, block):
        # elementwise in blocks of specfun._BLOCK entries: blocks of 1,000 and one
        # block give the quantiles of 4,096 entries a block
        rng = np.random.default_rng(12)
        lam = 10.0 ** rng.uniform(-3.0, 11.0, size=20_000)
        u = rng.random(lam.size)
        want = dpinfer._poisson_ppf(u, lam)
        monkeypatch.setattr(specfun, "_BLOCK", block)
        got = dpinfer._poisson_ppf(u, lam)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_ends(self):
        # u = 0 gives 0 at any lam (the normal-quantile start is clipped near -37.5 there),
        # and lam = 0 gives 0 at any u
        lam = np.array([0.0, 0.0, 2.0, 1e11])
        u = np.array([0.0, 0.999, 0.0, 0.0])
        assert dpinfer._poisson_ppf(u, lam).tolist() == [0, 0, 0, 0]


class TestDiversityTransforms:
    def test_point_masses(self):
        out = dpinfer.diversity_transforms(np.array([751.0]))
        assert out["simpson_mean"] == pytest.approx(1 / 752, rel=1e-12)
        tiny = dpinfer.diversity_transforms(np.array([1e-12]))
        assert tiny["simpson_mean"] == pytest.approx(1.0, rel=1e-9)
        assert tiny["shannon_mean"] == pytest.approx(0.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            dpinfer.diversity_transforms(np.array([]))

    @pytest.mark.parametrize("alpha", [[math.nan], [math.inf], [0.0], [2.0, -1.0]])
    def test_non_finite_or_non_positive_rejected(self, alpha):
        # a NaN draw gave NaN means
        with pytest.raises(DomainError, match="alpha_draws"):
            dpinfer.diversity_transforms(np.array(alpha))

    def test_amazon_rho_centi(self, amazon_stats):
        n, k = amazon_stats
        post = CP(prior=SG(1.0, 0.0002, n), n=n, k=k, rho=0.01)
        alpha = dpinfer.sg_posterior_sample(post, 30_000, rng_seed=2).values
        out = dpinfer.diversity_transforms(alpha)
        assert out["simpson_mean"] == pytest.approx(0.00136, rel=0.05)
        assert out["shannon_mean"] == pytest.approx(7.1884, rel=0.01)


class TestCalibrationCurve:
    def test_single_point(self):
        prior = SG(1.0, 0.05, 100)
        out = dpinfer.calibration_curve(prior, 100, 20, [1.0], n_draws=2_000)
        assert len(out) == 1 and out[0][0] == 1.0

    def test_maximal_at_full_weight(self):
        prior = SG(1.0, 0.01, 1_000)
        curve = dpinfer.calibration_curve(prior, 1_000, 100, [0.01, 0.1, 0.5, 1.0],
                                          n_draws=4_000, rng_seed=4)
        values = [v for _, v in curve]
        assert values[-1] == max(values)

    def test_monotone_on_amazon_grid(self, amazon_stats):
        n, k = amazon_stats
        prior = SG(1.0, 0.0002, n)
        curve = dpinfer.calibration_curve(prior, n, k, [0.001, 0.01, 0.1, 1.0],
                                          n_draws=3_000, rng_seed=5)
        values = [v for _, v in curve]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_grid_expectation(self):
        prior = SG(1.0, 0.1, 50)
        n, k, rho = 50, 10, 0.5
        (got,) = [v for _, v in dpinfer.calibration_curve(prior, n, k, [rho],
                                                          n_draws=50_000, rng_seed=6)]
        post = CP(prior=prior, n=n, k=k, rho=rho)

        def integrand(a):
            return post.log_kernel(a)

        # grid expectation of k log(alpha) - log (alpha)_n
        x = np.linspace(np.log(1e-4), np.log(1e4), 200_001)
        a = np.exp(x)
        p = np.exp(integrand(a) + x - (integrand(a) + x).max())
        ll = k * np.log(a) - (gammaln(a + n) - gammaln(a))
        want = float(trapezoid(p * ll, x) / trapezoid(p, x))
        assert got == pytest.approx(want, rel=0.01)
