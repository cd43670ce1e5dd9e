import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, xlogy
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest, ks_2samp

from sigmadiv import apinfer, gibbs, specfun
from sigmadiv.datamodel import PartitionData
from sigmadiv.errors import DomainError

from helpers import trapezoid

AP = gibbs.AldousPitman
SQRT2 = math.sqrt(2.0)


def grid_gamma_quantiles(n, k, a, b, qs, gmax=30.0, nodes=20_001):
    """Oracle: quantiles of p(gamma) ~ Gamma(a,b) prior x V_{n,k}(gamma)."""
    gs = np.linspace(1e-6, gmax, nodes)
    logp = (a - 1) * np.log(gs) - b * gs + np.array(
        [gibbs.log_V(AP(float(g)), n, k) for g in gs])
    p = np.exp(logp - logp.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(gs))])
    cdf /= cdf[-1]
    return np.interp(qs, cdf, gs)


class TestStickConstruction:
    def test_residuals_start_at_one(self):
        w = apinfer.ap_stick_sample(1.0, 50, rng_seed=0)
        assert w.residuals[0] == 1.0
        assert (np.diff(w.residuals) < 0).all()
        assert (w.weights > 0).all()
        assert w.weights.sum() + w.tail_mass == pytest.approx(1.0, abs=1e-12)

    def test_first_residual_mean_vs_quadrature(self):
        g = 1.0
        vals = np.array([apinfer.ap_stick_sample(g, 1, seed).residuals[1]
                         for seed in range(40_000)])
        # E[(g^2/2) / (g^2/2 + Y^2)] against the chi-square_1 density
        half = g * g / 2

        def f(y):
            return half / (half + y * y) * math.sqrt(2 / math.pi) * math.exp(-y * y / 2)

        want = quad(f, 0, np.inf, limit=200)[0]
        assert abs(vals.mean() - want) < 3 * vals.std() / math.sqrt(len(vals))

    def test_simpson_from_weights_matches_exponential_identity(self):
        g = 1.0
        sims = np.array([(apinfer.ap_stick_sample(g, 10_000, seed).weights ** 2).sum()
                         for seed in range(8_000)])
        want = gibbs.diversity_indices(AP(g)).expected_simpson
        assert abs(sims.mean() - want) < 3 * sims.std() / math.sqrt(len(sims))

    def test_shannon_from_weights_matches_size_biased_pick(self):
        # 4,000 atoms leave 1.25e-4 of the mass in the tail at g = 1; that lowers
        # the mean by about 0.0022, a third of its standard error
        g = 1.0
        sims = np.array([-xlogy(w, w).sum() for w in
                         (apinfer.ap_stick_sample(g, 4_000, seed).weights
                          for seed in range(4_000))])
        want = gibbs.diversity_indices(AP(g)).expected_shannon
        assert abs(sims.mean() - want) < 3 * sims.std() / math.sqrt(len(sims))

    def test_validation(self):
        for gamma in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                apinfer.ap_stick_sample(gamma, 10, 0)
        with pytest.raises(DomainError):
            apinfer.ap_stick_sample(1.0, 0, 0)


class TestAugmentedLikelihood:
    def test_marginalization_recovers_eppf(self):
        # dense trapezoid around the analytic peak; scipy's adaptive rule
        # cannot track the u^{2n-k-2} spike tightly enough at n = 20
        for n, ab in [(5, (3, 1, 1)), (10, (4, 3, 2, 1)), (20, (8, 5, 4, 2, 1))]:
            for g in (0.5, 1.0, 3.0):
                k = len(ab)
                m, t = 2 * n - k - 2, g / SQRT2
                u_star = 0.5 * (-t + math.sqrt(t * t + 4 * m)) if m else 0.0
                sd = 1.0 / math.sqrt(m / u_star ** 2 + 1.0) if m else 1.0
                u = np.linspace(max(u_star - 15 * sd, 1e-12), u_star + 15 * sd, 40_001)
                log_f = np.array([apinfer.log_augmented_likelihood(
                    apinfer.APAugmentedState(gamma=g, u=float(x), n=n, k=k), ab)
                    for x in u])
                val = float(trapezoid(np.exp(log_f - log_f.max()), u)
                            * math.exp(log_f.max()))
                eppf = math.exp(gibbs.log_eppf(AP(g), PartitionData.from_abundances(ab)))
                assert abs(val - eppf) / eppf < 1e-6

    def test_hand_value(self):
        # n=2, k=1, abundances (2), gamma=1, u=1:
        # 2^{2-1/2-1/2} / Gamma(2) * (1/2)^0 * 1^{0} ... exponent 2n-k-2 = 1
        # = 2 * u * e^{-1/2 - 1/sqrt(2)} * (1/2)_1
        state = apinfer.APAugmentedState(gamma=1.0, u=1.0, n=2, k=1)
        want = math.log(2.0 * 1.0 * math.exp(-0.5 - 1 / SQRT2) * 0.5)
        assert apinfer.log_augmented_likelihood(state, (2,)) == pytest.approx(want, rel=1e-12)

    def test_gamma_dependence_is_linear_in_log(self):
        # the likelihood ratio in gamma depends only on (k-1) log(gamma) - u gamma/sqrt(2)
        n, k, ab, u = 6, 3, (4, 1, 1), 1.7
        st = lambda g: apinfer.APAugmentedState(gamma=g, u=u, n=n, k=k)
        for g1, g2 in [(0.5, 1.5), (1.0, 4.0)]:
            got = (apinfer.log_augmented_likelihood(st(g2), ab)
                   - apinfer.log_augmented_likelihood(st(g1), ab))
            want = (k - 1) * math.log(g2 / g1) - u / SQRT2 * (g2 - g1)
            assert got == pytest.approx(want, rel=1e-10)

    def test_tempering_scales_log_likelihood(self):
        base = apinfer.APAugmentedState(gamma=1.2, u=0.8, n=7, k=3, rho=1.0)
        quarter = apinfer.APAugmentedState(gamma=1.2, u=0.8, n=7, k=3, rho=0.25)
        ab = (4, 2, 1)
        assert apinfer.log_augmented_likelihood(quarter, ab) == pytest.approx(
            0.25 * apinfer.log_augmented_likelihood(base, ab), rel=1e-12)

    @pytest.mark.parametrize("gamma, u", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                          (1.0, math.inf)])
    def test_non_finite_state_is_refused(self, gamma, u):
        # the likelihood of such a state was NaN
        with pytest.raises(DomainError, match="finite"):
            apinfer.log_augmented_likelihood(apinfer.APAugmentedState(gamma, u, 3, 2), [2, 1])

    def test_requires_two_observations(self):
        state = apinfer.APAugmentedState(gamma=1.0, u=1.0, n=1, k=1)
        with pytest.raises(DomainError):
            apinfer.log_augmented_likelihood(state, (1,))

    @pytest.mark.parametrize("abundances", [(2.5, 0.5), (3, 0), (4, -1)])
    def test_abundances_must_be_positive_integers(self, abundances):
        state = apinfer.APAugmentedState(gamma=1.0, u=2.0, n=3, k=2)
        with pytest.raises(DomainError, match="positive integers"):
            apinfer.log_augmented_likelihood(state, abundances)


class TestModifiedHalfNormal:
    LANES = [(0.0, 0.5, 1.0), (17.0, 0.5, 0.1), (0.0, 0.5, -2.0), (3.0, 0.5, -2.0),
             (0.0, 0.5, 0.0), (17.0, 0.5, 40.0), (0.0, 2.0, 30.0), (0.5, 2.0, 0.0),
             (4.5, 0.125, 3.0), (1.0, 0.5, 1.4)]

    @pytest.mark.parametrize("m,p,q", [(0.0, 0.5, 1.0), (0.0, 0.5, -2.0),
                                       (1.0, 0.5, 1.4), (17.0, 0.5, 0.1),
                                       (17.0, 0.5, 40.0), (4.5, 0.125, 3.0),
                                       (0.5, 2.0, 0.0)])
    def test_moments_vs_quadrature(self, m, p, q):
        z0 = quad(lambda u: u ** m * math.exp(-p * u * u - q * u), 0, np.inf, limit=300)[0]
        want_mean = quad(lambda u: u ** (m + 1) * math.exp(-p * u * u - q * u),
                         0, np.inf, limit=300)[0] / z0
        rng = np.random.default_rng(5)
        xs = np.array([apinfer.sample_modified_half_normal(rng, m, p, q)
                       for _ in range(30_000)])
        assert abs(xs.mean() - want_mean) < 3.5 * xs.std() / math.sqrt(len(xs))

    def test_array_lanes_vs_quadrature(self):
        # one call over lanes of every envelope: Gaussian (q <= 0, m = 0 among them),
        # Gamma (m > 0 < q) and the exponential tilt (m = 0 < q), interleaved
        m, p, q = np.array(self.LANES).T
        reps = 30_000
        xs = apinfer.sample_modified_half_normal(np.random.default_rng(5), np.tile(m, reps),
                                                 np.tile(p, reps), np.tile(q, reps))
        xs = xs.reshape(reps, len(m))
        assert (xs > 0.0).all()
        for lane, (mi, pi, qi) in enumerate(self.LANES):
            z0 = quad(lambda u: u ** mi * math.exp(-pi * u * u - qi * u), 0, np.inf,
                      limit=300)[0]
            want_mean = quad(lambda u: u ** (mi + 1) * math.exp(-pi * u * u - qi * u),
                             0, np.inf, limit=300)[0] / z0
            x = xs[:, lane]
            assert abs(x.mean() - want_mean) < 3.5 * x.std() / math.sqrt(reps)

    def test_array_broadcast_and_shape(self):
        rng = np.random.default_rng(1)
        x = apinfer.sample_modified_half_normal(rng, np.array([[0.0], [3.0]]), 0.5,
                                                np.array([-1.0, 0.0, 2.0]))
        assert x.shape == (2, 3) and (x > 0.0).all()
        assert apinfer.sample_modified_half_normal(rng, np.array([]), 0.5, 1.0).shape == (0,)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            apinfer.sample_modified_half_normal(rng, -1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            apinfer.sample_modified_half_normal(rng, 1.0, 0.0, 0.0)
        for m, p, q in [(-1.0, 0.5, 0.0), (1.0, 0.0, 0.0), (1.0, 0.5, np.nan)]:
            with pytest.raises(DomainError):
                apinfer.sample_modified_half_normal(rng, np.array([2.0, m]), p, q)

    @pytest.mark.parametrize("m, p, q", [(3.0, 0.5, math.nan), (3.0, math.inf, 0.5),
                                         (math.inf, 0.5, 0.5), (3.0, 0.5, -math.inf)])
    def test_non_finite_input_is_refused_up_front(self, m, p, q):
        # not SamplerError after the rejection loop's 10,000 proposals, nor a numpy warning
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="finite"):
            apinfer.sample_modified_half_normal(rng, m, p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                apinfer.sample_modified_half_normal(rng, np.array([2.0, m]), p, q)


class TestGibbsSweep:
    def test_gamma_conditional_mean(self):
        # E(gamma | u) = (a + k - 1) / (b + u/sqrt(2))
        prior = apinfer.GammaPrior(2.0, 1.0)
        n, k, u = 10, 4, 1.3
        rng = np.random.default_rng(1)
        vals = np.empty(100_000)
        state = apinfer.APAugmentedState(gamma=1.0, u=u, n=n, k=k)
        for i in range(len(vals)):
            vals[i] = apinfer.gibbs_sweep(state, prior, rng).gamma  # state not rebound
        want = (prior.a + k - 1) / (prior.b + u / SQRT2)
        assert abs(vals.mean() - want) < 3 * vals.std() / math.sqrt(len(vals))

    def test_u_conditional_mean_vs_quadrature(self):
        prior = apinfer.GammaPrior(2.0, 1.0)
        n, k, g = 10, 4, 1.0
        m, p, q = 2 * n - k - 2, 0.5, g / SQRT2
        z0 = quad(lambda u: u ** m * math.exp(-p * u * u - q * u), 0, np.inf)[0]
        want = quad(lambda u: u ** (m + 1) * math.exp(-p * u * u - q * u), 0, np.inf)[0] / z0
        rng = np.random.default_rng(2)
        vals = np.array([apinfer.sample_modified_half_normal(rng, m, p, q)
                         for _ in range(50_000)])
        assert abs(vals.mean() - want) < 3 * vals.std() / math.sqrt(len(vals))

    @pytest.mark.parametrize("n_draws, burn_in", [(0, 5), (-1, 5), (5, -3)])
    def test_refuses_draws_and_burn_in_out_of_range(self, n_draws, burn_in):
        with pytest.raises(DomainError):
            apinfer.run_ap_gibbs(20, 8, apinfer.GammaPrior(2.0, 1.0), n_draws, burn_in, 1)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_refuses_non_finite_n(self, n):
        with pytest.raises(DomainError, match="finite"):
            apinfer.run_ap_gibbs(n, 3, apinfer.GammaPrior(1.0, 1.0), 5, 0, 1)

    def test_stationary_distribution_matches_grid(self):
        n, k, a, b = 20, 8, 2.0, 1.0
        draws = apinfer.run_ap_gibbs(n, k, apinfer.GammaPrior(a, b), 60_000, 2_000,
                                     rng_seed=3)
        qs = [0.05, 0.25, 0.5, 0.75, 0.95]
        want = grid_gamma_quantiles(n, k, a, b, qs)
        got = np.quantile(draws.values, qs)
        assert np.abs(got / want - 1).max() < 0.02


class TestIidTwoStep:
    def test_distribution_equals_gibbs_chain(self):
        n, k = 30, 10
        iid = apinfer.iid_two_step_sample(n, k, 2.0, 1.0, 10_000, rng_seed=1)
        chain = apinfer.run_ap_gibbs(n, k, apinfer.GammaPrior(2.0, 1.0), 10_000, 1_000,
                                     rng_seed=2)
        assert ks_2samp(iid.values, chain.values).statistic < 0.02

    def test_quantiles_match_grid(self):
        n, k, a, b = 20, 8, 2.0, 1.0
        iid = apinfer.iid_two_step_sample(n, k, a, b, 100_000, rng_seed=3)
        qs = [0.05, 0.25, 0.5, 0.75, 0.95]
        want = grid_gamma_quantiles(n, k, a, b, qs)
        assert np.abs(np.quantile(iid.values, qs) / want - 1).max() < 0.02

    def test_marginal_likelihood_identity(self):
        # integrating the joint over (gamma, u) equals mixing the EPPF over the prior
        n, k, a, b = 6, 3, 2.0, 1.5
        c = a + k - 1

        def u_integrand(u):
            return (u ** (2 * n - k - 2) * math.exp(-u * u / 2)
                    * (b + u / SQRT2) ** (-c))

        lhs = (quad(u_integrand, 0, np.inf, limit=300)[0]
               * math.exp(gammaln(c) - gammaln(a) + a * math.log(b)
                          + (n - k / 2 - 0.5) * math.log(2.0) - gammaln(2 * n - k - 1)
                          - (k - 1) * math.log(2.0)))
        rhs = quad(lambda g: g ** (a - 1) * np.exp(-b * g) * b ** a / math.exp(gammaln(a))
                   * math.exp(gibbs.log_V(AP(g), n, k)), 0, np.inf, limit=300)[0]
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_prior_domination(self):
        iid = apinfer.iid_two_step_sample(10, 4, 1.0, 1e6, 5_000, rng_seed=4)
        assert np.quantile(iid.values, 0.99) < 1e-4

    def test_tempered_version_widens(self):
        full = apinfer.iid_two_step_sample(40, 12, 2.0, 1.0, 50_000, rng_seed=5, rho=1.0)
        temp = apinfer.iid_two_step_sample(40, 12, 2.0, 1.0, 50_000, rng_seed=5, rho=0.1)
        iqr = lambda v: np.subtract(*np.quantile(v, [0.75, 0.25]))
        assert iqr(temp.values) > iqr(full.values)

    def test_requires_n_at_least_two(self):
        with pytest.raises(DomainError):
            apinfer.iid_two_step_sample(1, 1, 1.0, 1.0, 10, rng_seed=0)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0),
                                      (1.0, float("nan")), (float("inf"), 1.0)])
    def test_gamma_prior_needs_finite_positive_a_b(self, a, b):
        with pytest.raises(DomainError, match="Gamma prior"):
            apinfer.GammaPrior(a, b)
        with pytest.raises(DomainError, match="Gamma prior"):
            apinfer.iid_two_step_sample(40, 12, a, b, 10, rng_seed=0)

    @pytest.mark.parametrize("n_draws, rho", [(0, 1.0), (-2, 1.0), (10, 2.0), (10, 0.0),
                                              (10, -1.0), (10, float("nan"))])
    def test_refuses_draws_and_rho_out_of_range(self, n_draws, rho):
        with pytest.raises(DomainError):
            apinfer.iid_two_step_sample(40, 12, 2.0, 1.0, n_draws, rng_seed=0, rho=rho)


class TestPredictiveSampler:
    def test_discovery_rate_matches_hermite_ratio(self):
        g, n, k, ab = 1.0, 5, 3, (3, 1, 1)
        t = g / SQRT2
        ratio = t * math.exp(specfun.log_hermite(k - 2 * n, t)
                             - specfun.log_hermite(k + 1 - 2 * n, t))
        rng = np.random.default_rng(6)
        draws = 100_000
        hits = sum(apinfer.ap_predictive_sample(g, n, k, ab, rng) is None
                   for _ in range(draws))
        se = math.sqrt(ratio * (1 - ratio) / draws)
        assert abs(hits / draws - ratio) < 3 * se

    def test_all_singletons_symmetric(self):
        g, n = 1.0, 4
        ab = (1, 1, 1, 1)
        t = g / SQRT2
        ratio = t * math.exp(specfun.log_hermite(n - 2 * n, t)
                             - specfun.log_hermite(n + 1 - 2 * n, t))
        rng = np.random.default_rng(7)
        picks = np.zeros(4)
        total_old = 0
        draws = 40_000
        for _ in range(draws):
            out = apinfer.ap_predictive_sample(g, n, n, ab, rng)
            if out is not None:
                picks[out] += 1
                total_old += 1
        # discovery rate matches the ratio formula even in the saturated case
        p_new_hat = 1 - total_old / draws
        assert abs(p_new_hat - ratio) < 3 * math.sqrt(ratio * (1 - ratio) / draws)
        # old selection is uniform since every n_j - 1/2 is equal
        assert np.abs(picks / total_old - 0.25).max() < 4 * math.sqrt(0.25 * 0.75 / total_old)

    def test_chained_steps_match_pmf(self):
        g, n, k, m = 1.0, 4, 2, 3
        pmf = gibbs.posterior_Km_pmf(AP(g), n, k, m)
        rng = np.random.default_rng(8)
        reps = 60_000
        counts = np.zeros(m + 1)
        for _ in range(reps):
            ab = [3, 1]
            kk = k
            for i in range(m):
                out = apinfer.ap_predictive_sample(g, n + i, kk, ab, rng)
                if out is None:
                    ab.append(1)
                    kk += 1
                else:
                    ab[out] += 1
            counts[kk - k] += 1
        emp = counts / reps
        se = np.sqrt(pmf * (1 - pmf) / reps)
        assert (np.abs(emp - pmf) < 3.5 * se + 1e-12).all()

    def test_single_observation_state(self):
        rng = np.random.default_rng(9)
        outs = {apinfer.ap_predictive_sample(2.0, 1, 1, (1,), rng) for _ in range(200)}
        assert outs <= {None, 0}

    @pytest.mark.parametrize("abundances", [[3, 0], [4, -1], [2.5, 0.5]])
    def test_abundances_must_be_positive_integers(self, abundances):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="positive integers"):
            apinfer.ap_predictive_sample(1.0, 3, 2, abundances, rng)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(DomainError, match="Aldous-Pitman"):
            apinfer.ap_predictive_sample(gamma, 3, 2, [2, 1], np.random.default_rng(0))


class TestPriorDensities:
    def test_py_normalizes(self):
        for theta in (0.0, 1.0, 4.5):
            val = quad(lambda g: apinfer.py_prior_density(g, theta), 0, np.inf,
                       limit=300)[0]
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_py_theta_zero_kernel(self):
        g = 1.7
        want = math.exp(-g * g / 4.0) / math.gamma(0.5)
        assert apinfer.py_prior_density(g, 0.0) == pytest.approx(want, rel=1e-12)

    def test_py_gamma_squared_law(self):
        theta = 1.5
        rng = np.random.default_rng(10)
        # sample gamma^2 ~ Gamma(theta + 1/2, rate 1/4) and check the density transform
        g2 = rng.gamma(theta + 0.5, 4.0, size=50_000)
        stat = kstest(np.sqrt(g2), lambda x: gamma_dist.cdf(x ** 2, theta + 0.5, scale=4.0))
        assert stat.pvalue > 0.01
        # direct change of variables: f_gamma(g) = 2 g f_{gamma^2}(g^2)
        g = 1.3
        want = 2 * g * gamma_dist.pdf(g * g, theta + 0.5, scale=4.0)
        assert apinfer.py_prior_density(g, theta) == pytest.approx(want, rel=1e-10)

    def test_ig_normalizes_and_limit(self):
        for beta in (0.3, 1.0, 2.5):
            val = quad(lambda g: apinfer.ig_prior_density(g, beta), 0, np.inf,
                       limit=300)[0]
            assert val == pytest.approx(1.0, abs=1e-7)
        g = np.array([0.4, 1.1, 3.0])
        small = apinfer.ig_prior_density(g, 1e-9)
        want = np.exp(-g * g / 4.0) / math.sqrt(math.pi)
        assert small == pytest.approx(want, rel=1e-6)

    def test_domains(self):
        with pytest.raises(DomainError):
            apinfer.py_prior_density(1.0, -0.6)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                apinfer.py_prior_density(1.0, bad)
            with pytest.raises(DomainError):
                apinfer.ig_prior_density(1.0, bad)
            for density in (apinfer.py_prior_density, apinfer.ig_prior_density):
                with pytest.raises(DomainError):
                    density(np.array([1.0, bad]), 1.0)
        with pytest.raises(DomainError):
            apinfer.ig_prior_density(-1.0, 1.0)
        with pytest.raises(DomainError):
            apinfer.ig_prior_density(1.0, 0.0)


class TestConstructiveAgreement:
    def test_partition_law_matches_urn(self):
        from collections import Counter

        g, n, reps = 1.0, 6, 100_000
        rng = np.random.default_rng(11)

        def canon(labels):
            return tuple(sorted(Counter(labels).values(), reverse=True))

        freq_stick, freq_urn = Counter(), Counter()
        chunk = 10_000
        for lo in range(0, reps, chunk):
            y2 = rng.standard_normal((chunk, 2_000)) ** 2
            half = g * g / 2
            residuals = half / (half + np.cumsum(y2, axis=1))
            residuals = np.concatenate([np.ones((chunk, 1)), residuals], axis=1)
            u = rng.random((chunk, n))
            for r in range(chunk):
                idx = np.searchsorted(-residuals[r], -u[r], side="right")
                freq_stick[canon(idx)] += 1
        for rep in range(reps):
            freq_urn[canon(gibbs.urn_sample(AP(g), n, 5_000_000 + rep))] += 1
        tv = 0.5 * sum(abs(freq_stick[c] / reps - freq_urn[c] / reps)
                       for c in set(freq_stick) | set(freq_urn))
        assert tv < 0.02

    def test_sqrt_growth_short_horizon(self):
        g, n, reps = 2.0, 2_000, 120
        p_new = gibbs._discovery_fn(AP(g), n)
        stats = []
        for seed in range(reps):
            rng = np.random.default_rng(seed)
            k = 0
            for i in range(n):
                if i == 0 or rng.random() < p_new(i, k):
                    k += 1
            stats.append(k / math.sqrt(n))
        assert abs(np.mean(stats) - g) / g < 0.07


class TestPosteriorDiversityConsistency:
    def test_extrapolated_growth_brackets_posterior(self):
        # Theorem-style check: K_{n+m} / sqrt(m) over the posterior predictive
        # reproduces the posterior law of gamma for large m
        n, k, a, b = 30, 10, 2.0, 1.0
        m = 10_000
        draws = apinfer.iid_two_step_sample(n, k, a, b, 150, rng_seed=12).values
        stats = np.array([
            gibbs.extrapolation(AP(float(g)), n, k, m, replicates=1,
                                rng_seed=1_000 + i).values[-1] / math.sqrt(m)
            for i, g in enumerate(draws)])
        for q in (0.25, 0.5, 0.75):
            assert np.quantile(stats, q) == pytest.approx(np.quantile(draws, q), rel=0.10)
