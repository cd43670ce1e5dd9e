import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from sigmadiv import gibbs, specfun
from sigmadiv.datamodel import PartitionData, stream_to_partition
from sigmadiv.errors import DomainError, TableSizeError

from helpers import dp_log_eppf, set_partitions

DM = gibbs.DirichletMultinomial
DP = gibbs.DirichletProcess
AP = gibbs.AldousPitman

TEST_MODELS = [DM(-1.0, 5), DP(1.0), DP(10.0), AP(0.5), AP(3.0)]


def eppf_of(model, sizes):
    return math.exp(gibbs.log_eppf(model, PartitionData.from_abundances(sizes)))


class TestLogV:
    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_single_observation(self, model):
        assert gibbs.log_V(model, 1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_dp_all_distinct(self):
        assert gibbs.log_V(DP(1.0), 3, 3) == pytest.approx(math.log(1 / 6), rel=1e-12)

    def test_dm_pair_probability(self):
        # Dirichlet(1,1) moment oracle: P(X1 = X2) = 2/3 = V_{2,1} * (1 + 1)_1
        assert math.exp(gibbs.log_V(DM(-1.0, 2), 2, 1)) * 2.0 == pytest.approx(2 / 3, rel=1e-12)

    def test_dm_support_bound(self):
        assert gibbs.log_V(DM(-1.0, 3), 5, 4) == -np.inf

    @pytest.mark.parametrize("alpha", [1e6, 1e12, 1e15])
    def test_dp_alpha_far_above_n(self, alpha):
        # V_{n,n} = prod_j alpha / (alpha + j) <= 1; the two ~1.7e3 logs it is the
        # difference of are spaced 2.3e-13 apart in float
        got = gibbs.log_V(DP(alpha), 50, 50)
        assert got <= 0.0
        assert got == pytest.approx(-math.fsum(math.log1p(j / alpha) for j in range(50)),
                                    abs=5e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            gibbs.log_V(DP(1.0), 3, 4)
        with pytest.raises(DomainError):
            gibbs.log_V(DP(1.0), 0, 0)


class TestEppf:
    def test_dp_example(self):
        assert eppf_of(DP(1.0), [3, 1, 1]) == pytest.approx(1 / 60, rel=1e-12)

    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_singleton_partition(self, model):
        assert gibbs.log_eppf(model, PartitionData.from_abundances([1])) == pytest.approx(
            0.0, abs=1e-12)

    def test_ap_two_observations_total(self):
        total = eppf_of(AP(1.0), [2]) + eppf_of(AP(1.0), [1, 1])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_dp_matches_closed_form(self):
        for sizes in ([4, 2, 1], [2, 2, 2, 1], [7]):
            got = gibbs.log_eppf(DP(3.5), PartitionData.from_abundances(sizes))
            assert got == pytest.approx(dp_log_eppf(3.5, sizes), rel=1e-12)

    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_normalization_small_n(self, model):
        for n in (4, 6):
            total = sum(eppf_of(model, [len(b) for b in p])
                        for p in set_partitions(range(n)))
            assert total == pytest.approx(1.0, abs=1e-8)


class TestPredictive:
    def test_dp_closed_form(self, amazon_stats):
        n, k = amazon_stats
        alpha = 751.23
        split = gibbs.predictive(DP(alpha), 3, 2, [2, 1])
        assert split.p_new == pytest.approx(alpha / (alpha + 3), rel=1e-12)
        # expected singletons implied by the predictive at the Amazon scale
        p_new = math.exp(gibbs.log_V(DP(alpha), n + 1, k + 1) - gibbs.log_V(DP(alpha), n, k))
        assert n * p_new == pytest.approx(750.22, abs=0.01)

    def test_dm_saturated(self):
        split = gibbs.predictive(DM(-0.5, 3), 6, 3, [3, 2, 1])
        assert split.p_new == pytest.approx(0.0, abs=1e-15)

    def test_ap_matches_latent_sampler(self):
        from sigmadiv.apinfer import ap_predictive_sample

        gamma, n, k, ab = 1.0, 2, 1, [2]
        split = gibbs.predictive(AP(gamma), n, k, ab)
        rng = np.random.default_rng(7)
        draws = 100_000
        hits = sum(ap_predictive_sample(gamma, n, k, ab, rng) is None for _ in range(draws))
        se = math.sqrt(split.p_new * (1 - split.p_new) / draws)
        assert abs(hits / draws - split.p_new) < 3 * se

    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_mass_conservation(self, model):
        split = gibbs.predictive(model, 6, 3, [3, 2, 1])
        assert split.p_new + split.reuse_weights.sum() == pytest.approx(1.0, rel=1e-10)
        assert (split.reuse_weights > 0).all()

    def test_inconsistent_abundances(self):
        with pytest.raises(DomainError):
            gibbs.predictive(DP(1.0), 5, 2, [2, 1])


class TestUrn:
    def test_degenerate_dp(self):
        labels = gibbs.urn_sample(DP(1e-9), 100, rng_seed=0)
        assert len(np.unique(labels)) == 1

    def test_dm_respects_bound(self):
        for seed in range(5):
            labels = gibbs.urn_sample(DM(-1.0, 3), 80, rng_seed=seed)
            assert len(np.unique(labels)) <= 3

    def test_dp_mean_distinct(self):
        alpha, n, reps = 5.0, 1000, 2000
        ks = np.array([len(np.unique(gibbs.urn_sample(DP(alpha), n, seed)))
                       for seed in range(reps)])
        expected = alpha * (digamma(alpha + n) - digamma(alpha))
        assert abs(ks.mean() - expected) < 3 * ks.std() / math.sqrt(reps)

    def test_deterministic(self):
        a = gibbs.urn_sample(AP(1.0), 50, rng_seed=42)
        b = gibbs.urn_sample(AP(1.0), 50, rng_seed=42)
        assert (a == b).all()


class TestDiscoveryFn:
    def test_values_independent_of_horizon(self):
        # built for a long horizon, or for a short one that then grows block by
        # block, or read from one deep block alone: the same bits at every order
        model = AP(2.0)
        points = [(1, 1), (2, 1), (2048, 1), (2049, 1), (3000, 700), (10_000, 300)]
        specfun._hermite_blocks.clear()
        long_first = gibbs._discovery_fn(model, 10_001)
        want = [long_first(n, k) for n, k in points]
        specfun._hermite_blocks.clear()
        short_first = gibbs._discovery_fn(model, 2)
        assert [short_first(n, k) for n, k in points] == want
        specfun._hermite_blocks.clear()
        B = specfun.HERMITE_BLOCK
        i = 2 * 10_000 - 300 - 1
        assert specfun.hermite_ratio_block(2.0 / math.sqrt(2.0), i // B)[i % B] == want[-1]


class TestPriorKnPmf:
    def test_point_mass_n1(self):
        for model in TEST_MODELS:
            pmf = gibbs.prior_Kn_pmf(model, 1)
            assert pmf == pytest.approx([1.0], abs=1e-12)

    def test_dp_enumeration(self):
        pmf = gibbs.prior_Kn_pmf(DP(1.0), 3)
        assert pmf == pytest.approx([1 / 3, 1 / 2, 1 / 6], rel=1e-12)

    @pytest.mark.parametrize("model", [AP(2.0), DM(-1.0, 5), DP(0.7)])
    def test_sums_to_one(self, model):
        assert gibbs.prior_Kn_pmf(model, 6).sum() == pytest.approx(1.0, abs=1e-8)

    def test_matches_partition_enumeration(self):
        for model in (AP(1.5), DM(-0.5, 4)):
            pmf = gibbs.prior_Kn_pmf(model, 5)
            by_k = np.zeros(5)
            for p in set_partitions(range(5)):
                by_k[len(p) - 1] += eppf_of(model, [len(b) for b in p])
            assert pmf == pytest.approx(by_k, rel=1e-9)

    def test_ap_matches_scalar_log_V(self):
        # the AP log V vector comes from one anchor and ratio-table sums; orders
        # 2 - 2n .. 1 - n cross the first block boundary at -4096
        model, n = AP(1.7), 2_100
        row = gibbs._coeff_table(0.5, 0.0, gibbs.DEFAULT_TABLE_CAP).log_row(n)[1:]
        want = np.exp(np.array([gibbs.log_V(model, n, k) for k in range(1, n + 1)]) + row)
        got = gibbs.prior_Kn_pmf(model, n)
        live = want > 1e-250
        assert np.abs(got[live] / want[live] - 1).max() < 1e-9
        assert got[~live].max() < 1e-240

    def test_cap(self):
        with pytest.raises(TableSizeError):
            gibbs.prior_Kn_pmf(DP(1.0), 50, table_cap=10)


class TestPosteriorKmPmf:
    def test_single_step_equals_predictive(self):
        for model in TEST_MODELS:
            pmf = gibbs.posterior_Km_pmf(model, 6, 3, 1)
            split = gibbs.predictive(model, 6, 3, [4, 1, 1])
            assert pmf[1] == pytest.approx(split.p_new, rel=1e-10)
            assert pmf[0] == pytest.approx(1 - split.p_new, rel=1e-10)

    def test_dp_two_step_enumeration(self):
        # exhaustive two-step urn from (n=2, k=1) at alpha = 1:
        # P(j=0) = (2/3)(3/4), P(j=2) = (1/3)(1/4), P(j=1) the rest
        pmf = gibbs.posterior_Km_pmf(DP(1.0), 2, 1, 2)
        assert pmf[0] == pytest.approx(1 / 2, rel=1e-12)
        assert pmf[1] == pytest.approx(5 / 12, rel=1e-12)
        assert pmf[2] == pytest.approx(1 / 12, rel=1e-12)

    def test_dm_mean_matches_extrapolation(self):
        model = DM(-1.0, 4)
        n, k, m = 3, 2, 3
        pmf = gibbs.posterior_Km_pmf(model, n, k, m)
        mean_new = (np.arange(m + 1) * pmf).sum()
        curve = gibbs.extrapolation(model, n, k, m)
        assert k + mean_new == pytest.approx(curve[-1].value, rel=1e-10)

    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_normalized(self, model):
        pmf = gibbs.posterior_Km_pmf(model, 8, 4, 6)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-8)

    def test_ap_matches_scalar_log_V(self):
        # log V_{n+m,k+j} - log V_{n,k} from ratio-table sums alone; orders
        # -3909 .. -5109 cross the first block boundary at -4096
        model, n, k, m = AP(2.0), 2_000, 90, 600
        row = gibbs._coeff_table(0.5, n - 0.5 * k, m).log_row(m)
        logv = np.array([gibbs.log_V(model, n + m, k + j) for j in range(m + 1)])
        want = np.exp(logv - gibbs.log_V(model, n, k) + row)
        got = gibbs.posterior_Km_pmf(model, n, k, m)
        live = want > 1e-250
        assert np.abs(got[live] / want[live] - 1).max() < 1e-9
        assert got[~live].max() < 1e-240

    def test_table_cache_stays_flat(self):
        # non-central tables are keyed on the data (n - sigma k) and not cached
        gibbs.prior_Kn_pmf(AP(2.0), 30)
        size = len(gibbs._table_cache)
        for n, k in [(40, 5), (41, 6), (90, 20), (200, 31)]:
            for model in (AP(2.0), DP(3.0), DM(-1.0, 60)):
                gibbs.posterior_Km_pmf(model, n, k, 25)
        assert len(gibbs._table_cache) == size

    def test_mc_fallback(self):
        exact = gibbs.posterior_Km_pmf(DP(2.0), 5, 3, 4)
        mc = gibbs.posterior_Km_pmf(DP(2.0), 5, 3, 4, table_cap=2,
                                    mc_replicates=200_000, rng_seed=0)
        assert np.abs(exact - mc).max() < 0.01


class TestCurves:
    def test_first_point_is_one(self):
        for model in TEST_MODELS:
            assert gibbs.rarefaction(model, 1, replicates=200)[0].value == pytest.approx(
                1.0, abs=0.01)

    def test_dp_amazon_endpoint(self, amazon_stats):
        n, k = amazon_stats
        # 751.23 solves the ML equation, so the model rarefaction ends at k
        curve = gibbs.rarefaction(DP(751.23), n)
        assert curve[-1].value == pytest.approx(k, abs=0.5)
        assert curve[0].value == pytest.approx(1.0, abs=1e-9)

    def test_dm_vs_urn(self):
        model = DM(-1.0, 10)
        n, reps = 20, 4000
        ks = np.array([len(np.unique(gibbs.urn_sample(model, n, seed)))
                       for seed in range(reps)])
        closed = gibbs.rarefaction(model, n)[-1].value
        assert abs(ks.mean() - closed) < 3 * ks.std() / math.sqrt(reps)

    def test_ap_rarefaction_vs_exact_pmf_mean(self):
        model = AP(2.0)
        n = 60
        exact_mean = (np.arange(1, n + 1) * gibbs.prior_Kn_pmf(model, n)).sum()
        point = gibbs.rarefaction(model, n, replicates=3000, rng_seed=5)[-1]
        assert abs(point.value - exact_mean) < 3 * point.se

    def test_extrapolation_one_step(self):
        for model in TEST_MODELS:
            split = gibbs.predictive(model, 6, 3, [4, 1, 1])
            curve = gibbs.extrapolation(model, 6, 3, 1, replicates=40_000, rng_seed=3)
            tol = 3 * curve[0].se if curve[0].se else 1e-9
            assert abs(curve[0].value - (3 + split.p_new)) <= max(tol, 1e-9)

    def test_dm_extrapolation_vs_urn(self):
        # continue the urn after conditioning on (n, k); K depends only on (n, k)
        model = DM(-1.0, 10)
        n, k, m, reps = 20, 6, 30, 4000
        rng = np.random.default_rng(0)
        finals = np.empty(reps)
        for r in range(reps):
            kk = k
            for i in range(m):
                if rng.random() < gibbs._p_new(model, n + i, kk):
                    kk += 1
            finals[r] = kk
        closed = gibbs.extrapolation(model, n, k, m)[-1].value
        assert abs(finals.mean() - closed) < 3 * finals.std() / math.sqrt(reps)


class TestFreqCounts:
    def test_dp_small_case(self):
        e = gibbs.expected_freq_counts(DP(1.0), 2, 2)
        assert e[0] == pytest.approx(1.0, rel=1e-12)
        assert e[1] == pytest.approx(0.5, rel=1e-12)

    def test_mass_identity(self):
        n = 30
        e = gibbs.expected_freq_counts(DP(3.0), n, n)
        assert (np.arange(1, n + 1) * e).sum() == pytest.approx(n, rel=1e-10)

    def test_amazon_singletons(self, amazon_stats):
        n, _ = amazon_stats
        e1 = gibbs.expected_freq_counts(DP(751.23), n, 1)[0]
        assert e1 == pytest.approx(750.22, abs=0.01)

    def test_mc_family_matches_dp_closed_form(self):
        # the Monte Carlo route is exercised with a DM model against its urn
        e = gibbs.expected_freq_counts(DM(-1.0, 6), 12, 3, replicates=20_000, rng_seed=1)
        rng = np.random.default_rng(2)
        acc = np.zeros(3)
        for _ in range(20_000):
            counts = Counter(gibbs.urn_sample(DM(-1.0, 6), 12, rng.integers(2**63)))
            for r in (1, 2, 3):
                acc[r - 1] += sum(1 for c in counts.values() if c == r)
        assert np.abs(e - acc / 20_000).max() < 0.05


class TestDiversityIndices:
    def test_dp_closed_forms(self):
        d = gibbs.diversity_indices(DP(751.0))
        assert d.expected_simpson == pytest.approx(1 / 752, rel=1e-12)
        assert d.expected_shannon == pytest.approx(digamma(752.0) - digamma(1.0), rel=1e-12)
        assert not d.shannon_is_approximate

    def test_dm_simpson(self):
        d = gibbs.diversity_indices(DM(-2.0, 5), shannon_sample_size=500, replicates=20)
        assert d.expected_simpson == pytest.approx(1 / 11, rel=1e-12)
        assert d.shannon_is_approximate

    def test_ap_small_gamma_limit(self):
        d = gibbs.diversity_indices(AP(1e-4), shannon_sample_size=200, replicates=10)
        assert d.expected_simpson == pytest.approx(1.0, abs=1e-3)

    def test_ap_simpson_quadrature_vs_mc(self):
        g = 1.0
        d = gibbs.diversity_indices(AP(g), shannon_sample_size=200, replicates=10)
        v = np.random.default_rng(0).exponential(size=1_000_000)
        mc = np.exp(-g * np.sqrt(v))
        assert abs(d.expected_simpson - mc.mean()) < 3 * mc.std() / 1000

    def test_ap_simpson_is_pairwise_match_probability(self):
        for g in (0.5, 2.0):
            d = gibbs.diversity_indices(AP(g), shannon_sample_size=100, replicates=5)
            assert d.expected_simpson == pytest.approx(
                0.5 * math.exp(gibbs.log_V(AP(g), 2, 1)), rel=1e-10)


class TestRecursionIdentity:
    @pytest.mark.parametrize("model", [DM(-1.0, 10), DP(5.0), AP(2.0)])
    def test_forward_recursion(self, model):
        sigma = model.discount
        worst = 0.0
        for n in range(1, 26):
            for k in range(1, n + 1):
                v = math.exp(gibbs.log_V(model, n, k))
                if v == 0.0:
                    continue
                rhs = ((n - sigma * k) * math.exp(gibbs.log_V(model, n + 1, k))
                       + math.exp(gibbs.log_V(model, n + 1, k + 1)))
                worst = max(worst, abs(v - rhs) / v)
        assert worst < 1e-9


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_urn_reduction_consistency(n, data):
    """Reducing an urn stream gives a partition whose statistics are coherent."""
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    stream = gibbs.urn_sample(DP(2.0), n, seed)
    part = stream_to_partition(stream)
    assert part.n == n
    assert part.k == len(np.unique(stream))
