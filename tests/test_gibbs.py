import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betaln, digamma
from scipy.stats import chi2

from sigmadiv import dpinfer, gibbs, specfun
from sigmadiv.datamodel import PartitionData, stream_to_partition
from sigmadiv.draws import log_grid_sample
from sigmadiv.errors import DomainError

from helpers import (dm_freq_counts_beta_binomial, dp_log_eppf, k_law_40_digits,
                     log_coeff_row, scaled_coeff_table_exact, set_partitions,
                     stirling1_by_cycles)

DM = gibbs.DirichletMultinomial
DP = gibbs.DirichletProcess
AP = gibbs.AldousPitman
CP = dpinfer.CoarsenedPosterior
SG = dpinfer.StirlingGammaSpec

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

    @pytest.mark.parametrize("alpha", [1e6, 1e12, 1e15, 1e16, 1e100])
    def test_dp_alpha_far_above_n(self, alpha):
        # V_{n,n} = prod_j alpha / (alpha + j) <= 1; k log alpha and log (alpha)_n are
        # ~1.7e3 logs spaced 2.3e-13 apart in float, so their difference cannot be taken
        got = gibbs.log_V(DP(alpha), 50, 50)
        exact = -math.fsum(math.log1p(j / alpha) for j in range(50))
        assert got <= 0.0
        assert got == pytest.approx(exact, abs=5e-13)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gibbs.log_V(DP(1.0), 3, 4)
        with pytest.raises(DomainError):
            gibbs.log_V(DP(1.0), 0, 0)

    @pytest.mark.parametrize("make", [DP, gibbs.AldousPitman, lambda sigma: DM(sigma, 5)],
                             ids=["dp-alpha", "ap-gamma", "dm-sigma"])
    def test_nan_diversity_refused(self, make):
        # NaN fails every comparison, so the checks read "not alpha > 0", not "alpha <= 0"
        with pytest.raises(DomainError, match="nan"):
            make(float("nan"))

    @pytest.mark.parametrize("make", [lambda: DP(math.inf), lambda: AP(math.inf),
                                      lambda: DM(-math.inf, 5), lambda: DM(-1.0, math.nan),
                                      lambda: DM(-1.0, math.inf), lambda: DM(-1.0, 5.5)],
                             ids=["dp-alpha-inf", "ap-gamma-inf", "dm-sigma-inf", "dm-H-nan",
                                  "dm-H-inf", "dm-H-fractional"])
    def test_non_finite_or_fractional_refused(self, make):
        with pytest.raises(DomainError):
            make()


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

    @pytest.mark.parametrize("abundances", [[3, 0], [4, -1], [2.5, 0.5]])
    def test_abundances_must_be_positive_integers(self, abundances):
        # each has k = 2 entries summing to n = 3
        with pytest.raises(DomainError, match="positive integers"):
            gibbs.predictive(DM(-1.0, 5), 3, 2, abundances)

    def test_dm_k_above_H(self):
        with pytest.raises(DomainError, match="k exceeds H"):
            gibbs.predictive(DM(-1.0, 5), 10, 7, [4, 1, 1, 1, 1, 1, 1])


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
        for model in (DP(2.0), DM(-1.0, 5), AP(1.0)):
            a = gibbs.urn_sample(model, 500, rng_seed=42)
            b = gibbs.urn_sample(model, 500, rng_seed=42)
            c = gibbs.urn_sample(model, 500, np.random.default_rng(42))
            assert (a == b).all() and (a == c).all()

    @pytest.mark.parametrize("model", [DP(2.0), DM(-1.0, 5), AP(1.0)])
    def test_labels_in_discovery_order(self, model):
        labels = gibbs.urn_sample(model, 2_000, rng_seed=1)
        new = np.diff(np.maximum.accumulate(labels), prepend=-1)
        assert labels[0] == 0 and set(new.tolist()) <= {0, 1}

    def test_dm_never_exceeds_bound(self):
        for seed in range(5):
            labels = gibbs.urn_sample(DM(-5.0, 40), 10_000, rng_seed=seed)
            assert labels.max() == 39  # all H = 40 taxa are found, and never a 41st

    @pytest.mark.parametrize("block", [gibbs._URN_BLOCK, 3])
    def test_taxon_counts_equal_bincount(self, monkeypatch, block):
        monkeypatch.setattr(gibbs, "_URN_BLOCK", block)
        for model, n in ((DP(2.0), 1), (DP(2.0), 500), (DM(-1.0, 5), 31), (AP(1.0), 200)):
            labels = gibbs.urn_sample(model, n, 3)
            counts = gibbs.taxon_counts(labels)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, np.bincount(labels))

    @pytest.mark.parametrize("block", [gibbs._URN_BLOCK, 2], ids=["one-block", "blocks-of-2"])
    @pytest.mark.parametrize("model, n", [(DP(1.3), 5), (DM(-0.7, 3), 6), (AP(0.9), 5)],
                             ids=["dp", "dm", "ap"])
    def test_partition_law_by_enumeration(self, model, n, block, monkeypatch):
        monkeypatch.setattr(gibbs, "_URN_BLOCK", block)
        rng = np.random.default_rng(2024)
        assert_partition_law(model, n, lambda: gibbs.urn_sample(model, n, rng))

    def test_urns_laid_end_to_end(self, monkeypatch):
        # three urns in one call, cut into blocks across their borders: every
        # draw stays in its own urn, and the last urn has the law of a lone one
        monkeypatch.setattr(gibbs, "_URN_BLOCK", 3)
        model, sizes = AP(0.9), [4, 1, 5]
        starts = np.array([0, 4, 5])
        rng = np.random.default_rng(7)

        def last_urn():
            flags = np.concatenate([gibbs._discovery_flags(model, rng.random(c))
                                    for c in sizes])
            labels = gibbs._urn_labels(flags, model.discount, rng, starts)
            founders = np.cumsum(flags)
            assert (labels < founders).all()  # a founder at or before the draw ...
            urn = np.searchsorted(starts, np.arange(10), "right")
            assert (urn[np.flatnonzero(flags)[labels]] == urn).all()  # ... in its urn
            return labels[5:] - labels[5]

        assert_partition_law(model, sizes[-1], last_urn)


def assert_partition_law(model, n, draw, reps=20_000):
    """Chi-square of `reps` label streams of n draws against the exact EPPF.

    Labels in discovery order spell each set partition of the draws uniquely.
    """
    exact = {}
    for blocks in set_partitions(range(n)):
        code = [0] * n
        for b, block in enumerate(sorted(blocks, key=min)):
            for i in block:
                code[i] = b
        sizes = [len(block) for block in blocks]
        if isinstance(model, DP):
            exact[tuple(code)] = math.exp(dp_log_eppf(model.alpha, sizes))
        else:
            exact[tuple(code)] = eppf_of(model, sizes)
    assert sum(exact.values()) == pytest.approx(1.0, rel=1e-9)
    freq = Counter(tuple(draw().tolist()) for _ in range(reps))
    assert set(freq) <= {c for c, p in exact.items() if p > 0}
    cells = [(freq[c], reps * p) for c, p in exact.items() if p > 0]
    stat = sum((o - e) ** 2 / e for o, e in cells)
    assert stat < chi2.isf(1e-3, len(cells) - 1)


class TestDiscoveryFn:
    def test_values_independent_of_horizon(self):
        # built for a long horizon, or for each point's own short one on a cache
        # that grows block by block, or read from deep in the table alone: the same
        # bits at every order
        model = AP(2.0)
        points = [(1, 1), (2, 1), (2048, 1), (2049, 1), (3000, 700), (10_000, 300)]
        specfun._hermite_tables.clear()
        long_first = gibbs._discovery_fn(model, 10_001)
        want = [long_first(n, k) for n, k in points]
        specfun._hermite_tables.clear()
        assert [gibbs._discovery_fn(model, n + 1)(n, k) for n, k in points] == want
        specfun._hermite_tables.clear()
        assert gibbs._p_new(model, 10_000, 300) == want[-1]
        i = 2 * 10_000 - 300 - 1
        assert specfun.hermite_ratios(2.0 / math.sqrt(2.0), i, i + 1)[0] == want[-1]


def _flags_draw_by_draw(model, n, k, u):
    """Reference for gibbs._path_flags: u[i] < p_new(n + i, K), then K += flag."""
    p_new = gibbs._discovery_fn(model, n + len(u))
    flags = np.zeros(len(u), dtype=bool)
    for i, ui in enumerate(u.tolist()):
        if ui < p_new(n + i, k):
            flags[i] = True
            k += 1
    return flags


class TestPathFlags:
    @pytest.mark.parametrize("model, n, k, m", [
        (DP(2.0), 1, 1, 9_000),
        (DP(300.0), 50, 20, 5_000),
        (DM(-5.0, 40), 1, 1, 10_000),  # K reaches H = 40 and stops
        (DM(-1.0, 3), 30, 3, 50),  # starts at K = H
        (DM(-0.3, 20_000), 1, 1, 9_000),  # many discoveries: the bound is renewed
        (AP(20.0), 1, 1, 9_000),  # p_new near 1: each window ends at its stride
        (AP(2.0), 1, 1, 9_000),  # orders cross block seams and window boundaries
        (AP(0.3), 2_000, 5, 3_000),
        (AP(6.0), 1_500, 300, 1_500),  # entries 2n - k - 1 from 2699 past 4096
    ], ids=["dp", "dp-large-alpha", "dm-reaches-h", "dm-at-h", "dm-wide", "ap-fast",
            "ap-from-one", "ap-slow", "ap-block-seam"])
    def test_matches_draw_by_draw(self, model, n, k, m):
        for seed in range(3):
            u = np.random.default_rng(seed).random(m)
            got = gibbs._path_flags(model, n, k, u)
            assert got.dtype == bool and got.shape == (m,)
            assert (got == _flags_draw_by_draw(model, n, k, u)).all()

    @given(family=st.sampled_from(["dp", "dm", "ap"]), value=st.floats(0.05, 30.0),
           n=st.integers(1, 6_000), k_frac=st.floats(0.0, 1.0), m=st.integers(0, 700),
           window=st.integers(1, 300), stride=st.integers(1, 20), short=st.integers(0, 40),
           seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_any_window_and_stride(self, family, value, n, k_frac, m, window, stride, short,
                                   seed):
        model = {"dp": DP(value), "dm": DM(-value, max(1, round(20 * value))),
                 "ap": AP(value)}[family]
        k = 1 + round(k_frac * (n - 1))
        if family == "dm":
            k = min(k, model.H)
        u = np.random.default_rng(seed).random(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gibbs, "_PATH_WINDOW", window)
            mp.setattr(gibbs, "_PATH_STRIDE", stride)
            mp.setattr(gibbs, "_PATH_SHORT", short)
            got = gibbs._path_flags(model, n, k, u)
        assert (got == _flags_draw_by_draw(model, n, k, u)).all()

    @pytest.mark.parametrize("t", [0.05, 1.0, 5.0, 20.0])
    def test_ap_table_non_increasing(self, t):
        # the premise of the AP bound: p_new(n, k) = entry 2n - k - 1 never falls
        # as k grows, so the entry at k + stride bounds every count up to it
        table = specfun.hermite_ratios(t, 0, 1 << 18)
        assert table.size == 1 << 18
        assert (np.diff(table) <= 0.0).all()

    def test_cached_blocks_read_only(self):
        block = specfun.hermite_ratios(1.0, 0, specfun.HERMITE_BLOCK)
        view = specfun.hermite_ratios(1.0, 10, 100)  # inside the cached table: a view of it
        for table in (block, view):
            with pytest.raises(ValueError):
                table[0] = 0.5
        assert view[0] == block[10] and np.shares_memory(view, block)


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

    def test_dp_matches_stirling_numbers(self):
        # P(K_n = k) = alpha^k |s(n, k)| / (alpha)_n
        alpha = 1.3
        for n in range(1, 7):
            pmf = gibbs.prior_Kn_pmf(DP(alpha), n)
            want = [alpha ** k * stirling1_by_cycles(n, k) / math.prod(alpha + i for i in range(n))
                    for k in range(1, n + 1)]
            assert pmf == pytest.approx(want, rel=1e-12)

    def test_ap_matches_exact_coefficients(self):
        # P(K_n = k) = V_{n,k} C(n, k; 1/2) / (1/2)^k, the table exact in rationals
        model = AP(1.7)
        exact = scaled_coeff_table_exact(Fraction(1, 2), Fraction(0), 20)
        for n in (5, 12, 20):
            want = [math.exp(gibbs.log_V(model, n, k)) * float(exact[n][k])
                    for k in range(1, n + 1)]
            assert gibbs.prior_Kn_pmf(model, n) == pytest.approx(want, rel=1e-11)

    def test_ap_matches_scalar_log_V(self):
        # the AP log V vector comes from ratio-table sums; orders 2 - 2n .. 1 - n
        # cross the first block boundary at -4096
        model, n = AP(1.7), 2_100
        row = log_coeff_row(0.5, 0.0, n)[1:]
        want = np.exp(np.array([gibbs.log_V(model, n, k) for k in range(1, n + 1)]) + row)
        got = gibbs.prior_Kn_pmf(model, n)
        live = want > 1e-250
        assert np.abs(got[live] / want[live] - 1).max() < 1e-9
        assert got[~live].max() < 1e-240

    @pytest.mark.parametrize("model", [AP(2.0), DP(5.0), DM(-1.0, 300)])
    def test_large_n_mean_matches_rarefaction(self, model):
        # the mean against the rarefaction's closed form (DP, DM) or pick integral (AP)
        n = 20_000
        pmf = gibbs.prior_Kn_pmf(model, n)
        assert pmf.size == n
        assert abs(pmf.sum() - 1.0) < 1e-13
        mean = np.arange(1, n + 1) @ pmf
        assert mean == pytest.approx(gibbs.rarefaction(model, n).values[-1], rel=1e-12)


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
        assert k + mean_new == pytest.approx(curve.values[-1], rel=1e-10)

    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_normalized(self, model):
        pmf = gibbs.posterior_Km_pmf(model, 8, 4, 6)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-8)

    def test_ap_matches_scalar_log_V(self):
        # log V_{n+m,k+j} - log V_{n,k} from ratio-table sums alone; orders
        # -3909 .. -5109 cross the first block boundary at -4096
        model, n, k, m = AP(2.0), 2_000, 90, 600
        row = log_coeff_row(0.5, n - 0.5 * k, m)
        logv = np.array([gibbs.log_V(model, n + m, k + j) for j in range(m + 1)])
        want = np.exp(logv - gibbs.log_V(model, n, k) + row)
        got = gibbs.posterior_Km_pmf(model, n, k, m)
        live = want > 1e-250
        assert np.abs(got[live] / want[live] - 1).max() < 1e-9
        assert got[~live].max() < 1e-240

    @pytest.mark.parametrize("model, n, k, m", [(DP(2.0), 200, 30, 400),
                                                (AP(2.0), 1_000, 60, 300)])
    def test_matches_40_digit_chain(self, model, n, k, m):
        # the same float discovery probabilities, rolled forward in 40 digits
        want = k_law_40_digits(gibbs._discovery_fn(model, n + m, n, k), n, k, m)
        got = gibbs.posterior_Km_pmf(model, n, k, m)
        live = want > 1e-250
        assert np.abs(got[live] / want[live] - 1).max() < 1e-14
        assert got[~live].max() < 1e-240

    @pytest.mark.parametrize("model", [AP(2.0), DP(2.0), DM(-1.0, 500)])
    def test_normalized_long_horizon(self, model):
        assert abs(gibbs.posterior_Km_pmf(model, 2_000, 90, 4_000).sum() - 1.0) < 1e-13

    def test_dm_at_H(self):
        # with all H taxa seen no draw discovers
        pmf = gibbs.posterior_Km_pmf(DM(-1.0, 5), 10, 5, 4)
        assert pmf.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_dm_k_above_H(self):
        # no path of K reaches k > H; both the exact and the Monte Carlo branch refuse it
        with pytest.raises(DomainError, match="k exceeds H"):
            gibbs.posterior_Km_pmf(DM(-1.0, 5), 10, 7, 3)
        with pytest.raises(DomainError, match="k exceeds H"):
            gibbs.posterior_Km_pmf(DM(-1.0, 5), 10, 7, 30, table_cap=10, mc_replicates=10)

    def test_fewer_than_one_replicate(self):
        # the Monte Carlo branch needs a replicate; the exact one reads none
        for r in (0, -3):
            with pytest.raises(DomainError):
                gibbs.posterior_Km_pmf(AP(2.0), 100, 20, 50, table_cap=10, mc_replicates=r)
        exact = gibbs.posterior_Km_pmf(AP(2.0), 100, 20, 50, mc_replicates=0)
        assert exact.sum() == pytest.approx(1.0, abs=1e-8)

    def test_mc_fallback(self):
        exact = gibbs.posterior_Km_pmf(DP(2.0), 5, 3, 4)
        mc = gibbs.posterior_Km_pmf(DP(2.0), 5, 3, 4, table_cap=2,
                                    mc_replicates=200_000, rng_seed=0)
        assert np.abs(exact - mc).max() < 0.01


DM_CURVE_MPMATH = {1: 1.0, 2: 1.999900004999750012499375, 10: 9.995502024089159878054875,
                   1000: 952.426306014572122482023, 553_949: 19303.10759859778237749761}


class TestCurves:
    def test_first_point_is_one(self):
        for model in TEST_MODELS:
            assert gibbs.rarefaction(model, 1).values[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("model", TEST_MODELS)
    def test_sizes_pick_points_of_full_curve(self, model):
        sizes = [1, 7, 30, 200]
        full = gibbs.rarefaction(model, 200)
        some = gibbs.rarefaction(model, 200, sizes=sizes)
        assert some.sizes.tolist() == sizes
        assert some.values.tolist() == [full.values[i - 1] for i in sizes]
        assert gibbs.rarefaction(model, 200, sizes=sizes[::-1]).values.tolist() == \
            some.values.tolist()[::-1]
        with pytest.raises(DomainError):
            gibbs.rarefaction(model, 200, sizes=[0, 5])

    @pytest.mark.parametrize("sizes", [[201], [2.5, 3.9], [math.nan], [math.inf]])
    def test_sizes_not_whole_or_not_finite_are_refused(self, sizes):
        # [2.5, 3.9] was truncated to sizes [2, 3], and a NaN size raised ValueError
        with pytest.raises(DomainError, match="sizes"):
            gibbs.rarefaction(DP(2.0), 200, sizes=sizes)

    def test_dp_amazon_endpoint(self, amazon_stats):
        n, k = amazon_stats
        # 751.23 solves the ML equation, so the model rarefaction ends at k
        curve = gibbs.rarefaction(DP(751.23), n)
        assert curve.values[-1] == pytest.approx(k, abs=0.5)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-9)

    def test_dm_amazon_curve_against_mpmath(self, amazon_stats):
        # E(K_i) = H (1 - (b)_i / (Hs)_i), s = 1, b = H - 1, by 40-digit mpmath rising
        # factorials; differences of gammaln values of size 2e5 were 5.1e-7 off at i = 1
        curve = gibbs.rarefaction(DM(-1.0, 20_000), amazon_stats[0])
        for i, want in DM_CURVE_MPMATH.items():
            assert curve.values[i - 1] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_dm_vs_urn(self):
        model = DM(-1.0, 10)
        n, reps = 20, 4000
        ks = np.array([len(np.unique(gibbs.urn_sample(model, n, seed)))
                       for seed in range(reps)])
        closed = gibbs.rarefaction(model, n).values[-1]
        assert abs(ks.mean() - closed) < 3 * ks.std() / math.sqrt(reps)

    def test_ap_rarefaction_vs_exact_pmf_mean(self):
        model = AP(2.0)
        n = 60
        exact_mean = (np.arange(1, n + 1) * gibbs.prior_Kn_pmf(model, n)).sum()
        curve = gibbs.rarefaction(model, n)
        assert curve.values[-1] == pytest.approx(exact_mean, rel=1e-10)
        assert curve.se is None

    @pytest.mark.parametrize("alpha", [1e9, 1e12, 1e16])
    def test_dp_alpha_far_above_n(self, alpha):
        # E(K_{n+i} | K_n = k) = k + sum_{j<i} alpha / (alpha + n + j); a plain
        # digamma difference is rounding noise here (0 at alpha = 1e16)
        def exact(n, k, i):
            return k + math.fsum(alpha / (alpha + n + j) for j in range(i))

        ext = gibbs.extrapolation(DP(alpha), 50, 50, 3)
        assert ext.values.tolist() == pytest.approx([exact(50, 50, i) for i in (1, 2, 3)],
                                                    rel=1e-15, abs=0.0)
        rare = gibbs.rarefaction(DP(alpha), 3)
        assert rare.values.tolist() == pytest.approx([exact(0, 0, i) for i in (1, 2, 3)],
                                                     rel=1e-15, abs=0.0)

    def test_extrapolation_one_step(self):
        for model in TEST_MODELS:
            split = gibbs.predictive(model, 6, 3, [4, 1, 1])
            curve = gibbs.extrapolation(model, 6, 3, 1, replicates=40_000, rng_seed=3)
            tol = 3 * curve.se[0] if curve.se is not None else 1e-9
            assert abs(curve.values[0] - (3 + split.p_new)) <= max(tol, 1e-9)

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
        closed = gibbs.extrapolation(model, n, k, m).values[-1]
        assert abs(finals.mean() - closed) < 3 * finals.std() / math.sqrt(reps)


class TestMemoryBounds:
    # Curves and urns at the Amazon scale hold numpy columns, not an object per
    # point; one object per point peaked at 8.4, 8.1 and 93 MB in the curve and urn
    # calls.  Long elementwise evaluations run in fixed blocks; over whole arrays they
    # peaked at 3.1 and 29.6 MiB (DP extrapolation, full DP rarefaction), 42.3 (full DM
    # rarefaction), 21.1 (DP counts at r_max = n) and 1.5 (the log sum of the DM
    # counts).  An urn holds its flags, one int32 array and O(block) temporaries
    # (3.2 MiB for DP and 3.6 for DM at n = 1e5 with
    # int64 arrays of all draws; 10.5 and 9.7 at n = 1e6 with all its uniforms and two
    # int32 arrays).  The richness draws' Poisson quantiles run in blocks (180.0 MiB
    # at 1e6 draws over whole arrays).
    ALPHA = 751.23

    def test_dp_extrapolation(self, amazon_stats, traced_peak):
        n, k = amazon_stats
        m = 50_000
        curve, peak = traced_peak(lambda: gibbs.extrapolation(DP(self.ALPHA), n, k, m))
        assert peak < 2.5
        i = np.arange(1, m + 1)
        want = k + self.ALPHA * (digamma(self.ALPHA + n + i) - digamma(self.ALPHA + n))
        assert np.array_equal(curve.sizes, n + i) and curve.se is None
        assert np.allclose(curve.values, want, rtol=1e-12, atol=0.0)

    def test_dp_urn(self, traced_peak):
        self._check_urn(DP(50.0), 100_000, 2.0, traced_peak)

    def test_dm_urn(self, traced_peak):
        self._check_urn(DM(-1.0, 2000), 100_000, 2.5, traced_peak)

    def test_dp_urn_million(self, traced_peak):
        self._check_urn(DP(50.0), 1_000_000, 6.5, traced_peak)

    def test_dm_urn_million(self, traced_peak):
        self._check_urn(DM(-1.0, 2000), 1_000_000, 6.5, traced_peak)

    # An AP urn reads a view of its Hermite ratio table (8.5 MiB at the Amazon n); with a
    # copy of the table read from cached blocks it peaked at 11.7 MiB warm and 20.9 cold.
    def test_ap_urn_amazon_warm(self, amazon_stats, traced_peak):
        gibbs.urn_sample(AP(6.67), amazon_stats[0], 11)
        self._check_urn(AP(6.67), amazon_stats[0], 5.0, traced_peak)

    def test_ap_urn_amazon_cold(self, amazon_stats, traced_peak):
        specfun._hermite_tables.clear()
        self._check_urn(AP(6.67), amazon_stats[0], 14.0, traced_peak)

    @staticmethod
    def _check_urn(model, n, bound, traced_peak):
        labels, peak = traced_peak(lambda: gibbs.urn_sample(model, n, 11))
        assert peak < bound
        new = np.diff(np.maximum.accumulate(labels), prepend=-1)
        assert labels.size == n and labels.dtype == np.int32
        assert set(new.tolist()) == {0, 1}

    def test_dp_full_rarefaction(self, amazon_stats, traced_peak):
        n, k = amazon_stats
        curve, peak = traced_peak(lambda: gibbs.rarefaction(DP(self.ALPHA), n))
        assert peak < 12.0
        i = np.arange(1, n + 1)
        want = self.ALPHA * (digamma(self.ALPHA + i) - digamma(self.ALPHA))
        assert np.array_equal(curve.sizes, i) and curve.se is None
        assert np.allclose(curve.values, want, rtol=1e-12, atol=0.0)
        assert curve.values[-1] == pytest.approx(k, abs=0.5)

    def test_dm_full_rarefaction(self, amazon_stats, traced_peak):
        n, _ = amazon_stats
        model = DM(-1.0, 20_000)
        curve, peak = traced_peak(lambda: gibbs.rarefaction(model, n))
        assert peak < 12.0
        # E(K_i) = H (1 - (b)_i / (Hs)_i), b = (H - 1) s, s = 1, as a running product
        j = np.arange(n, dtype=float)
        want = model.H * (1.0 - np.cumprod((model.H - 1.0 + j) / (model.H + j)))
        assert np.array_equal(curve.sizes, j + 1) and curve.se is None
        assert np.allclose(curve.values, want, rtol=1e-12, atol=0.0)

    def test_dp_full_freq_counts(self, amazon_stats, traced_peak):
        n, _ = amazon_stats
        counts, peak = traced_peak(lambda: gibbs.expected_freq_counts(DP(self.ALPHA), n, n))
        assert peak < 10.0
        assert counts.shape == (n,) and np.isfinite(counts).all()
        # sum_r r E(M_r) = n, and the first entries are those of r_max = 100
        assert (np.arange(1, n + 1) * counts).sum() == pytest.approx(n, rel=1e-10)
        assert np.array_equal(counts[:100],
                              gibbs.expected_freq_counts(DP(self.ALPHA), n, 100))

    @pytest.mark.parametrize("block", [1000, 1 << 16])
    def test_blocks_do_not_change_the_floats(self, monkeypatch, block):
        # the DP counts' running product, the DM counts' pairwise log sum and the DM
        # curve: blocks of 1,000 and one block of 65,536 give the bits of 8,192
        n = 40_000
        calls = [lambda: gibbs.expected_freq_counts(DP(self.ALPHA), n, n),
                 lambda: gibbs.expected_freq_counts(DM(-1.0, 2000), n, 100),
                 lambda: gibbs.expected_freq_counts(DM(-1.0, 2000), n, 20_000),
                 lambda: gibbs.rarefaction(DM(-1.0, 2000), n).values]
        want = [call() for call in calls]
        monkeypatch.setattr(specfun, "_BLOCK", block)
        assert all(np.array_equal(call(), w) for call, w in zip(calls, want))
        log_terms = np.log1p(-1.0 / (2000.0 + np.arange(n, dtype=float)))
        assert specfun._blockwise_sum(
            lambda i: np.log1p(-1.0 / (2000.0 + i)), 0, n) == np.sum(log_terms)

    def test_dm_freq_counts(self, traced_peak):
        counts, peak = traced_peak(
            lambda: gibbs.expected_freq_counts(DM(-1.0, 2000), 100_000, 100))
        assert peak < 0.5
        assert counts.shape == (100,) and (counts > 0.0).all()

    def test_richness_posterior(self, amazon_stats, traced_peak):
        # alpha, N, lambda and the uniforms (7.6 MiB each at 1e6 draws), the draws,
        # and the sampler's rounds and the blocks of the Poisson quantiles
        n, k = amazon_stats
        post = CP(SG(1.0, 0.0002, n), n=n, k=k, rho=0.01)
        pred, peak = traced_peak(lambda: dpinfer.richness_posterior(post, 3.949e11,
                                                                    1_000_000, 5))
        assert peak < 48.0
        assert pred.draws.shape == (1_000_000,) and pred.draws.dtype == np.int64
        assert pred.draws.min() >= k

    def test_dp_branch_posterior(self, traced_peak):
        # the posterior of one taxonomic branch, drawn from its grid's envelope
        post = CP(SG(0.3, 0.1, 100), n=250, k=4, rho=1.0)
        draws, peak = traced_peak(lambda: dpinfer.sg_posterior_sample(post, 500, 1))
        assert peak < 1.5
        assert draws.values.shape == (500,) and np.all(draws.values > 0.0)

    def test_sampler_million_draws(self, amazon_stats, traced_peak):
        # the draws (7.6 MiB) and one round of _CHUNK proposals (~1 MiB); drawn through
        # the inverse CDF of a 32,769-node grid, the uniforms doubled the draws (~16 MiB)
        n, k = amazon_stats
        post = CP(SG(1.0, 0.0002, n), n=n, k=k, rho=0.01)
        values, peak = traced_peak(
            lambda: log_grid_sample(post.log_kernel, 1_000_000, np.random.default_rng(5)))
        assert peak < 9.0
        assert values.shape == (1_000_000,) and np.all(values > 0.0)


class TestReplicates:
    @pytest.mark.parametrize("replicates", [0, -3])
    def test_urn_averages_need_a_replicate(self, replicates):
        with pytest.raises(DomainError):
            gibbs.extrapolation(AP(2.0), 100, 20, 5, replicates=replicates)


# E(M_{r,n}) by 40-digit mpmath log-gamma sums: (model, n, {r: value}).  The
# gammaln form of the closed forms cancels terms of size n log n and is off by
# ~3e-9 at the Amazon n; the product forms are within 1e-14.
FREQ_COUNTS_MPMATH = [
    (DP(751.23), 553_949, {1: 750.21396238462418634, 2: 374.59964856480414474,
                           10: 74.113115844437119369, 100: 6.5612961849001618846}),
    (DM(-1.0, 20_000), 553_949, {1: 672.61062234728476631, 2: 649.17485099300927566,
                                 10: 488.81488832645657691, 100: 20.083053620613734366}),
    (DP(1e6), 1_000, {1: 999.00199700499201298, 2: 0.49850399052145310029,
                      10: 9.4640636870344964267e-26, 100: 5.4194019074232263883e-299}),
]


class TestFreqCounts:
    @pytest.mark.parametrize("model, n, want", FREQ_COUNTS_MPMATH, ids=["dp", "dm", "dp-1e6"])
    def test_against_mpmath(self, model, n, want):
        got = gibbs.expected_freq_counts(model, n, 100)
        for r, w in want.items():
            assert got[r - 1] == pytest.approx(w, rel=1e-13, abs=0.0)

    def test_dm_few_taxa_large_sigma(self):
        # H = 2, s = 1e4: the binomial factor overflows and (b)_{n-r} / (Hs)_{n-r}
        # underflows at r ~ n / 2, where E(M_r) is moderate (40-digit mpmath values)
        got = gibbs.expected_freq_counts(DM(-1e4, 2), 3_000, 3_000)
        assert np.isfinite(got).all()
        assert got[1499] == pytest.approx(0.027165869514348652706, rel=1e-11)
        assert got[999] == pytest.approx(1.3120541049356246773e-66, rel=1e-11)
        assert got[1999] == pytest.approx(1.3120541049356246773e-66, rel=1e-11)
        assert (np.arange(1, 3_001) * got).sum() == pytest.approx(3_000, rel=1e-10)

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

    @pytest.mark.parametrize("model", [DM(-1.0, 6), DM(-2.0, 5), AP(2.0)])
    def test_mass_identity_dm_ap(self, model):
        n = 30
        e = gibbs.expected_freq_counts(model, n, n)
        assert (np.arange(1, n + 1) * e).sum() == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("sigma,H,n", [(-1.0, 6, 12), (-0.3, 50, 200), (-2.5, 3, 40),
                                           (-4.0, 20, 100), (-1.0, 2, 1)])
    def test_dm_closed_form_vs_beta_binomial(self, sigma, H, n):
        r_max = min(n, 60)
        want = dm_freq_counts_beta_binomial(sigma, H, n, r_max)
        got = gibbs.expected_freq_counts(DM(sigma, H), n, r_max)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_dm_single_taxon(self):
        e = gibbs.expected_freq_counts(DM(-1.0, 1), 5, 5)
        assert e.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_ap_matches_urn_average(self):
        # the AP integral against an urn average; the sd of M_1 is about 0.96,
        # so 0.05 is 4.7 standard errors of the average
        model, n, reps = AP(0.5), 12, 8_000
        e = gibbs.expected_freq_counts(model, n, 3)
        rng = np.random.default_rng(2)
        acc = np.zeros(3)
        for _ in range(reps):
            counts = Counter(gibbs.urn_sample(model, n, rng.integers(2**63)).tolist())
            for r in (1, 2, 3):
                acc[r - 1] += sum(1 for c in counts.values() if c == r)
        assert np.abs(e - acc / reps).max() < 0.05


# E(K_n) and E(M_{r,n}) of AP by 40-digit mpmath quadrature of the size-biased
# integrals E (1 - (1 - P)^n) / P and C(n, r) E P^{r-1} (1 - P)^{n-r} over
# P = Y^2 / (c + Y^2), c = gamma^2/2, Y ~ N(0, 1); the E(M_r) agree to every digit
# with the closed form C(n, r) sqrt(c) Gamma(r - 1/2) U(r - 1/2, 3/2 - n + r, c/2)
# / sqrt(2 pi) (Tricomi's U, mpmath.hyperu): (gamma, n, E(K_n), {r: E(M_r)})
AP_PICK_MPMATH = [
    (6.67, 553_949, 4943.1307242547239407, {1: 2482.1444716465024829,
                                            2: 620.52533918669111010,
                                            100: 1.4032633971398070885}),
    (2.0, 400, 38.987533274449819262, {100: 0.012488548361471631344}),
    (0.5, 50, 4.3683316315933474887, {}),
]


class TestApPickIntegrals:
    @pytest.mark.parametrize("g, n, kn, counts", AP_PICK_MPMATH, ids=["amazon", "2", "0.5"])
    def test_against_mpmath(self, g, n, kn, counts):
        assert gibbs.rarefaction(AP(g), n, sizes=[n]).values[0] == pytest.approx(
            kn, rel=1e-12, abs=0.0)
        got = gibbs.expected_freq_counts(AP(g), n, max(counts, default=1))
        for r, want in counts.items():
            assert got[r - 1] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g", [1e-4, 0.5, 2.0, 6.67, 300.0, 1e6])
    def test_second_draw_repeats_with_simpson_probability(self, g):
        e2 = gibbs.rarefaction(AP(g), 2).values[1]
        simpson = gibbs.diversity_indices(AP(g)).expected_simpson
        assert e2 == pytest.approx(2.0 - simpson, rel=1e-14)

    @pytest.mark.parametrize("g, n", [(0.5, 50), (2.0, 400), (6.67, 1_000)])
    def test_freq_counts_sum_to_distinct_count(self, g, n):
        total = gibbs.expected_freq_counts(AP(g), n, n).sum()
        assert total == pytest.approx(gibbs.rarefaction(AP(g), n).values[-1], rel=1e-12)


def test_exact_expectations_draw_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact expectation drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for model in (DP(3.0), DM(-1.0, 20), AP(2.0)):
        gibbs.rarefaction(model, 100)
        gibbs.expected_freq_counts(model, 100, 10)
        gibbs.diversity_indices(model)


class TestDiversityIndices:
    def test_dp_closed_forms(self):
        d = gibbs.diversity_indices(DP(751.0))
        assert d.expected_simpson == pytest.approx(1 / 752, rel=1e-12)
        assert d.expected_shannon == pytest.approx(digamma(752.0) - digamma(1.0), rel=1e-12)

    def test_dm_simpson(self):
        # E(sum p_h^2) for Dirichlet(2, ..., 2) over 5 taxa: 5 * 2 * 3 / (10 * 11)
        d = gibbs.diversity_indices(DM(-2.0, 5))
        assert d.expected_simpson == pytest.approx(3 / 11, rel=1e-12)

    @pytest.mark.parametrize("model", [DM(-1.0, 50), DM(-2.0, 5), DM(-0.3, 7), DP(3.0),
                                       DP(751.0), AP(0.5), AP(6.67), AP(300.0)])
    def test_simpson_is_repeat_probability(self, model):
        d = gibbs.diversity_indices(model)
        assert d.expected_simpson == pytest.approx(1.0 - gibbs._p_new(model, 1, 1), rel=1e-12)

    @pytest.mark.parametrize("sigma,H", [(-1.0, 50), (-2.0, 5), (-0.3, 7), (-5.0, 1000)])
    def test_dm_shannon_vs_quadrature(self, sigma, H):
        s = abs(sigma)
        b = (H - 1) * s

        def f(p):  # -p log p under the Beta(s, b) law of one taxon's weight
            return -p * math.log(p) * math.exp(
                (s - 1) * math.log(p) + (b - 1) * math.log1p(-p) - betaln(s, b))

        want = H * sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                       for lo, hi in ((0.0, s / (s + b)), (s / (s + b), 1.0)))
        got = gibbs.diversity_indices(DM(sigma, H)).expected_shannon
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("g", [1e-4, 0.5, 2.0, 6.67, 300.0, 1e6])
    def test_ap_vs_quadrature(self, g):
        # the size-biased pick is W = Y^2 / (g^2/2 + Y^2), Y ~ N(0, 1)
        half = 0.5 * g * g

        def mean(h):  # E h(Y), by symmetry over y > 0
            def f(y):
                return 2.0 * h(y) * math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
            cuts = (0.0, min(g, 1.0), 1.0, 4.0, 10.0, 40.0)
            return sum(quad(f, lo, hi, epsabs=0.0, epsrel=2e-14, limit=400)[0]
                       for lo, hi in zip(cuts, cuts[1:]) if hi > lo)

        d = gibbs.diversity_indices(AP(g))
        assert d.expected_simpson == pytest.approx(mean(lambda y: y * y / (half + y * y)),
                                                   rel=1e-13)
        assert d.expected_shannon == pytest.approx(mean(lambda y: math.log1p(half / (y * y))),
                                                   rel=1e-13)

    def test_ap_small_gamma_limit(self):
        d = gibbs.diversity_indices(AP(1e-4))
        assert d.expected_simpson == pytest.approx(1.0, abs=1e-3)

    def test_ap_simpson_quadrature_vs_mc(self):
        g = 1.0
        d = gibbs.diversity_indices(AP(g))
        v = np.random.default_rng(0).exponential(size=1_000_000)
        mc = np.exp(-g * np.sqrt(v))
        assert abs(d.expected_simpson - mc.mean()) < 3 * mc.std() / 1000

    def test_ap_simpson_is_pairwise_match_probability(self):
        for g in (0.5, 2.0):
            d = gibbs.diversity_indices(AP(g))
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
