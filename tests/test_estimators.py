import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from sigmadiv import estimators, gibbs
from sigmadiv.datamodel import PartitionData
from sigmadiv.errors import DomainError, NoFiniteSolutionError

from helpers import perm_average_rarefaction


class TestFisherAlpha:
    def test_amazon(self, amazon_stats):
        est = estimators.fisher_alpha(*amazon_stats)
        assert est.value == pytest.approx(751.32, abs=0.02)
        assert abs(est.residual) < 1e-9 * amazon_stats[1]

    def test_all_distinct_has_no_solution(self):
        with pytest.raises(NoFiniteSolutionError):
            estimators.fisher_alpha(10, 10)

    def test_k_larger_than_n(self):
        with pytest.raises(DomainError):
            estimators.fisher_alpha(5, 6)

    @pytest.mark.parametrize("n, k", [(math.nan, 5), (100, math.nan), (math.inf, 5)])
    def test_non_finite_counts_are_refused(self, n, k):
        # the estimate was NaN
        with pytest.raises(DomainError):
            estimators.fisher_alpha(n, k)

    def test_root_verified(self):
        est = estimators.fisher_alpha(100, 20)
        assert est.value * math.log1p(100 / est.value) == pytest.approx(20, abs=1e-9)

    def test_k_one_is_fine(self):
        est = estimators.fisher_alpha(50, 1)
        assert est.value * math.log1p(50 / est.value) == pytest.approx(1, abs=1e-9)


class TestMleAlpha:
    def test_amazon(self, amazon_stats):
        est = estimators.mle_alpha(*amazon_stats)
        assert est.value == pytest.approx(751.23, abs=0.02)

    def test_sandwich_inequality(self):
        # alpha log(1 + n/alpha) <= sum alpha/(alpha+i-1) <= 1 + alpha log(1 + n/alpha)
        n, k = 1000, 100
        a_f = estimators.fisher_alpha(n, k).value
        a_ml = estimators.mle_alpha(n, k).value
        lhs = a_ml * math.log1p(n / a_ml)
        assert lhs <= k <= 1 + lhs
        # the inequality forces fisher's root below the ml root
        assert a_f >= a_ml

    def test_root_verified(self):
        est = estimators.mle_alpha(3, 2)
        a = est.value
        assert a * (digamma(a + 3) - digamma(a)) == pytest.approx(2, abs=1e-9)

    def test_boundary_cases(self):
        with pytest.raises(NoFiniteSolutionError):
            estimators.mle_alpha(10, 10)
        with pytest.raises(NoFiniteSolutionError):
            estimators.mle_alpha(10, 1)

    def test_asymptotic_agreement_on_dp_urns(self):
        ks = []
        for seed in range(3):
            stream = gibbs.urn_sample(gibbs.DirichletProcess(50.0), 20_000, seed)
            ks.append(len(np.unique(stream)))
        for k in ks:
            f = estimators.fisher_alpha(20_000, k).value
            m = estimators.mle_alpha(20_000, k).value
            assert abs(f - m) / m < 0.01


class TestClassicalRarefaction:
    def test_full_sample_recovers_k(self):
        data = PartitionData.from_abundances([5, 3, 1, 1])
        curve = estimators.classical_rarefaction(data)
        assert curve[-1] == pytest.approx(data.k, abs=1e-12)

    def test_pair_case(self):
        data = PartitionData.from_abundances([2, 1])
        assert estimators.classical_rarefaction(data, sizes=[2])[0] == pytest.approx(
            5 / 3, rel=1e-12)

    def test_single_draw(self):
        data = PartitionData.from_abundances([3, 1, 1])
        assert estimators.classical_rarefaction(data, sizes=[1])[0] == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("abundances", [(3, 2, 1), (4, 1, 1, 1), (2, 2, 2)])
    def test_exact_permutation_average(self, abundances):
        data = PartitionData.from_abundances(abundances)
        curve = estimators.classical_rarefaction(data)
        for i in range(1, data.n + 1):
            exact = perm_average_rarefaction(abundances, i)
            assert curve[i - 1] == pytest.approx(float(exact), rel=1e-11)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_concave(self, abundances):
        data = PartitionData.from_abundances(abundances)
        curve = estimators.classical_rarefaction(data)
        diffs = np.diff(np.concatenate([[0.0], curve]))
        assert (diffs >= -1e-10).all()
        assert (np.diff(diffs) <= 1e-10).all()

    def test_size_validation(self):
        data = PartitionData.from_abundances([2, 1])
        with pytest.raises(DomainError):
            estimators.classical_rarefaction(data, sizes=[4])

    @pytest.mark.parametrize("sizes", [[2.5], [math.nan], [math.inf]])
    def test_sizes_not_whole_or_not_finite_are_refused(self, sizes):
        # [2.5] was truncated to size 2, and a NaN size raised numpy's ValueError
        data = PartitionData.from_abundances([2, 1])
        with pytest.raises(DomainError, match="sizes"):
            estimators.classical_rarefaction(data, sizes=sizes)


class TestSampleCoverage:
    def test_dm_saturated(self):
        assert estimators.sample_coverage(gibbs.DirichletMultinomial(-1.0, 3), 7, 3) == (
            pytest.approx(1.0, abs=1e-12))

    def test_dp_closed_form(self, amazon_stats):
        n, k = amazon_stats
        alpha = 751.23
        got = estimators.sample_coverage(gibbs.DirichletProcess(alpha), n, k)
        assert got == pytest.approx(n / (n + alpha), rel=1e-10)

    @pytest.mark.parametrize("alpha", [1e6, 1e15, 1e16, 1e100])
    def test_dp_alpha_far_above_n(self, alpha):
        # 1 - alpha / (alpha + n), from a log V difference far below the float
        # spacing (2.3e-13) of 50 log alpha
        got = estimators.sample_coverage(gibbs.DirichletProcess(alpha), 50, 50)
        assert got == pytest.approx(50 / (alpha + 50), abs=5e-13)
        assert got == pytest.approx(50 / (alpha + 50), rel=1e-12, abs=0.0)

    def test_dm_state_beyond_h_is_domain_error(self):
        with pytest.raises(DomainError):
            estimators.sample_coverage(gibbs.DirichletMultinomial(-1.0, 5), 10, 7)

    @pytest.mark.parametrize("n, k", [(math.inf, 3), (math.nan, 3), (10, math.nan)])
    def test_non_finite_state_is_domain_error(self, n, k):
        # the coverage at n = inf was NaN
        with pytest.raises(DomainError):
            estimators.sample_coverage(gibbs.DirichletProcess(2.0), n, k)

    def test_ap_against_mpmath(self):
        # 1 - t D_{k-2n}(t) / D_{k+1-2n}(t), t = gamma / sqrt 2, by 40-digit mpmath.pcfd
        g = 350 / math.sqrt(5000)
        got = estimators.sample_coverage(gibbs.AldousPitman(g), 5000, 350)
        assert got == pytest.approx(0.9649991252680758841277787, rel=1e-14, abs=0.0)

    def test_ap_consistency_with_predictive(self):
        model = gibbs.AldousPitman(1.0)
        split = gibbs.predictive(model, 5, 3, [3, 1, 1])
        assert estimators.sample_coverage(model, 5, 3) == pytest.approx(
            1 - split.p_new, rel=1e-10)
