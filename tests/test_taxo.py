import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import digamma

from sigmadiv import gibbs, taxo
from sigmadiv.datamodel import TaxonomicDataset, ingest_taxonomy_csv
from sigmadiv.errors import DomainError

DP = gibbs.DirichletProcess


def toy_tree(tmp_path, text):
    p = tmp_path / "toy.csv"
    p.write_text(text, encoding="utf-8")
    return ingest_taxonomy_csv(str(p), 3)


class TestNestedUrn:
    def test_first_observation_discovers_everything(self):
        levels = [taxo.LevelModel("dp", 1.0), taxo.LevelModel("dp", 1.0)]
        tree = taxo.nested_urn_sample(levels, 1, rng_seed=0)
        assert tree.k_per_level() == [1, 1]
        assert tree.n == 1

    def test_new_parent_forces_new_children(self):
        levels = [taxo.LevelModel("dp", 5.0), taxo.LevelModel("dp", 0.5),
                  taxo.LevelModel("ap", 1.0)]
        tree = taxo.nested_urn_sample(levels, 300, rng_seed=1)
        k1, k2, k3 = tree.k_per_level()
        assert k1 <= k2 <= k3  # children at least as numerous as parents
        tree.validate()

    def test_degenerate_dm_level(self):
        levels = [taxo.LevelModel("dp", 3.0), taxo.LevelModel("dm", 1, sigma=-1.0)]
        tree = taxo.nested_urn_sample(levels, 200, rng_seed=2)
        for fam in tree.top.values():
            assert len(fam.children) == 1

    def test_deterministic(self):
        levels = [taxo.LevelModel("dp", 2.0), taxo.LevelModel("ap", 0.7)]
        a = taxo.nested_urn_sample(levels, 100, rng_seed=3)
        b = taxo.nested_urn_sample(levels, 100, rng_seed=3)
        assert a.to_json() == b.to_json()

    def test_branch_conditional_dp_rarefaction(self):
        # pooled over replicates: mean distinct children given branch size m
        # matches the DP rarefaction at m
        alpha2 = 1.0
        levels = [taxo.LevelModel("dp", 2.0), taxo.LevelModel("dp", alpha2)]
        by_m = {}
        for seed in range(1_500):
            tree = taxo.nested_urn_sample(levels, 40, rng_seed=seed)
            for fam in tree.top.values():
                by_m.setdefault(fam.count, []).append(len(fam.children))
        for m in (2, 5, 10):
            ks = np.array(by_m[m], dtype=float)
            expected = alpha2 * (digamma(alpha2 + m) - digamma(alpha2))
            se = ks.std() / math.sqrt(len(ks))
            assert abs(ks.mean() - expected) < max(4 * se, 0.05)

    def test_branch_values_cycle_in_order_of_first_appearance(self):
        # H = 1 for the 1st, 3rd, ... family to appear: each has one genus;
        # H = 10^4 for the others: a family seen twice has two genera w.p. ~1
        levels = [taxo.LevelModel("dp", 5.0),
                  taxo.LevelModel("dm", (1, 10_000), sigma=-1.0)]
        tree = taxo.nested_urn_sample(levels, 400, rng_seed=5)
        labels = list(tree.top)  # insertion order is first appearance
        assert labels == [f"l1_{i:05d}" for i in range(1, len(labels) + 1)]
        assert all(len(tree.top[lab].children) == 1 for lab in labels[::2])
        rich = [tree.top[lab] for lab in labels[1::2] if tree.top[lab].count >= 20]
        assert rich and all(len(node.children) > 1 for node in rich)

    def test_memory_bounded(self, traced_peak):
        # int32 taxa and ranks, each branch's uniforms drawn alone and the ranks
        # mapped in place: 4.9-5.8 MiB traced, warm to cold, against 6.6-7.3 with
        # int64 arrays and all of a level's uniforms at once
        levels = [taxo.LevelModel("dp", 25.0), taxo.LevelModel("dp", 2.5),
                  taxo.LevelModel("dp", 0.9)]
        tree, peak = traced_peak(lambda: taxo.nested_urn_sample(levels, 150_000, rng_seed=6))
        assert peak < 6.2
        assert tree.n == 150_000

    def test_cycling_diversities(self):
        levels = [taxo.LevelModel("dp", 4.0), taxo.LevelModel("dp", (0.2, 5.0))]
        tree = taxo.nested_urn_sample(levels, 400, rng_seed=4)
        assert len(tree.top) >= 2


class TestTaxonomicLikelihood:
    def test_single_family_collapse(self, tmp_path):
        tree = toy_tree(tmp_path, "level1,level2,level3,count\nF,G,S1,3\nF,G,S2,1\n")
        levels = [taxo.LevelModel("dp", 2.0), taxo.LevelModel("dp", 1.0),
                  taxo.LevelModel("dp", 0.7)]
        got = taxo.log_taxonomic_likelihood(levels, tree)
        want = (gibbs.log_V(DP(2.0), 4, 1) + gibbs.log_V(DP(1.0), 4, 1)
                + gibbs.log_V(DP(0.7), 4, 2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_fig2_toy_hand_computed(self, tmp_path):
        tree = toy_tree(tmp_path, (
            "level1,level2,level3,count\n"
            "fA,g1,s1,3\nfA,g1,s2,2\nfA,g2,s3,5\n"
            "fB,g3,s4,4\nfB,g3,s5,1\nfB,g4,s6,2\nfB,g5,s7,2\nfB,g5,s8,1\n"))
        levels = [taxo.LevelModel("dp", 1.0)] * 3

        def v_dp(n, k):  # alpha = 1: V = 1 / (1)_n = 1 / n!
            return float(Fraction(1, math.factorial(n)))

        # level 1: (n=20, k=2); families: fA (10, 2), fB (10, 3);
        # genera: g1 (5, 2), g2 (5, 1), g3 (5, 2), g4 (2, 1), g5 (3, 2)
        want = math.log(v_dp(20, 2)) + math.log(v_dp(10, 2)) + math.log(v_dp(10, 3))
        for n_b, k_b in [(5, 2), (5, 1), (5, 2), (2, 1), (3, 2)]:
            want += math.log(v_dp(n_b, k_b))
        got = taxo.log_taxonomic_likelihood(levels, tree)
        assert got == pytest.approx(want, rel=1e-12)

    def test_additivity_across_families(self, tmp_path):
        text_two = ("level1,level2,level3,count\n"
                    "F1,G1,S1,3\nF1,G2,S2,2\nF2,G3,S3,4\nF2,G3,S4,1\n")
        tree = toy_tree(tmp_path, text_two)
        levels = [taxo.LevelModel("dp", 2.0), taxo.LevelModel("dp", 1.5),
                  taxo.LevelModel("ap", 0.8)]
        total = taxo.log_taxonomic_likelihood(levels, tree)
        per_branch = levels[0].rho * gibbs.log_V(DP(2.0), 10, 2)
        for level, lm in ((2, levels[1]), (3, levels[2])):
            for s in taxo.branch_stats(tree, level):
                model = lm.model_for(lm.value_for_branch(0))
                per_branch += lm.rho * gibbs.log_V(model, s.n, s.k)
        assert total == per_branch  # bitwise: defined as this sum

    def test_per_level_tempering(self, tmp_path):
        tree = toy_tree(tmp_path, "level1,level2,level3,count\nF,G,S1,3\nF,G,S2,1\n")
        full = [taxo.LevelModel("dp", 2.0), taxo.LevelModel("dp", 1.0),
                taxo.LevelModel("dp", 0.7)]
        damped = [taxo.LevelModel("dp", 2.0), taxo.LevelModel("dp", 1.0),
                  taxo.LevelModel("dp", 0.7, rho=0.25)]
        lv3 = gibbs.log_V(DP(0.7), 4, 2)
        assert taxo.log_taxonomic_likelihood(full, tree) - taxo.log_taxonomic_likelihood(
            damped, tree) == pytest.approx(0.75 * lv3, rel=1e-12)

    def test_mapping_diversities_by_label(self, tmp_path):
        text_two = ("level1,level2,level3,count\n"
                    "F1,G1,S1,3\nF2,G2,S2,2\n")
        tree = toy_tree(tmp_path, text_two)
        levels = [taxo.LevelModel("dp", 1.0),
                  taxo.LevelModel("dp", {"F1": 0.5, "F2": 4.0}),
                  taxo.LevelModel("dp", {"G1": 1.0, "G2": 2.0})]
        got = taxo.log_taxonomic_likelihood(levels, tree)
        want = (gibbs.log_V(DP(1.0), 5, 2) + gibbs.log_V(DP(0.5), 3, 1)
                + gibbs.log_V(DP(4.0), 2, 1) + gibbs.log_V(DP(1.0), 3, 1)
                + gibbs.log_V(DP(2.0), 2, 1))
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(DomainError):
            taxo.log_taxonomic_likelihood(
                [levels[0], taxo.LevelModel("dp", {"F1": 0.5}), levels[2]], tree)

    def test_partition_law_monte_carlo(self):
        # nested partition frequencies from the urn match the product of
        # per-branch partition probabilities (L=2, n=5)
        levels = [taxo.LevelModel("dp", 1.5), taxo.LevelModel("dp", 0.8)]

        def nested_signature(tree: TaxonomicDataset):
            fams = []
            for fam in tree.top.values():
                fams.append(tuple(sorted((c.count for c in fam.children.values()),
                                         reverse=True)))
            return tuple(sorted(fams, reverse=True))

        reps = 40_000
        freq = Counter()
        for seed in range(reps):
            freq[nested_signature(taxo.nested_urn_sample(levels, 5, rng_seed=seed))] += 1

        # exact law: enumerate nested partitions by signature
        from helpers import set_partitions
        from sigmadiv.datamodel import PartitionData

        exact = Counter()
        for fam_part in set_partitions(range(5)):
            sizes = [len(b) for b in fam_part]
            p_l1 = math.exp(gibbs.log_eppf(DP(1.5), PartitionData.from_abundances(sizes)))
            # within each family block enumerate its own partition independently
            def expand(blocks, acc_prob, acc_sig):
                if not blocks:
                    exact[tuple(sorted(acc_sig, reverse=True))] += acc_prob
                    return
                first, rest = blocks[0], blocks[1:]
                for part in set_partitions(range(len(first))):
                    ss = tuple(sorted((len(b) for b in part), reverse=True))
                    p = math.exp(gibbs.log_eppf(DP(0.8), PartitionData.from_abundances(ss)))
                    expand(rest, acc_prob * p, acc_sig + [ss])
            expand(sizes and [list(range(s)) for s in sizes], p_l1, [])
        tv = 0.5 * sum(abs(freq[s] / reps - exact[s]) for s in set(freq) | set(exact))
        assert tv < 0.02


def simulate_three_level(seed, n=400):
    levels = [taxo.LevelModel("dp", 6.0),
              taxo.LevelModel("dp", (1.0, 3.0)),
              taxo.LevelModel("ap", (0.1, 0.5, 2.0))]
    return levels, taxo.nested_urn_sample(levels, n, rng_seed=seed)


class TestFitTaxonomic:
    def test_default_spec_matches_reported_settings(self):
        spec = taxo.TaxonomicModelSpec.default_three_level()
        assert isinstance(spec.levels[0], taxo.DPLevelPrior)
        sg = spec.levels[1].sg
        assert sg.a / sg.b == pytest.approx(3.0) and sg.b == 0.1 and sg.n_ref == 100
        ap = spec.levels[2]
        assert ap.hyper_mu == (0.0, 0.0) and ap.hyper_sd == 10.0 and ap.rho == 0.25
        mcmc = taxo.MCMCSettings(seed=0)
        assert mcmc.iters == 10_000 and mcmc.burn_in == 1_000

    # exp(hyper_mu) must be finite: 800 overflowed math.exp mid-fit, inf gave a NaN
    # log-posterior
    @pytest.mark.parametrize("kwargs", [{"rho": 2.0}, {"rho": 0.0}, {"rho": -1.0},
                                        {"hyper_sd": 0.0}, {"hyper_sd": -1.0},
                                        {"hyper_sd": float("nan")},
                                        {"hyper_mu": (800.0, 0.0)},
                                        {"hyper_mu": (0.0, float("inf"))},
                                        {"hyper_mu": (float("nan"), 0.0)},
                                        {"hyper_mu": (0.0, -float("inf"))},
                                        {"hyper_mu": (0.0,)}])
    def test_ap_level_prior_domain(self, kwargs):
        with pytest.raises(DomainError):
            taxo.APLevelPrior(**kwargs)

    def test_dm_level_needs_integer_bound(self):
        assert taxo.LevelModel("dm", 3.0).model_for(3.0).H == 3
        with pytest.raises(DomainError):
            taxo.LevelModel("dm", 2.5).model_for(2.5)

    def test_level_one_must_be_dp(self):
        with pytest.raises(DomainError):
            taxo.TaxonomicModelSpec(levels=(taxo.APLevelPrior(), taxo.APLevelPrior()))

    def test_smoke_fit_shapes(self):
        _, tree = simulate_three_level(0, n=250)
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        fit = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=600, burn_in=150,
                                                               seed=1))
        n_keep = 450
        assert len(fit.level1.values) == n_keep
        assert set(fit.branches[0]) == {f.label for f in tree.top.values()}
        genera = {g.label for f in tree.top.values() for g in f.children.values()}
        assert set(fit.branches[1]) == genera
        assert len(fit.hyper[3]["a_gamma"]) == n_keep
        for lab, d in fit.branches[1].items():
            assert len(d.values) == n_keep and (d.values > 0).all()

    def test_metropolis_acceptance_in_band(self):
        _, tree = simulate_three_level(5, n=500)
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        fit = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=2_500, burn_in=600,
                                                               seed=2))
        assert 0.15 <= fit.hyper[3]["acceptance"] <= 0.5

    def test_prior_only_branches_flagged(self, tmp_path):
        tree = toy_tree(tmp_path, (
            "level1,level2,level3,count\n"
            "F,G1,S1,6\nF,G1,S2,2\nF,G2,S3,1\n"))
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        fit = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=500, burn_in=100,
                                                               seed=3))
        assert fit.prior_only[1] == {"G2"}  # single observation: no AP factor
        rows = taxo.branch_summaries(fit)
        flagged = {r.label: r.prior_only for r in rows if r.level == 3}
        assert flagged == {"G1": False, "G2": True}

    def test_family_permutation_invariance(self, tmp_path):
        text_a = ("level1,level2,level3,count\n"
                  "F1,G1,S1,4\nF1,G1,S2,2\nF1,G2,S3,3\n"
                  "F2,G3,S4,5\nF2,G3,S5,1\n")
        text_b = ("level1,level2,level3,count\n"
                  "F2,G3,S4,5\nF2,G3,S5,1\n"
                  "F1,G2,S3,3\nF1,G1,S1,4\nF1,G1,S2,2\n")
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        mcmc = taxo.MCMCSettings(iters=400, burn_in=100, seed=4)
        fit_a = taxo.fit_taxonomic(spec, toy_tree(tmp_path, text_a), mcmc)
        (tmp_path / "toy.csv").unlink()
        fit_b = taxo.fit_taxonomic(spec, toy_tree(tmp_path, text_b), mcmc)
        for lab in fit_a.branches[0]:
            assert (fit_a.branches[0][lab].values == fit_b.branches[0][lab].values).all()
        for lab in fit_a.branches[1]:
            assert (fit_a.branches[1][lab].values == fit_b.branches[1][lab].values).all()

    def test_threads_do_not_change_results(self):
        # more workers than cores, switching threads as often as the interpreter can:
        # a branch written to the wrong slot or lost would change the draws
        _, tree = simulate_three_level(6, n=200)
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        one = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=300, burn_in=100,
                                                               seed=5, threads=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            four = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=300, burn_in=100,
                                                                    seed=5, threads=4))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one.level1.values, four.level1.values)
        for level_one, level_four in zip(one.branches, four.branches, strict=True):
            assert list(level_one) == list(level_four)
            for lab in level_one:
                assert np.array_equal(level_one[lab].values, level_four[lab].values)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_thread_refused(self, threads):
        with pytest.raises(DomainError, match="threads"):
            taxo.MCMCSettings(threads=threads)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # a branch that fails on a worker thread fails the fit, after every worker stopped
        _, tree = simulate_three_level(6, n=200)
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        labels = sorted(tree.top)
        fit_branch = taxo.sg_posterior_sample

        def failing(post, n_draws, seed):
            if seed == taxo._branch_seed(5, 2, labels[1]):
                raise DomainError("branch failed")
            return fit_branch(post, n_draws, seed)

        monkeypatch.setattr(taxo, "sg_posterior_sample", failing)
        with pytest.raises(DomainError, match="branch failed"):
            taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=300, burn_in=100,
                                                             seed=5, threads=2))

    def test_hyper_shrinkage_plausible(self):
        _, tree = simulate_three_level(7, n=700)
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        fit = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=2_000, burn_in=500,
                                                               seed=6))
        mean_ratio = float((fit.hyper[3]["a_gamma"] / fit.hyper[3]["b_gamma"]).mean())
        branch_means = [d.values.mean() for d in fit.branches[1].values()]
        assert min(branch_means) * 0.5 <= mean_ratio <= max(branch_means) * 2.0


class TestBranchSummaries:
    def test_ranked_and_complete(self):
        _, tree = simulate_three_level(8, n=300)
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        fit = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=400, burn_in=100,
                                                               seed=7))
        rows = taxo.branch_summaries(fit)
        for level in (2, 3):
            means = [r.mean for r in rows if r.level == level]
            assert means == sorted(means, reverse=True)
            assert all(r.q01 <= r.mean <= r.q99 for r in rows if r.level == level)

    def test_intervals_widen_with_less_data(self, tmp_path):
        rows_text = ["level1,level2,level3,count"]
        # two genera with the same true diversity but very different sizes
        for i in range(12):
            rows_text.append(f"F,Gbig,S{i},6")
        rows_text.append("F,Gsmall,T0,2\nF,Gsmall,T1,1")
        tree = toy_tree(tmp_path, "\n".join(rows_text) + "\n")
        spec = taxo.TaxonomicModelSpec.default_three_level(rho_species=1.0)
        fit = taxo.fit_taxonomic(spec, tree, taxo.MCMCSettings(iters=2_500, burn_in=500,
                                                               seed=8))
        widths = {r.label: r.q99 - r.q01 for r in taxo.branch_summaries(fit)
                  if r.level == 3}
        assert widths["Gsmall"] > widths["Gbig"]
