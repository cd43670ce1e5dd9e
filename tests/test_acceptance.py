"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured figures at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9's Dirichlet-process half is expected to fail (see README):
the exact mean of K_n / log n at n = 10^4 under alpha = 5 is 4.183, which is
16.3% below alpha, so no correct sampler can land within the stated 5%.
"""

import math
import time

import numpy as np
from scipy.special import digamma

import sigmadiv as sd
from sigmadiv import apinfer, dpinfer, estimators, gibbs, specfun, taxo

from helpers import set_partitions, trapezoid

AMAZON_N, AMAZON_K = 553_949, 4_962
DM, DP, AP = gibbs.DirichletMultinomial, gibbs.DirichletProcess, gibbs.AldousPitman


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_point_estimates():
    t0 = time.perf_counter()
    ml = estimators.mle_alpha(AMAZON_N, AMAZON_K).value
    fisher = estimators.fisher_alpha(AMAZON_N, AMAZON_K).value
    elapsed = time.perf_counter() - t0
    ok = abs(ml - 751.23) <= 0.02 and abs(fisher - 751.32) <= 0.02 and elapsed < 1.0
    report(1, ok, f"ml={ml:.4f} (751.23+-0.02), fisher={fisher:.4f} (751.32+-0.02), "
                  f"runtime {elapsed:.3f}s < 1s")


ALPHA_SUMMARY_TARGETS = {
    1.0: (751, (725, 743, 751, 759, 779)),
    0.25: (751, (699, 736, 751, 767, 806)),
    0.1: (751, (669, 726, 751, 776, 839)),
    0.01: (753, (514, 673, 747, 827, 1048)),
    0.001: (766, (208, 517, 713, 956, 1792)),
}


def test_criterion_2_alpha_posterior_summaries():
    prior = dpinfer.StirlingGammaSpec(a=1.0, b=0.0002, n_ref=AMAZON_N)
    t0 = time.perf_counter()
    worst = {}
    for rho, (mean_t, quants_t) in ALPHA_SUMMARY_TARGETS.items():
        post = dpinfer.CoarsenedPosterior(prior=prior, n=AMAZON_N, k=AMAZON_K, rho=rho)
        draws = dpinfer.sg_posterior_sample(post, 100_000, rng_seed=int(1000 * rho))
        qs = np.quantile(draws.values, [0.01, 0.25, 0.5, 0.75, 0.99])
        tol = 0.03 if rho == 0.001 else 0.02
        rel_q = max(abs(q - t) / t for q, t in zip(qs, quants_t))
        rel_m = abs(draws.values.mean() - mean_t) / mean_t
        worst[rho] = (max(rel_q, rel_m), tol)
    elapsed = time.perf_counter() - t0
    ok = all(err < tol for err, tol in worst.values()) and elapsed < 120.0
    detail = ", ".join(f"rho={r}: {e * 100:.2f}%<{t * 100:.0f}%"
                       for r, (e, t) in worst.items())
    report(2, ok, f"{detail}; runtime {elapsed:.1f}s < 120s")


RICHNESS_SUMMARY_TARGETS = {
    1.0: (15051, (14378, 14841, 15065, 15267, 15678)),
    0.25: (15052, (14139, 14777, 15052, 15327, 15976)),
    0.1: (15054, (13814, 14675, 15045, 15422, 16371)),
    0.01: (15077, (11824, 13981, 14990, 16077, 19097)),
    0.001: (15246, (7752, 11906, 14533, 17800, 29058)),
}


def test_criterion_3_richness_posterior_summaries():
    prior = dpinfer.StirlingGammaSpec(a=1.0, b=0.0002, n_ref=AMAZON_N)
    results = {}
    for rho, (mean_t, quants_t) in RICHNESS_SUMMARY_TARGETS.items():
        post = dpinfer.CoarsenedPosterior(prior=prior, n=AMAZON_N, k=AMAZON_K, rho=rho)
        pred = dpinfer.richness_posterior(post, 3.949e11, 150_000,
                                          rng_seed=int(7000 * rho))
        qs = np.quantile(pred.draws, [0.01, 0.25, 0.5, 0.75, 0.99])
        tol = 0.03 if rho == 0.001 else 0.02
        rel_q = max(abs(q - t) / t for q, t in zip(qs, quants_t))
        rel_m = abs(pred.draws.mean() - mean_t) / mean_t
        mean_tol = 0.01 if rho == 1.0 else tol
        results[rho] = (rel_m, mean_tol, rel_q, tol)
    ok = all(m < mt and q < qt for m, mt, q, qt in results.values())
    detail = ", ".join(f"rho={r}: mean {m * 100:.2f}%<{mt * 100:.0f}%, "
                       f"quants {q * 100:.2f}%<{qt * 100:.0f}%"
                       for r, (m, mt, q, qt) in results.items())
    report(3, ok, detail)


def test_criterion_4_diagnostic_targets():
    e_m1 = gibbs.expected_freq_counts(DP(751.23), AMAZON_N, 1)[0]
    prior = dpinfer.StirlingGammaSpec(a=1.0, b=0.0002, n_ref=AMAZON_N)
    post = dpinfer.CoarsenedPosterior(prior=prior, n=AMAZON_N, k=AMAZON_K, rho=0.01)
    alpha = dpinfer.sg_posterior_sample(post, 100_000, rng_seed=44).values
    tr = dpinfer.diversity_transforms(alpha)
    ok = (abs(e_m1 - 750.22) <= 0.01
          and abs(tr["simpson_mean"] - 0.00136) / 0.00136 <= 0.05
          and abs(tr["shannon_mean"] - 7.1884) / 7.1884 <= 0.01)
    report(4, ok, f"E(M_1)={e_m1:.4f} (750.22+-0.01), simpson={tr['simpson_mean']:.6f} "
                  f"(0.00136+-5%), shannon={tr['shannon_mean']:.4f} (7.1884+-1%)")


def test_criterion_5_eppf_normalization():
    models = [DM(-1.0, 5), DP(1.0), DP(10.0), AP(0.5), AP(3.0)]
    t0 = time.perf_counter()
    partitions = [[len(b) for b in p] for p in set_partitions(range(8))]
    assert len(partitions) == 4140  # Bell(8)
    worst = 0.0
    for model in models:
        total = 0.0
        for sizes in partitions:
            total += math.exp(gibbs.log_eppf(
                model, sd.PartitionData.from_abundances(sizes)))
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report(5, ok, f"max |sum - 1| = {worst:.2e} < 1e-8 over Bell(8)=4140 partitions "
                  f"x 5 models; runtime {elapsed:.1f}s < 10s")


def test_criterion_6_weight_recursion():
    worst = 0.0
    for model in (DM(-1.0, 10), DP(5.0), AP(2.0)):
        sigma = model.discount
        for n in range(1, 51):
            for k in range(1, n + 1):
                v = math.exp(gibbs.log_V(model, n, k))
                if v == 0.0:
                    continue
                rhs = ((n - sigma * k) * math.exp(gibbs.log_V(model, n + 1, k))
                       + math.exp(gibbs.log_V(model, n + 1, k + 1)))
                worst = max(worst, abs(v - rhs) / v)
    ok = worst < 1e-9
    report(6, ok, f"max relative recursion residual {worst:.2e} < 1e-9, n <= 50, "
                  "all three families")


def test_criterion_7_augmentation_identity():
    worst = 0.0
    for n in (5, 10, 20):
        ab = [n - 2, 1, 1]
        k = 3
        for g in (0.5, 1.0, 3.0):
            m, t = 2 * n - k - 2, g / math.sqrt(2.0)
            u_star = 0.5 * (-t + math.sqrt(t * t + 4 * m))
            s = 1.0 / math.sqrt(m / u_star ** 2 + 1.0)
            u = np.linspace(max(u_star - 15 * s, 1e-12), u_star + 15 * s, 40_001)
            log_f = np.array([apinfer.log_augmented_likelihood(
                apinfer.APAugmentedState(gamma=g, u=float(x), n=n, k=k), ab)
                for x in u])
            val = float(trapezoid(np.exp(log_f - log_f.max()), u)
                        * math.exp(log_f.max()))
            eppf = math.exp(gibbs.log_eppf(AP(g), sd.PartitionData.from_abundances(ab)))
            worst = max(worst, abs(val - eppf) / eppf)
    ok = worst < 1e-6
    report(7, ok, f"max relative marginalization error {worst:.2e} < 1e-6 on the "
                  "3x3 (n, gamma) grid")


def test_criterion_8_sampler_vs_oracle():
    n, k, a, b = 20, 8, 2.0, 1.0
    gs = np.linspace(1e-6, 30.0, 20_001)
    logp = (a - 1) * np.log(gs) - b * gs + np.array(
        [gibbs.log_V(AP(float(g)), n, k) for g in gs])
    p = np.exp(logp - logp.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(gs))])
    cdf /= cdf[-1]
    qlev = [0.05, 0.25, 0.5, 0.75, 0.95]
    want = np.interp(qlev, cdf, gs)

    chain = apinfer.run_ap_gibbs(n, k, apinfer.GammaPrior(a, b), 60_000, 2_000,
                                 rng_seed=81)
    iid = apinfer.iid_two_step_sample(n, k, a, b, 100_000, rng_seed=82)
    err_chain = np.abs(np.quantile(chain.values, qlev) / want - 1).max()
    err_iid = np.abs(np.quantile(iid.values, qlev) / want - 1).max()

    g0, n0, k0, ab0 = 1.0, 5, 3, (3, 1, 1)
    t = g0 / math.sqrt(2.0)
    ratio = t * math.exp(specfun.log_hermite(k0 - 2 * n0, t)
                         - specfun.log_hermite(k0 + 1 - 2 * n0, t))
    rng = np.random.default_rng(83)
    draws = 100_000
    hits = sum(apinfer.ap_predictive_sample(g0, n0, k0, ab0, rng) is None
               for _ in range(draws))
    se = math.sqrt(ratio * (1 - ratio) / draws)
    z = abs(hits / draws - ratio) / se

    ok = err_chain < 0.02 and err_iid < 0.02 and z < 3.0
    report(8, ok, f"gibbs quantile err {err_chain * 100:.2f}%<2%, iid "
                  f"{err_iid * 100:.2f}%<2%, algorithm-1 P(new) z={z:.2f}<3")


def _mean_growth_statistic(model, n, reps, scale):
    stats = np.empty(reps)
    for rep in range(reps):
        rng = np.random.default_rng(90_000 + rep)
        p_new = gibbs._discovery_fn(model, n)
        k = 0
        for i in range(n):
            if i == 0 or rng.random() < p_new(i, k):
                k += 1
        stats[rep] = k / scale
    return stats


def test_criterion_9_ap_sqrt_growth():
    n, gamma = 10_000, 2.0
    stats = _mean_growth_statistic(AP(gamma), n, 200, math.sqrt(n))
    rel = abs(stats.mean() - gamma) / gamma
    ok = rel < 0.05
    report("9 (AP half)", ok,
           f"mean K_n/sqrt(n) = {stats.mean():.4f}, within {rel * 100:.2f}% of "
           f"gamma=2 (tolerance 5%), 200 replicates at n=1e4")


def test_criterion_9_dp_log_growth():
    # Faithful to the stated criterion.  It cannot pass: the exact mean of
    # K_n / log n at n = 1e4 under alpha = 5 is
    # alpha (psi(alpha+n) - psi(alpha)) / log n = 4.183, i.e. 16.3% below
    # alpha; the (gamma_E - psi(alpha)) / log n correction only drops below
    # 5% once n >~ 1.2e8.  Kept red deliberately; see README.
    n, alpha = 10_000, 5.0
    stats = _mean_growth_statistic(DP(alpha), n, 200, math.log(n))
    rel = abs(stats.mean() - alpha) / alpha
    exact = alpha * (digamma(alpha + n) - digamma(alpha)) / math.log(n)
    ok = rel < 0.05
    report("9 (DP half)", ok,
           f"mean K_n/log(n) = {stats.mean():.4f} vs alpha=5 ({rel * 100:.1f}% off, "
           f"tolerance 5%); exact finite-n mean is {exact:.3f} - unattainable "
           "as stated, see README")


def test_criterion_10_taxonomic_recovery(tmp_path):
    levels_true = [taxo.LevelModel("dp", 6.0),
                   taxo.LevelModel("dp", (1.0, 3.0)),
                   taxo.LevelModel("ap", (0.1, 0.5, 2.0))]
    spec = taxo.TaxonomicModelSpec(levels=(
        taxo.DPLevelPrior(sg=dpinfer.StirlingGammaSpec(0.3, 0.1, 100)),
        taxo.DPLevelPrior(sg=dpinfer.StirlingGammaSpec(0.3, 0.1, 100)),
        taxo.APLevelPrior(rho=1.0)))
    covered = total = 0
    for rep in range(20):
        tree = taxo.nested_urn_sample(levels_true, 400, rng_seed=500 + rep)
        fit = taxo.fit_taxonomic(spec, tree,
                                 taxo.MCMCSettings(iters=1500, burn_in=400, seed=rep))
        for level_idx, truths in ((0, (1.0, 3.0)), (1, (0.1, 0.5, 2.0))):
            for i, lab in enumerate(sorted(fit.branches[level_idx])):
                truth = truths[i % len(truths)]
                lo, hi = np.quantile(fit.branches[level_idx][lab].values, [0.05, 0.95])
                covered += int(lo <= truth <= hi)
                total += 1
    coverage = covered / total

    # factorized-likelihood additivity holds exactly (bitwise branch sum)
    tree = taxo.nested_urn_sample(levels_true, 200, rng_seed=999)
    lv = [taxo.LevelModel("dp", 6.0), taxo.LevelModel("dp", 2.0),
          taxo.LevelModel("ap", 0.8)]
    total_ll = taxo.log_taxonomic_likelihood(lv, tree)
    parts = lv[0].rho * gibbs.log_V(DP(6.0), tree.n, len(tree.top))
    for level, lm in ((2, lv[1]), (3, lv[2])):
        for s in taxo.branch_stats(tree, level):
            parts += lm.rho * gibbs.log_V(lm.model_for(lm.value_for_branch(0)), s.n, s.k)
    additive = total_ll == parts

    ok = coverage >= 0.85 and additive
    report(10, ok, f"90% intervals cover truth for {coverage * 100:.1f}% of "
                   f"{total} branches (>= 85%) across 20 replicates; "
                   f"additivity exact: {additive}")


def test_criterion_11_dm_closed_forms():
    model = DM(-1.0, 10)
    n, k, m, reps = 20, 6, 30, 6_000
    rng = np.random.default_rng(7)
    finals_r = np.empty(reps)
    finals_e = np.empty(reps)
    for rep in range(reps):
        kk = 0
        for i in range(n):
            if i == 0 or rng.random() < gibbs._p_new(model, i, kk):
                kk += 1
        finals_r[rep] = kk
        kk = k
        for i in range(m):
            if rng.random() < gibbs._p_new(model, n + i, kk):
                kk += 1
        finals_e[rep] = kk
    rare = gibbs.rarefaction(model, n).values[-1]
    extr = gibbs.extrapolation(model, n, k, m).values[-1]
    z_r = abs(finals_r.mean() - rare) / (finals_r.std() / math.sqrt(reps))
    z_e = abs(finals_e.mean() - extr) / (finals_e.std() / math.sqrt(reps))
    ok = z_r < 3.0 and z_e < 3.0
    report(11, ok, f"rarefaction z={z_r:.2f}<3, extrapolation z={z_e:.2f}<3 at "
                   "(H=10, sigma=-1, n=20, m=30)")
