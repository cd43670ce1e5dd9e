"""Taxonomic (nested) Gibbs-type priors: simulation, likelihood and fitting.

A taxonomy is modeled level by level: the first level is a single Gibbs
process, and every observed taxon at level l-1 spawns an independent Gibbs
process over its children.  The likelihood therefore factorizes into branch
terms, so Dirichlet-process branches are fit independently, while the
Aldous-Pitman level shares a hierarchical Gamma(a, b) prior whose
hyperparameters get a Metropolis update.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import apinfer, gibbs, specfun
from .datamodel import TaxonNode, TaxonomicDataset
from .dpinfer import CoarsenedPosterior, StirlingGammaSpec, sg_posterior_sample
from .draws import PosteriorDraws, quantiles
from .errors import DomainError, count, real

__all__ = [
    "LevelModel",
    "DPLevelPrior",
    "APLevelPrior",
    "TaxonomicModelSpec",
    "MCMCSettings",
    "BranchSufficientStats",
    "BranchSummary",
    "TaxonomicFit",
    "nested_urn_sample",
    "log_taxonomic_likelihood",
    "fit_taxonomic",
    "branch_summaries",
    "branch_stats",
]

Diversity = Union[float, Sequence[float], Mapping[str, float]]


class LevelModel:
    """A level with fully specified diversities (for simulation and likelihoods).

    diversity may be a constant, a sequence cycled over branches in discovery
    order (simulation), or a mapping keyed by parent label (likelihoods).
    For the dm family `diversity` is the taxon bound H and sigma defaults to -1.
    """

    __slots__ = ("family", "diversity", "sigma", "rho")

    def __init__(self, family: str, diversity: Diversity, sigma: Optional[float] = None,
                 rho: float = 1.0):
        if family not in ("dm", "dp", "ap"):
            raise DomainError(f"unknown family {family!r}")
        if not 0.0 < rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {rho}")
        if family == "dm" and sigma is None:
            sigma = -1.0
        self.family = family
        self.diversity = diversity
        self.sigma = sigma
        self.rho = rho
        values = (diversity.values() if isinstance(diversity, Mapping)
                  else [diversity] if isinstance(diversity, (int, float)) else diversity)
        for value in values:  # refuses a diversity outside the family's domain
            self.model_for(float(value))

    def model_for(self, value: float) -> gibbs.GibbsModel:
        if self.family == "dm":
            return gibbs.DirichletMultinomial(sigma=self.sigma, H=value)
        if self.family == "dp":
            return gibbs.DirichletProcess(alpha=value)
        return gibbs.AldousPitman(gamma=value)

    def value_for_branch(self, index: int = 0, label: Optional[str] = None) -> float:
        d = self.diversity
        if isinstance(d, Mapping):
            if label is None or label not in d:
                raise DomainError(f"no diversity value for branch {label!r}")
            return float(d[label])
        if isinstance(d, (int, float)):
            return float(d)
        seq = list(d)
        return float(seq[index % len(seq)])


def nested_urn_sample(levels: Sequence[LevelModel], n_steps: int,
                      rng_seed: Union[int, np.random.Generator]) -> TaxonomicDataset:
    """Simulate n_steps label tuples from the nested predictive scheme.

    Level by level: the individuals under one parent taxon form an
    independent urn whose length is the parent's count, so a new parent
    always gets a fresh child.  Branch diversities cycle over the parents in
    order of first appearance in the stream, and labels l{level}_{counter}
    are numbered by first appearance.
    """
    n_steps = count("n_steps", n_steps)
    if len(levels) < 1:
        raise DomainError("at least one level is required")
    rng = gibbs._rng(rng_seed)
    taxon = np.zeros(n_steps, dtype=np.int32)  # each individual's taxon at the level above
    dataset = TaxonomicDataset(levels=len(levels), top={})
    nodes = [TaxonNode(label="", children=dataset.top)]  # the root, parent of level 1
    for depth, level in enumerate(levels, start=1):
        order = taxon.argsort(kind="stable")  # grouped by parent, in stream order
        sizes = np.bincount(taxon)
        starts = sizes.cumsum() - sizes
        flags = np.ones(n_steps, dtype=bool)
        for b, (s, c) in enumerate(zip(starts.tolist(), sizes.tolist())):
            u = rng.random(c)  # branch by branch, the stream of one n_steps draw
            if c > 1:  # a lone individual founds its taxon without a draw
                model = level.model_for(level.value_for_branch(b))
                flags[s:s + c] = gibbs._discovery_flags(model, u)
        sigma = level.model_for(level.value_for_branch(0)).discount
        labels = gibbs._urn_labels(flags, sigma, rng, starts)
        # a taxon's founder is its first individual, so founders in stream
        # order number the taxa by first appearance
        first = order[flags]
        by_first = first.argsort()
        rank = np.empty(by_first.size, dtype=np.int32)
        rank[by_first] = np.arange(by_first.size, dtype=np.int32)
        parent_of = taxon[first[by_first]].tolist()
        # every label indexes rank, so "clip" clips nothing; it skips the copy
        # of out that the default mode makes
        taxon[order] = np.take(rank, labels, out=labels, mode="clip")
        above, nodes = nodes, []
        for r, (p, c) in enumerate(zip(parent_of, np.bincount(taxon).tolist()), start=1):
            node = TaxonNode(label=f"l{depth}_{r:05d}", count=c)
            above[p].children[node.label] = node
            nodes.append(node)
    dataset.validate()
    return dataset


class BranchSufficientStats:
    """Children statistics of one observed parent node."""

    __slots__ = ("label", "n", "k")

    def __init__(self, label: str, n: int, k: int):
        self.label = label
        self.n = n
        self.k = k


def branch_stats(data: TaxonomicDataset, level: int) -> List[BranchSufficientStats]:
    """Per-parent sufficient statistics for the given level (2-based), sorted by label."""
    return sorted((BranchSufficientStats(label=p.label, n=p.count, k=len(p.children))
                   for p in data.parents_at_level(level)), key=lambda b: b.label)


def log_taxonomic_likelihood(levels: Sequence[LevelModel],
                             data: TaxonomicDataset) -> float:
    """Factorized log likelihood: one tempered log V term per observed branch."""
    if len(levels) != data.levels:
        raise DomainError(f"spec has {len(levels)} levels, data has {data.levels}")
    lvl1 = levels[0]
    k1 = len(data.top)
    model1 = lvl1.model_for(lvl1.value_for_branch(0, label=""))
    total = lvl1.rho * gibbs.log_V(model1, data.n, k1)
    for level in range(2, data.levels + 1):
        lm = levels[level - 1]
        for idx, stats in enumerate(branch_stats(data, level)):
            value = lm.value_for_branch(idx, label=stats.label)
            total += lm.rho * gibbs.log_V(lm.model_for(value), stats.n, stats.k)
    return float(total)


class DPLevelPrior:
    """Dirichlet-process level with independent Stirling-gamma branch priors."""

    __slots__ = ("sg", "rho")

    def __init__(self, sg: StirlingGammaSpec, rho: float = 1.0):
        if not 0.0 < rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {rho}")
        self.sg = sg
        self.rho = rho


class APLevelPrior:
    """Aldous-Pitman level with a hierarchical Gamma(a, b) prior on diversities.

    (log a, log b) gets a bivariate Gaussian hyperprior and a random-walk
    Metropolis update, scale-adapted toward 0.3 acceptance during burn-in.
    """

    __slots__ = ("hyper_mu", "hyper_sd", "rho")

    def __init__(self, hyper_mu: Tuple[float, float] = (0.0, 0.0), hyper_sd: float = 10.0,
                 rho: float = 1.0):
        try:  # a and b are exp(hyper_mu) at the chain's start
            mu_ok = len(hyper_mu) == 2 and all(math.isfinite(m) and math.exp(m) < math.inf
                                               for m in hyper_mu)
        except OverflowError:
            mu_ok = False
        if not mu_ok:
            raise DomainError(f"hyper_mu must be two finite numbers whose exp is finite, "
                              f"got {hyper_mu}")
        if not 0.0 < rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {rho}")
        self.hyper_mu = hyper_mu
        self.hyper_sd = real("hyper_sd", hyper_sd, 0.0)
        real("hyper_sd^2", self.hyper_sd * self.hyper_sd, 0.0)  # the hyperprior's variance
        self.rho = rho


LevelPrior = Union[DPLevelPrior, APLevelPrior]


class TaxonomicModelSpec:
    __slots__ = ("levels",)

    def __init__(self, levels: Tuple[LevelPrior, ...]):
        if len(levels) < 2:
            raise DomainError("a taxonomic model needs at least 2 levels")
        if not isinstance(levels[0], DPLevelPrior):
            raise DomainError("level 1 must be a Dirichlet process with an SG prior")
        self.levels = levels

    @classmethod
    def default_three_level(cls, rho_species: float = 0.25) -> "TaxonomicModelSpec":
        """Family/genus/species defaults: SG(0.3, 0.1, 100) on DP levels,
        Normal((0,0), 10^2 I) hyperprior on the species-level AP diversities."""
        sg = StirlingGammaSpec(a=0.3, b=0.1, n_ref=100)
        return cls(levels=(DPLevelPrior(sg=sg),
                           DPLevelPrior(sg=sg),
                           APLevelPrior(rho=rho_species)))


class MCMCSettings:
    """Chain length, burn-in and seed of a taxonomic fit.  threads is checked and kept
    but changes nothing: every branch is fit on the calling thread."""

    __slots__ = ("iters", "burn_in", "seed", "threads")

    def __init__(self, iters: int = 10_000, burn_in: int = 1_000, seed: int = 0,
                 threads: int = 1):
        self.burn_in = count("burn_in", burn_in, 0)
        self.iters = count("iters", iters, self.burn_in + 1)
        self.seed = count("seed", seed, 0)
        self.threads = count("threads", threads)


class TaxonomicFit:
    """Draws of every level: branches and stats hold levels 2..L, and hyper maps an
    AP level to its {"a_gamma", "b_gamma", "acceptance"}."""

    __slots__ = ("spec", "mcmc", "level1", "branches", "stats", "prior_only", "hyper")

    def __init__(self, spec: TaxonomicModelSpec, mcmc: MCMCSettings, level1: PosteriorDraws,
                 branches: List[Dict[str, PosteriorDraws]],
                 stats: List[Dict[str, BranchSufficientStats]], prior_only: List[set],
                 hyper: Dict[int, Dict[str, object]]):
        self.spec = spec
        self.mcmc = mcmc
        self.level1 = level1
        self.branches = branches
        self.stats = stats
        self.prior_only = prior_only
        self.hyper = hyper


def _branch_seed(seed: int, level: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{level}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _fit_dp_level(prior: DPLevelPrior, stats: List[BranchSufficientStats],
                  mcmc: MCMCSettings, level: int) -> Dict[str, PosteriorDraws]:
    """Every branch's coarsened SG posterior, seeded by its label, one after another."""
    n_keep = mcmc.iters - mcmc.burn_in
    return {s.label: sg_posterior_sample(
                CoarsenedPosterior(prior=prior.sg, n=s.n, k=s.k, rho=prior.rho), n_keep,
                _branch_seed(mcmc.seed, level, s.label))
            for s in stats}


def _fit_ap_level(prior: APLevelPrior, stats: List[BranchSufficientStats],
                  mcmc: MCMCSettings, level: int) -> Tuple[Dict[str, PosteriorDraws],
                                                           Dict[str, object], set]:
    rng = np.random.default_rng(_branch_seed(mcmc.seed, level, "__hyper__"))
    rho = prior.rho
    labels = [s.label for s in stats]
    n_arr = np.array([s.n for s in stats], dtype=float)
    k_arr = np.array([s.k for s in stats], dtype=float)
    informative = n_arr >= 2  # the augmented likelihood needs two observations
    mu = np.asarray(prior.hyper_mu, dtype=float)
    sd2 = prior.hyper_sd ** 2

    n_keep = mcmc.iters - mcmc.burn_in
    gam = np.ones(len(stats))
    # U of an uninformative branch stays 0: it leaves gamma with its prior
    u = np.where(informative, np.sqrt(np.maximum(2 * n_arr - k_arr - 2, 1.0)), 0.0)
    la, lb = float(mu[0]), float(mu[1])

    def hyper_logpost(la_: float, lb_: float, log_sum: float, gam_sum: float) -> float:
        a_, b_ = math.exp(la_), math.exp(lb_)
        like = (len(stats) * (a_ * lb_ - specfun.gammaln(a_))
                + (a_ - 1.0) * log_sum - b_ * gam_sum)
        return float(like - ((la_ - mu[0]) ** 2 + (lb_ - mu[1]) ** 2) / (2.0 * sd2))

    gamma_out = np.empty((n_keep, len(stats)))
    a_out = np.empty(n_keep)
    b_out = np.empty(n_keep)
    scale = 0.5
    accepted_after_burn = 0
    # sweep invariants
    shape_base = np.where(informative, rho * (k_arr - 1.0), 0.0)
    beta = rho / math.sqrt(2.0)
    branches = np.flatnonzero(informative)
    m_branches = rho * (2.0 * n_arr[branches] - k_arr[branches] - 2.0)
    for it in range(mcmc.iters):
        a_cur, b_cur = math.exp(la), math.exp(lb)
        # (gamma | -) is conjugate branch by branch
        gam = rng.standard_gamma(a_cur + shape_base) / (b_cur + beta * u)
        # (U | -) for every informative branch in one array draw
        u[branches] = apinfer.sample_modified_half_normal(
            rng, m_branches, 0.5 * rho, beta * gam[branches])
        # Metropolis on (log a, log b)
        la_p = la + scale * rng.standard_normal()
        lb_p = lb + scale * rng.standard_normal()
        log_sum, gam_sum = float(np.log(gam).sum()), float(gam.sum())
        delta = (hyper_logpost(la_p, lb_p, log_sum, gam_sum)
                 - hyper_logpost(la, lb, log_sum, gam_sum))
        accept = math.log(rng.random()) < delta
        if accept:
            la, lb = la_p, lb_p
        if it < mcmc.burn_in:
            scale *= math.exp((float(accept) - 0.3) / (1.0 + it) ** 0.6)
        else:
            accepted_after_burn += int(accept)
            keep = it - mcmc.burn_in
            gamma_out[keep] = gam
            a_out[keep] = math.exp(la)
            b_out[keep] = math.exp(lb)

    branch_draws = {
        lab: PosteriorDraws(name="gamma", values=gamma_out[:, j], rho=rho,
                            seed=mcmc.seed)
        for j, lab in enumerate(labels)
    }
    hyper = {"a_gamma": a_out, "b_gamma": b_out,
             "acceptance": accepted_after_burn / max(n_keep, 1)}
    return branch_draws, hyper, {lab for lab, inf in zip(labels, informative) if not inf}


def fit_taxonomic(spec: TaxonomicModelSpec, data: TaxonomicDataset,
                  mcmc: MCMCSettings) -> TaxonomicFit:
    """Posterior sampling for every observed branch diversity.

    Dirichlet-process branches are mutually independent coarsened SG
    posteriors (one deterministic seed per branch label); each Aldous-Pitman
    level runs the blocked data-augmented Gibbs sampler with the Metropolis
    hyperparameter step.
    """
    if len(spec.levels) != data.levels:
        raise DomainError(f"spec has {len(spec.levels)} levels, data has {data.levels}")
    root = BranchSufficientStats("", data.n, len(data.top))  # level 1: one branch
    level1 = _fit_dp_level(spec.levels[0], [root], mcmc, 1)[""]

    branches: List[Dict[str, PosteriorDraws]] = []
    all_stats: List[Dict[str, BranchSufficientStats]] = []
    prior_only: List[set] = []
    hyper: Dict[int, Dict[str, object]] = {}
    for level in range(2, data.levels + 1):
        prior = spec.levels[level - 1]
        stats = branch_stats(data, level)
        all_stats.append({s.label: s for s in stats})
        if isinstance(prior, DPLevelPrior):
            branches.append(_fit_dp_level(prior, stats, mcmc, level))
            prior_only.append({s.label for s in stats if s.n <= 1})
        else:
            level_draws, level_hyper, level_prior_only = _fit_ap_level(
                prior, stats, mcmc, level)
            branches.append(level_draws)
            hyper[level] = level_hyper
            prior_only.append(level_prior_only)
    return TaxonomicFit(spec=spec, mcmc=mcmc, level1=level1, branches=branches,
                        stats=all_stats, prior_only=prior_only, hyper=hyper)


class BranchSummary:
    __slots__ = ("level", "label", "mean", "q01", "q99", "n_branch", "k_branch", "prior_only")

    def __init__(self, level: int, label: str, mean: float, q01: float, q99: float,
                 n_branch: int, k_branch: int, prior_only: bool):
        self.level = level
        self.label = label
        self.mean = mean
        self.q01 = q01
        self.q99 = q99
        self.n_branch = n_branch
        self.k_branch = k_branch
        self.prior_only = prior_only


def branch_summaries(fit: TaxonomicFit) -> List[BranchSummary]:
    """Per-branch posterior mean and 98% interval, ranked within each level."""
    out: List[BranchSummary] = []
    for i, level_draws in enumerate(fit.branches):
        level = i + 2
        rows = []
        for label, draws in level_draws.items():
            stats = fit.stats[i][label]
            q01, q99 = quantiles(draws.values, [0.01, 0.99])
            rows.append(BranchSummary(level=level, label=label,
                                      mean=float(draws.values.mean()),
                                      q01=float(q01), q99=float(q99),
                                      n_branch=stats.n, k_branch=stats.k,
                                      prior_only=label in fit.prior_only[i]))
        rows.sort(key=lambda r: (-r.mean, r.label))
        out.extend(rows)
    return out
