"""Coarsened Bayesian inference for the Dirichlet-process diversity alpha.

The conjugate family is the Stirling-gamma distribution SG(a, b, n_ref) with
density proportional to alpha^(a-1) / ((alpha)_{n_ref})^b on (0, inf).  Under
a likelihood tempered by rho, the posterior keeps the same form with updated
exponents; when the prior's reference size equals the observed n it is again
SG(a + rho*k, b + rho, n).  Richness prediction composes those draws with a
Poisson approximation to the out-of-sample discovery count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import specfun
from .draws import PosteriorDraws, log_grid_sample, summarize_draws
from .errors import DomainError, count, real

__all__ = [
    "StirlingGammaSpec",
    "CoarsenedPosterior",
    "RichnessPrediction",
    "sg_posterior_sample",
    "sg_prior_sample",
    "richness_posterior",
    "diversity_transforms",
    "calibration_curve",
]


class StirlingGammaSpec:
    """SG(a, b, n_ref) prior; a/b is the location (prior guess of K_{n_ref})."""

    __slots__ = ("a", "b", "n_ref")

    def __init__(self, a: float, b: float, n_ref: int):
        self.a = real("a", a, 0.0)
        self.b = real("b", b, 0.0)
        self.n_ref = count("n_ref", n_ref)
        if not 1.0 <= self.a / self.b <= self.n_ref:
            raise DomainError(f"need 1 <= a/b <= n_ref, got a/b={a / b}, n_ref={n_ref}")

    def log_kernel(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return (self.a - 1.0) * np.log(alpha) - self.b * specfun.log_rising(alpha, self.n_ref)


class CoarsenedPosterior:
    """Posterior kernel alpha^(a + rho k - 1) under a rho-tempered DP likelihood.

    With n == prior.n_ref the kernel is exactly SG(a + rho k, b + rho, n);
    otherwise the prior and likelihood rising factorials stay separate.
    """

    __slots__ = ("prior", "n", "k", "rho")

    def __init__(self, prior: StirlingGammaSpec, n: int, k: int, rho: float):
        if not 0.0 < rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {rho}")
        self.prior = prior
        self.k = count("k", k)
        self.n = count("n", n, self.k)
        self.rho = rho

    def log_kernel(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        p = self.prior
        if p.n_ref == self.n:
            lr_n = lr_ref = specfun.log_rising(alpha, self.n)
        else:
            lr_n, lr_ref = specfun.log_rising_each(alpha, (self.n, p.n_ref))
        return (p.a + self.rho * self.k - 1.0) * np.log(alpha) - self.rho * lr_n - p.b * lr_ref


def sg_posterior_sample(post: CoarsenedPosterior, n_draws: int,
                        rng_seed: int) -> PosteriorDraws:
    """Draw the coarsened Stirling-gamma posterior of alpha.

    The draws are exact iid draws by log-grid rejection, so no thinning or
    convergence check applies: thin is 1 and ess equals n_draws.
    """
    values = log_grid_sample(post.log_kernel, n_draws,
                             np.random.default_rng(count("rng_seed", rng_seed, 0)))
    return PosteriorDraws(name="alpha", values=values, rho=post.rho, seed=rng_seed,
                          ess=float(values.size))


def sg_prior_sample(prior: StirlingGammaSpec, n_draws: int, rng_seed: int) -> PosteriorDraws:
    """Draws from the SG prior itself (used for prior-only branches and checks)."""
    values = log_grid_sample(prior.log_kernel, n_draws,
                             np.random.default_rng(count("rng_seed", rng_seed, 0)))
    return PosteriorDraws(name="alpha", values=values, rho=0.0, seed=rng_seed,
                          ess=float(values.size))


def _poisson_ppf(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exact Poisson quantile (int64), elementwise: the smallest j >= 0 with P(X <= j) >= u,
    u in [0, 1), taken by specfun._blockwise, so its temporaries cover one block."""
    return specfun._blockwise(_poisson_ppf_block, np.empty(u.size, dtype=np.int64), u, lam)


def _poisson_ppf_block(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The Poisson quantiles of _poisson_ppf, as floats.

    A Cornish-Fisher guess lam + sqrt(lam) z + (z^2 - 1)/6, z the normal quantile of u,
    lands on the answer or next to it.  There the incomplete gamma functions give
    P(X <= j) = Q(j + 1, lam) and P(X > j) = P(j + 1, lam) once (specfun.gammainc_pq),
    and the walk moves them by the exact pmf: up while the CDF is below u, then down
    while the CDF one step lower still reaches u.  Above u = 1/2 it compares the upper
    tail with 1 - u instead of the CDF with u: near 1 the CDF has no float spacing to
    spare for a pmf step (at lam = 1e11 a step of 3e-17 is absorbed).  So it inverts
    the true distribution and is monotone in lam for fixed u.
    """
    z = specfun.normal_quantile(u)
    j = np.maximum(np.round(lam + np.sqrt(lam) * z + (z * z - 1.0) / 6.0), 0.0)
    j[u <= 0.0] = 0.0  # every CDF value reaches u = 0
    upper = u > 0.5
    tail, cdf = specfun.gammainc_pq(j + 1.0, lam)
    cdf = np.where(upper, -tail, cdf)  # P(X <= j), less 1 where u > 1/2 ...
    u = np.where(upper, u - 1.0, u)  # ... and u likewise (exact for u >= 1/2)
    low = cdf < u
    up = np.flatnonzero(low)
    while up.size:
        j[up] += 1.0
        cdf[up] += specfun.poisson_pmf(j[up], lam[up])
        up = up[cdf[up] < u[up]]
    down = np.flatnonzero(~low & (j > 0.0))
    while down.size:
        below = cdf[down] - specfun.poisson_pmf(j[down], lam[down])  # at j - 1
        move = below >= u[down]
        down = down[move]
        j[down] -= 1.0
        cdf[down] = below[move]
        down = down[j[down] > 0.0]
    return j


class RichnessPrediction:
    """Posterior draws of the total richness K_N under N ~ Uniform(.5, 1.5) N-hat."""

    __slots__ = ("draws", "N_hat", "n", "k", "rho", "seed")

    def __init__(self, draws: np.ndarray, N_hat: float, n: int, k: int, rho: float,
                 seed: int):
        self.draws = draws
        self.N_hat = N_hat
        self.n = n
        self.k = k
        self.rho = rho
        self.seed = seed

    def summary(self) -> Dict:
        return summarize_draws(self.draws.astype(float))


def richness_posterior(post: CoarsenedPosterior, N_hat: float, n_draws: int,
                       rng_seed: int) -> RichnessPrediction:
    """Sample K_N = k + Poisson(alpha * (psi(alpha+N) - psi(alpha+n))).

    N is drawn uniformly on (0.5 N-hat, 1.5 N-hat), rounded, and clamped to
    the observed n (the population cannot be smaller than the sample; with
    N-hat == n the prediction degenerates to K_N = k).  The Poisson count is
    inverted from a uniform so that draws are monotone-coupled in N-hat under
    a fixed seed.
    """
    if not post.n <= N_hat < np.inf:
        raise DomainError(f"N_hat must be finite and at least the observed sample size, "
                          f"got {N_hat}")
    rng_seed = count("rng_seed", rng_seed, 0)
    alpha = sg_posterior_sample(post, n_draws, rng_seed).values
    rng = np.random.default_rng(np.random.SeedSequence((rng_seed, 0x5e1f)))
    if N_hat == post.n:
        N = np.full(alpha.size, float(post.n))
    else:
        N = np.maximum(np.floor(rng.uniform(0.5 * N_hat, 1.5 * N_hat, size=alpha.size)),
                       float(post.n))
    lam = specfun.discovery_mean(alpha, post.n, N - post.n)
    draws = _poisson_ppf(rng.random(alpha.size), lam)
    draws += post.k
    return RichnessPrediction(draws=draws, N_hat=N_hat, n=post.n, k=post.k,
                              rho=post.rho, seed=rng_seed)


def diversity_transforms(alpha_draws: np.ndarray) -> Dict[str, float]:
    """Posterior means of Simpson 1/(1+alpha) and Shannon psi(alpha+1) - psi(1)."""
    alpha = np.asarray(alpha_draws, dtype=float)
    if not (alpha.size and np.all((alpha > 0.0) & (alpha < np.inf))):  # NaN included
        raise DomainError("alpha_draws must be nonempty, finite and positive")
    simpson = float(np.mean(1.0 / (1.0 + alpha)))
    shannon = float(np.mean(specfun.digamma(alpha + 1.0) - specfun.digamma(1.0)))
    return {"simpson_mean": simpson, "shannon_mean": shannon}


def calibration_curve(prior: StirlingGammaSpec, n: int, k: int,
                      rho_grid: Sequence[float], n_draws: int = 4000,
                      rng_seed: int = 0) -> List[Tuple[float, float]]:
    """(rho, posterior expectation of the untempered log-likelihood) pairs.

    The expected value of k log(alpha) - log (alpha)_n under each coarsened
    posterior; plotted against rho this is the elbow-rule calibration curve.
    """
    out = []
    for i, rho in enumerate(rho_grid):
        post = CoarsenedPosterior(prior=prior, n=n, k=k, rho=float(rho))
        alpha = sg_posterior_sample(post, n_draws, rng_seed + i).values
        ll = k * np.log(alpha) - specfun.log_rising(alpha, n)
        out.append((float(rho), float(ll.mean())))
    return out
