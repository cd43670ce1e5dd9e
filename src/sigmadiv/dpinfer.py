"""Coarsened Bayesian inference for the Dirichlet-process diversity alpha.

The conjugate family is the Stirling-gamma distribution SG(a, b, n_ref) with
density proportional to alpha^(a-1) / ((alpha)_{n_ref})^b on (0, inf).  Under
a likelihood tempered by rho, the posterior keeps the same form with updated
exponents; when the prior's reference size equals the observed n it is again
SG(a + rho*k, b + rho, n).  Richness prediction composes those draws with a
Poisson approximation to the out-of-sample discovery count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.special as sps

from . import specfun
from .draws import PosteriorDraws, trapezoid_cdf
from .errors import DomainError

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


@dataclass(frozen=True)
class StirlingGammaSpec:
    """SG(a, b, n_ref) prior; a/b is the location (prior guess of K_{n_ref})."""

    a: float
    b: float
    n_ref: int

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise DomainError("a and b must be positive")
        if not 1.0 <= self.a / self.b <= self.n_ref:
            raise DomainError(
                f"need 1 <= a/b <= n_ref, got a/b={self.a / self.b}, n_ref={self.n_ref}")

    def log_kernel(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return (self.a - 1.0) * np.log(alpha) - self.b * specfun.log_rising(alpha, self.n_ref)


@dataclass(frozen=True)
class CoarsenedPosterior:
    """Posterior kernel alpha^(a + rho k - 1) under a rho-tempered DP likelihood.

    With n == prior.n_ref the kernel is exactly SG(a + rho k, b + rho, n);
    otherwise the prior and likelihood rising factorials stay separate.
    """

    prior: StirlingGammaSpec
    n: int
    k: int
    rho: float

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        if not 0.0 < self.rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")

    def log_kernel(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        p = self.prior
        lr_n = specfun.log_rising(alpha, self.n)
        lr_ref = lr_n if p.n_ref == self.n else specfun.log_rising(alpha, p.n_ref)
        return (p.a + self.rho * self.k - 1.0) * np.log(alpha) - self.rho * lr_n - p.b * lr_ref


_COARSE_NODES = 1025
_GRID_NODES = 2 ** 15 + 1
_TAIL_DROP = 60.0  # bracket ends sit this far below the log-density peak
_X_LIMIT = 700.0  # |log alpha| beyond which exp over- or underflows


def _log_grid_sample(log_kernel, n_draws: int, rng_seed: int,
                     rho: float) -> PosteriorDraws:
    """Exact iid draws of alpha by inverse CDF on a dense grid in x = log alpha.

    The density of x, log_kernel(e^x) + x, is log-concave for every SG kernel,
    so the peak of a coarse grid brackets the mode.  Each end of the bracket
    then steps outward, doubling the step, until the log density is
    _TAIL_DROP below the peak; heavy tails (a small branch decays only like
    e^{0.2 x} to the left) thus widen the grid instead of being cut off.
    An end that reaches |x| = _X_LIMIT without that drop means the density is
    not integrable (an SG endpoint a/b = 1 or a/b = n_ref, k = n) or its tail
    is too heavy to sample in float range; that raises DomainError.
    """
    def logf(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = log_kernel(np.exp(x)) + x  # Jacobian of alpha = e^x
        return np.where(np.isfinite(val), val, -np.inf)

    coarse = np.linspace(math.log(1e-8), math.log(1e12), _COARSE_NODES)
    fc = logf(coarse)
    i = int(np.argmax(fc))
    peak = float(fc[i])
    if peak == -np.inf:
        raise DomainError("the alpha density is zero or not finite on [1e-8, 1e12]")
    step = coarse[1] - coarse[0]
    ends = []
    for x, sign in ((coarse[max(i - 1, 0)], -1.0),
                    (coarse[min(i + 1, _COARSE_NODES - 1)], 1.0)):
        d = step
        while True:
            fx = float(logf(x))
            peak = max(peak, fx)
            if fx < peak - _TAIL_DROP:
                break
            if abs(x) >= _X_LIMIT:
                raise DomainError(
                    "the alpha posterior is improper or too heavy-tailed to sample: its "
                    f"density does not fall {_TAIL_DROP:g} below the peak for log alpha "
                    f"within +-{_X_LIMIT:g}")
            x = float(np.clip(x + sign * d, -_X_LIMIT, _X_LIMIT))
            d *= 2.0
        ends.append(x)
    grid = np.linspace(ends[0], ends[1], _GRID_NODES)
    cdf = trapezoid_cdf(grid, logf(grid))
    rng = np.random.default_rng(rng_seed)
    values = np.exp(np.interp(rng.random(n_draws), cdf, grid))
    return PosteriorDraws(name="alpha", values=values, rho=rho, seed=rng_seed,
                          ess=float(n_draws))


def sg_posterior_sample(post: CoarsenedPosterior, n_draws: int,
                        rng_seed: int) -> PosteriorDraws:
    """Draw the coarsened Stirling-gamma posterior of alpha.

    The draws are exact iid draws by log-grid inverse CDF, so no thinning or
    convergence check applies: thin is 1 and ess equals n_draws.
    """
    if n_draws < 1:
        raise DomainError("n_draws must be >= 1")
    return _log_grid_sample(post.log_kernel, n_draws, rng_seed, post.rho)


def sg_prior_sample(prior: StirlingGammaSpec, n_draws: int, rng_seed: int) -> PosteriorDraws:
    """Draws from the SG prior itself (used for prior-only branches and checks)."""
    return _log_grid_sample(prior.log_kernel, n_draws, rng_seed, rho=0.0)


def _poisson_ppf(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Vectorized exact Poisson quantile: smallest j with CDF(j) >= u.

    Starts from a Cornish-Fisher guess and walks the exact CDF
    (P(X <= j) = gammaincc(j + 1, lam)), so it inverts the true distribution
    and is monotone in lam for fixed u.
    """
    z = np.sqrt(2.0) * sps.erfinv(2.0 * u - 1.0)
    j = np.maximum(np.round(lam + np.sqrt(lam) * z + (z * z - 1.0) / 6.0), 0.0)
    cdf = sps.gammaincc(j + 1.0, lam)
    for _ in range(1000):
        low = cdf < u
        if not low.any():
            break
        j = j + low
        cdf = np.where(low, sps.gammaincc(j + 1.0, lam), cdf)
    for _ in range(1000):
        prev = sps.gammaincc(np.maximum(j, 1.0), lam)  # CDF at j-1
        high = (j > 0) & (prev >= u)
        if not high.any():
            break
        j = j - high
    return j.astype(np.int64)


_SERIES_FROM = 1e3  # alpha above which _discovery_mean uses the digamma series


def _discovery_mean(alpha: np.ndarray, n: int, N: np.ndarray) -> np.ndarray:
    """alpha (psi(alpha + N) - psi(alpha + n)), the mean count of new taxa.

    Above _SERIES_FROM the digamma difference is taken from the series
    psi(z) = log z - 1/(2 z) - 1/(12 z^2) + O(z^-4) with the log difference
    as log1p, since the plain difference is rounding noise by alpha ~ 1e16.
    """
    big = alpha > _SERIES_FROM
    z = np.where(big, alpha, _SERIES_FROM)
    zn, zN = z + n, z + N
    series = np.log1p((N - n) / zn) + 0.5 * (1.0 / zn - 1.0 / zN) + (zn ** -2 - zN ** -2) / 12.0
    small = np.where(big, 1.0, alpha)
    direct = sps.digamma(small + N) - sps.digamma(small + n)
    return alpha * np.where(big, series, direct)


@dataclass
class RichnessPrediction:
    """Posterior draws of the total richness K_N under N ~ Uniform(.5, 1.5) N-hat."""

    draws: np.ndarray
    N_hat: float
    n: int
    k: int
    rho: float
    seed: int

    def summary(self) -> Dict:
        from .draws import summarize_draws

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
    if N_hat < post.n:
        raise DomainError("N_hat must be at least the observed sample size")
    alpha = sg_posterior_sample(post, n_draws, rng_seed).values
    rng = np.random.default_rng(np.random.SeedSequence((rng_seed, 0x5e1f)))
    if N_hat == post.n:
        N = np.full(n_draws, float(post.n))
    else:
        N = np.maximum(np.floor(rng.uniform(0.5 * N_hat, 1.5 * N_hat, size=n_draws)),
                       float(post.n))
    lam = _discovery_mean(alpha, post.n, N)
    u = rng.random(n_draws)
    new = _poisson_ppf(u, lam)
    return RichnessPrediction(draws=post.k + new, N_hat=N_hat, n=post.n, k=post.k,
                              rho=post.rho, seed=rng_seed)


def diversity_transforms(alpha_draws: np.ndarray) -> Dict[str, float]:
    """Posterior means of Simpson 1/(1+alpha) and Shannon psi(alpha+1) - psi(1)."""
    alpha = np.asarray(alpha_draws, dtype=float)
    if alpha.size == 0:
        raise DomainError("alpha_draws must be nonempty")
    simpson = float(np.mean(1.0 / (1.0 + alpha)))
    shannon = float(np.mean(sps.digamma(alpha + 1.0) - sps.digamma(1.0)))
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
