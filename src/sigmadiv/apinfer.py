"""Inference machinery for the Aldous-Pitman (square-root growth) process.

The augmented likelihood introduces a positive latent variable U so that the
diversity gamma becomes conditionally conjugate under a Gamma prior.  Both a
Gibbs sampler and an exact two-step iid sampler are provided, together with
the constructive stick representation, the one-observation-ahead predictive
sampler, and the sigma = 1/2 Pitman-Yor / normalized-inverse-Gaussian prior
densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.special as sps

from . import gibbs, specfun
from .draws import PosteriorDraws, trapezoid_cdf
from .errors import DomainError, SamplerError

__all__ = [
    "APWeights",
    "APAugmentedState",
    "GammaPrior",
    "ap_stick_sample",
    "log_augmented_likelihood",
    "sample_modified_half_normal",
    "gibbs_sweep",
    "run_ap_gibbs",
    "iid_two_step_sample",
    "ap_predictive_sample",
    "py_prior_density",
    "ig_prior_density",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class APWeights:
    """Constructive weights: residuals R_h = (g^2/2) / (g^2/2 + sum Y_j^2).

    weights[h] = R_h - R_{h+1} is the size of the (h+1)-th atom; tail_mass is
    the truncated remainder R_{H}.
    """

    residuals: np.ndarray
    weights: np.ndarray
    tail_mass: float


def ap_stick_sample(gamma: float, H_trunc: int, rng_seed: int) -> APWeights:
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    if H_trunc < 1:
        raise DomainError("H_trunc must be >= 1")
    rng = np.random.default_rng(rng_seed)
    y2 = rng.standard_normal(H_trunc) ** 2
    half_g2 = 0.5 * gamma * gamma
    residuals = np.concatenate([[1.0], half_g2 / (half_g2 + np.cumsum(y2))])
    weights = residuals[:-1] - residuals[1:]
    return APWeights(residuals=residuals, weights=weights,
                     tail_mass=float(residuals[-1]))


@dataclass(frozen=True)
class APAugmentedState:
    """Current (gamma, U) pair for the augmented sampler; (n, k) stay fixed."""

    gamma: float
    u: float
    n: int
    k: int
    rho: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0.0 or self.u <= 0.0:
            raise DomainError("gamma and u must be positive")
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        if not 0.0 < self.rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")


def log_augmented_likelihood(state: APAugmentedState, abundances: Sequence[int]) -> float:
    """rho-tempered log joint of the partition and the latent U given gamma."""
    n, k = state.n, state.k
    if n < 2:
        raise DomainError("the augmented likelihood requires n >= 2")
    abundances = tuple(abundances)
    if len(abundances) != k or sum(abundances) != n:
        raise DomainError("abundances inconsistent with (n, k)")
    u, g = state.u, state.gamma
    core = ((n - k / 2.0 - 0.5) * math.log(2.0)
            - sps.gammaln(2 * n - k - 1)
            + (k - 1) * math.log(g / 2.0)
            + (2 * n - k - 2) * math.log(u)
            - 0.5 * u * u
            - g / _SQRT2 * u)
    core += sum(specfun.log_rising(0.5, nj - 1) for nj in abundances if nj > 1)
    return state.rho * core


def _sample_trunc_normal(rng: np.random.Generator, mean: float, sd: float,
                         max_rejects: int) -> float:
    """Normal(mean, sd) conditioned on positivity."""
    if mean >= 0.0:
        for _ in range(max_rejects):
            x = mean + sd * rng.standard_normal()
            if x > 0.0:
                return x
        raise SamplerError("truncated-normal rejection loop exceeded")
    # left-truncation far in the tail: exponential tilt (Robert 1995)
    beta = -mean / sd
    lam = 0.5 * (beta + math.sqrt(beta * beta + 4.0))
    for _ in range(max_rejects):
        z = beta + rng.exponential() / lam
        if math.log(rng.random()) <= -0.5 * (z - lam) ** 2:
            return mean + sd * z
    raise SamplerError("truncated-normal rejection loop exceeded")


def sample_modified_half_normal(rng: np.random.Generator, m: float, p: float, q: float,
                                max_rejects: int = 10_000) -> float:
    """Exact draw from the density proportional to u^m e^{-p u^2 - q u} on (0, inf).

    Uses one of two tangent-line envelopes of the log-concave target: a
    truncated Gaussian (linearizing m log u at the mode) when the Gaussian
    curvature dominates, or a Gamma (linearizing -p u^2 at the mode) when the
    power term dominates.  Worst-case acceptance at the crossover is ~0.7.
    """
    if m < 0.0 or p <= 0.0:
        raise DomainError(f"need m >= 0 and p > 0, got m={m}, p={p}")
    if m == 0.0:
        return _sample_trunc_normal(rng, -q / (2.0 * p), 1.0 / math.sqrt(2.0 * p),
                                    max_rejects)
    x_star = (-q + math.sqrt(q * q + 8.0 * p * m)) / (4.0 * p)
    if m / (x_star * x_star) <= 2.0 * p:
        # Gaussian envelope centered at the mode
        sd = 1.0 / math.sqrt(2.0 * p)
        log_xs = math.log(x_star)
        for _ in range(max_rejects):
            x = _sample_trunc_normal(rng, x_star, sd, max_rejects)
            if math.log(rng.random()) <= m * (math.log(x) - log_xs - (x - x_star) / x_star):
                return x
        raise SamplerError("modified-half-normal rejection loop exceeded")
    rate = q + 2.0 * p * x_star
    for _ in range(max_rejects):
        x = rng.gamma(m + 1.0) / rate
        if math.log(rng.random()) <= -p * (x - x_star) ** 2:
            return x
    raise SamplerError("modified-half-normal rejection loop exceeded")


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(a, b) prior for the AP diversity gamma (rate parameterization)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise DomainError("Gamma prior needs a > 0 and b > 0")


def _u_conditional_power(n: int, k: int, rho: float, coarsen_mode: str) -> float:
    """Exponent of u in the tempered U | gamma conditional."""
    if coarsen_mode == "joint":
        return rho * (2 * n - k - 2)
    if coarsen_mode == "power_only":
        m = rho * 2 * n - k - 2
        if m <= -1.0:
            raise DomainError(
                f"power_only tempering gives a non-integrable u-exponent {m}")
        return m
    raise DomainError(f"unknown coarsen_mode {coarsen_mode!r}")


def gibbs_sweep(state: APAugmentedState, prior: GammaPrior, rng: np.random.Generator,
                coarsen_mode: str = "joint") -> APAugmentedState:
    """One systematic-scan update of (gamma, U) under the tempered joint."""
    n, k, rho = state.n, state.k, state.rho
    if n < 2:
        raise DomainError("the augmented sampler requires n >= 2")
    shape = prior.a + rho * (k - 1)
    rate = prior.b + rho * state.u / _SQRT2
    gamma = rng.gamma(shape) / rate
    m = _u_conditional_power(n, k, rho, coarsen_mode)
    u = sample_modified_half_normal(rng, m, 0.5 * rho, rho * gamma / _SQRT2)
    return replace(state, gamma=gamma, u=u)


def run_ap_gibbs(n: int, k: int, prior: GammaPrior, n_draws: int, burn_in: int,
                 rng_seed: int, rho: float = 1.0,
                 coarsen_mode: str = "joint") -> PosteriorDraws:
    """Convenience chain runner; returns the gamma draws after burn-in."""
    rng = np.random.default_rng(rng_seed)
    m0 = max(rho * (2 * n - k - 2), 1.0)
    state = APAugmentedState(gamma=prior.a / prior.b, u=math.sqrt(m0 / rho),
                             n=n, k=k, rho=rho)
    out = np.empty(n_draws)
    for i in range(burn_in + n_draws):
        state = gibbs_sweep(state, prior, rng, coarsen_mode)
        if i >= burn_in:
            out[i - burn_in] = state.gamma
    return PosteriorDraws(name="gamma", values=out, rho=rho, seed=rng_seed)


def _u_marginal_grid(n: int, k: int, prior: GammaPrior, rho: float) -> tuple:
    """Dense grid and CDF of the latent-U posterior marginal.

    The marginal obtained by integrating gamma out of the tempered joint is
    f(u) proportional to u^M e^{-rho u^2/2} (b + rho u / sqrt(2))^(-c) with
    M = rho (2n - k - 2) and c = a + rho (k - 1).  The density need not be
    log-concave, but every stationary point lies below sqrt(M/rho) and the
    right tail decays at least Gaussian-fast, so a grid from just below the
    leftmost mode to sqrt(M/rho) + 12/sqrt(rho) captures all the mass.
    """
    M = rho * (2 * n - k - 2)
    c = prior.a + rho * (k - 1)

    def dlog(u: float) -> float:
        return M / u - rho * u - c * rho / _SQRT2 / (prior.b + rho * u / _SQRT2)

    hi_bound = math.sqrt(M / rho) if M > 0 else 0.0
    if M > 0 and dlog(1e-12) > 0:
        lo_b, hi_b = 1e-12, hi_bound + 1.0
        for _ in range(200):
            mid = 0.5 * (lo_b + hi_b)
            if dlog(mid) > 0:
                lo_b = mid
            else:
                hi_b = mid
        mode = 0.5 * (lo_b + hi_b)
    else:
        mode = 0.0
    sd = 1.0 / math.sqrt(rho + (M / (mode * mode) if mode > 0 else 0.0))
    lo = max(0.0, mode - 12.0 * sd)
    hi = max(mode, hi_bound) + 12.0 / math.sqrt(rho)
    n_nodes = int(np.clip((hi - lo) / sd * 50.0, 16385, 262145))
    u = np.linspace(lo, hi, n_nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        logf = np.where(u > 0,
                        M * np.log(np.maximum(u, 1e-300)) - 0.5 * rho * u * u
                        - c * np.log(prior.b + rho * u / _SQRT2),
                        -np.inf)
    if u[0] == 0.0 and M == 0.0:
        logf[0] = -c * math.log(prior.b)
    return u, trapezoid_cdf(u, logf), c


def iid_two_step_sample(n: int, k: int, a_gamma: float, b_gamma: float,
                        n_draws: int, rng_seed: int, rho: float = 1.0) -> PosteriorDraws:
    """Exact iid posterior draws of gamma: U from its marginal, then gamma | U.

    The latent marginal is inverted from a dense quadrature grid of its CDF;
    gamma | U is Gamma(a + rho(k-1), b + rho U / sqrt(2)).
    """
    if n < 2:
        raise DomainError("iid two-step sampling requires n >= 2")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")
    prior = GammaPrior(a_gamma, b_gamma)
    grid, cdf, c = _u_marginal_grid(n, k, prior, rho)
    rng = np.random.default_rng(rng_seed)
    u = np.interp(rng.random(n_draws), cdf, grid)
    gamma = rng.gamma(c, size=n_draws) / (b_gamma + rho * u / _SQRT2)
    return PosteriorDraws(name="gamma", values=gamma, rho=rho, seed=rng_seed,
                          ess=float(n_draws))


def ap_predictive_sample(gamma: float, n: int, k: int, abundances: Sequence[int],
                         rng: np.random.Generator) -> Optional[int]:
    """One step of the AP urn via the latent-variable scheme.

    Returns None when a new taxon is discovered, otherwise the index of the
    reused taxon (selected with probability proportional to n_j - 1/2).
    The latent step draws U-tilde from a two-component modified-half-normal
    mixture and then the discovery indicator with odds sqrt(2) gamma u : u^2.
    """
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    abundances = np.asarray(abundances, dtype=float)
    if len(abundances) != k or abundances.sum() != n:
        raise DomainError("abundances inconsistent with (n, k)")
    t = gamma / _SQRT2
    p_new = gibbs._p_new(gibbs.AldousPitman(gamma), n, k)
    if n == 1:
        if rng.random() < p_new:
            return None
        return 0
    M = 2 * n - k - 2
    # the linear component's weight t h_nu / (t h_nu + |nu| h_{nu-1}), nu = k - 2n,
    # is t h_nu / h_{nu+1} by the three-term recurrence: the discovery probability
    m_comp = M + 1.0 if rng.random() < p_new else M + 2.0
    u = sample_modified_half_normal(rng, m_comp, 0.5, t)
    if rng.random() < t / (t + u):
        return None
    w = abundances - 0.5
    return int(rng.choice(k, p=w / w.sum()))


def py_prior_density(gamma, theta: float):
    """sigma = 1/2 Pitman-Yor prior density for gamma: gamma^2 ~ Gamma(theta + 1/2, 1/4)."""
    if theta <= -0.5:
        raise DomainError("theta must exceed -1/2")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0.0):
        raise DomainError("gamma must be positive")
    out = np.exp(-theta * math.log(4.0) - sps.gammaln(theta + 0.5)
                 + 2.0 * theta * np.log(gamma) - gamma * gamma / 4.0)
    return float(out) if out.ndim == 0 else out


def ig_prior_density(gamma, beta: float):
    """sigma = 1/2 normalized-inverse-Gaussian prior density for gamma."""
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0.0):
        raise DomainError("gamma must be positive")
    out = np.exp(beta - beta * beta / (gamma * gamma) - gamma * gamma / 4.0) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out
