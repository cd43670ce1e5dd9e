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
from typing import Optional, Sequence

import numpy as np

from . import gibbs, specfun
from .draws import PosteriorDraws, log_grid_sample
from .errors import DomainError, SamplerError, count, real

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
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # log Gamma(1/2)
_MAX_REJECTS = 10_000  # proposals of one rejection loop before SamplerError


class APWeights:
    """Constructive weights: residuals R_h = (g^2/2) / (g^2/2 + sum Y_j^2).

    weights[h] = R_h - R_{h+1} is the size of the (h+1)-th atom; tail_mass is
    the truncated remainder R_{H}.
    """

    __slots__ = ("residuals", "weights", "tail_mass")

    def __init__(self, residuals: np.ndarray, weights: np.ndarray, tail_mass: float):
        self.residuals = residuals
        self.weights = weights
        self.tail_mass = tail_mass


def ap_stick_sample(gamma: float, H_trunc: int, rng_seed: int) -> APWeights:
    gamma = real("gamma", gamma, 0.0)
    half_g2 = real("gamma^2 / 2", 0.5 * gamma * gamma)
    H_trunc = count("H_trunc", H_trunc)
    y2 = gibbs._rng(rng_seed).standard_normal(H_trunc) ** 2
    residuals = np.concatenate([[1.0], half_g2 / (half_g2 + np.cumsum(y2))])
    weights = residuals[:-1] - residuals[1:]
    return APWeights(residuals=residuals, weights=weights,
                     tail_mass=float(residuals[-1]))


class APAugmentedState:
    """Current (gamma, U) pair for the augmented sampler; (n, k) stay fixed."""

    __slots__ = ("gamma", "u", "n", "k", "rho")

    def __init__(self, gamma: float, u: float, n: int, k: int, rho: float = 1.0):
        if not 0.0 < rho <= 1.0:
            raise DomainError(f"rho must lie in (0, 1], got {rho}")
        self.gamma = real("gamma", gamma, 0.0)
        self.u = real("u", u, 0.0)
        self.k = count("k", k)
        self.n = count("n", n, self.k)
        self.rho = rho


def log_augmented_likelihood(state: APAugmentedState, abundances: Sequence[int]) -> float:
    """rho-tempered log joint of the partition and the latent U given gamma."""
    n, k = state.n, state.k
    if n < 2:
        raise DomainError("the augmented likelihood requires n >= 2")
    abundances = tuple(abundances)
    gibbs._check_abundances(abundances, n, k)
    u, g = state.u, state.gamma
    core = ((n - k / 2.0 - 0.5) * math.log(2.0)
            - specfun.gammaln(2 * n - k - 1)
            + (k - 1) * math.log(g / 2.0)
            + (2 * n - k - 2) * math.log(u)
            - 0.5 * u * u
            - g / _SQRT2 * u)
    # log (1/2)_{n_j - 1} = log Gamma(n_j - 1/2) - log Gamma(1/2)
    core += sum(specfun.gammaln(nj - 0.5) - _LOG_SQRT_PI for nj in abundances if nj > 1)
    return state.rho * core


def _sample_trunc_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    """Normal(mean, sd) conditioned on positivity."""
    if mean >= 0.0:
        for _ in range(_MAX_REJECTS):
            x = mean + sd * rng.standard_normal()
            if x > 0.0:
                return x
        raise SamplerError("truncated-normal rejection loop exceeded")
    # left-truncation far in the tail: exponential tilt (Robert 1995)
    beta = -mean / sd
    lam = 0.5 * (beta + math.sqrt(beta * beta + 4.0))
    for _ in range(_MAX_REJECTS):
        z = beta + rng.exponential() / lam
        if math.log(rng.random()) <= -0.5 * (z - lam) ** 2:
            return mean + sd * z
    raise SamplerError("truncated-normal rejection loop exceeded")


def sample_modified_half_normal(rng: np.random.Generator, m, p, q):
    """Exact draws from the density proportional to u^m e^{-p u^2 - q u} on (0, inf).

    Uses one of two tangent-line envelopes of the log-concave target: a
    truncated Gaussian (linearizing m log u at the mode) when the Gaussian
    curvature dominates, or a Gamma (linearizing -p u^2 at the mode) when the
    power term dominates.  Worst-case acceptance at the crossover is ~0.7.
    Scalars give one float; arrays (broadcast) give one draw per lane, by
    _sample_mhn_lanes.
    """
    if np.ndim(m) or np.ndim(p) or np.ndim(q):
        return _sample_mhn_lanes(rng, m, p, q)
    disc, four_p = q * q + 8.0 * p * m, 4.0 * p  # of the mode x*, below
    if not (0.0 <= m and 0.0 < p and disc + four_p < math.inf):  # NaN included
        raise DomainError(f"need m >= 0, p > 0 and finite q^2 + 8pm and 4p, "
                          f"got m={m}, p={p}, q={q}")
    if m == 0.0:
        return _sample_trunc_normal(rng, -q / (2.0 * p), 1.0 / math.sqrt(2.0 * p))
    x_star = (-q + math.sqrt(disc)) / four_p
    if q <= 0.0:  # x* solves 2p x*^2 + q x* = m, so this is m / x*^2 <= 2p
        # Gaussian envelope centered at the mode
        sd = 1.0 / math.sqrt(2.0 * p)
        log_xs = math.log(x_star)
        for _ in range(_MAX_REJECTS):
            x = _sample_trunc_normal(rng, x_star, sd)
            if math.log(rng.random()) <= m * (math.log(x) - log_xs - (x - x_star) / x_star):
                return x
        raise SamplerError("modified-half-normal rejection loop exceeded")
    rate = q + 2.0 * p * x_star
    for _ in range(_MAX_REJECTS):
        x = rng.gamma(m + 1.0) / rate
        if math.log(rng.random()) <= -p * (x - x_star) ** 2:
            return x
    raise SamplerError("modified-half-normal rejection loop exceeded")


def _sample_mhn_lanes(rng: np.random.Generator, m, p, q) -> np.ndarray:
    """sample_modified_half_normal lane by lane over the broadcast of m, p and q.

    Each lane's envelope is chosen once, by the scalar rule: the Gaussian one
    where q <= 0 (for m = 0 that is plain rejection of negative draws), the
    Gamma one where m > 0 < q, and Robert's exponential tilt where m = 0 < q.
    An envelope then draws all its pending lanes in one array proposal per
    round and keeps only the rejected lanes for the next; the log uniforms of
    the acceptance tests are negated standard exponentials.  A lone lane costs
    ~6x a scalar call in numpy overhead, so scalars keep the scalar loop.
    """
    zero = np.zeros(np.broadcast(m, p, q).shape)
    m, p, q = ((a + zero).ravel() for a in (m, p, q))
    with np.errstate(invalid="ignore", over="ignore"):  # in lanes refused just below
        disc, four_p = q * q + 8.0 * p * m, 4.0 * p
        finite = np.isfinite(disc + four_p)
    if not ((m >= 0.0) & (p > 0.0) & finite).all():
        raise DomainError("need m >= 0, p > 0 and finite q^2 + 8pm and 4p in every lane")
    x_star = (np.sqrt(disc) - q) / four_p
    gauss = q <= 0.0
    tail = ~gauss & (m == 0.0)
    out = np.empty(m.size)
    for lanes, envelope in ((gauss, _gauss_envelope), (~gauss & ~tail, _gamma_envelope),
                            (tail, _tail_envelope)):
        j = lanes.nonzero()[0]
        if not j.size:
            continue
        propose = envelope(rng, m[j], p[j], q[j], x_star[j])
        k = np.arange(j.size)  # the pending lanes, as indices into j
        for _ in range(_MAX_REJECTS):
            x, ok = propose(k)
            out[j[k[ok]]] = x[ok]
            k = k[~ok]
            if not k.size:
                break
        else:
            raise SamplerError("modified-half-normal rejection loop exceeded")
    return out.reshape(zero.shape)


def _gauss_envelope(rng, m, p, q, x_star):
    """Normal(x*, 1 / 2p) proposals with the tangent of m log u at x* (q <= 0)."""
    sd = 1.0 / np.sqrt(2.0 * p)
    ref = np.where(m > 0.0, x_star, 1.0)  # at m = 0 (x* may be 0) the log ratio is 0

    def propose(k):
        x = x_star[k] + sd[k] * rng.standard_normal(k.size)
        with np.errstate(divide="ignore", invalid="ignore"):  # x <= 0 is rejected
            log_ratio = m[k] * (np.log(x / ref[k]) - (x - ref[k]) / ref[k])
        return x, (x > 0.0) & (rng.standard_exponential(k.size) >= -log_ratio)

    return propose


def _gamma_envelope(rng, m, p, q, x_star):
    """Gamma(m + 1, q + 2p x*) proposals, the tangent of -p u^2 at x* (m > 0 < q)."""
    shape, rate = m + 1.0, q + 2.0 * p * x_star

    def propose(k):
        x = rng.standard_gamma(shape[k]) / rate[k]
        return x, rng.standard_exponential(k.size) >= p[k] * (x - x_star[k]) ** 2

    return propose


def _tail_envelope(rng, m, p, q, x_star):
    """Normal(-q / 2p, 1 / 2p) on u > 0 by Robert's exponential tilt (m = 0 < q)."""
    sd = 1.0 / np.sqrt(2.0 * p)
    beta = q * sd  # the truncation point in standard units
    lam = 0.5 * (beta + np.sqrt(beta * beta + 4.0))

    def propose(k):
        z = beta[k] + rng.standard_exponential(k.size) / lam[k]
        return (sd[k] * (z - beta[k]),
                rng.standard_exponential(k.size) >= 0.5 * (z - lam[k]) ** 2)

    return propose


class GammaPrior:
    """Gamma(a, b) prior for the AP diversity gamma (rate parameterization)."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = real("Gamma prior a", a, 0.0)
        self.b = real("Gamma prior b", b, 0.0)


def gibbs_sweep(state: APAugmentedState, prior: GammaPrior,
                rng: np.random.Generator) -> APAugmentedState:
    """One systematic-scan update of (gamma, U) under the tempered joint."""
    n, k, rho = state.n, state.k, state.rho
    if n < 2:
        raise DomainError("the augmented sampler requires n >= 2")
    shape = prior.a + rho * (k - 1)
    rate = prior.b + rho * state.u / _SQRT2
    gamma = rng.gamma(shape) / rate
    u = sample_modified_half_normal(rng, rho * (2 * n - k - 2), 0.5 * rho,
                                    rho * gamma / _SQRT2)
    return APAugmentedState(gamma, u, n, k, rho)


def run_ap_gibbs(n: int, k: int, prior: GammaPrior, n_draws: int, burn_in: int,
                 rng_seed: int, rho: float = 1.0) -> PosteriorDraws:
    """Convenience chain runner; returns the gamma draws after burn-in."""
    n_draws = count("n_draws", n_draws)
    burn_in = count("burn_in", burn_in, 0)
    state = APAugmentedState(gamma=prior.a / prior.b, u=1.0, n=n, k=k, rho=rho)
    # U starts at its mode's scale, read from the n, k and rho the state has checked
    state.u = math.sqrt(max(rho * (2 * state.n - state.k - 2), 1.0) / rho)
    rng = gibbs._rng(rng_seed)
    out = np.empty(n_draws)
    for i in range(burn_in + n_draws):
        state = gibbs_sweep(state, prior, rng)
        if i >= burn_in:
            out[i - burn_in] = state.gamma
    return PosteriorDraws(name="gamma", values=out, rho=rho, seed=rng_seed)


def iid_two_step_sample(n: int, k: int, a_gamma: float, b_gamma: float,
                        n_draws: int, rng_seed: int, rho: float = 1.0) -> PosteriorDraws:
    """Exact iid posterior draws of gamma: U from its marginal, then gamma | U.

    Integrating gamma out of the tempered joint leaves the U marginal
    u^M e^{-rho u^2/2} (b + rho u / sqrt(2))^(-c), M = rho (2n - k - 2) and
    c = a + rho (k - 1).  It is log-concave in x = log u (with beta = rho / sqrt(2),
    the second derivative is -2 rho u^2 - c b beta u / (b + beta u)^2 < 0), so
    draws.log_grid_sample draws it; gamma | U is Gamma(c, b + rho U / sqrt(2)).
    """
    k = count("k", k)
    n = count("n", n, max(k, 2))  # two-step sampling needs two observations
    GammaPrior(a_gamma, b_gamma)  # refuses a or b that is not finite and > 0
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    M = rho * (2 * n - k - 2)
    c = a_gamma + rho * (k - 1)

    def log_kernel(u: np.ndarray) -> np.ndarray:
        return M * np.log(u) - 0.5 * rho * u * u - c * np.log(b_gamma + rho * u / _SQRT2)

    rng = gibbs._rng(rng_seed)
    u = log_grid_sample(log_kernel, n_draws, rng)
    gamma = rng.gamma(c, size=u.size) / (b_gamma + rho * u / _SQRT2)
    return PosteriorDraws(name="gamma", values=gamma, rho=rho, seed=rng_seed,
                          ess=float(u.size))


def ap_predictive_sample(gamma: float, n: int, k: int, abundances: Sequence[int],
                         rng: np.random.Generator) -> Optional[int]:
    """One step of the AP urn via the latent-variable scheme.

    Returns None when a new taxon is discovered, otherwise the index of the
    reused taxon (selected with probability proportional to n_j - 1/2).
    The latent step draws U-tilde from a two-component modified-half-normal
    mixture and then the discovery indicator with odds sqrt(2) gamma u : u^2.
    """
    gibbs._check_abundances(abundances, n, k)
    abundances = np.asarray(abundances, dtype=float)
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


def _check_gamma_points(gamma) -> np.ndarray:
    """The points at which a prior density of gamma is read, as floats."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all((gamma > 0.0) & (gamma < math.inf)):  # NaN included
        raise DomainError("gamma must be finite and positive")
    return gamma


def py_prior_density(gamma, theta: float):
    """sigma = 1/2 Pitman-Yor prior density for gamma: gamma^2 ~ Gamma(theta + 1/2, 1/4).
    Past theta = 1e305 its normalizer, log Gamma(theta + 1/2), leaves the float range."""
    theta = real("theta", theta, -0.5, 1e305)
    gamma = _check_gamma_points(gamma)
    out = np.exp(-theta * math.log(4.0) - specfun.gammaln(theta + 0.5)
                 + 2.0 * theta * np.log(gamma) - gamma * gamma / 4.0)
    return float(out) if out.ndim == 0 else out


def ig_prior_density(gamma, beta: float):
    """sigma = 1/2 normalized-inverse-Gaussian prior density for gamma."""
    beta = real("beta", beta, 0.0)
    gamma = _check_gamma_points(gamma)
    out = np.exp(beta - beta * beta / (gamma * gamma) - gamma * gamma / 4.0) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out
