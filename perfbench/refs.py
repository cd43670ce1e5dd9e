"""Independent reference values for the benchmark's output checks.

Nothing here imports sigmadiv: every reference is computed from the model
definitions with numpy/scipy quadrature, closed forms or exact recursions,
so a faster but wrong program cannot pass by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize
import scipy.special as sps

QUARTILES = (0.25, 0.5, 0.75)


def _grid_moments(x: np.ndarray, logp: np.ndarray, value: np.ndarray,
                  qs=QUARTILES):
    """Mean, sd and quantiles of `value` under a density exp(logp) on grid x."""
    p = np.exp(logp - logp.max())
    w = np.concatenate([[0.0], 0.5 * (p[1:] + p[:-1]) * np.diff(x)])
    cdf = np.cumsum(w)
    z = cdf[-1]
    cdf /= z
    pv = p * value
    mean = float(np.trapezoid(pv, x) / z)
    var = float(np.trapezoid(p * (value - mean) ** 2, x) / z)
    quants = [float(np.interp(q, cdf, value)) for q in qs]
    return mean, math.sqrt(var), quants


def sg_log_kernel(alpha, a: float, b: float, n_ref: int, n: int, k: int, rho: float):
    """Log density (up to a constant) of alpha under SG(a, b, n_ref) times the
    rho-tempered DP likelihood alpha^k / (alpha)_n."""
    lr_n = sps.gammaln(alpha + n) - sps.gammaln(alpha)
    lr_ref = lr_n if n_ref == n else sps.gammaln(alpha + n_ref) - sps.gammaln(alpha)
    return (a + rho * k - 1.0) * np.log(alpha) - rho * lr_n - b * lr_ref


def dp_alpha_posterior(a, b, n_ref, n, k, rho, lo=1e-6, hi=1e7, nodes=200_001):
    """Log-grid quadrature of the coarsened SG posterior of alpha.

    Returns (x, logp, alpha) so callers can integrate other functionals."""
    x = np.linspace(math.log(lo), math.log(hi), nodes)
    alpha = np.exp(x)
    logp = sg_log_kernel(alpha, a, b, n_ref, n, k, rho) + x  # Jacobian of alpha = e^x
    keep = logp > logp.max() - 80.0
    idx = np.nonzero(keep)[0]
    x2 = np.linspace(x[max(idx[0] - 1, 0)], x[min(idx[-1] + 1, nodes - 1)], nodes)
    alpha2 = np.exp(x2)
    logp2 = sg_log_kernel(alpha2, a, b, n_ref, n, k, rho) + x2
    return x2, logp2, alpha2


def dp_alpha_summary(a, b, n_ref, n, k, rho):
    """(mean, sd, [q25, q50, q75]) of the coarsened alpha posterior."""
    x, logp, alpha = dp_alpha_posterior(a, b, n_ref, n, k, rho)
    return _grid_moments(x, logp, alpha)


def dp_richness_mean(a, b, n_ref, n, k, rho, n_hat, n_nodes=64):
    """E(K_N) = k + E[alpha (psi(alpha + N) - psi(alpha + n))] with
    N ~ Uniform(0.5, 1.5) N-hat, by Gauss-Legendre over N and the alpha grid."""
    x, logp, alpha = dp_alpha_posterior(a, b, n_ref, n, k, rho, nodes=20_001)
    u, w = np.polynomial.legendre.leggauss(n_nodes)
    N = np.maximum(n_hat * (1.0 + 0.5 * u), float(n))
    lam = alpha[:, None] * (sps.digamma(alpha[:, None] + N[None, :])
                            - sps.digamma(alpha[:, None] + n))
    e_new = lam @ (0.5 * w)
    mean, _, _ = _grid_moments(x, logp, e_new, qs=())
    return k + mean


def dp_calibration_point(a, b, n_ref, n, k, rho):
    """Mean and sd of k log alpha - log (alpha)_n under the rho posterior."""
    x, logp, alpha = dp_alpha_posterior(a, b, n_ref, n, k, rho)
    ll = k * np.log(alpha) - (sps.gammaln(alpha + n) - sps.gammaln(alpha))
    mean, sd, _ = _grid_moments(x, logp, ll, qs=())
    return mean, sd


def mle_alpha(n: int, k: int) -> float:
    """Root of alpha (psi(alpha + n) - psi(alpha)) = k."""
    f = lambda a: a * (sps.digamma(a + n) - sps.digamma(a)) - k  # noqa: E731
    return float(scipy.optimize.brentq(f, 1e-8, 1e12, xtol=1e-12, rtol=1e-15))


def dp_rarefaction(alpha: float, sizes: np.ndarray) -> np.ndarray:
    return alpha * (sps.digamma(alpha + sizes) - sps.digamma(alpha))


def dp_extrapolation(alpha: float, n: int, k: int, m: int) -> np.ndarray:
    i = np.arange(1, m + 1)
    return k + alpha * (sps.digamma(alpha + n + i) - sps.digamma(alpha + n))


def dp_freq_counts(alpha: float, n: int, r_max: int) -> np.ndarray:
    """E(M_{r,n}) under the DP: alpha/r C(n, r) (alpha)_{n-r} r! / (alpha)_n."""
    r = np.arange(1, r_max + 1, dtype=float)
    return np.exp(math.log(alpha) - np.log(r) + sps.gammaln(n + 1) - sps.gammaln(n - r + 1)
                  + sps.gammaln(alpha + n - r) - sps.gammaln(alpha + n))


def dp_kn_moments(alpha: float, n: int):
    """Mean and sd of K_n under the DP urn (sum of independent Bernoullis)."""
    p = alpha / (alpha + np.arange(n, dtype=float))
    return float(p.sum()), float(math.sqrt((p * (1.0 - p)).sum()))


def dm_rarefaction(s: float, H: int, sizes: np.ndarray) -> np.ndarray:
    """E(K_i) for a symmetric Dirichlet(s)-multinomial over H categories."""
    log_miss = (sps.gammaln(H * s - s + sizes) - sps.gammaln(H * s - s)
                - sps.gammaln(H * s + sizes) + sps.gammaln(H * s))
    return H * (1.0 - np.exp(log_miss))


def dm_freq_counts(s: float, H: int, n: int, r_max: int) -> np.ndarray:
    """E(M_{r,n}) = H P(BetaBinomial(n, s, (H-1)s) = r)."""
    r = np.arange(1, r_max + 1, dtype=float)
    log_p = (sps.gammaln(n + 1) - sps.gammaln(r + 1) - sps.gammaln(n - r + 1)
             + sps.betaln(r + s, n - r + (H - 1) * s) - sps.betaln(s, (H - 1) * s))
    return H * np.exp(log_p)


def classical_rarefaction(abundances, sizes: np.ndarray) -> np.ndarray:
    """Permutation-exact E(K_i) = sum_j 1 - C(n - n_j, i) / C(n, i)."""
    a = np.asarray(abundances, dtype=float)
    n = a.sum()
    out = np.empty(len(sizes))
    for idx, i in enumerate(sizes):
        with np.errstate(invalid="ignore"):
            log_miss = (sps.gammaln(n - a + 1) - sps.gammaln(n - a - i + 1)
                        - sps.gammaln(n + 1) + sps.gammaln(n - i + 1))
        miss = np.where(n - a >= i, np.exp(log_miss), 0.0)
        out[idx] = float(np.sum(1.0 - miss))
    return out


def ess(x: np.ndarray, max_lag: int = 200) -> float:
    """Effective sample size from the initial positive autocorrelation sequence."""
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    denom = float(d @ d)
    if denom == 0.0:
        return float(x.size)
    s = 0.0
    for lag in range(1, min(max_lag, x.size - 1)):
        r = float(d[:-lag] @ d[lag:]) / denom
        if r <= 0.0:
            break
        s += r
    return x.size / (1.0 + 2.0 * s)


# --- Aldous-Pitman (sigma = 1/2) ---------------------------------------------

def ap_hermite_ratios(t: float, deepest: int) -> np.ndarray:
    """q[j] = h_{nu+1}(t) / h_nu(t) for nu = -1 - j, j = 0..deepest-1.

    Climbs q_nu = t + |nu| / q_{nu-1} (the three-term recurrence
    h_{nu+1} = t h_nu - nu h_{nu-1} in ratio form, all terms positive) from
    an asymptotic seed twice as deep as needed; the seed error contracts
    geometrically on the way up.  The closure q_{-1} = 1 / h_{-1}(t) with
    h_{-1}(t) = sqrt(pi/2) erfcx(t / sqrt 2) is checked to 1e-9.
    """
    start = 2 * deepest + 4000
    q = 0.5 * (t + math.sqrt(t * t + 4.0 * start))
    out = np.empty(deepest)
    for a in range(start - 1, 0, -1):  # a = |nu|, nu = -a
        q = t + a / q
        if a <= deepest:
            out[a - 1] = q
    h_m1 = math.sqrt(math.pi / 2.0) * sps.erfcx(t / math.sqrt(2.0))
    closure = out[0] * h_m1
    if abs(closure - 1.0) > 1e-9:
        raise ArithmeticError(f"Hermite ratio recurrence closure off by {closure - 1.0:.3g}")
    return out


def ap_count_pmfs(gamma: float, n: int, k: int, m: int):
    """Exact pmfs of K_{n+i} - k given K_n = k, i = 0..m, under the AP urn.

    P(new | n, k) = t h_{k-2n}(t) / h_{k+1-2n}(t), t = gamma / sqrt 2.
    Yields (i, pmf) with pmf indexed by the number of new taxa."""
    t = gamma / math.sqrt(2.0)
    q = ap_hermite_ratios(t, 2 * (n + m) + 2)
    pmf = np.array([1.0])
    yield 0, pmf
    for i in range(m):
        nn = n + i
        if nn == 0:
            pmf = np.array([0.0, 1.0])
            yield i + 1, pmf
            continue
        kk = k + np.arange(pmf.size)
        nu = kk - 2 * nn  # P(new) = t / q_nu
        p_new = t / q[-nu - 1]
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] += pmf * (1.0 - p_new)
        nxt[1:] += pmf * p_new
        pmf = nxt
        yield i + 1, pmf


def ap_gamma_posterior(n: int, k: int, a: float, b: float, nodes: int = 801):
    """(mean, sd, quartiles) of gamma | (n, k) under a Gamma(a, b) prior and the
    untempered AP likelihood V_{n,k} propto gamma^(k-1) int u^M e^{-u^2/2 - gamma u / sqrt 2} du,
    M = 2n - k - 2, integrating u by a Laplace-centred trapezoid per gamma."""
    M = 2 * n - k - 2
    guess = k / math.sqrt(n)
    x = np.linspace(math.log(guess) - 0.5, math.log(guess) + 0.5, nodes)
    g = np.exp(x)
    c = g / math.sqrt(2.0)
    u_star = 0.5 * (-c + np.sqrt(c * c + 4.0 * M))
    sd = 1.0 / np.sqrt(1.0 + M / (u_star * u_star))
    z = np.linspace(-30.0, 30.0, 801)
    u = u_star[:, None] + sd[:, None] * z[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lf = np.where(u > 0, M * np.log(np.maximum(u, 1e-300)) - 0.5 * u * u - c[:, None] * u,
                      -np.inf)
    log_int = sps.logsumexp(lf, axis=1) + np.log(sd * (z[1] - z[0]))
    logp = (a - 1.0 + k - 1.0) * np.log(g) - b * g + log_int + x
    return _grid_moments(x, logp, g)
