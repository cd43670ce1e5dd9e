"""Test-side oracles, kept independent of the library code paths they check."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
from scipy.special import gammaincc, gammaln, ndtri
from scipy.stats import betabinom

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def set_partitions(items):
    """All set partitions of a sequence (lists of lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def stirling1_by_cycles(n, k):
    """|s(n, k)| counted by enumerating permutations (n <= 7)."""
    count = 0
    for perm in permutations(range(n)):
        seen, cycles = set(), 0
        for start in range(n):
            if start in seen:
                continue
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
        if cycles == k:
            count += 1
    return count


def scaled_coeff_table_exact(sigma: Fraction, shift: Fraction, n_max: int):
    """Exact rational table of C(n, k; sigma) / sigma^k via the forward recursion.

    Independent oracle: rows[n][k] with rows[0] = [1]; the recursion constant
    is (n + shift - sigma k).
    """
    rows = [[Fraction(1)]]
    for n in range(n_max):
        prev = rows[-1]
        new = []
        for k in range(n + 2):
            stay = prev[k] * (n + shift - sigma * k) if k <= n else Fraction(0)
            grow = prev[k - 1] if 1 <= k <= n + 1 else Fraction(0)
            new.append(stay + grow)
        rows.append(new)
    return rows


def log_coeff_row(sigma: float, shift: float, n: int) -> np.ndarray:
    """Row n (k = 0..n) of log C(n, k; sigma) / sigma^k with shift `shift`, -inf at zeros.

    The recursion of scaled_coeff_table_exact run in float log space, one
    log-sum-exp per entry; shift 0 gives the central row.
    """
    row = np.array([0.0])
    for i in range(n):
        with np.errstate(divide="ignore"):
            log_c = np.log(np.maximum(i + shift - sigma * np.arange(i + 1), 0.0))
        row = np.logaddexp(np.append(row + log_c, -np.inf), np.insert(row, 0, -np.inf))
    return row


def noncentral_by_convolution(sigma: Fraction, shift: Fraction, m: int, j: int):
    """Binomial-convolution identity oracle for the scaled non-central coefficients:

    E_nc(m, j; sigma, c) = sum_l C(m, l) E(l, j; sigma) (c)_{m-l}
    with (c)_i the rising factorial.
    """
    central = scaled_coeff_table_exact(sigma, Fraction(0), m)

    def rising(c: Fraction, i: int) -> Fraction:
        out = Fraction(1)
        for t in range(i):
            out *= c + t
        return out

    total = Fraction(0)
    for ell in range(j, m + 1):
        total += comb(m, ell) * central[ell][j] * rising(shift, m - ell)
    return total


def k_law_40_digits(p_new, n: int, k: int, m: int) -> np.ndarray:
    """P(K_{n+m} - k = j | K_n = k), j = 0..m, by the forward chain in 40-digit decimal
    arithmetic on the float discovery probabilities p_new(n + i, k + j): each float
    enters exactly, every step is rounded to 40 digits, and no entry is dropped."""
    with localcontext() as ctx:
        ctx.prec = 40
        pmf = [Decimal(1)]
        for i in range(m):
            p = np.broadcast_to(p_new(n + i, np.arange(k, k + i + 1)), (i + 1,))
            moved = [mass * Decimal(float(q)) for mass, q in zip(pmf, p)]
            pmf = [mass - out for mass, out in zip(pmf, moved)] + [Decimal(0)]
            for j, out in enumerate(moved):
                pmf[j + 1] += out
        return np.array([float(mass) for mass in pmf])


def perm_average_rarefaction(abundances, i):
    """Exact permutation-averaged distinct count at subsample size i (Fractions)."""
    n = sum(abundances)
    k = len(abundances)
    total = Fraction(0)
    for nj in abundances:
        total += Fraction(comb(n - nj, i), comb(n, i))
    return k - total


def grid_quantiles_log_kernel(log_kernel, lo, hi, qs, nodes=200_001):
    """Quantiles of a 1-D density known up to a constant, on a log-spaced grid."""
    x = np.linspace(np.log(lo), np.log(hi), nodes)
    a = np.exp(x)
    logp = log_kernel(a) + x  # Jacobian
    p = np.exp(logp - logp.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(x))])
    cdf /= cdf[-1]
    return np.interp(qs, cdf, a)


def grid_mean_log_kernel(log_kernel, lo, hi, nodes=200_001):
    x = np.linspace(np.log(lo), np.log(hi), nodes)
    a = np.exp(x)
    logp = log_kernel(a) + x
    p = np.exp(logp - logp.max())
    z = trapezoid(p, x)
    return float(trapezoid(p * a, x) / z)


def hermite_log_upward(log_h_lo, log_h_lo_plus1, nu_lo, nu_target, t):
    """Climb h_{nu+1} = t h_nu - nu h_{nu-1} upward in log space.

    For nu < 0 both terms are positive, so the recursion is a pure
    log-sum-exp and numerically stable; seeds are the two lowest orders.
    """
    la, lb = log_h_lo, log_h_lo_plus1  # h_{nu_lo}, h_{nu_lo + 1}
    nu = nu_lo + 1
    while nu < nu_target:
        la, lb = lb, np.logaddexp(np.log(t) + lb, np.log(-nu) + la)
        nu += 1
    return lb


def dp_log_eppf(alpha, abundances):
    """Independent DP partition probability: alpha^k prod (n_j-1)! / (alpha)_n."""
    n = sum(abundances)
    k = len(abundances)
    out = k * np.log(alpha) - (gammaln(alpha + n) - gammaln(alpha))
    for nj in abundances:
        out += gammaln(nj)
    return out


def dm_freq_counts_beta_binomial(sigma: float, H: int, n: int, r_max: int) -> np.ndarray:
    """E(M_{r,n}) for r = 1..r_max under DM(sigma, H), H >= 2: each of the H taxa
    holds a BetaBinomial(n, |sigma|, (H - 1)|sigma|) count, by scipy's pmf."""
    s = abs(sigma)
    return H * betabinom.pmf(np.arange(1, r_max + 1), n, s, (H - 1) * s)


def poisson_quantile_walk(u: float, lam: float) -> int:
    """Smallest j >= 0 with P(X <= j) >= u for X ~ Poisson(lam), by walking scipy's
    CDF P(X <= j) = gammaincc(j + 1, lam) from the normal approximation."""
    j = max(int(round(lam + math.sqrt(lam) * ndtri(u))), 0)
    while gammaincc(j + 1, lam) < u:
        j += 1
    while j > 0 and gammaincc(j, lam) >= u:
        j -= 1
    return j
