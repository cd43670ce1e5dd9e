"""Frequentist point estimators and the classical rarefaction diagnostic."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from . import gibbs, specfun
from .datamodel import PartitionData
from .errors import NoFiniteSolutionError, count

__all__ = [
    "AlphaEstimate",
    "fisher_alpha",
    "mle_alpha",
    "classical_rarefaction",
    "sample_coverage",
]

_BRACKET_LO = 1e-8
_BRACKET_HI = 1e12


class AlphaEstimate:
    __slots__ = ("value", "method", "iterations", "residual")

    def __init__(self, value: float, method: str, iterations: int, residual: float):
        self.value = value
        self.method = method
        self.iterations = iterations
        self.residual = residual


def _solve_increasing(f, fprime, method: str) -> AlphaEstimate:
    """Root of a strictly increasing f on [1e-8, 1e12]: bisection then Newton polish."""
    lo, hi = _BRACKET_LO, _BRACKET_HI
    if f(lo) >= 0.0 or f(hi) <= 0.0:
        raise NoFiniteSolutionError("estimating equation has no root in [1e-8, 1e12]")
    iters = 0
    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        iters += 1
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = math.sqrt(lo * hi)
    for _ in range(5):
        iters += 1
        x = x - f(x) / fprime(x)
    return AlphaEstimate(value=float(x), method=method, iterations=iters,
                         residual=float(f(x)))


def _check_estimable(n: int, k: int) -> Tuple[int, int]:
    """(n, k) as ints, if the estimating equation has a finite root there."""
    k = count("k", k)
    n = count("n", n, k)
    if k == n:
        raise NoFiniteSolutionError(
            f"k = n = {n}: every observation distinct, the estimating equation "
            "has no finite root")
    return n, k


def fisher_alpha(n: int, k: int) -> AlphaEstimate:
    """Solve alpha * log(1 + n/alpha) = k for alpha."""
    n, k = _check_estimable(n, k)

    def f(a: float) -> float:
        return a * math.log1p(n / a) - k

    def fprime(a: float) -> float:
        return math.log1p(n / a) - n / (a + n)

    return _solve_increasing(f, fprime, "fisher")


def mle_alpha(n: int, k: int) -> AlphaEstimate:
    """Solve alpha * (psi(alpha + n) - psi(alpha)) = k, the DP likelihood equation."""
    n, k = _check_estimable(n, k)
    if k == 1:
        # the left side ranges over (1, n): a single distinct taxon pushes the
        # maximizer to the alpha -> 0 boundary
        raise NoFiniteSolutionError(
            f"k = 1 with n = {n}: the likelihood is maximized at the boundary alpha -> 0")

    def f(a: float) -> float:
        return a * (specfun.digamma(a + n) - specfun.digamma(a)) - k

    def fprime(a: float) -> float:
        return (specfun.digamma(a + n) - specfun.digamma(a)
                + a * (specfun.trigamma(a + n) - specfun.trigamma(a)))

    return _solve_increasing(f, fprime, "ml")


def classical_rarefaction(data: PartitionData,
                          sizes: Optional[Sequence[int]] = None) -> np.ndarray:
    """Permutation-averaged accumulation curve K-bar_i.

    K-bar_i = k - C(n,i)^{-1} sum_j C(n - n_j, i), evaluated through
    log-binomial ratios (each ratio <= 1, so the sum is done in linear space).
    With sizes=None the full curve i = 1..n is returned.
    """
    n, k = data.n, data.k
    sizes = gibbs._check_sizes(sizes, n)
    out = np.empty(sizes.shape, dtype=float)
    g = specfun.gammaln
    lgn = g(n + 1)
    top = n - np.array(data.abundances, dtype=float)
    lg_top = g(top + 1)
    for idx, i in enumerate(sizes.tolist()):
        log_denom = lgn - g(i + 1) - g(n - i + 1)
        ok = top >= i
        log_num = lg_top[ok] - g(top[ok] - i + 1) - g(i + 1)
        out[idx] = k - np.exp(log_num - log_denom).sum()
    return out


def sample_coverage(model: gibbs.GibbsModel, n: int, k: int) -> float:
    """Bayesian sample coverage 1 - p_new(n, k), the mass of seen taxa; DP's n / (alpha + n)
    and DM's (n + k s) / (n + H s) in closed form, where 1 - p_new would cancel."""
    n, k = gibbs._check_state(model, n, k)
    if isinstance(model, gibbs.DirichletProcess):
        return n / (model.alpha + n)
    if isinstance(model, gibbs.DirichletMultinomial):
        return (n + k * abs(model.sigma)) / (n + model.H * abs(model.sigma))
    return 1.0 - gibbs._p_new(model, n, k)
