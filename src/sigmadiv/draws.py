"""Posterior draw containers, effective-sample-size diagnostics, and the one exact
1-D sampler (log-grid inverse CDF) that both diversity posteriors draw from."""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from .errors import DomainError

__all__ = ["PosteriorDraws", "autocorrelation", "effective_sample_size",
           "log_grid_sample", "summarize_draws"]

SUMMARY_QUANTILES = (0.01, 0.25, 0.50, 0.75, 0.99)


def autocorrelation(x: np.ndarray, lag: int) -> float:
    x = np.asarray(x, dtype=float)
    if lag <= 0 or lag >= x.size:
        return 0.0
    d = x - x.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        return 0.0
    return float(np.dot(d[:-lag], d[lag:]) / denom)


def effective_sample_size(x: np.ndarray, max_lag: int = 200) -> float:
    """ESS from the initial positive sequence of autocorrelations."""
    x = np.asarray(x, dtype=float)
    n = x.size
    s = 0.0
    lags = range(1, min(max_lag, n - 1))
    if lags:
        d = x - x.mean()  # centred and normed once for every lag, as in autocorrelation()
        denom = float(np.dot(d, d))
        for lag in lags:
            rho = float(np.dot(d[:-lag], d[lag:]) / denom) if denom else 0.0
            if rho <= 0.0:
                break
            s += rho
    return n / (1.0 + 2.0 * s)


_COARSE_NODES = 1025
_GRID_NODES = 2 ** 15 + 1
_TAIL_DROP = 60.0  # bracket ends sit this far below the log-density peak
_X_LIMIT = 700.0  # |log v| beyond which exp over- or underflows


def log_grid_sample(log_kernel: Callable[[np.ndarray], np.ndarray], n_draws: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Exact iid draws of v > 0 by inverse CDF on a dense grid in x = log v.

    log_kernel(v) is the log density of v up to a constant.  The density of
    x, log_kernel(e^x) + x, must be log-concave (it is for every SG kernel of
    the DP's alpha and for the AP's latent U), so the peak of a coarse grid
    brackets the mode.  Each end of the bracket then steps outward, doubling
    the step, until the log density is _TAIL_DROP below the peak; heavy tails
    (a small branch decays only like e^{0.2 x} to the left) thus widen the grid
    instead of being cut off.  An end that reaches |x| = _X_LIMIT without that
    drop means the density is not integrable (an SG endpoint a/b = 1 or
    a/b = n_ref, k = n) or its tail is too heavy to sample in float range;
    that raises DomainError.  The CDF is the trapezoid rule on the grid.
    """
    def logf(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = log_kernel(np.exp(x)) + x  # Jacobian of v = e^x
        return np.where(np.isfinite(val), val, -np.inf)

    coarse = np.linspace(math.log(1e-8), math.log(1e12), _COARSE_NODES)
    fc = logf(coarse)
    i = int(np.argmax(fc))
    peak = float(fc[i])
    if peak == -np.inf:
        raise DomainError("the density is zero or not finite on [1e-8, 1e12]")
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
                    "the posterior is improper or too heavy-tailed to sample: its "
                    f"density does not fall {_TAIL_DROP:g} below the peak for log v "
                    f"within +-{_X_LIMIT:g}")
            x = float(np.clip(x + sign * d, -_X_LIMIT, _X_LIMIT))
            d *= 2.0
        ends.append(x)
    grid = np.linspace(ends[0], ends[1], _GRID_NODES)
    lf = logf(grid)
    f = np.exp(lf - lf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))])
    return np.exp(np.interp(rng.random(n_draws), cdf / cdf[-1], grid))


def summarize_draws(values: np.ndarray) -> Dict[str, float]:
    qs = np.quantile(values, SUMMARY_QUANTILES)
    out = {"mean": float(np.mean(values))}
    out["quantiles"] = {f"{int(q * 100)}": float(v) for q, v in zip(SUMMARY_QUANTILES, qs)}
    return out


class PosteriorDraws:
    """Labeled posterior sample with the coarsening level it was drawn under.

    ess is the effective sample size: given by samplers of iid draws, else
    computed from the values on first read.
    """

    def __init__(self, name: str, values: np.ndarray, rho: float,
                 seed: Optional[int] = None, thin: int = 1, ess: Optional[float] = None):
        self.name = name
        self.values = np.asarray(values)
        self.rho = rho
        self.seed = seed
        self.thin = thin
        self._ess = ess

    @property
    def ess(self) -> float:
        if self._ess is None:
            self._ess = effective_sample_size(self.values)
        return self._ess

    def summary(self) -> Dict[str, float]:
        return summarize_draws(self.values)

    def quantile(self, q) -> np.ndarray:
        return np.quantile(self.values, q)
