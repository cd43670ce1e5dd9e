"""Posterior draw containers, effective-sample-size diagnostics, and the exact 1-D
sampler of both diversity posteriors: inverse CDF on the specfun._log_grid bracket
in x = log v, the bracket of every 1-D integral (specfun.log_grid_rule).

The sampler's 32,769-node grid is evaluated, and its CDF built, block by block
through specfun._blockwise: one call holds three grid-length arrays (nodes,
density, CDF) and O(specfun._BLOCK) temporaries, whatever the kernel."""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from .errors import DomainError
from .specfun import _blockwise, _log_grid

__all__ = ["PosteriorDraws", "autocorrelation", "effective_sample_size",
           "log_grid_sample", "quantiles", "summarize_draws"]

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


_GRID_NODES = 2 ** 15 + 1


def log_grid_sample(log_kernel: Callable[[np.ndarray], np.ndarray], n_draws: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Exact iid draws of v > 0, of log density log_kernel(v) up to a constant, by
    inverse CDF on the _log_grid of _GRID_NODES.  The CDF is the trapezoid rule, built
    in one array: the terms by _blockwise, then a cumulative sum and a normalisation
    in place."""
    if n_draws < 1:
        raise DomainError(f"n_draws must be >= 1, got {n_draws}")
    grid, f = _log_grid(log_kernel, _GRID_NODES)
    f -= f.max()
    np.exp(f, out=f)
    cdf = np.empty(_GRID_NODES)
    cdf[0] = 0.0
    _blockwise(lambda f0, f1, x0, x1: 0.5 * (f1 + f0) * (x1 - x0),
               cdf[1:], f[:-1], f[1:], grid[:-1], grid[1:])
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return np.exp(np.interp(rng.random(n_draws), cdf, grid))


def quantiles(values: np.ndarray, q) -> np.ndarray:
    """np.quantile(values, q) bit for bit (its default linear rule), without the
    numpy.ma import that np.quantile makes.  Sorted values x, virtual index
    v = (N - 1) q split into i = floor(v), clipped to [0, N - 1], and g = v - i;
    numpy's two-sided lerp gives a + (b - a) g, or b - (b - a)(1 - g) where g >= 0.5,
    for a = x[i] and b = x[min(i + 1, N - 1)]."""
    x = np.sort(values, axis=None)
    v = (x.size - 1) * np.asarray(q, dtype=float)
    i = np.clip(np.floor(v).astype(np.intp), 0, x.size - 1)
    a, b = x[i], x[np.minimum(i + 1, x.size - 1)]
    g = v - i
    d = b - a
    out = np.asarray(a + d * g)
    np.subtract(b, d * (1.0 - g), out=out, where=g >= 0.5)
    return out if out.ndim else out[()]


def summarize_draws(values: np.ndarray) -> Dict[str, float]:
    qs = quantiles(values, SUMMARY_QUANTILES)
    out = {"mean": float(np.mean(values))}
    out["quantiles"] = {f"{int(q * 100)}": float(v) for q, v in zip(SUMMARY_QUANTILES, qs)}
    return out


class PosteriorDraws:
    """Labeled posterior sample with the coarsening level it was drawn under.

    ess is the effective sample size: given by samplers of iid draws, else
    computed from the values on first read.
    """

    thin = 1  # no sampler thins its draws

    def __init__(self, name: str, values: np.ndarray, rho: float,
                 seed: Optional[int] = None, ess: Optional[float] = None):
        self.name = name
        self.values = np.asarray(values)
        self.rho = rho
        self.seed = seed
        self._ess = ess

    @property
    def ess(self) -> float:
        if self._ess is None:
            self._ess = effective_sample_size(self.values)
        return self._ess

    def summary(self) -> Dict[str, float]:
        return summarize_draws(self.values)

    def quantile(self, q) -> np.ndarray:
        return quantiles(self.values, q)
