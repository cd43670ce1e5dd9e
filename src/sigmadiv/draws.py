"""Posterior draw containers, effective-sample-size diagnostics and emission."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["PosteriorDraws", "autocorrelation", "effective_sample_size",
           "summarize_draws", "trapezoid_cdf"]

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


def trapezoid_cdf(x: np.ndarray, logf: np.ndarray) -> np.ndarray:
    """Normalised trapezoid-rule CDF on the grid x of a density known as log f."""
    f = np.exp(logf - logf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))])
    return cdf / cdf[-1]


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
