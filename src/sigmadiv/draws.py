"""Posterior draw containers, effective-sample-size diagnostics, and the exact 1-D
sampler of both diversity posteriors: rejection in x = log v from a
piecewise-exponential envelope of the specfun._log_grid, the grid of every 1-D
integral (specfun.log_grid_rule).

The sampler holds that grid's 1,025 nodes and the envelope's pieces, and proposes
in rounds of _CHUNK draws, so its temporaries are O(_CHUNK) at any number of draws
and its draws depend on the seed alone."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import DomainError, count
from .specfun import _COARSE_NODES, _log_density, _log_grid

__all__ = ["PosteriorDraws", "autocorrelation", "effective_sample_size",
           "log_grid_sample", "quantiles", "summarize_draws"]

SUMMARY_QUANTILES = (0.01, 0.25, 0.50, 0.75, 0.99)


def autocorrelation(x: np.ndarray, lag: int) -> float:
    x = np.asarray(x, dtype=float)
    if count("lag", lag) >= x.size:
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
    lags = range(1, min(count("max_lag", max_lag, 0), n - 1))
    if lags:
        d = x - x.mean()  # centred and normed once for every lag, as in autocorrelation()
        denom = float(np.dot(d, d))
        for lag in lags:
            rho = float(np.dot(d[:-lag], d[lag:]) / denom) if denom else 0.0
            if rho <= 0.0:
                break
            s += rho
    return n / (1.0 + 2.0 * s)


_CHUNK = 1 << 13  # proposals per round of log_grid_sample, so the draws follow the seed alone
_SLOPE_NOISE = 1e-9  # rise of a chord slope, relative to the steepest, taken for rounding
_BELOW_ONE = 1.0 - 2.0 ** -53


class _Envelope:
    """Derivative-free adaptive-rejection hull (Gilks & Wild 1992; Gilks 1992) of a
    log-concave density known at equally spaced nodes x_i as log values f_i.

    With s_i the chord slope of cell [x_i, x_{i+1}], concavity puts the log density
    below the chords of cells i - 1 and i + 1, extended, on cell i, and above its own
    chord, the squeeze.  The two extended chords cross once in the cell, so the hull
    is two exponential pieces a cell (the end cells' outer piece is empty).  Past each
    end the end cell's chord, extended, is the hull and the squeeze is -inf.  Piece p
    is height_p + slope_p (x - anchor_p) in log, anchored at its higher end, and the
    hull less the squeeze on it is gap_p + gap_slope_p (x - anchor_p).  Log values are
    relative to top = max f_i."""

    __slots__ = ("top", "edges", "slope", "anchor", "height", "expm1", "base", "mass",
                 "cum", "flat", "gap", "gap_slope")

    def __init__(self, x: np.ndarray, f: np.ndarray):
        s = np.diff(f) / ((x[-1] - x[0]) / (x.size - 1))
        if not (np.isfinite(s).all() and s[0] > 0.0 > s[-1]
                and np.all(np.diff(s) <= _SLOPE_NOISE * np.abs(s).max())):
            raise DomainError("the density is not log-concave, or not positive, on its "
                              "grid in log v")
        self.top = float(f.max())
        f = f - self.top
        # where the chords of cells i - 1 and i + 1 cross, as a fraction of cell i (either
        # point where they coincide)
        cross = np.empty(s.size)
        cross[[0, -1]] = 0.0, 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            cross[1:-1] = np.fmin(np.fmax((s[1:-1] - s[2:]) / (s[:-2] - s[2:]), 0.0), 1.0)
        # pieces: the left tail, then the left and right piece of each cell, then the
        # right tail; each one's line passes through the node np.repeat(x, 2) names
        self.edges = np.empty(2 * x.size + 1)
        self.edges[[0, -1]] = -np.inf, np.inf
        self.edges[1:-1:2] = x
        self.edges[2:-1:2] = x[:-1] + cross * (x[1:] - x[:-1])
        lo, hi = self.edges[:-1], self.edges[1:]
        self.slope = b = np.empty(2 * x.size)
        b[:2], b[-2:] = s[0], s[-1]
        b[3:-1:2], b[2:-2:2] = s[:-1], s[1:]
        self.anchor = a = np.where(b > 0.0, hi, lo)
        self.height = g = np.repeat(f, 2) + b * (a - np.repeat(x, 2))
        width = hi - lo
        self.flat = b == 0.0
        with np.errstate(invalid="ignore"):
            self.expm1 = np.expm1(-np.abs(b) * width)
            mass = np.exp(g) * np.where(self.flat, width, -self.expm1 / np.abs(b))
        self.cum = np.cumsum(mass)
        self.base = np.empty(b.size)
        self.base[0] = 0.0
        self.base[1:] = self.cum[:-1]
        self.mass = self.cum - self.base  # keeps a piece's residual uniform in [0, 1]
        chord = np.repeat(s, 2)  # the squeeze's slope on each cell's two pieces
        self.gap = np.full(b.size, np.inf)
        self.gap[1:-1] = (g[1:-1] - np.repeat(f[:-1], 2)
                          - chord * (a[1:-1] - np.repeat(x[:-1], 2)))
        self.gap_slope = np.zeros(b.size)
        self.gap_slope[1:-1] = b[1:-1] - chord

    def _piece(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edges, x, side="right") - 1

    def upper(self, x: np.ndarray) -> np.ndarray:
        """The log hull at x."""
        p = self._piece(x)
        return self.height[p] + self.slope[p] * (x - self.anchor[p])

    def lower(self, x: np.ndarray) -> np.ndarray:
        """The log squeeze at x, as the sampler reads it: the hull less the gap."""
        p = self._piece(x)
        dx = x - self.anchor[p]
        return self.height[p] - self.gap[p] + (self.slope[p] - self.gap_slope[p]) * dx

    def propose(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Hull draws and their pieces from uniforms u in [0, 1): u picks a piece by its
        cumulative mass, and its residual inverts that piece's exponential."""
        t = u * self.cum[-1]
        p = np.searchsorted(self.cum[:-1], t, side="right")
        r = (t - self.base[p]) / self.mass[p]
        np.minimum(r, _BELOW_ONE, out=r)
        if not self.flat.any():
            return self.anchor[p] + np.log1p(r * self.expm1[p]) / self.slope[p], p
        with np.errstate(invalid="ignore"):  # 0 / 0 on the flat pieces, replaced below
            x = self.anchor[p] + np.log1p(r * self.expm1[p]) / self.slope[p]
        on = self.flat[p]
        lo, hi = self.edges[p[on]], self.edges[p[on] + 1]
        x[on] = lo + r[on] * (hi - lo)
        return x, p


def log_grid_sample(log_kernel: Callable[[np.ndarray], np.ndarray], n_draws: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Exact iid draws of v > 0, of log density log_kernel(v) up to a constant, by
    rejection in x = log v from the _Envelope of the _log_grid of _COARSE_NODES.

    A round proposes min(_CHUNK, draws still missing) points, two uniforms each: one
    places the point under the hull, the other, as an exponential E, accepts it when
    E clears the hull less the squeeze.  The rest evaluate the kernel, in one call a
    round, and are accepted when E clears the hull less the log density."""
    n_draws = count("n_draws", n_draws)
    env = _Envelope(*_log_grid(log_kernel, _COARSE_NODES))
    logf = _log_density(log_kernel)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        u = rng.random((2, min(_CHUNK, n_draws - done)))
        x, p = env.propose(u[0])
        e = -np.log1p(-u[1])
        dx = x - env.anchor[p]
        ok = e >= env.gap[p] + env.gap_slope[p] * dx
        test = np.flatnonzero(~ok)
        if test.size:
            hull = env.height[p[test]] + env.slope[p[test]] * dx[test]
            ok[test] = e[test] >= hull - (logf(x[test]) - env.top)
        x = x[ok]
        np.exp(x, out=out[done:done + x.size])
        done += x.size
    return out


def quantiles(values: np.ndarray, q) -> np.ndarray:
    """np.quantile(values, q) bit for bit (its default linear rule), without the
    numpy.ma import that np.quantile makes.  Sorted values x, virtual index
    v = (N - 1) q split into i = floor(v), clipped to [0, N - 1], and g = v - i;
    numpy's two-sided lerp gives a + (b - a) g, or b - (b - a)(1 - g) where g >= 0.5,
    for a = x[i] and b = x[min(i + 1, N - 1)]."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):  # NaN included
        raise DomainError("quantiles need q in [0, 1]")
    x = np.sort(values, axis=None)
    v = (x.size - 1) * q
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
