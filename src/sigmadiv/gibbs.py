"""Gibbs-type weight families, partition likelihoods, urns and accumulation curves.

The three base models are Dirichlet-multinomial (discount sigma < 0, finite
richness H), Dirichlet process (sigma = 0, precision alpha) and Aldous-Pitman
(sigma = 1/2, square-root diversity gamma).  Everything downstream consumes
them through log_V(n, k), the log partition weights.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.special as sps

from . import specfun
from .datamodel import PartitionData
from .errors import DomainError, TableSizeError

__all__ = [
    "DirichletMultinomial",
    "DirichletProcess",
    "AldousPitman",
    "GibbsModel",
    "PredictiveSplit",
    "CurvePoint",
    "DiversityIndices",
    "log_V",
    "log_eppf",
    "predictive",
    "urn_sample",
    "prior_Kn_pmf",
    "posterior_Km_pmf",
    "rarefaction",
    "extrapolation",
    "expected_freq_counts",
    "diversity_indices",
]


@dataclass(frozen=True)
class DirichletMultinomial:
    """Finite model: at most H taxa, discount sigma < 0."""

    sigma: float
    H: int

    def __post_init__(self):
        if self.sigma >= 0.0:
            raise DomainError(f"Dirichlet-multinomial needs sigma < 0, got {self.sigma}")
        if self.H < 1:
            raise DomainError(f"H must be a positive integer, got {self.H}")

    @property
    def discount(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class DirichletProcess:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"Dirichlet process needs alpha > 0, got {self.alpha}")

    @property
    def discount(self) -> float:
        return 0.0


@dataclass(frozen=True)
class AldousPitman:
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise DomainError(f"Aldous-Pitman needs gamma > 0, got {self.gamma}")

    @property
    def discount(self) -> float:
        return 0.5


GibbsModel = Union[DirichletMultinomial, DirichletProcess, AldousPitman]


def _check_nk(n: int, k: int) -> None:
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got n={n}, k={k}")


def log_V(model: GibbsModel, n: int, k: int) -> float:
    """Log of the Gibbs partition weight V_{n,k}; -inf where the weight is 0."""
    _check_nk(n, k)
    if isinstance(model, DirichletProcess):
        return k * math.log(model.alpha) - specfun.log_rising(model.alpha, n)
    if isinstance(model, DirichletMultinomial):
        if k > model.H:
            return -np.inf
        s = abs(model.sigma)
        num = (k - 1) * math.log(s) + sum(math.log(model.H - j) for j in range(1, k))
        return num - specfun.log_rising(model.H * s + 1.0, n - 1)
    if isinstance(model, AldousPitman):
        # The Hermite-weight family evaluated so that the constructive process,
        # the sigma-stable PK integral and the K_n / sqrt(n) -> gamma limit all
        # agree; the Hermite argument is gamma / sqrt(2).
        if n == 1:  # k = 1; V_{1,1} = 1 via h_0
            return 0.0
        t = model.gamma / math.sqrt(2.0)
        return ((n - k / 2.0 - 0.5) * math.log(2.0)
                + (k - 1) * math.log(model.gamma / 2.0)
                + specfun.log_hermite(k + 1 - 2 * n, t))
    raise DomainError(f"unknown model {model!r}")


def log_eppf(model: GibbsModel, data: PartitionData) -> float:
    """Log partition probability: log V_{n,k} + sum_j log (1-sigma)_{n_j - 1}."""
    sigma = model.discount
    total = log_V(model, data.n, data.k)
    for r, m_r in data.freq_counts.items():
        if r > 1:
            total += m_r * specfun.log_rising(1.0 - sigma, r - 1)
    return total


@dataclass(frozen=True)
class PredictiveSplit:
    """One-step predictive law: discovery mass plus per-taxon reuse mass.

    reuse_weights[j] is the actual probability of re-drawing taxon j
    (proportional to n_j - sigma); p_new + reuse_weights.sum() = 1.
    """

    p_new: float
    reuse_weights: np.ndarray


def predictive(model: GibbsModel, n: int, k: int,
               abundances: Sequence[int]) -> PredictiveSplit:
    abundances = np.asarray(abundances, dtype=float)
    if len(abundances) != k or abundances.sum() != n:
        raise DomainError("abundances inconsistent with (n, k)")
    base = log_V(model, n, k)
    new = log_V(model, n + 1, k + 1) if k + 1 <= n + 1 else -np.inf
    p_new = float(np.exp(new - base))
    reuse_scale = float(np.exp(log_V(model, n + 1, k) - base))
    weights = (abundances - model.discount) * reuse_scale
    return PredictiveSplit(p_new=p_new, reuse_weights=weights)


def _discovery_fn(model: GibbsModel, n_max: int):
    """p_new(n, k), the discovery probability after n draws and k taxa (n >= 1).

    DM and DP use their closed forms.  For AP, p_new(n, k) = t h_{k-2n}(t) /
    h_{k+1-2n}(t) is entry 2n - k - 1 of the Hermite ratio table, read from a
    flat list the closure holds: orders reached by horizons n < n_max are
    loaded at once, deeper ones block by block as the caller goes there.
    """
    if isinstance(model, DirichletProcess):
        alpha = model.alpha
        return lambda n, k: alpha / (alpha + n)
    if isinstance(model, DirichletMultinomial):
        H, s = model.H, abs(model.sigma)
        return lambda n, k: (H - k) * s / (H * s + n) if k < H else 0.0
    t = model.gamma / math.sqrt(2.0)
    B = specfun.HERMITE_BLOCK
    ratios = specfun.hermite_ratio_block(t, 0)

    def grow(i: int) -> None:
        nonlocal ratios
        if len(ratios) <= i and len(ratios) == B:  # the cache's own block 0: copy, never mutate
            ratios = list(ratios)
        while len(ratios) <= i:
            ratios.extend(specfun.hermite_ratio_block(t, len(ratios) // B))

    def p_new(n: int, k: int) -> float:
        try:
            return ratios[2 * n - k - 1]
        except IndexError:
            grow(2 * n - k - 1)
            return ratios[2 * n - k - 1]

    grow(2 * n_max - 4)  # the deepest entry read at n < n_max (k >= 1)
    return p_new


def _p_new(model: GibbsModel, n: int, k: int) -> float:
    """One discovery probability; loops build _discovery_fn once instead."""
    return _discovery_fn(model, 0)(n, k)


def _ap_log_h_drop(t: float, top: int, count: int) -> np.ndarray:
    """log h_nu(t) - log h_top(t) for nu = top, top - 1, ..., top - count (top <= 0).

    Cumulative sums of the ratio table's log h_nu / h_{nu+1} = log(p_nu / t).
    """
    B = specfun.HERMITE_BLOCK
    first, last = -top // B, max(-top + count - 1, -top) // B
    table = np.concatenate([specfun.hermite_ratio_block(t, b) for b in range(first, last + 1)])
    p = table[-top - first * B:-top - first * B + count]
    return np.concatenate([[0.0], np.cumsum(np.log(p) - math.log(t))])


class _Urn:
    """Sequential sampler of taxon labels from the predictive law.

    Old-taxon selection with weight n_j - sigma is done in O(1) amortized:
    a uniformly chosen individual proposes its own taxon (mass n_j), and a
    sigma-dependent correction is applied by rejection (sigma > 0) or by an
    extra uniform-taxon mixture component (sigma < 0).
    """

    def __init__(self, model: GibbsModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self._p_new = _discovery_fn(model, 0)
        self.counts: List[int] = []
        self.individuals: List[int] = []
        self.n = 0

    @property
    def k(self) -> int:
        return len(self.counts)

    def step(self) -> int:
        model, rng = self.model, self.rng
        n, k = self.n, self.k
        if n == 0 or rng.random() < self._p_new(n, k):
            label = k
            self.counts.append(0)
        else:
            sigma = model.discount
            if sigma == 0.0:
                label = self.individuals[rng.integers(n)]
            elif sigma < 0.0:
                s = abs(sigma)
                if rng.random() < n / (n + k * s):
                    label = self.individuals[rng.integers(n)]
                else:
                    label = int(rng.integers(k))
            else:
                while True:  # accept individual's taxon w.p. (n_j - sigma)/n_j >= 1/2
                    label = self.individuals[rng.integers(n)]
                    if rng.random() < 1.0 - sigma / self.counts[label]:
                        break
        self.counts[label] += 1
        self.individuals.append(label)
        self.n += 1
        return label


def urn_sample(model: GibbsModel, n_steps: int, rng_seed: int) -> np.ndarray:
    """Draw a stream of n_steps taxon labels (ints in discovery order)."""
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    urn = _Urn(model, np.random.default_rng(rng_seed))
    return np.array([urn.step() for _ in range(n_steps)], dtype=np.int64)


# Central coefficient tables cached per (kind, sigma); readers share tables,
# construction is serialized.
_table_cache: Dict[Tuple, specfun.CoefficientTable] = {}
_table_lock = threading.Lock()

DEFAULT_TABLE_CAP = 10_000


def _coeff_table(sigma: float, shift: float, cap: int) -> specfun.CoefficientTable:
    if sigma == 0.0:
        kind = "noncentral_stirling1" if shift else "stirling1"
    else:
        kind = "noncentral_gen_factorial" if shift else "gen_factorial"
    if shift:  # keyed on the data through n - sigma*k, so a cache would only grow
        return specfun.build_coefficients(kind, sigma=sigma, shift=shift, n_max=cap)
    key = (kind, sigma)
    with _table_lock:
        table = _table_cache.get(key)
        if table is None or table.n_max < cap:
            table = specfun.build_coefficients(kind, sigma=sigma, n_max=cap)
            _table_cache[key] = table
    return table


def prior_Kn_pmf(model: GibbsModel, n: int, table_cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
    """P(K_n = k) for k = 1..n: V_{n,k} times the sigma-scaled factorial coefficient."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > table_cap:
        raise TableSizeError(f"n={n} exceeds table cap {table_cap}")
    row = _coeff_table(model.discount, 0.0, table_cap).log_row(n)[1:]
    if isinstance(model, AldousPitman):
        # orders k + 1 - 2n run from 1 - n (k = n) down: one anchor, then the ratio table
        t = model.gamma / math.sqrt(2.0)
        anchor = specfun.log_hermite(1 - n, t) if n > 1 else 0.0
        ks = np.arange(1, n + 1)
        logv = ((n - ks / 2.0 - 0.5) * math.log(2.0) + (ks - 1) * math.log(model.gamma / 2.0)
                + anchor + _ap_log_h_drop(t, 1 - n, n - 1)[::-1])
    else:
        logv = np.array([log_V(model, n, k) for k in range(1, n + 1)])
    return np.exp(logv + row)


def posterior_Km_pmf(model: GibbsModel, n: int, k: int, m: int,
                     table_cap: int = DEFAULT_TABLE_CAP,
                     mc_replicates: int = 20_000, rng_seed: int = 0) -> np.ndarray:
    """P(K^{(n)}_m = j | K_n = k) for j = 0..m, the law of newly discovered taxa.

    Exact via non-central coefficient tables for m within the table cap;
    horizons beyond the cap fall back to a Monte Carlo histogram of urn
    continuations.
    """
    _check_nk(n, k)
    if m < 1:
        raise DomainError("m must be >= 1")
    if m > table_cap:
        rng = np.random.default_rng(rng_seed)
        p_new = _discovery_fn(model, n + m)
        pmf = np.zeros(m + 1)
        for _ in range(mc_replicates):
            kk = k
            for i in range(m):
                if rng.random() < p_new(n + i, kk):
                    kk += 1
            pmf[kk - k] += 1.0
        return pmf / pmf.sum()
    sigma = model.discount
    shift = n - sigma * k
    row = _coeff_table(sigma, shift, table_cap).log_row(m)
    if isinstance(model, AldousPitman):
        # log V_{n+m,k+j} - log V_{n,k}: the order k + j + 1 - 2(n+m) sits 2m - j
        # below the base order k + 1 - 2n, so the Hermite part is a ratio-table sum
        j = np.arange(m + 1)
        t = model.gamma / math.sqrt(2.0)
        drop = _ap_log_h_drop(t, k + 1 - 2 * n, 2 * m)
        return np.exp((m - j / 2.0) * math.log(2.0) + j * math.log(model.gamma / 2.0)
                      + drop[2 * m - j] + row)
    base = log_V(model, n, k)
    logv = np.array([log_V(model, n + m, k + j) if k + j <= n + m else -np.inf
                     for j in range(m + 1)])
    return np.exp(logv - base + row)


@dataclass(frozen=True)
class CurvePoint:
    """(sample size, expected or observed distinct count) with optional MC band."""

    size: int
    value: float
    se: Optional[float] = None


def _dm_rarefaction(model: DirichletMultinomial, sizes: np.ndarray) -> np.ndarray:
    s = abs(model.sigma)
    H = model.H
    if H == 1:
        return np.ones_like(sizes, dtype=float)
    log_num = sps.gammaln(H * s - s + sizes) - sps.gammaln(H * s - s)
    log_den = sps.gammaln(H * s + sizes) - sps.gammaln(H * s)
    return -H * np.expm1(log_num - log_den)


def _mc_curve(model: GibbsModel, start_n: int, start_k: int, m: int,
              replicates: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error of K over m further urn steps."""
    p_new = _discovery_fn(model, start_n + m)
    acc = np.zeros(m)
    acc2 = np.zeros(m)
    for _ in range(replicates):
        k = start_k
        ks = np.empty(m)
        for i in range(m):
            if start_n + i == 0 or rng.random() < p_new(start_n + i, k):
                k += 1
            ks[i] = k
        acc += ks
        acc2 += ks * ks
    mean = acc / replicates
    var = np.maximum(acc2 / replicates - mean * mean, 0.0)
    return mean, np.sqrt(var / replicates)


def rarefaction(model: GibbsModel, n: int, replicates: int = 1000,
                rng_seed: int = 0) -> List[CurvePoint]:
    """Expected accumulation curve E(K_1), ..., E(K_n).

    Closed form for DM and DP; Monte Carlo (with standard-error band) for AP.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    sizes = np.arange(1, n + 1)
    if isinstance(model, DirichletProcess):
        vals = model.alpha * (sps.digamma(model.alpha + sizes) - sps.digamma(model.alpha))
        return [CurvePoint(int(i), float(v)) for i, v in zip(sizes, vals)]
    if isinstance(model, DirichletMultinomial):
        vals = _dm_rarefaction(model, sizes)
        return [CurvePoint(int(i), float(v)) for i, v in zip(sizes, vals)]
    mean, se = _mc_curve(model, 0, 0, n, replicates, np.random.default_rng(rng_seed))
    return [CurvePoint(int(i), float(v), float(s)) for i, v, s in zip(sizes, mean, se)]


def extrapolation(model: GibbsModel, n: int, k: int, m: int, replicates: int = 1000,
                  rng_seed: int = 0) -> List[CurvePoint]:
    """Expected out-of-sample curve E(K_{n+1} | K_n = k), ..., E(K_{n+m} | K_n = k)."""
    _check_nk(n, k)
    if m < 1:
        raise DomainError("m must be >= 1")
    sizes = np.arange(1, m + 1)
    if isinstance(model, DirichletProcess):
        vals = k + model.alpha * (sps.digamma(model.alpha + n + sizes)
                                  - sps.digamma(model.alpha + n))
        return [CurvePoint(int(n + i), float(v)) for i, v in zip(sizes, vals)]
    if isinstance(model, DirichletMultinomial):
        s = abs(model.sigma)
        if k > model.H:
            raise DomainError("k exceeds H")
        log_ratio = (sps.gammaln(n + model.H * s - s + sizes) - sps.gammaln(n + model.H * s - s)
                     - sps.gammaln(n + model.H * s + sizes) + sps.gammaln(n + model.H * s))
        vals = model.H - (model.H - k) * np.exp(log_ratio)
        return [CurvePoint(int(n + i), float(v)) for i, v in zip(sizes, vals)]
    mean, se = _mc_curve(model, n, k, m, replicates, np.random.default_rng(rng_seed))
    return [CurvePoint(int(n + i), float(v), float(s)) for i, v, s in zip(sizes, mean, se)]


def expected_freq_counts(model: GibbsModel, n: int, r_max: int, replicates: int = 1000,
                         rng_seed: int = 0) -> np.ndarray:
    """E(M_{r,n}) for r = 1..r_max: expected number of taxa seen exactly r times.

    Closed form for the DP; for other families the urn scheme is averaged
    over `replicates` simulated samples of size n.
    """
    if not 1 <= r_max <= n:
        raise DomainError("need 1 <= r_max <= n")
    if isinstance(model, DirichletProcess):
        a = model.alpha
        r = np.arange(1, r_max + 1, dtype=float)
        log_e = (math.log(a) + sps.gammaln(a + n - r) - sps.gammaln(a + n)
                 + sps.gammaln(n + 1) - sps.gammaln(n - r + 1) - np.log(r))
        return np.exp(log_e)
    rng = np.random.default_rng(rng_seed)
    acc = np.zeros(r_max)
    for _ in range(replicates):
        urn = _Urn(model, rng)
        for _ in range(n):
            urn.step()
        counts = np.bincount(np.minimum(np.array(urn.counts), r_max + 1), minlength=r_max + 2)
        acc += counts[1:r_max + 1]
    return acc / replicates


@dataclass(frozen=True)
class DiversityIndices:
    expected_simpson: float
    expected_shannon: float
    shannon_is_approximate: bool


def diversity_indices(model: GibbsModel, shannon_sample_size: int = 4000,
                      replicates: int = 200, rng_seed: int = 0) -> DiversityIndices:
    """Prior expectations of the Simpson and Shannon indices.

    Simpson is E(sum pi_h^2) = V_{2,1}, available in closed form for every
    family (the AP case reduces to a scaled erfcx evaluation).  Shannon is
    exact for the DP via size-biased weights; for the other families it is a
    Monte Carlo plug-in over simulated urns and flagged approximate.
    """
    if isinstance(model, DirichletProcess):
        a = model.alpha
        return DiversityIndices(1.0 / (1.0 + a),
                                float(sps.digamma(a + 1.0) - sps.digamma(1.0)),
                                False)
    if isinstance(model, DirichletMultinomial):
        simpson = 1.0 / (1.0 + model.H * abs(model.sigma))
    else:
        # E(e^{-gamma sqrt(V)}), V ~ Exp(1), equals 1 - gamma sqrt(pi)/2 erfcx(gamma/2)
        g = model.gamma
        simpson = float(1.0 - g * math.sqrt(math.pi) / 2.0 * sps.erfcx(g / 2.0))
    rng = np.random.default_rng(rng_seed)
    vals = np.empty(replicates)
    for rep in range(replicates):
        urn = _Urn(model, rng)
        for _ in range(shannon_sample_size):
            urn.step()
        p = np.array(urn.counts, dtype=float) / urn.n
        vals[rep] = -np.sum(p * np.log(p))
    return DiversityIndices(simpson, float(vals.mean()), True)
