"""Gibbs-type weight families, partition likelihoods, urns and accumulation curves.

The three base models are Dirichlet-multinomial (discount sigma < 0, finite
richness H), Dirichlet process (sigma = 0, precision alpha) and Aldous-Pitman
(sigma = 1/2, square-root diversity gamma).  Everything downstream consumes
them through log_V(n, k), the log partition weights.  Every prior expectation
is exact: closed forms for DP and DM, and for AP one integral over the
size-biased pick (rarefaction, frequency counts, diversity indices) on the
log-grid rule of specfun.log_grid_rule.  The exact law of the distinct count
(prior_Kn_pmf at any n, posterior_Km_pmf) is one forward chain over the
discovery probability p_new(n, k) of _discovery_fn, which the urns read too.
Monte Carlo is left for AP's extrapolation from an observed state and the
long-horizon fallback of posterior_Km_pmf.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import specfun
from .datamodel import PartitionData, _positive_integers
from .errors import DomainError, count, real

__all__ = [
    "DirichletMultinomial",
    "DirichletProcess",
    "AldousPitman",
    "GibbsModel",
    "PredictiveSplit",
    "Curve",
    "DiversityIndices",
    "log_V",
    "log_eppf",
    "predictive",
    "urn_sample",
    "taxon_counts",
    "prior_Kn_pmf",
    "posterior_Km_pmf",
    "rarefaction",
    "extrapolation",
    "expected_freq_counts",
    "diversity_indices",
]


class DirichletMultinomial:
    """Finite model: at most H taxa, discount sigma < 0."""

    __slots__ = ("sigma", "H")

    def __init__(self, sigma: float, H: int):
        self.sigma = real("Dirichlet-multinomial sigma", sigma, high=0.0)
        self.H = count("H", H)

    def __repr__(self) -> str:  # the resolved_model of the config lines
        return f"DirichletMultinomial(sigma={self.sigma!r}, H={self.H!r})"

    @property
    def discount(self) -> float:
        return self.sigma


class DirichletProcess:
    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        self.alpha = real("Dirichlet process alpha", alpha, 0.0)

    def __repr__(self) -> str:
        return f"DirichletProcess(alpha={self.alpha!r})"

    @property
    def discount(self) -> float:
        return 0.0


class AldousPitman:
    __slots__ = ("gamma",)

    def __init__(self, gamma: float):
        self.gamma = real("Aldous-Pitman gamma", gamma, 0.0)

    def __repr__(self) -> str:
        return f"AldousPitman(gamma={self.gamma!r})"

    @property
    def discount(self) -> float:
        return 0.5


GibbsModel = Union[DirichletMultinomial, DirichletProcess, AldousPitman]


def _check_state(model: GibbsModel, n: int, k: int) -> Tuple[int, int]:
    """(n, k) as ints, if the model's paths of K reach that state."""
    k = count("k", k)
    n = count("n", n, k)
    if isinstance(model, DirichletMultinomial) and k > model.H:
        raise DomainError("k exceeds H")
    return n, k


def log_V(model: GibbsModel, n: int, k: int) -> float:
    """Log of the Gibbs partition weight V_{n,k}; -inf where the weight is 0."""
    k = count("k", k)
    n = count("n", n, k)
    if isinstance(model, DirichletProcess):
        if model.alpha > specfun.STIRLING_FROM:  # k log alpha - log (alpha)_n cancels
            return (k - n) * math.log(model.alpha) - specfun.log_rising_excess(model.alpha, n)
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


class PredictiveSplit:
    """One-step predictive law: discovery mass plus per-taxon reuse mass.

    reuse_weights[j] is the actual probability of re-drawing taxon j
    (proportional to n_j - sigma); p_new + reuse_weights.sum() = 1.
    """

    __slots__ = ("p_new", "reuse_weights")

    def __init__(self, p_new: float, reuse_weights: np.ndarray):
        self.p_new = p_new
        self.reuse_weights = reuse_weights


def _check_abundances(abundances: Sequence[int], n: int, k: int) -> None:
    """Refuse abundances unless they are k positive integers summing to n."""
    if len(abundances) != k or sum(abundances) != n:
        raise DomainError("abundances inconsistent with (n, k)")
    _positive_integers(abundances)


def predictive(model: GibbsModel, n: int, k: int,
               abundances: Sequence[int]) -> PredictiveSplit:
    n, k = _check_state(model, n, k)
    _check_abundances(abundances, n, k)
    abundances = np.asarray(abundances, dtype=float)
    # V_{n,k} = (n - sigma k) V_{n+1,k} + V_{n+1,k+1}, so the reuse scale
    # V_{n+1,k} / V_{n,k} is (1 - p_new) / (n - sigma k)
    p_new = _p_new(model, n, k)
    weights = (abundances - model.discount) * ((1.0 - p_new) / (n - model.discount * k))
    return PredictiveSplit(p_new=p_new, reuse_weights=weights)


def _discovery_fn(model: GibbsModel, n_max: int, n0: int = 1, k0: int = 1):
    """p_new(n, k), the discovery probability after n draws and k taxa, at the
    states n < n_max of paths of K from K_{n0} = k0 (by default, every state).

    DM and DP use their closed forms.  For AP, p_new(n, k) = t h_{k-2n}(t) /
    h_{k+1-2n}(t) is entry 2n - k - 1 of the Hermite ratio table.  A step adds
    2 to 2n and at most 1 to k, so the paths read entries from 2 n0 - k0 - 1 up
    to 2 n_max - 4; the closure reads them through one view of the table.  n and k
    may be integer arrays (DP's p_new reads n alone).
    """
    if isinstance(model, DirichletProcess):
        alpha = model.alpha
        return lambda n, k: alpha / (alpha + n)
    if isinstance(model, DirichletMultinomial):
        H, s = model.H, abs(model.sigma)
        return lambda n, k: (H - k) * s / (H * s + n)
    lowest = 2 * n0 - k0 - 1
    ratios = specfun.hermite_ratios(model.gamma / math.sqrt(2.0), lowest,
                                    max(2 * n_max - 3, lowest + 1))
    return lambda n, k: ratios[2 * n - 1 - lowest - k]


def _p_new(model: GibbsModel, n: int, k: int) -> float:
    """One discovery probability; loops build _discovery_fn once instead.  For AP it
    reads entry 2n - k - 1 of the Hermite ratio table alone."""
    if isinstance(model, AldousPitman):
        i = 2 * n - k - 1
        return float(specfun.hermite_ratios(model.gamma / math.sqrt(2.0), i, i + 1)[0])
    return float(_discovery_fn(model, n + 1)(n, k))


# Urn draws are processed in blocks of this many, so the temporaries of one
# urn stay below 1 MB at any n; only its flags and one int32 array are kept.
_URN_BLOCK = 1 << 13

# A path of K is thinned in windows of at most _PATH_WINDOW draws; the AP bound
# on p_new holds for _PATH_STRIDE discoveries, after which a new window starts.
# Below _PATH_SHORT draws the bound costs more (fixed numpy overhead) than the
# walk, so every draw of such a window is a candidate.
_PATH_WINDOW = 1 << 12
_PATH_STRIDE = 128
_PATH_SHORT = 32


def _path_flags(model: GibbsModel, n: int, k: int, u: np.ndarray, p_new=None) -> np.ndarray:
    """Discovery flags of one path of K from K_n = k (n >= 1): the draw after
    n + i observations reads uniform u[i] and discovers iff u[i] < p_new(n + i, K).

    DP's p_new does not depend on K, so its flags are one comparison per _URN_BLOCK
    draws.  DM and AP are thinned (Lewis & Shedler 1979).  Over a window of draws,
    one bound holds for p_new at every count the path reaches there: DM's p_new at
    the window's first count, since it falls as K grows; AP's at that count plus
    _PATH_STRIDE, since it rises (clamped to the path's first table entry, the
    largest it reads), and the window ends at the _PATH_STRIDE-th discovery.
    A draw with u[i] >= bound cannot discover; the others are walked in order
    with the exact p_new, so the flags are those of the draw-by-draw rule, bit
    for bit.  A caller that runs many paths from (n, k) passes p_new =
    _discovery_fn(model, n + len(u), n, k), built once.
    """
    m = len(u)
    if p_new is None:
        p_new = _discovery_fn(model, n + m, n, k)
    if isinstance(model, DirichletProcess):
        if m > _URN_BLOCK:
            return np.concatenate([_path_flags(model, n + lo, k, u[lo:lo + _URN_BLOCK], p_new)
                                   for lo in range(0, m, _URN_BLOCK)])
        return u < p_new(np.arange(n, n + m), k)
    ap = isinstance(model, AldousPitman)
    top = 2 * n - k  # at step s, count 2s - top reads the path's first AP table entry
    new = []  # the steps n + i that discover
    lo = 0
    while lo < m:
        hi = min(lo + _PATH_WINDOW, m)
        if hi - lo < _PATH_SHORT:
            candidates, values = range(n + lo, n + hi), u[lo:hi].tolist()
        else:
            steps = np.arange(n + lo, n + hi)
            bound = p_new(steps, np.minimum(k + _PATH_STRIDE, 2 * steps - top) if ap else k)
            picked = np.flatnonzero(u[lo:hi] < bound) + lo
            candidates, values = (picked + n).tolist(), u[picked].tolist()
        last = k + _PATH_STRIDE  # the count that ends the window
        for s, us in zip(candidates, values):
            if us < p_new(s, k):
                new.append(s)
                k += 1
                if k == last:
                    break
        lo = s - n + 1 if k == last else hi
    flags = np.zeros(m, dtype=bool)
    flags[np.array(new, dtype=np.int64) - n] = True
    return flags


def _discovery_flags(model: GibbsModel, u: np.ndarray, n: int = 0, k: int = 0,
                     p_new=None) -> np.ndarray:
    """flags[i]: draw n + i of one urn, with k taxa before it, discovers a new taxon,
    reading uniform u[i].  Draw 0 always discovers (u[0] is not read); the rest are
    one path of K from K_1 = 1, whose p_new a caller may pass (see _path_flags).
    """
    if n:
        return _path_flags(model, n, k, u, p_new)
    flags = np.ones(len(u), dtype=bool)
    flags[1:] = _path_flags(model, 1, 1, u[1:], p_new)
    return flags


def _urn_labels(flags: np.ndarray, sigma: float, rng: np.random.Generator,
                starts: np.ndarray) -> np.ndarray:
    """Taxon labels (int32) of urns laid end to end (urn u starts at starts[u]), given
    their flags; a label is the rank of the taxon's founder among all founders.

    A draw that reuses a taxon, with k taxa and m = i - k reusing draws before
    it in its urn, picks taxon j with weight n_j - sigma = (n_j - 1) + (1 - sigma):
    it copies the taxon of a uniform earlier reusing draw w.p. m / (m + (1 - sigma) k),
    and otherwise takes a uniform taxon of its urn.  Nodes 0..K-1 are the K taxa,
    each its own label, and the nodes after them the reusing draws in order, which
    take their labels _URN_BLOCK at a time: a copy reads a label already set, unless
    its source lies in its own block, and those chains are followed by pointer
    jumping.  The node array then becomes the label stream in place, front to back:
    with f(p) founders before draw p, a founder takes label f(p), and a reusing draw
    that of node K + p - f(p) >= p, so each block is gathered before it is written.
    Beside flags, only this one int32 array is held.
    """
    n_taxa = int(np.count_nonzero(flags))
    node = np.arange(flags.size, dtype=np.int32)
    # the reusing draws of the block from lo move to node n_taxa + lo - (founders
    # before lo) >= lo; back to front, no block reads a node that has moved
    end = flags.size
    for lo in reversed(range(0, flags.size, _URN_BLOCK)):
        reuse = node[lo:lo + _URN_BLOCK][~flags[lo:lo + _URN_BLOCK]]
        node[end - reuse.size:end] = reuse
        end -= reuse.size
    if starts.size > 1:  # the reusing draws and the founders of the urns before each:
        # nodes n_taxa.. now hold the reusing draws' positions, in order
        reuse_before = node[n_taxa:].searchsorted(starts.astype(np.int32))
        taxa_before = starts - reuse_before
    for lo in range(n_taxa, flags.size, _URN_BLOCK):
        reuse = node[lo:lo + _URN_BLOCK].astype(np.intp)
        g = np.arange(lo - n_taxa, lo - n_taxa + reuse.size)  # reusing draws before each
        k, m = reuse - g, g  # the founders up to each draw and the reusing draws before it
        first_taxon, first_node = 0, n_taxa
        if starts.size > 1:  # counted from the start of each draw's own urn
            urn = starts.searchsorted(reuse, "right") - 1
            first_taxon, first_reuse = taxa_before[urn], reuse_before[urn]
            k, m = k - first_taxon, g - first_reuse
            first_node = first_reuse + n_taxa
        v = rng.random((2, reuse.size))
        copy = v[0] * (m + (1.0 - sigma) * k) < m
        pick = (v[1] * np.where(copy, m, k)).astype(np.int64)  # v < 1, so pick < m or < k
        pick += np.where(copy, first_node, first_taxon)
        node[lo:lo + _URN_BLOCK] = pick
        while pick.max() >= n_taxa:  # a copy of a draw in this block: jump
            pick = node[pick]
            node[lo:lo + _URN_BLOCK] = pick
    founders = 0
    for lo in range(0, flags.size, _URN_BLOCK):
        new = flags[lo:lo + _URN_BLOCK]
        n_new = np.count_nonzero(new)
        first = n_taxa + lo - founders  # the node of the block's first reusing draw
        label = np.empty(new.size, dtype=np.int32)
        label[new] = np.arange(founders, founders + n_new)
        label[~new] = node[first:first + new.size - n_new]
        node[lo:lo + new.size] = label
        founders += n_new
    return node


def taxon_counts(labels: np.ndarray) -> np.ndarray:
    """counts[j]: the draws of taxon j in a label stream in discovery order (as
    np.bincount), counted _URN_BLOCK labels at a time, so no copy of the stream is made."""
    counts = np.zeros(int(labels.max()) + 1, dtype=np.int64)
    for lo in range(0, labels.size, _URN_BLOCK):
        np.add.at(counts, labels[lo:lo + _URN_BLOCK], 1)
    return counts


def _rng(seed: Union[int, np.random.Generator]) -> np.random.Generator:
    """A generator passed through, or a new one from a seed, a whole number >= 0."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(count("rng_seed", seed, 0))


def urn_sample(model: GibbsModel, n_steps: int,
               rng_seed: Union[int, np.random.Generator]) -> np.ndarray:
    """Draw a stream of n_steps taxon labels (int32, in discovery order).  The flags'
    uniforms are drawn _URN_BLOCK at a time, in the order of one draw of n_steps."""
    n_steps = count("n_steps", n_steps)
    if n_steps >= 2**31:
        raise DomainError(f"n_steps must be below 2**31, got {n_steps}")
    rng = _rng(rng_seed)
    p_new = _discovery_fn(model, n_steps)
    flags = np.empty(n_steps, dtype=bool)
    k = 0
    for lo in range(0, n_steps, _URN_BLOCK):
        block = flags[lo:lo + _URN_BLOCK]
        block[:] = _discovery_flags(model, rng.random(block.size), lo, k, p_new)
        k += np.count_nonzero(block)
    return _urn_labels(flags, model.discount, rng, np.zeros(1, dtype=np.int64))


def _k_law(model: GibbsModel, n: int, k: int, m: int) -> np.ndarray:
    """P(K_{n+m} - k = j | K_n = k) for j = 0..m, rolled forward from K_n = k: the draw
    after n + i observations moves mass pmf[j] p_new(n + i, k + j) from j to j + 1
    (Gnedin & Pitman 2006).  Each step is a convex combination, so the law stays
    normalised; only the band pmf[lo:hi] is stepped, and an end entry that falls
    below 1e-300 is set to 0 and leaves it."""
    p_new = _discovery_fn(model, n + m, n, k)
    counts = np.arange(k, k + m + 1)
    pmf = np.zeros(m + 1)
    pmf[0] = 1.0
    lo, hi = 0, 1
    for i in range(m):
        p = p_new(n + i, counts[lo:hi])
        moved = pmf[lo:hi] * p
        pmf[lo:hi] *= 1.0 - p
        pmf[lo + 1:hi + 1] += moved
        hi += 1
        while pmf[lo] < 1e-300:
            pmf[lo] = 0.0
            lo += 1
        while pmf[hi - 1] < 1e-300:
            hi -= 1
            pmf[hi] = 0.0
    return pmf


def prior_Kn_pmf(model: GibbsModel, n: int) -> np.ndarray:
    """P(K_n = k) for k = 1..n: the law of the new taxa among n - 1 draws after K_1 = 1."""
    return _k_law(model, 1, 1, count("n", n) - 1)


DEFAULT_TABLE_CAP = 10_000


def posterior_Km_pmf(model: GibbsModel, n: int, k: int, m: int,
                     table_cap: int = DEFAULT_TABLE_CAP,
                     mc_replicates: int = 20_000, rng_seed: int = 0) -> np.ndarray:
    """P(K^{(n)}_m = j | K_n = k) for j = 0..m, the law of newly discovered taxa.

    For m up to table_cap it is exact, the forward chain of _k_law.  A longer
    horizon is a Monte Carlo histogram of mc_replicates paths of K from K_n = k,
    seeded by rng_seed.  A state that no path reaches (k > H for DM) is a domain
    error.
    """
    n, k = _check_state(model, n, k)
    m = count("m", m)
    if m > count("table_cap", table_cap, 0):
        mc_replicates = count("mc_replicates", mc_replicates)
        rng = _rng(rng_seed)
        p_new = _discovery_fn(model, n + m, n, k)
        pmf = np.zeros(m + 1)
        for _ in range(mc_replicates):
            pmf[np.count_nonzero(_path_flags(model, n, k, rng.random(m), p_new))] += 1.0
        return pmf / pmf.sum()
    return _k_law(model, n, k, m)


class Curve:
    """Accumulation curve: expected distinct count values[i] at sample size sizes[i],
    with Monte Carlo standard errors se, or None where the values are exact."""

    __slots__ = ("sizes", "values", "se")

    def __init__(self, sizes: np.ndarray, values: np.ndarray, se: Optional[np.ndarray] = None):
        self.sizes = sizes
        self.values = values
        self.se = se


_CURVE_BLOCK = 256  # sizes per block of an AP rarefaction: a few MB of temporaries


def _ap_pick_rule(model: AldousPitman, log_g) -> Tuple[np.ndarray, np.ndarray]:
    """log(1 - P) at the nodes and the log terms t of a rule E g(P) ~ sum_i e^{t_i}, for
    the AP size-biased pick P = Y^2 / (c + Y^2), c = gamma^2 / 2, Y ~ N(0, 1), and
    log g = log_g(log P, log(1 - P)): specfun.log_grid_rule in x = log Y^2.  By Pitman's
    identity (2006, ch. 3), E sum_j f(P_j) = E f(P) / P over the prior weights P_j.
    log P = -log(1 + e^{-s}) and log(1 - P) = -log(1 + e^s), s = x - log c, do not cancel.
    """
    log_c = 2.0 * math.log(model.gamma) - math.log(2.0)

    def log_kernel(v):  # Y^2 = v has density v^{-1/2} e^{-v/2} / sqrt(2 pi)
        s = np.log(v) - log_c
        return (log_g(-np.logaddexp(0.0, -s), -np.logaddexp(0.0, s))
                - 0.5 * (np.log(v) + v + math.log(2.0 * math.pi)))

    x, t = specfun.log_grid_rule(log_kernel)
    return -np.logaddexp(0.0, x - log_c), t


def _ap_rarefaction(model: AldousPitman, sizes: np.ndarray) -> np.ndarray:
    """E(K_m) = E (1 - (1 - P)^m) / P at m in sizes, all on the rule of the largest size."""
    top = int(sizes.max(initial=1))
    lq, t = _ap_pick_rule(model, lambda lp, lq: np.log(-np.expm1(top * lq)) - lp)
    w = np.exp(t) / -np.expm1(top * lq)  # the rule's weight times density / P
    out = np.empty(sizes.shape)
    for lo in range(0, sizes.size, _CURVE_BLOCK):
        out[lo:lo + _CURVE_BLOCK] = -np.expm1(sizes[lo:lo + _CURVE_BLOCK, None] * lq) @ w
    return out


def _curve(model: GibbsModel, n: int, k: int, i: np.ndarray) -> np.ndarray:
    """E(K_{n+i} | K_n = k) at the sizes i >= 1 from the state (n, k), (0, 0) for AP:
    DP's k + specfun.discovery_mean, DM's k - (H - k) expm1(x) with, for c = n + Hs,
    x = log (c - s)_i - log (c)_i, and AP's size-biased integral _ap_rarefaction."""
    if isinstance(model, DirichletProcess):
        return k + specfun.discovery_mean(model.alpha, n, i)
    if isinstance(model, DirichletMultinomial):
        if model.H == 1:
            return np.ones(i.shape)
        if np.any(i[1:] < i[:-1]):  # _dm_curve reads ascending sizes
            order = np.argsort(i)
            out = np.empty(i.shape)
            out[order] = _curve(model, n, k, i[order])
            return out
        return _dm_curve(model, n, k, i)
    return _ap_rarefaction(model, i)


def _dm_curve(model: DirichletMultinomial, n: int, k: int, i: np.ndarray) -> np.ndarray:
    """The DM curve of _curve at ascending sizes i, with x = sum_{j<i} log1p(-s / (c + j))
    a running sum over j < max(i): no term of size c cancels, as a gammaln difference
    would (~1e-6 off at i = 1 for c ~ 2e4).  Its blocks of specfun._BLOCK terms each
    add the sum so far into their first term, so the sums are the floats of one
    np.cumsum, and each block reads them at the sizes it reaches."""
    s, H = abs(model.sigma), model.H
    c = n + H * s
    out = np.empty(i.shape)
    total, top = 0.0, int(i.max(initial=0))
    for lo in range(0, top, specfun._BLOCK):
        x = np.log1p(-s / (c + np.arange(lo, min(lo + specfun._BLOCK, top), dtype=float)))
        x[0] += total
        np.cumsum(x, out=x)
        total = x[-1]
        a, b = np.searchsorted(i, (lo + 1, lo + x.size + 1))  # lo < i <= lo + x.size
        out[a:b] = k - (H - k) * np.expm1(x[i[a:b] - 1 - lo])
    return out


def _check_sizes(sizes: Optional[Sequence[int]], n: int) -> np.ndarray:
    """Sample sizes as int64, 1..n by default: each a whole number in [1, n]."""
    if sizes is None:
        return np.arange(1, n + 1)
    given = np.asarray(sizes, dtype=float)
    if not np.all((given >= 1.0) & (given <= n) & (given == np.floor(given))):  # NaN included
        raise DomainError(f"sizes must be whole numbers in [1, {n}]")
    return given.astype(np.int64)


def rarefaction(model: GibbsModel, n: int, sizes: Optional[Sequence[int]] = None) -> Curve:
    """Expected accumulation curve E(K_i) at sample sizes i in `sizes` (default 1..n):
    the extrapolation from the empty sample.  Exact for every family."""
    sizes = _check_sizes(sizes, count("n", n))
    return Curve(sizes, _curve(model, 0, 0, sizes))


def extrapolation(model: GibbsModel, n: int, k: int, m: int, replicates: int = 1000,
                  rng_seed: int = 0) -> Curve:
    """Expected out-of-sample curve E(K_{n+1} | K_n = k), ..., E(K_{n+m} | K_n = k).

    Closed form for DM and DP; for AP the Monte Carlo mean, with its standard-error
    band, of `replicates` paths of K from K_n = k, seeded by rng_seed.
    """
    n, k = _check_state(model, n, k)
    m = count("m", m)
    i = np.arange(1, m + 1)
    if not isinstance(model, AldousPitman):
        return Curve(n + i, _curve(model, n, k, i))
    replicates = count("replicates", replicates)
    rng = _rng(rng_seed)
    p_new = _discovery_fn(model, n + m, n, k)
    acc = np.zeros(m)
    acc2 = np.zeros(m)
    for _ in range(replicates):
        ks = k + _path_flags(model, n, k, rng.random(m), p_new).cumsum()
        acc += ks
        acc2 += ks * ks
    mean = acc / replicates
    se = np.sqrt(np.maximum(acc2 / replicates - mean * mean, 0.0) / replicates)
    return Curve(n + i, mean, se)


def expected_freq_counts(model: GibbsModel, n: int, r_max: int) -> np.ndarray:
    """E(M_{r,n}) for r = 1..r_max: expected number of taxa seen exactly r times.

    Closed form for DP and DM.  For AP, C(n, r) E P^{r-1} (1 - P)^{n-r} over the
    size-biased pick P, on the rule of each r's integrand, with log C(n, r) a
    cumulative sum of logs (a gammaln difference is ~2e-10 off at n ~ 5e5)."""
    r_max = count("r_max", r_max)
    n = count("n", n, r_max)
    if isinstance(model, DirichletProcess):
        # E(M_r) = (alpha / r) prod_{j<r} (n - j) / (alpha + n - 1 - j): no term cancels,
        # and the running product stays below max(1, n / alpha).  It is taken in blocks,
        # each multiplying the product so far into its first factor: the products are
        # rounded in the order of one cumulative product
        a = model.alpha
        out = np.empty(r_max)
        product = 1.0
        for lo in range(0, r_max, specfun._BLOCK):
            j = np.arange(lo, min(lo + specfun._BLOCK, r_max), dtype=float)
            factors = (n - j) / (a + n - 1.0 - j)
            factors[0] *= product
            np.cumprod(factors, out=factors)
            product = factors[-1]
            out[lo:lo + j.size] = a / (j + 1.0) * factors
        return out
    j = np.arange(r_max, dtype=float)
    r = j + 1.0
    if isinstance(model, DirichletMultinomial):
        # a taxon's count is BetaBinomial(n, s, b), b = (H - 1) s, so E(M_r) is
        # H prod_{j<r} (n - j)(s + j) / ((j + 1)(Hs + n - 1 - j)) times
        # (b)_{n-r} / (Hs)_{n-r} = prod_{i<n-r} (1 - s / (Hs + i)).  With few taxa and a
        # large s the first factor overflows where the second underflows, so both are
        # summed as logs: the second as one pairwise sum over i < n - r_max (in blocks),
        # then a cumulative sum up to i < n - 1.
        s, H = abs(model.sigma), model.H
        if H == 1:
            return (r == n).astype(float)
        log_binomial = np.cumsum(np.log((n - j) * (s + j) / (r * (H * s + n - 1.0 - j))))
        base = specfun._blockwise_sum(lambda i: np.log1p(-s / (H * s + i)), 0, n - r_max)
        tail = np.log1p(-s / (H * s + np.arange(n - r_max, n - 1, dtype=float)))
        log_ratio = (base + np.concatenate(([0.0], np.cumsum(tail))))[::-1]
        return H * np.exp(log_binomial + log_ratio)
    out = np.empty(r_max)
    for r, log_binomial in enumerate(np.cumsum(np.log((n - j) / r)), start=1):
        _, t = _ap_pick_rule(model, lambda lp, lq, r=r: (r - 1) * lp + (n - r) * lq)
        out[r - 1] = math.exp(log_binomial + specfun.logsumexp(t, np.ones_like(t)))
    return out


class DiversityIndices:
    __slots__ = ("expected_simpson", "expected_shannon")

    def __init__(self, expected_simpson: float, expected_shannon: float):
        self.expected_simpson = expected_simpson
        self.expected_shannon = expected_shannon


def diversity_indices(model: GibbsModel) -> DiversityIndices:
    """Prior expectations of Simpson's index E(sum p_h^2) and Shannon's E(-sum p_h log p_h).

    Simpson's is the probability that the second draw repeats the first, and
    Shannon's is E(-log P) of the size-biased pick P (Pitman 2006, ch. 3).
    Closed forms for DP (P ~ Beta(1, alpha)) and DM (P ~ Beta(1 + s, (H - 1) s),
    s = |sigma|).  For AP, P = Y^2 / (gamma^2/2 + Y^2) with Y ~ N(0, 1); each
    index is one integral on the rule of _ap_pick_rule fitted to its integrand.
    """
    if isinstance(model, DirichletProcess):
        a = model.alpha
        return DiversityIndices(1.0 / (1.0 + a), specfun.digamma(a + 1.0) - specfun.digamma(1.0))
    if isinstance(model, DirichletMultinomial):
        s, H = abs(model.sigma), model.H
        return DiversityIndices((1.0 + s) / (1.0 + H * s),
                                specfun.digamma(H * s + 1.0) - specfun.digamma(s + 1.0))
    return DiversityIndices(*(float(np.exp(_ap_pick_rule(model, log_g)[1]).sum())
                              for log_g in (lambda lp, lq: lp, lambda lp, lq: np.log(-lp))))
