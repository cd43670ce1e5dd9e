"""Log-space special functions underlying every partition likelihood.

Everything here returns plain floats (natural logs) or sign/log pairs, so
that partition statistics remain finite for sample sizes in the 1e5-1e6
range where raw factorial-type magnitudes overflow immediately.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np
import scipy.special as sps

from .errors import DomainError, TableSizeError

__all__ = [
    "LogValue",
    "CoefficientTable",
    "log_rising",
    "digamma",
    "log_binom",
    "log_hermite",
    "HERMITE_BLOCK",
    "hermite_ratio_block",
    "build_coefficients",
]

# 512-node Gauss-Legendre rule, shared by every log_hermite call.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(512)


_STIRLING_FROM = 1e3  # a above which log (a)_n uses the Stirling series


def log_rising(a, n: int):
    """log of the rising factorial (a)_n = a (a+1) ... (a+n-1), a > 0, elementwise.

    gammaln(a + n) - gammaln(a) cancels for a >> n (it is pure rounding noise
    once a + n == a in float), so above _STIRLING_FROM it is replaced by the
    difference of Stirling series,
    (a - 1/2) log1p(n/a) + n log(a + n) - n + S(a + n) - S(a)
    with S(z) = 1/(12 z) - 1/(360 z^3); there the only cancellation is of
    size n and the truncation error is below 1e-18.  A scalar a gives a float,
    an array a an array.
    """
    if n < 0:
        raise DomainError(f"log_rising requires n >= 0, got n={n}")
    if not isinstance(a, np.ndarray) and 0.0 < a <= _STIRLING_FROM:  # common scalar case
        return float(sps.gammaln(a + n) - sps.gammaln(a))
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise DomainError(f"log_rising requires a > 0, got a={a}")
    big = a > _STIRLING_FROM
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(big, a, _STIRLING_FROM)
        zn = z + n
        stirling = ((z - 0.5) * np.log1p(n / z) + n * np.log(zn) - n
                    + (1.0 / zn - 1.0 / z) / 12.0 - (zn ** -3 - z ** -3) / 360.0)
        small = np.where(big, 1.0, a)
        direct = sps.gammaln(small + n) - sps.gammaln(small)
    out = np.where(big, stirling, direct)
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Digamma function, restricted to positive arguments."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("digamma requires x > 0")
    out = sps.digamma(x)
    return float(out) if out.ndim == 0 else out


def log_binom(n: float, r: float) -> float:
    """log of the binomial coefficient C(n, r); -inf outside 0 <= r <= n."""
    if r < 0 or r > n:
        return -np.inf
    return float(sps.gammaln(n + 1) - sps.gammaln(r + 1) - sps.gammaln(n - r + 1))


def _hermite_integrand(order: float, t: float):
    """Quadrature nodes u, log-integrand log_f and half-width of the rule for h_order(t).

    The integrand u^m e^{-u^2/2 - t u}, m = -order - 1, is log-concave.  Its
    mode u* solves m/u - u - t = 0, and since the log-integrand has curvature
    <= -1 everywhere, the region where it exceeds (max - 60) lies within
    u* +/- sqrt(120); the exact endpoints are bisected and the 512-node rule
    is placed between them.
    """
    m = -order - 1.0

    if m > 0.0:
        u_star = 0.5 * (-t + np.sqrt(t * t + 4.0 * m))
        g_max = m * np.log(u_star) - 0.5 * u_star * u_star - t * u_star
    else:
        u_star = 0.0
        g_max = 0.0

    drop = 60.0  # integrand truncated where it falls e^-60 below its peak
    span = np.sqrt(2.0 * drop) + 1.0

    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0 if m == 0.0 else -np.inf
        return m * np.log(u) - 0.5 * u * u - t * u

    def bisect(lo: float, hi: float, below_on_low_side: bool) -> float:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (g(mid) - g_max < -drop) == below_on_low_side:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    hi = bisect(u_star, u_star + span, False)
    lo = 0.0 if u_star - span <= 0.0 else bisect(u_star - span, u_star, True)

    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = center + half * _GL_NODES
    return u, m * np.log(u) - 0.5 * u * u - t * u, half


def log_hermite(order: float, t: float) -> float:
    """log of the Hermite function of negative order.

    Evaluates h_nu(t) = Gamma(-nu)^{-1} * int_0^inf u^{-nu-1} e^{-u^2/2 - t u} du
    for nu < 0 and t > 0 by Gauss-Legendre quadrature of the log-concave
    integrand in log space, on the bracket of _hermite_integrand.  Relative
    accuracy is ~1e-12 for integer orders across |nu| up to at least 1e6
    (deep orders are further limited by the float spacing of log h itself,
    ~5e-10 at |nu| = 4e5).
    """
    if order >= 0.0:
        raise DomainError(f"log_hermite requires order < 0, got {order}")
    if t <= 0.0:
        raise DomainError(f"log_hermite requires t > 0, got t={t}")
    _, log_f, half = _hermite_integrand(order, t)
    log_integral = sps.logsumexp(log_f, b=_GL_WEIGHTS * half)
    return float(log_integral - sps.gammaln(-order))


HERMITE_BLOCK = 4096  # orders per block of the Hermite ratio table
_HERMITE_CACHE_BLOCKS = 512  # LRU bound: 2^21 orders, ~67 MB of Python floats

_hermite_blocks: "OrderedDict[Tuple[float, int], List[float]]" = OrderedDict()
_hermite_lock = threading.Lock()


def hermite_ratio_block(t: float, block: int) -> List[float]:
    """One block of the Hermite ratio table t h_nu(t) / h_{nu+1}(t), nu < 0.

    Entry i of block b is the ratio at order nu = -(b B + i + 1), B =
    HERMITE_BLOCK, so the blocks laid end to end index the table by -nu - 1.
    For the Aldous-Pitman model with t = gamma / sqrt(2) the ratio at
    nu = k - 2n is the probability of a new taxon after n draws and k taxa.

    In ratio form the three-term recurrence h_{nu+1} = t h_nu - nu h_{nu-1}
    reads q_nu = t + |nu| / q_{nu-1} with q_nu = h_{nu+1} / h_nu.  Both terms
    are positive, so climbing upward is stable (an error in q_{nu-1} reaches
    q_nu scaled by 1 - t / q_nu, between 0 and 1).  Each block is seeded at
    its own bottom order by one quadrature of the ratio and climbed to its
    top, so a value depends only on (t, order), never on which blocks were
    built before.  The returned list is shared with the cache: do not mutate
    it.  Blocks are kept in an LRU of at most _HERMITE_CACHE_BLOCKS.
    """
    if t <= 0.0 or block < 0:
        raise DomainError(f"hermite_ratio_block needs t > 0 and block >= 0, got {t}, {block}")
    key = (t, block)
    with _hermite_lock:
        ratios = _hermite_blocks.get(key)
        if ratios is not None:
            _hermite_blocks.move_to_end(key)
            return ratios
    B = HERMITE_BLOCK
    top = block * B + 1  # |nu| of entry 0
    ratios = [0.0] * B
    q = math.exp(_log_hermite_ratio(-(top + B - 1), t))
    ratios[B - 1] = t / q
    for i in range(B - 2, -1, -1):
        q = t + (top + i) / q
        ratios[i] = t / q
    with _hermite_lock:
        _hermite_blocks[key] = ratios
        _hermite_blocks.move_to_end(key)
        while len(_hermite_blocks) > _HERMITE_CACHE_BLOCKS:
            _hermite_blocks.popitem(last=False)
    return ratios


def _log_hermite_ratio(order: int, t: float) -> float:
    """log(h_{order+1}(t) / h_order(t)) for order <= -2, by one quadrature.

    The integrand of h_{order+1} is that of h_order divided by u, so both
    integrals share the nodes of h_order and their ratio is a weighted mean
    of 1/u; the large common factor cancels exactly, where the difference of
    two log_hermite values would keep the rounding of each (~5e-10 at
    |order| = 4e5).
    """
    u, log_f, _ = _hermite_integrand(order, t)
    w = _GL_WEIGHTS * np.exp(log_f - log_f.max())
    return math.log(float(np.dot(w, 1.0 / u)) / float(w.sum())) + math.log(-order - 1.0)


@dataclass(frozen=True)
class LogValue:
    """A real number stored as sign and log magnitude.

    sign == 0 encodes an exact zero, in which case log_magnitude is -inf.
    """

    log_magnitude: float
    sign: int

    @classmethod
    def from_float(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls(-np.inf, 0)
        return cls(float(np.log(abs(x))), 1 if x > 0 else -1)

    def value(self) -> float:
        return 0.0 if self.sign == 0 else self.sign * float(np.exp(self.log_magnitude))


_KINDS = ("gen_factorial", "stirling1", "noncentral_gen_factorial", "noncentral_stirling1")

# Rows are retained up to this index; larger rows are recomputed by rolling
# the recursion forward without retention ((n_max=1e4)^2/2 floats would not fit).
_RETAIN_ROWS = 4096


@dataclass
class CoefficientTable:
    """Triangular table of (non-central) generalized factorial coefficients.

    Entries are stored in the sigma-scaled form E(n, k) = C(n, k; sigma) / sigma^k
    (its sigma -> 0 limit is the signless Stirling number of the first kind),
    which is strictly positive for every sigma < 1, so only log magnitudes are
    kept.  The scaled entries obey the single forward recursion

        E(n+1, k) = (n + shift - sigma*k) * E(n, k) + E(n, k-1),   E(0, 0) = 1,

    with shift = 0 for the central kinds.  Row n holds k = 0..n; entry (1, 1)
    equals 1 for every kind.
    """

    kind: str
    sigma: float
    shift: float
    n_max: int
    _rows: list = field(default_factory=list, repr=False)
    _big_row: tuple = field(default=None, repr=False)  # (n, row) cache beyond retention
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def log_row(self, n: int) -> np.ndarray:
        """Log magnitudes of scaled entries (k = 0..n) of row n."""
        if n < 0:
            raise DomainError("row index must be >= 0")
        if n > self.n_max:
            raise TableSizeError(f"row {n} exceeds table cap n_max={self.n_max}")
        with self._lock:
            if n < len(self._rows):
                return self._rows[n]
            if n <= _RETAIN_ROWS:
                while len(self._rows) <= n:
                    self._rows.append(self._next_row(self._rows[-1], len(self._rows) - 1))
                return self._rows[n]
            if self._big_row is not None and self._big_row[0] == n:
                return self._big_row[1]
            while len(self._rows) <= _RETAIN_ROWS:
                self._rows.append(self._next_row(self._rows[-1], len(self._rows) - 1))
            row = self._rows[-1]
            for i in range(len(self._rows) - 1, n):
                row = self._next_row(row, i)
            self._big_row = (n, row)
            return row

    def log_value(self, n: int, k: int) -> LogValue:
        if k < 0 or k > n:
            return LogValue(-np.inf, 0)
        mag = float(self.log_row(n)[k])
        return LogValue(mag, 0 if mag == -np.inf else 1)

    def _next_row(self, row: np.ndarray, n: int) -> np.ndarray:
        k = np.arange(n + 2, dtype=float)
        coef = n + self.shift - self.sigma * k
        with np.errstate(divide="ignore"):
            log_coef = np.where(coef > 0.0, np.log(np.maximum(coef, 1e-300)), -np.inf)
        stay = np.concatenate([row, [-np.inf]]) + log_coef
        grow = np.concatenate([[-np.inf], row])
        return np.logaddexp(stay, grow)


def build_coefficients(kind: str, sigma: float = 0.0, shift: float = 0.0,
                       n_max: int = 10_000) -> CoefficientTable:
    """Build a coefficient table of the given kind (entries filled lazily).

    kinds: gen_factorial(sigma), stirling1, noncentral_gen_factorial(sigma, shift),
    noncentral_stirling1(shift).  The central kinds require shift == 0; the
    stirling kinds fix sigma = 0.  sigma may be any value < 1 except 0 for the
    gen_factorial kinds (negative sigma covers Dirichlet-multinomial laws).
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown coefficient kind {kind!r}")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if kind.endswith("stirling1"):
        sigma = 0.0
    elif sigma == 0.0 or sigma >= 1.0:
        raise DomainError(f"gen_factorial kinds need sigma < 1, sigma != 0; got {sigma}")
    if kind.startswith("noncentral"):
        if shift <= 0.0:
            raise DomainError("noncentral kinds need shift > 0")
    elif shift != 0.0:
        raise DomainError("central kinds take no shift")
    table = CoefficientTable(kind=kind, sigma=sigma, shift=shift, n_max=n_max)
    table._rows.append(np.array([0.0]))  # E(0, 0) = 1
    return table
