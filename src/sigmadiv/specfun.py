"""Log-space special functions underlying every partition likelihood.

Everything here returns plain floats (natural logs) or sign/log pairs, so
that partition statistics remain finite for sample sizes in the 1e5-1e6
range where raw factorial-type magnitudes overflow immediately.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "CoefficientTable",
    "gammaln",
    "digamma",
    "trigamma",
    "erfcx",
    "logsumexp",
    "log_rising",
    "log_rising_each",
    "log_rising_excess",
    "STIRLING_FROM",
    "log_hermite",
    "HERMITE_BLOCK",
    "hermite_ratio_block",
]

# Arguments below _SHIFT climb to z = x + m in [_SHIFT, _SHIFT + 1) by the recurrences
# Gamma(x + 1) = x Gamma(x), psi(x + 1) = psi(x) + 1/x, psi'(x + 1) = psi'(x) - 1/x^2,
# where the asymptotic series (A&S 6.1.40, 6.3.18, 6.4.12) hold to a few ulps.  A float
# runs the same float operations as an array entry, logs included (np.log), so the two
# agree bit for bit; only gammaln's float path differs (math.lgamma, for speed in loops).
_SHIFT = 8.0
_HALF_LOG_2PI_M1 = 0.5 * math.log(2.0 * math.pi) - 0.5
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)  # B_2j
_LOG_GAMMA_SERIES = tuple(b / (2 * j * (2 * j - 1)) for j, b in enumerate(_BERNOULLI, 1))
_DIGAMMA_SERIES = tuple(b / (2 * j) for j, b in enumerate(_BERNOULLI, 1))


def _horner(r2, coefs):
    """sum_j coefs[j] r2^j for a float or an array r2 (by Horner, in place on arrays)."""
    acc = coefs[-1] * r2
    acc += coefs[-2]
    for c in coefs[-3::-1]:
        acc *= r2
        acc += c
    return acc


def _climb(x: np.ndarray, op, term=None) -> Tuple[np.ndarray, np.ndarray]:
    """(z, r) for an array x: z = x + m, m >= 0 the least with x + m >= _SHIFT, and r the
    fold by op (np.add or np.multiply) of term(x + j) (x + j if term is None) over j < m,
    in order of j (op's identity where m = 0)."""
    low = x < _SHIFT
    if not low.any():
        return x, np.full_like(x, op.identity)
    xl = x if low.all() else x[low]
    acc = np.full_like(xl, op.identity)
    m = np.zeros_like(xl)
    for j in range(int(_SHIFT)):
        step = xl + j
        below = step < _SHIFT
        op(acc, step if term is None else term(step), out=acc, where=below)
        m += below
    if xl is x:
        return x + m, acc
    z, r = x.copy(), np.full_like(x, op.identity)
    z[low], r[low] = xl + m, acc
    return z, r


def _steps(x: float) -> List[float]:
    """The steps of _climb for a float: x, x + 1, ..., x + m - 1."""
    if x >= _SHIFT:
        return []
    return [x + j for j in range(int(_SHIFT)) if x + j < _SHIFT]


def _log_gamma(x):
    """log Gamma(x), x >= 0, of a float or an array by the Stirling series
    (z - 1/2)(log z - 1) + log(2 pi)/2 - 1/2 + sum_{j<=8} B_2j / (2j (2j-1) z^(2j-1))
    less log(x (x+1) ... (x+m-1)); within 1e-14 max(1, |log Gamma|) on [1e-6, 1e8]."""
    if isinstance(x, np.ndarray):
        z, prod = _climb(x, np.multiply)
        drop, log_z = np.log(prod), np.log(z)
    else:
        steps = _steps(x)
        z, drop = x + len(steps), (float(np.log(math.prod(steps))) if steps else 0.0)
        log_z = float(np.log(z))
    r = 1.0 / z
    out = log_z - 1.0  # (z - 1/2)(log z - 1) + log(2 pi)/2 - 1/2 + tail - drop, in place
    out *= z - 0.5
    out += _HALF_LOG_2PI_M1
    out += r * _horner(r * r, _LOG_GAMMA_SERIES)
    out -= drop
    return out


def gammaln(x):
    """log Gamma(x) for x >= 0 (+inf at 0), elementwise; a scalar gives a float.

    A scalar goes through math.lgamma (exact at 1 and 2), an array through the
    Stirling series of _log_gamma.
    """
    if not isinstance(x, np.ndarray):
        if x < 0.0:
            raise DomainError(f"gammaln requires x >= 0, got {x}")
        return math.lgamma(x) if x > 0.0 else math.inf
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("gammaln requires x >= 0")
    with np.errstate(divide="ignore"):
        out = _log_gamma(x)
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Digamma function psi(x) of a float or an array, restricted to x > 0.

    log z - 1/(2z) - sum_{j<=8} B_2j / (2j z^2j) less 1/x + ... + 1/(x+m-1);
    within 2e-15 max(1, |psi|) on [1e-6, 1e8].
    """
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise DomainError("digamma requires x > 0")
        z, shift = _climb(x, np.add, np.reciprocal)
        log_z = np.log(z)
    else:
        if not x > 0.0:
            raise DomainError("digamma requires x > 0")
        steps = _steps(x)
        z, shift = x + len(steps), sum(1.0 / v for v in steps)
        log_z = float(np.log(z))
    r2 = 1.0 / (z * z)
    out = log_z - 0.5 / z - r2 * _horner(r2, _DIGAMMA_SERIES) - shift
    return out if getattr(out, "ndim", 0) else float(out)


def trigamma(x):
    """Trigamma function psi'(x) of a float or an array, restricted to x > 0.

    1/z + 1/(2 z^2) + sum_{j<=8} B_2j / z^(2j+1) plus 1/x^2 + ... + 1/(x+m-1)^2;
    within 3e-15 relative on [1e-6, 1e8].
    """
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise DomainError("trigamma requires x > 0")
        z, shift = _climb(x, np.add, lambda v: 1.0 / (v * v))
    else:
        if not x > 0.0:
            raise DomainError("trigamma requires x > 0")
        steps = _steps(x)
        z, shift = x + len(steps), sum(1.0 / (v * v) for v in steps)
    r = 1.0 / z
    out = r * (1.0 + r * (0.5 + r * _horner(r * r, _BERNOULLI))) + shift
    return out if getattr(out, "ndim", 0) else float(out)


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for a scalar x >= 0.

    Below 26, where erfc is still a normal float, x^2 is split exactly as hi + lo
    (Dekker) so that e^{x^2} carries no rounding of x^2; above, the asymptotic
    series 1/(x sqrt(pi)) sum_j (-1)^j (2j-1)!! / (2x^2)^j.  Relative error ~1e-15.
    """
    if x < 0.0:
        raise DomainError(f"erfcx requires x >= 0, got {x}")
    if x < 26.0:
        hi = x * x
        c = 134217729.0 * x  # Veltkamp split: xh, xl of 26 bits, so their products are exact
        xh = c - (c - x)
        xl = x - xh
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        return math.exp(hi) * math.erfc(x) * (1.0 + lo)
    s, term, j, q = 1.0, 1.0, 1, 0.5 / (x * x)
    while abs(term) > 1e-17:
        term *= -(2 * j - 1) * q
        s += term
        j += 1
    return s / (x * math.sqrt(math.pi))


def logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """log sum_i b_i e^{a_i} for 1-D arrays a and b > 0.

    The largest term is taken out, as in log1p(rest / b_max) + log b_max + a_max.
    """
    i = int(np.argmax(a))
    top = float(a[i])
    w = b * np.exp(a - top)
    head = float(w[i])
    w[i] = 0.0
    return math.log1p(float(w.sum()) / head) + math.log(head) + top


STIRLING_FROM = 1e3  # a above which log (a)_n uses the Stirling series


def log_rising(a, n: int):
    """log of the rising factorial (a)_n = a (a+1) ... (a+n-1), a > 0, elementwise.

    gammaln(a + n) - gammaln(a) cancels for a >> n (it is pure rounding noise
    once a + n == a in float), so above STIRLING_FROM it is replaced by the
    difference of Stirling series,
    (a - 1/2) log1p(n/a) + n log(a + n) - n + S(a + n) - S(a)
    with S(z) = 1/(12 z) - 1/(360 z^3); there the only cancellation is of
    size n and the truncation error is below 1e-18.  A scalar a gives a float,
    an array a an array, and each entry of an array equals the scalar value bit
    for bit: below STIRLING_FROM both take _log_gamma, not math.lgamma.
    """
    if n < 0:
        raise DomainError(f"log_rising requires n >= 0, got n={n}")
    if np.ndim(a) == 0 and 0.0 < a <= STIRLING_FROM:  # common scalar case, 0-d arrays too
        a = float(a)
        return float(_log_gamma(a + n) - _log_gamma(a))
    out, = log_rising_each(a, (n,))
    return float(out) if out.ndim == 0 else out


def log_rising_each(a, ns: Sequence[int]) -> List[np.ndarray]:
    """[log (a)_n for n in ns] for an array a > 0, each bit for bit log_rising(a, n).

    The log Gamma(a) that every n below STIRLING_FROM subtracts is computed once.
    """
    if any(n < 0 for n in ns):
        raise DomainError(f"log_rising requires n >= 0, got n={ns}")
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise DomainError(f"log_rising requires a > 0, got a={a}")
    big = a > STIRLING_FROM
    small = ~big if big.any() else ...  # every entry, unless some are big
    z, a = a[big], a[small]
    log_gamma_a = _log_gamma(a) if a.size else a
    outs = []
    for n in ns:
        out = np.empty(big.shape)
        if z.size:
            zn = z + n
            out[big] = ((z - 0.5) * np.log1p(n / z) + n * np.log(zn) - n
                        + (1.0 / zn - 1.0 / z) / 12.0 - (zn ** -3 - z ** -3) / 360.0)
        if a.size:
            out[small] = _log_gamma(a + n) - log_gamma_a
        outs.append(out)
    return outs


def log_rising_excess(a: float, n: int) -> float:
    """log((a)_n / a^n) = sum_{j<n} log1p(j/a), for a scalar a > STIRLING_FROM.

    log_rising(a, n) - n log a cancels to the float spacing of n log a when a >> n.
    With x = n/a this is n g(x) + (n - 1/2) log1p(x) + S(a + n) - S(a), where
    g(x) = log1p(x)/x - 1 = -u + (1 - u) sum_{j>=1} u^{2j}/(2j+1), u = x/(2 + x)
    (the atanh series of log1p, free of cancellation; used for x <= 1).
    """
    if n < 2:
        return 0.0
    x = n / a
    if x > 1.0:
        g = math.log1p(x) / x - 1.0
    else:
        u = x / (2.0 + x)
        s, p, d = 0.0, u * u, 3.0
        while p > 1e-17 * d * s:  # add terms p/d until they no longer count
            s, p, d = s + p / d, p * u * u, d + 2.0
        g = -u + (1.0 - u) * s
    zn = a + n  # S(zn) - S(a) rounds to ~eps/a, against a result >= 1/a
    ds = (1.0 / zn - 1.0 / a) / 12.0 - (zn ** -3 - a ** -3) / 360.0
    return n * g + (n - 0.5) * math.log1p(x) + ds


HERMITE_BLOCK = 4096  # orders per block of the Hermite ratio table
_HERMITE_CACHE_BLOCKS = 512  # LRU bound: 2^21 orders, ~17 MB of float64

_hermite_blocks: "OrderedDict[Tuple[float, int], np.ndarray]" = OrderedDict()
_hermite_lock = threading.Lock()
_gauss_legendre = ()  # (nodes, weights) of the 512-node rule, built on first use


def _hermite_integrand(order: float, t: float):
    """Nodes u, log-integrand log_f, rule weights and half-width of the rule for h_order(t).

    The integrand u^m e^{-u^2/2 - t u}, m = -order - 1, is log-concave.  Its
    mode u* solves m/u - u - t = 0, and since the log-integrand has curvature
    <= -1 everywhere, the region where it exceeds (max - 60) lies within
    u* +/- sqrt(120); the exact endpoints are bisected and the 512-node
    Gauss-Legendre rule, shared by every call, is placed between them.
    """
    global _gauss_legendre
    if not _gauss_legendre:
        with _hermite_lock:
            if not _gauss_legendre:
                _gauss_legendre = np.polynomial.legendre.leggauss(512)
    nodes, weights = _gauss_legendre
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
    u = center + half * nodes
    return u, m * np.log(u) - 0.5 * u * u - t * u, weights, half


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
    _, log_f, weights, half = _hermite_integrand(order, t)
    return logsumexp(log_f, weights * half) - gammaln(-order)


def hermite_ratio_block(t: float, block: int) -> np.ndarray:
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
    built before.  The returned float64 array is shared with the cache, so it
    is read-only.  Blocks are kept in an LRU of at most _HERMITE_CACHE_BLOCKS.
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
    ratios = np.array(ratios)
    ratios.flags.writeable = False
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
    u, log_f, weights, _ = _hermite_integrand(order, t)
    w = weights * np.exp(log_f - log_f.max())
    return math.log(float(np.dot(w, 1.0 / u)) / float(w.sum())) + math.log(-order - 1.0)


@dataclass(frozen=True)
class CoefficientTable:
    """Rows of the sigma-scaled non-central generalized factorial coefficients.

    Entry (m, j) is E(m, j) = C(m, j; sigma, shift) / sigma^j (its sigma -> 0
    limit is the non-central signless Stirling number of the first kind),
    strictly positive for sigma < 1 and shift > 0, so only log magnitudes are
    kept.  The entries obey the forward recursion

        E(m+1, j) = (m + shift - sigma*j) * E(m, j) + E(m, j-1),   E(0, 0) = 1.

    With shift = n - sigma*k, row m weighs the new taxa among m draws after n
    draws and k taxa.  With shift = 1 - sigma, E(m, j) is the central
    coefficient at (m + 1, j + 1), whose row weighs K_{m+1} under the prior.
    """

    sigma: float
    shift: float

    def __post_init__(self):
        if not self.sigma < 1.0:
            raise DomainError(f"coefficient tables need sigma < 1, got {self.sigma}")
        if not self.shift > 0.0:
            raise DomainError(f"coefficient tables need shift > 0, got {self.shift}")

    def log_row(self, m: int) -> np.ndarray:
        """log E(m, j) for j = 0..m, rolled forward from row 0 in two row buffers."""
        if m < 0:
            raise DomainError("row index must be >= 0")
        row = np.full(m + 1, -np.inf)
        row[0] = 0.0
        nxt = row.copy()
        sigma_j = self.sigma * np.arange(m + 1, dtype=float)
        for i in range(m):  # row i (entries 0..i) -> row i + 1 in nxt
            log_coef = np.log(i + self.shift - sigma_j[:i + 1])
            nxt[0] = row[0] + log_coef[0]
            np.logaddexp(row[1:i + 1] + log_coef[1:], row[:i], out=nxt[1:i + 1])
            nxt[i + 1] = row[i]
            row, nxt = nxt, row
        return row
