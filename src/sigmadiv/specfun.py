"""Log-space special functions underlying every partition likelihood.

Everything here returns plain floats (natural logs) or sign/log pairs, so
that partition statistics remain finite for sample sizes in the 1e5-1e6
range where raw factorial-type magnitudes overflow immediately.

A long elementwise evaluation (discovery_mean and the fill of a _log_grid here,
the Poisson quantiles of dpinfer) runs through _blockwise in blocks of _BLOCK
entries into one preallocated output, so its temporaries stay O(_BLOCK) at any
length; every operation is elementwise, so the floats do not depend on the
block size.

Every 1-D integral of a log-concave kernel (the Hermite functions and their ratio
seeds here, the AP pick integrals in gibbs) is one trapezoid rule, log_grid_rule,
in x = log v on the grid of _log_grid; the log-grid sampler in draws draws from
that grid's envelope.  This module imports no other sigmadiv module but errors.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, count, real

__all__ = [
    "CoefficientTable",
    "gammaln",
    "digamma",
    "discovery_mean",
    "trigamma",
    "logsumexp",
    "gammainc_pq",
    "poisson_pmf",
    "normal_quantile",
    "log_rising",
    "log_rising_each",
    "log_rising_excess",
    "STIRLING_FROM",
    "log_grid_rule",
    "log_hermite",
    "HERMITE_BLOCK",
    "hermite_ratios",
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
        try:  # math.lgamma overflows past x ~ 2.6e305, where the array path gives inf
            return math.lgamma(x) if x > 0.0 else math.inf
        except OverflowError:
            return math.inf
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("gammaln requires x >= 0")
    with np.errstate(divide="ignore", over="ignore"):  # inf at 0 and past the float range
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


_BLOCK = 1 << 12  # entries per block of _blockwise: 32 KiB per float64 temporary


def _blockwise(fn, out: np.ndarray, *args: np.ndarray) -> np.ndarray:
    """out = fn(*args) for 1-D arrays args of out's length, evaluated on consecutive
    blocks of _BLOCK entries.  fn must act elementwise: then out does not depend on
    the block size, and fn's temporaries are O(_BLOCK) instead of O(len(out))."""
    for lo in range(0, out.size, _BLOCK):
        out[lo:lo + _BLOCK] = fn(*(a[lo:lo + _BLOCK] for a in args))
    return out


def _blockwise_sum(fn, lo: int, hi: int) -> float:
    """np.sum(fn(np.arange(lo, hi, dtype=float))) with fn evaluated on at most _BLOCK
    points at a time.  np.sum adds pairwise, halving a length above 128 at a
    multiple of 8; splitting by that rule down to _BLOCK >= 128 points and summing
    each part with np.sum forms the same partial sums, so the float is the same."""
    size = hi - lo
    if size <= _BLOCK:
        return float(np.sum(fn(np.arange(lo, hi, dtype=float))))
    half = size // 2 - size // 2 % 8
    return _blockwise_sum(fn, lo, lo + half) + _blockwise_sum(fn, lo + half, hi)


_COARSE_NODES = 1025  # nodes of the bracket search's coarse grid and of log_grid_rule
_TAIL_DROP = 60.0  # bracket ends sit this far below the log-density peak
_X_LIMIT = 700.0  # |log v| beyond which exp over- or underflows


def _log_density(log_kernel: Callable[[np.ndarray], np.ndarray]
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """x -> log_kernel(e^x) + x, the log density of x = log v, with -inf where that
    is not finite."""
    def logf(x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = log_kernel(np.exp(x)) + x  # Jacobian of v = e^x
        return np.where(np.isfinite(val), val, -np.inf)

    return logf


def _log_grid(log_kernel: Callable[[np.ndarray], np.ndarray],
              nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """A grid of `nodes` points in x = log v and, on it, the log density of x,
    log_kernel(e^x) + x.  That must be log-concave (as for every SG kernel of the
    DP's alpha, the AP's latent U, the AP pick integrands and the Hermite
    integrands), so the peak of a coarse grid brackets the mode.  Each end then
    steps outward, doubling the step, until the log density is _TAIL_DROP below
    the peak: heavy tails (like e^{0.2 x})
    widen the grid instead of being cut off.  An end that reaches |x| = _X_LIMIT
    first means the density is not integrable (an SG endpoint a/b = 1 or
    a/b = n_ref, k = n) or too heavy-tailed for float range: DomainError.
    """
    logf = _log_density(log_kernel)
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
            x = min(max(x + sign * d, -_X_LIMIT), _X_LIMIT)
            d *= 2.0
        ends.append(x)
    grid = np.linspace(ends[0], ends[1], nodes)
    return grid, _blockwise(logf, np.empty(nodes), grid)


def log_grid_rule(log_kernel: Callable[[np.ndarray], np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes x and log terms t of the trapezoid rule int e^{log_kernel(v)} dv ~ sum_i e^{t_i}
    on the _log_grid of _COARSE_NODES.  The spacing is (b - a) / (N - 1): a
    difference of two nodes would lose about 1e-12 at |x| ~ 50."""
    x, t = _log_grid(log_kernel, _COARSE_NODES)
    t += math.log((x[-1] - x[0]) / (_COARSE_NODES - 1))  # linspace keeps both ends exact
    t[[0, -1]] -= math.log(2.0)
    return x, t


_SERIES_FROM = 1e3  # alpha above which discovery_mean uses the digamma series


def discovery_mean(alpha, n, m):
    """alpha (psi(alpha + n + m) - psi(alpha + n)) = sum_{j<m} alpha / (alpha + n + j),
    elementwise over the broadcast of alpha, n and m: the DP's mean count of new taxa
    in m draws after n.  The digamma difference (at (alpha + n) + m) is rounding noise
    above _SERIES_FROM, 0 by alpha ~ 1e16, so there it takes psi(z) = log z - 1/(2z) -
    1/(12 z^2) + O(z^-4) and each difference of the series in closed form.  The
    result is filled by _blockwise, so its temporaries stay O(_BLOCK) at any length."""
    args = np.broadcast_arrays(np.asarray(alpha, dtype=float), n, m)
    out = np.empty(args[0].shape)
    _blockwise(_discovery_mean, out.reshape(-1), *(a.reshape(-1) for a in args))
    return out


def _discovery_mean(alpha: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """discovery_mean on 1-D arrays of one length."""
    big = alpha > _SERIES_FROM
    small = np.where(big, 1.0, alpha) + n
    out = digamma(small + m) - digamma(small)
    if big.any():
        zn = np.where(big, alpha, _SERIES_FROM) + n
        zN, q = zn + m, m / zn
        out = np.where(big, np.log1p(q) + q / zN * (0.5 + (1.0 / zn + 1.0 / zN) / 12.0), out)
    return alpha * out


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
    With x = n/a this is (n - 1/2) log1p(x) - a (x - log1p(x)) + S(a + n) - S(a),
    where x - log1p(x) comes from _log1pmx, free of cancellation.
    """
    if n < 2:
        return 0.0
    x = n / a
    zn = a + n  # S(zn) - S(a) rounds to ~eps/a, against a result >= 1/a
    ds = (1.0 / zn - 1.0 / a) / 12.0 - (zn ** -3 - a ** -3) / 360.0
    return -a * float(_log1pmx(np.array([x]))[0]) + (n - 0.5) * math.log1p(x) + ds


_EPS = float(np.finfo(float).eps)
_ATANH_SERIES = tuple(1.0 / (2 * j + 3) for j in range(18))  # sum_j v^2j / (2j + 3)


def _log1pmx(mu: np.ndarray) -> np.ndarray:
    """mu - log1p(mu) >= 0 for an array mu >= -1 (+inf at -1).

    Below |mu| = 1/2 the difference cancels, so there log1p(mu) = 2 atanh(v) with
    v = mu / (2 + mu), and mu - log1p(mu) = mu v - 2 v^3 sum_j v^2j / (2j + 3);
    |v| <= 1/3, so 18 terms reach the float spacing.
    """
    with np.errstate(divide="ignore"):
        out = mu - np.log1p(mu)
    small = np.abs(mu) < 0.5
    m = mu[small]
    v = m / (2.0 + m)
    v2 = v * v
    out[small] = m * v - 2.0 * v * v2 * _horner(v2, _ATANH_SERIES)
    return out


def _log_gamma_star(a: np.ndarray) -> np.ndarray:
    """log Gamma*(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2 for an array a > 0.

    At a >= _SHIFT it is the tail of the Stirling series, with no cancellation.
    """
    out = np.empty_like(a)
    big = a >= _SHIFT
    r = 1.0 / a[big]
    out[big] = r * _horner(r * r, _LOG_GAMMA_SERIES)
    s = a[~big]
    out[~big] = _log_gamma(s) - (s - 0.5) * np.log(s) + s - (_HALF_LOG_2PI_M1 + 0.5)
    return out


def _temme_rows() -> Tuple[Tuple[float, ...], ...]:
    """Taylor coefficients in eta of Temme's c_k(eta), k < 8, row k cut at 17 - 2k terms.

    With lambda - 1 = sum_p m_p eta^p (m_1 = 1; the series solves mu mu' = eta (1 + mu),
    the derivative of eta^2 / 2 = mu - log(1 + mu)), 1/(lambda - 1) = sum_n r_n eta^(n-1)
    and Gamma*(a) ~ sum_k g_k a^-k (the exponential of the Stirling series), DLMF 8.12.9-10
    give c_0 = 1/(lambda - 1) - 1/eta and c_k = c_{k-1}'/eta + (-1)^k g_k/(lambda - 1); the
    1/eta terms cancel, so coefficient n of c_k is (n + 2) times coefficient n + 2 of
    c_{k-1} plus (-1)^k g_k r_{n+1}.  For a > _TEMME_FROM and |eta| < 0.34 the dropped
    terms are below 1e-18 of the leading one.
    """
    terms, rows = 17, 8
    m = [0.0, 1.0]
    for p in range(2, terms + 2):
        s = sum((p + 1 - i) * m[i] * m[p + 1 - i] for i in range(2, p))
        m.append((m[p - 1] - s) / (p + 1))
    r = [1.0]
    for n in range(1, terms + 1):
        r.append(-sum(m[i + 1] * r[n - i] for i in range(1, n + 1)))
    s = [0.0] * rows  # log Gamma*(a) ~ sum_k s_k a^-k
    for j, c in enumerate(_LOG_GAMMA_SERIES, 1):
        if 2 * j - 1 < rows:
            s[2 * j - 1] = c
    g = [1.0]
    for n in range(1, rows):
        g.append(sum(k * s[k] * g[n - k] for k in range(1, n + 1)) / n)
    out = [r[1:terms + 1]]
    for k in range(1, rows):
        prev = out[-1]
        out.append([(n + 2) * prev[n + 2] + (-1) ** k * g[k] * r[n + 1]
                    for n in range(terms - 2 * k)])
    return tuple(tuple(row) for row in out)


_TEMME_FROM = 100.0  # a above which Q(a, x) near x = a comes from Temme's expansion ...
_TEMME_WIDTH = 0.3  # ... when |x - a| <= _TEMME_WIDTH a
_TEMME_ROWS = _temme_rows()
_GAMMA_TERMS = 2000  # bound on the terms of one series or continued fraction


def _erfc(x: np.ndarray) -> np.ndarray:
    """math.erfc of a 1-D array, one value at a time into a float64 array: an object
    array of the results would hold a Python float per entry."""
    return np.fromiter(map(math.erfc, x), float, x.size)


def _gamma_series_cf(a: np.ndarray, x: np.ndarray,
                     log_pre: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(P, Q) for arrays a, x > 0, given log_pre = log(x^a e^-x / Gamma(a)).

    For x < a + 1 the power series P = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a+1) ... (a+n)),
    and Q = 1 - P; otherwise Legendre's continued fraction Q = x^a e^-x / Gamma(a) /
    (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...))), by the modified
    Lentz method, and P = 1 - Q.  An entry's value is fixed once it converges, so it does
    not depend on the other entries: a series term below a quarter of eps times the sum
    is under half its float spacing, and so is every later one (the terms fall), so the
    sum no longer moves; a continued fraction is read at the first factor within 4 eps
    of 1 (its error floors at a float spacing, so a tighter test might never pass).  At
    most _GAMMA_TERMS terms; where gammainc_pq sends them (a <= _TEMME_FROM, or x far
    from a) no entry takes more than about 100.  Converged entries are dropped once
    they are half of those left.
    """
    out = np.empty_like(x)
    series = x < a + 1.0
    idx = np.flatnonzero(series)
    xs, den = x[idx], a[idx].copy()
    term = np.ones_like(xs)
    total = term.copy()
    for _ in range(_GAMMA_TERMS):
        den += 1.0
        term *= xs / den
        total += term
        live = term > 0.25 * _EPS * total
        n_live = np.count_nonzero(live)
        if 2 * n_live <= live.size:
            out[idx[~live]] = total[~live]
            idx, xs, den, term, total = idx[live], xs[live], den[live], term[live], total[live]
            if not n_live:
                break
    out[idx] = total

    idx = np.flatnonzero(~series)
    ac = a[idx]
    b = x[idx] + 1.0 - ac
    c = np.full_like(b, np.inf)  # the first convergent's c is b, so c_0 = inf
    d = 1.0 / b
    h = d.copy()
    live = np.ones(idx.size, dtype=bool)
    for i in range(1, _GAMMA_TERMS):
        if not idx.size:
            break
        an = -i * (i - ac)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        h *= step
        done = live & (np.abs(step - 1.0) <= 4.0 * _EPS)
        if done.any():
            out[idx[done]] = h[done]
            live &= ~done
            n_live = np.count_nonzero(live)
            if 2 * n_live <= live.size:
                idx, ac, b, c, d, h, live = (v[live] for v in (idx, ac, b, c, d, h, live))
    out[idx[live]] = h[live]
    direct = np.exp(log_pre) * out / np.where(series, a, 1.0)  # P of the series, Q of the fraction
    return np.where(series, direct, 1.0 - direct), np.where(series, 1.0 - direct, direct)


def _log_prefactor(a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """log(x^a e^-x / Gamma(a)) = -a phi + log(a / 2 pi) / 2 - log Gamma*(a), given
    phi = mu - log1p(mu), mu = (x - a)/a; a log x - x - log Gamma(a) would cancel to an
    error of ~eps a at large a."""
    return -a * phi + 0.5 * np.log(a / (2.0 * math.pi)) - _log_gamma_star(a)


def gammainc_pq(a, x):
    """(P, Q): the regularized lower and upper incomplete gamma functions, elementwise.

    P(a, x) = gamma(a, x) / Gamma(a) and Q(a, x) = Gamma(a, x) / Gamma(a) = 1 - P, for a > 0
    and x >= 0 (P(a, 0) = 0); scalars give floats.  Each method computes one of the two
    and takes the other as one minus it, so both keep their relative precision in their
    small tails (for a >= 1; below, Q is good to ~1e-16 absolute for x < a + 1).  Three
    methods, each where it needs few terms: the power series of P for x < a + 1,
    Legendre's continued fraction of Q above, and for a > 100 with |x - a| <= 0.3 a,
    where both need about sqrt(a) terms, Temme's uniform expansion (Temme 1979;
    DiDonato & Morris 1986) Q = erfc(y) / 2 + R and P = erfc(-y) / 2 - R,
    R = e^{-y^2} / sqrt(2 pi a) sum_k c_k(eta) a^-k, y = eta sqrt(a / 2),
    eta^2 / 2 = x/a - 1 - log(x/a), so the work per entry stays bounded for any a.  The
    prefactor x^a e^-x / Gamma(a) is e^{-a (mu - log1p(mu))} sqrt(a / 2 pi) / Gamma*(a)
    with mu = (x - a)/a, which does not cancel at large a.  Against 40-digit mpmath
    (a up to 1e8), the relative error is below 1e-13 down to 1e-300 and ~1e-15 where
    the value is above 1e-40.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not np.all((a > 0.0) & (x >= 0.0) & np.isfinite(a + x)):
        raise DomainError("gammainc_pq requires finite a > 0 and x >= 0")
    shape, a, x = a.shape, a.ravel(), x.ravel()
    p, q = np.zeros_like(x), np.ones_like(x)
    pos = np.flatnonzero(x > 0.0)
    a, x = a[pos], x[pos]
    mu = (x - a) / a
    phi = _log1pmx(mu)
    near = (a > _TEMME_FROM) & (np.abs(mu) <= _TEMME_WIDTH)
    far = ~near
    p[pos[far]], q[pos[far]] = _gamma_series_cf(a[far], x[far], _log_prefactor(a[far], phi[far]))
    if near.any():
        an, phi = a[near], phi[near]
        eta = np.copysign(np.sqrt(2.0 * phi), mu[near])
        r = 1.0 / an
        rem = _horner(eta, _TEMME_ROWS[-1])
        for row in _TEMME_ROWS[-2::-1]:
            rem *= r
            rem += _horner(eta, row)
        rem *= np.exp(-an * phi) / np.sqrt(2.0 * math.pi * an)  # R
        upper = eta >= 0.0  # x >= a: Q is the smaller, so compute it; else P
        small = 0.5 * _erfc(np.abs(eta) * np.sqrt(0.5 * an))
        small += np.where(upper, rem, -rem)
        at = pos[near]
        p[at] = np.where(upper, 1.0 - small, small)
        q[at] = np.where(upper, small, 1.0 - small)
    p, q = p.reshape(shape), q.reshape(shape)
    return (float(p), float(q)) if p.ndim == 0 else (p, q)


def poisson_pmf(k, lam):
    """P(X = k) = lam^k e^-lam / k! for X ~ Poisson(lam), elementwise, k >= 0, lam >= 0.

    For k >= 1 it is the prefactor of gammainc_pq over k, so Q(k + 1, lam) =
    Q(k, lam) + poisson_pmf(k, lam), and it keeps full precision at lam ~ 1e11.
    """
    k, lam = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(lam, dtype=float))
    if not np.all((k >= 0.0) & (lam >= 0.0) & np.isfinite(k + lam)):
        raise DomainError("poisson_pmf requires finite k >= 0 and lam >= 0")
    shape, k, lam = k.shape, k.ravel(), lam.ravel()
    out = np.exp(-lam)
    pos = k > 0.0
    kp = k[pos]
    out[pos] = np.exp(_log_prefactor(kp, _log1pmx((lam[pos] - kp) / kp))) / kp
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


# P. J. Acklam's rational approximations of the standard normal quantile: one in
# (p - 1/2)^2 on [0.02425, 0.97575], one in sqrt(-2 log p) in the tails.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00, 1.0)
_ACKLAM_TAIL = 0.02425


def normal_quantile(p) -> np.ndarray:
    """The standard normal quantile of an array p in [0, 1], to a relative 1.2e-9.

    A cheap starting point, not a full-precision quantile (Acklam's algorithm).  The
    tails take max(p, tiny) and max(1 - p, tiny), so p = 0 and 1 give about -/+37.5.
    """
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    tail = np.minimum(p, 1.0 - p) < _ACKLAM_TAIL
    c = p[~tail] - 0.5
    r = c * c
    out[~tail] = c * np.polyval(_ACKLAM_A, r) / np.polyval(_ACKLAM_B, r)
    pt = p[tail]
    q = np.sqrt(-2.0 * np.log(np.maximum(np.minimum(pt, 1.0 - pt), np.finfo(float).tiny)))
    z = np.polyval(_ACKLAM_C, q) / np.polyval(_ACKLAM_D, q)  # the lower-tail quantile
    out[tail] = np.where(pt < 0.5, z, -z)
    return out


HERMITE_BLOCK = 4096  # entries per block of the Hermite ratio table, each seeded apart
_HERMITE_CACHE_ORDERS = 1 << 21  # bound on the cached entries over all t: ~17 MB of float64

_hermite_tables: Dict[float, Tuple[int, np.ndarray]] = {}  # t -> (first entry, entries)
_hermite_lock = threading.Lock()


def _hermite_rule(order: float, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """log_grid_rule of int_0^inf u^m e^{-u^2/2 - t u} du, m = -order - 1: nodes x = log u
    and log terms.  The integrand is log-concave in x, analytic, and falls at both ends."""
    m = -order - 1.0
    return log_grid_rule(lambda u: m * np.log(u) - 0.5 * u * u - t * u)


def log_hermite(order: float, t: float) -> float:
    """log of the Hermite function of negative order.

    Evaluates h_nu(t) = Gamma(-nu)^{-1} * int_0^inf u^{-nu-1} e^{-u^2/2 - t u} du
    for nu < 0 and t > 0 as the logsumexp of the terms of log_grid_rule in x = log u,
    where the trapezoid rule converges exponentially (Trefethen & Weideman, SIAM
    Review 56, 2014).  Against 40-digit mpmath it is within 1e-14 max(1, |log h|) for
    orders from -0.001 to -4e5 and t from 0.05 to 531.  The integrand's width in x is
    ~1/sqrt(2|nu|), and the rule spaces its 1,025 nodes over at least two coarse
    steps of _log_grid, so deep orders are resolved to |nu| ~ 3e7 (the ratio seeds
    are within 1e-12 there, 2e-9 off at |nu| = 1e8).
    """
    if order >= 0.0:
        raise DomainError(f"log_hermite requires order < 0, got {order}")
    if t <= 0.0:
        raise DomainError(f"log_hermite requires t > 0, got t={t}")
    if order > -1.0:  # u^{-order-1} falls too slowly toward u = 0 for the bracket:
        # h_nu = t h_{nu-1} + (1 - nu) h_{nu-2}, whose terms are both positive
        return float(np.logaddexp(math.log(t) + log_hermite(order - 1.0, t),
                                  math.log1p(-order) + log_hermite(order - 2.0, t)))
    _, terms = _hermite_rule(order, t)
    return logsumexp(terms, np.ones_like(terms)) - gammaln(-order)


def hermite_ratios(t: float, start: int, stop: int) -> np.ndarray:
    """Entries start .. stop - 1 of the Hermite ratio table t h_nu(t) / h_{nu+1}(t), nu < 0.

    Entry i is the ratio at order nu = -(i + 1).  For the Aldous-Pitman model with
    t = gamma / sqrt(2), entry 2n - k - 1 is the probability of a new taxon after n
    draws and k taxa.

    In ratio form the three-term recurrence h_{nu+1} = t h_nu - nu h_{nu-1}
    reads q_nu = t + |nu| / q_{nu-1} with q_nu = h_{nu+1} / h_nu.  Both terms
    are positive, so climbing upward is stable (an error in q_{nu-1} reaches
    q_nu scaled by 1 - t / q_nu, between 0 and 1).  The table is built in blocks
    of HERMITE_BLOCK entries, each seeded at its own bottom order by one
    quadrature of the ratio and climbed to its top, so a value depends only on
    (t, order), never on which blocks were built before.  Per t the cache holds
    one float64 array of the contiguous blocks read so far; a read outside them
    grows it to span both, writing each missing block in place.  The result is a
    view of that array, so it is read-only.  Past _HERMITE_CACHE_ORDERS cached
    entries the arrays of other t's are dropped, least recently read first.
    """
    # start, stop >= 0: whole iff their remainders sum to 0 (inf % 1 is NaN)
    if not (0.0 < t < math.inf and 0 <= start < stop and start % 1 + stop % 1 == 0):
        raise DomainError(f"hermite_ratios needs finite t > 0 and whole 0 <= start < stop, "
                          f"got {t}, {start}, {stop}")
    B = HERMITE_BLOCK
    with _hermite_lock:
        first, table = _hermite_tables.pop(t, None) or (start - start % B, np.empty(0))
        end = first + table.size
        if start < first or stop > end:
            lo, hi = min(start - start % B, first), max(stop + -stop % B, end)
            grown = np.empty(hi - lo)
            grown[first - lo:end - lo] = table
            for b in [*range(lo, first, B), *range(end, hi, B)]:
                nu = float(b + B)  # |nu| of entry b + B - 1, the bottom; exact below 2^53
                q = math.exp(_log_hermite_ratio(-(b + B), t))
                block = memoryview(grown[b - lo:b - lo + B])  # written in place, no list
                block[B - 1] = t / q
                for i in range(B - 2, -1, -1):
                    nu -= 1.0
                    q = t + nu / q
                    block[i] = t / q
            grown.flags.writeable = False
            first, table = lo, grown
            cached = table.size + sum(entries.size for _, entries in _hermite_tables.values())
            while cached > _HERMITE_CACHE_ORDERS and _hermite_tables:  # t's, popped, stays
                cached -= _hermite_tables.pop(next(iter(_hermite_tables)))[1].size
        _hermite_tables[t] = first, table  # last: the most recently read
    return table[start - first:stop - first]


def _log_hermite_ratio(order: int, t: float) -> float:
    """log(h_{order+1}(t) / h_order(t)) for order <= -2, by one quadrature.

    The integrand of h_{order+1} is that of h_order divided by u, so both
    integrals share the rule of h_order and their ratio is the weighted mean
    of 1/u = e^{-x}; the large common factor cancels exactly, where the
    difference of two log_hermite values would keep the rounding of each
    (~5e-10 at |order| = 4e5).
    """
    x, terms = _hermite_rule(order, t)
    w = np.exp(terms - terms.max())
    return math.log(float(np.dot(w, np.exp(-x))) / float(w.sum())) + math.log(-order - 1.0)


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

    __slots__ = ("sigma", "shift")

    def __init__(self, sigma: float, shift: float):
        self.sigma = real("sigma", sigma, high=1.0)
        self.shift = real("shift", shift, 0.0)

    def log_row(self, m: int) -> np.ndarray:
        """log E(m, j) for j = 0..m, rolled forward from row 0 in two row buffers."""
        m = count("m", m, 0)
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
