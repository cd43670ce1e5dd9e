import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaincinv, gammaln

from sigmadiv import draws, specfun
from sigmadiv.dpinfer import CoarsenedPosterior, StirlingGammaSpec
from sigmadiv.draws import log_grid_sample, quantiles
from sigmadiv.errors import DomainError
from sigmadiv.specfun import log_grid_rule

LEVELS = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6])


def u_log_kernel(n, k, rho, a=2.0, b=1.0):
    """Log of the AP latent-U marginal u^M e^{-rho u^2/2} (b + rho u / sqrt 2)^(-c)."""
    M, c = rho * (2 * n - k - 2), a + rho * (k - 1)
    return lambda u: M * np.log(u) - 0.5 * rho * u * u - c * np.log(b + rho * u / math.sqrt(2))


def sg_log_kernel(n, k, rho, a=0.3, b=0.1, n_ref=100):
    """Log of the coarsened SG posterior kernel of alpha, log rising factorials by gammaln."""
    def f(alpha):
        return ((a + rho * k - 1.0) * np.log(alpha) - rho * (gammaln(alpha + n) - gammaln(alpha))
                - b * (gammaln(alpha + n_ref) - gammaln(alpha)))
    return f


def quad_quantiles(log_kernel, levels):
    """Quantiles by adaptive quadrature of the density and root finding on its CDF.

    The support is cut where the log density is 80 below its peak, found on a
    geometric scan; the CDF is integrated on [0, v] with that peak as a break point.
    """
    scan = np.geomspace(1e-12, 1e8, 4001)
    with np.errstate(divide="ignore"):
        lk = log_kernel(scan)
    peak = float(lk.max())
    mode = float(scan[np.argmax(lk)])
    hi = float(scan[np.flatnonzero(lk > peak - 80.0).max() + 1])

    def cdf(v):
        def f(x):
            return math.exp(log_kernel(x) - peak) if x > 0.0 else 0.0
        pts = [mode] if 0.0 < mode < v else None
        return quad(f, 0.0, v, points=pts, epsabs=0.0, epsrel=1e-12, limit=500)[0]

    total = cdf(hi)
    return np.array([brentq(lambda v: cdf(v) / total - q, 1e-12, hi, xtol=1e-300, rtol=1e-13)
                     for q in levels])


def amazon_dp_log_kernel():
    """The coarsened posterior of the Amazon alpha (n = 553,949, k = 4,962) at rho = 0.01."""
    n, k = 553_949, 4_962
    return CoarsenedPosterior(StirlingGammaSpec(1.0, 0.0002, n), n, k, 0.01).log_kernel


U_CASES = [(2, 1, 1.0), (2, 2, 1.0), (5, 5, 0.25), (20, 8, 1.0), (3000, 200, 0.25)]
KERNELS = ([u_log_kernel(*case) for case in U_CASES]
           + [sg_log_kernel(200, 30, 1.0), amazon_dp_log_kernel()])
KERNEL_IDS = [f"u-{n}-{k}-{rho}" for n, k, rho in U_CASES] + ["sg-200-30", "amazon-dp"]


def assert_ecdf_at(values, quantiles):
    """The share of values at or below each quantile of LEVELS is within 5 binomial SEs."""
    got = (values[:, None] <= quantiles).mean(axis=0)
    se = np.sqrt(LEVELS * (1.0 - LEVELS) / values.size)
    assert np.all(np.abs(got - LEVELS) <= 5.0 * se), (got, LEVELS)


class TestLogGridSample:
    N = 200_000

    @pytest.mark.parametrize("n, k, rho", U_CASES)
    def test_u_marginal_quantiles_vs_quadrature(self, n, k, rho):
        log_kernel = u_log_kernel(n, k, rho)
        values = log_grid_sample(log_kernel, self.N, np.random.default_rng(21))
        assert_ecdf_at(values, quad_quantiles(log_kernel, LEVELS))

    def test_sg_posterior_quantiles_vs_quadrature(self):
        log_kernel = sg_log_kernel(200, 30, 1.0)
        values = log_grid_sample(log_kernel, self.N, np.random.default_rng(22))
        assert_ecdf_at(values, quad_quantiles(log_kernel, LEVELS))

    def test_amazon_dp_posterior_quantiles_vs_quadrature(self):
        log_kernel = amazon_dp_log_kernel()
        values = log_grid_sample(log_kernel, self.N, np.random.default_rng(23))
        assert_ecdf_at(values, quad_quantiles(log_kernel, LEVELS))

    @pytest.mark.parametrize("log_kernel", KERNELS, ids=KERNEL_IDS)
    def test_envelope_bounds_the_log_density(self, log_kernel):
        # at every node, at 10 points in every cell and up to 10 cells past each end
        x, f = specfun._log_grid(log_kernel, specfun._COARSE_NODES)
        env = draws._Envelope(x, f)
        h = (x[-1] - x[0]) / (x.size - 1)
        past = h * np.geomspace(1e-3, 10.0, 20)
        inner = np.concatenate([x[:-1], (x[:-1, None] + h * np.arange(1, 11) / 11).ravel()])
        pts = np.concatenate([inner, x[-1:], x[0] - past, x[-1] + past])
        logf = specfun._log_density(log_kernel)(pts) - env.top
        assert np.all(env.upper(pts) >= logf - 1e-12)
        assert np.all(env.lower(pts) <= logf + 1e-12)
        assert np.all(env.lower(inner) > -np.inf)  # the squeeze is -inf only off the grid

    def test_squeeze_failures_evaluate_the_kernel(self):
        # Gamma(0.2, 1000): its left tail widens the bracket to ~300 in log v, so the
        # cells are coarse and ~0.6% of the draws fall between squeeze and hull
        sizes = []

        def log_kernel(v):
            sizes.append(np.size(v))
            return -0.8 * np.log(v) - v / 1000.0

        values = log_grid_sample(log_kernel, self.N, np.random.default_rng(24))
        # the kernel is read once a round, and only where the squeeze falls short
        checked = [size for size in sizes if size not in (1, specfun._COARSE_NODES)]
        assert self.N // draws._CHUNK <= len(checked) <= self.N // draws._CHUNK + 3
        assert 0.002 * self.N < sum(checked) < 0.02 * self.N
        assert_ecdf_at(values, 1000.0 * gammaincinv(0.2, LEVELS))

    def test_flat_pieces_are_drawn_uniformly(self):
        # a log density with a flat top: the pieces of [-1, 1] have slope 0 exactly
        # (every node and value is a binary fraction), so they invert apart
        x = np.linspace(-4.0, 4.0, specfun._COARSE_NODES)
        env = draws._Envelope(x, -5.0 * np.maximum(np.abs(x) - 1.0, 0.0))
        assert env.flat.sum() > 200
        u = np.random.default_rng(25).random(self.N)
        values, p = env.propose(u)
        assert np.all((env.edges[p] <= values) & (values <= env.edges[p + 1]))
        middle = values[np.abs(values) < 0.5]
        assert_ecdf_at(middle + 0.5, LEVELS)

    def test_kernel_that_is_not_log_concave_is_refused(self):
        # two modes in log v, 3 apart with sd 0.25: the chord slopes rise between them
        def log_kernel(v):
            x = np.log(v)
            return np.logaddexp(-8.0 * x * x, -8.0 * (x - 3.0) ** 2) - x

        with pytest.raises(DomainError, match="log-concave"):
            log_grid_sample(log_kernel, 10, np.random.default_rng(0))


class TestLogGridRule:
    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.5, 1e-3), (40.0, 1e6), (3.0, 1e-8)])
    def test_gamma_kernel_integral(self, a, b):
        # int v^{a-1} e^{-b v} dv = Gamma(a) / b^a
        _, t = log_grid_rule(lambda v: (a - 1.0) * np.log(v) - b * v)
        top = t.max()
        got = top + math.log(np.exp(t - top).sum())
        assert got == pytest.approx(gammaln(a) - a * math.log(b), rel=1e-13, abs=1e-13)

    def test_nodes_are_equally_spaced_on_the_sampler_bracket(self):
        log_kernel = u_log_kernel(20, 8, 1.0)
        x, t = log_grid_rule(log_kernel)
        h = (x[-1] - x[0]) / (x.size - 1)
        assert np.array_equal(x, np.linspace(x[0], x[-1], x.size))
        w = np.exp(t - x - log_kernel(np.exp(x)))
        assert np.allclose(w, np.r_[h / 2, np.full(x.size - 2, h), h / 2], rtol=1e-13, atol=0.0)
        assert np.array_equal(x, draws._Envelope(*specfun._log_grid(
            log_kernel, specfun._COARSE_NODES)).edges[1:-1:2])


class TestBlocks:
    # a block size that does not divide the grid, and one larger than the grid
    @pytest.mark.parametrize("block", [1000, 1 << 16])
    def test_grids_do_not_depend_on_the_block(self, monkeypatch, block):
        # the branch posterior's grid crosses alpha = 1e3, where log_rising
        # switches to the Stirling series; the U marginal's is all one branch
        kernels = [CoarsenedPosterior(StirlingGammaSpec(0.3, 0.1, 100), 40, 30, 0.3).log_kernel,
                   u_log_kernel(3000, 200, 0.25)]

        def run():
            return [(log_grid_sample(f, 500, np.random.default_rng(3)), *log_grid_rule(f))
                    for f in kernels]

        want = run()
        monkeypatch.setattr(specfun, "_BLOCK", block)
        for got, ref in zip(run(), want):
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))


class TestQuantiles:
    QS = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]

    def test_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(1, 2_001)) if trial > 20 else trial + 1
            values = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9),
                      rng.integers(0, 4, n).astype(float),  # many ties
                      np.exp(20.0 * rng.standard_normal(n))][trial % 3]
            q = np.concatenate([self.QS, rng.random(4)])
            assert np.array_equal(quantiles(values, q), np.quantile(values, q))
            for one in (0.5, float(rng.random())):
                got, want = quantiles(values, one), np.quantile(values, one)
                assert got == want and type(got) is type(want)

    def test_posterior_draws_and_summary(self):
        from sigmadiv.draws import PosteriorDraws, summarize_draws

        values = np.random.default_rng(12).gamma(2.0, size=1001)
        draws = PosteriorDraws("x", values, rho=1.0)
        assert np.array_equal(draws.quantile(self.QS), np.quantile(values, self.QS))
        summary = summarize_draws(values)
        assert summary["quantiles"]["25"] == float(np.quantile(values, 0.25))
