import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln

from sigmadiv import specfun
from sigmadiv.dpinfer import CoarsenedPosterior, StirlingGammaSpec
from sigmadiv.draws import log_grid_sample, quantiles
from sigmadiv.specfun import log_grid_rule

LEVELS = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6])


class FixedUniforms:
    """Stands in for a Generator: random(n) returns the fixed levels."""

    def random(self, n):
        assert n == LEVELS.size
        return LEVELS.copy()


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


class TestLogGridSample:
    @pytest.mark.parametrize("n, k, rho", [(2, 1, 1.0), (2, 2, 1.0), (5, 5, 0.25),
                                           (20, 8, 1.0), (3000, 200, 0.25)])
    def test_u_marginal_quantiles_vs_quadrature(self, n, k, rho):
        log_kernel = u_log_kernel(n, k, rho)
        got = log_grid_sample(log_kernel, LEVELS.size, FixedUniforms())
        want = quad_quantiles(log_kernel, LEVELS)
        assert np.abs(got / want - 1).max() < 1e-4

    def test_sg_posterior_quantiles_vs_quadrature(self):
        log_kernel = sg_log_kernel(200, 30, 1.0)
        got = log_grid_sample(log_kernel, LEVELS.size, FixedUniforms())
        want = quad_quantiles(log_kernel, LEVELS)
        assert np.abs(got / want - 1).max() < 1e-4

    def test_reads_one_uniform_per_draw_from_the_stream(self):
        log_kernel = u_log_kernel(20, 8, 1.0)
        rng = np.random.default_rng(5)
        log_grid_sample(log_kernel, 100, rng)
        after = rng.random()
        rng = np.random.default_rng(5)
        rng.random(100)
        assert rng.random() == after


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
        draws = log_grid_sample(log_kernel, LEVELS.size, FixedUniforms())
        assert x[0] < np.log(draws).min() and np.log(draws).max() < x[-1]


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
