import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.special as sps
from scipy.special import pbdv
from scipy.stats import norm, poisson

from sigmadiv import specfun
from sigmadiv.errors import DomainError

from helpers import (hermite_log_upward, noncentral_by_convolution,
                     scaled_coeff_table_exact)
from fractions import Fraction


class TestLogRising:
    def test_empty_product(self):
        assert specfun.log_rising(1.0, 0) == 0.0

    def test_small_product(self):
        assert specfun.log_rising(1.0, 5) == pytest.approx(math.log(120.0), rel=1e-12)

    def test_amazon_scale_no_overflow(self):
        val = specfun.log_rising(751.23, 553_949)
        assert np.isfinite(val)
        # cross-check against the direct sum of logs
        direct = np.log(751.23 + np.arange(553_949)).sum()
        assert val == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 751.23])
    def test_matches_direct_sum(self, a):
        n = 10_000
        direct = np.log(a + np.arange(n)).sum()
        assert specfun.log_rising(a, n) == pytest.approx(direct, rel=1e-10)

    def test_array_far_above_n(self):
        # an array is evaluated elementwise like scalars; above a = 1e3 both use the
        # Stirling series, exact against the log1p sum where gammaln would cancel
        a = np.array([0.5, 751.23, 999.0, 1001.0, 1e6, 1e12, 1e15, 1e17])
        for n in (0, 1, 50, 1000):
            got = specfun.log_rising(a, n)
            assert got.shape == a.shape
            for ai, gi in zip(a, got):
                assert gi == specfun.log_rising(float(ai), n)
                want = math.fsum(math.log(ai) + math.log1p(j / ai) for j in range(n))
                assert gi == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_each_equals_log_rising(self):
        # one log Gamma(a) for several n: every entry as the scalar log_rising,
        # on a grid that straddles STIRLING_FROM
        a = np.concatenate([np.geomspace(1e-3, 1e6, 400), [specfun.STIRLING_FROM]])
        ns = (40, 0, 52, 553_949)
        for n, got in zip(ns, specfun.log_rising_each(a, ns)):
            assert got.shape == a.shape
            assert got.tolist() == [specfun.log_rising(float(ai), n) for ai in a]

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_rising_each(np.array([1.0]), (3, -1))
        with pytest.raises(DomainError):
            specfun.log_rising(0.0, 3)
        with pytest.raises(DomainError):
            specfun.log_rising(-1.0, 3)
        with pytest.raises(DomainError):
            specfun.log_rising(np.array([1.0, 0.0]), 3)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert specfun.digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-12)

    def test_recurrence(self):
        x = 2.5
        assert specfun.digamma(x + 1) - specfun.digamma(x) == pytest.approx(1 / x, rel=1e-12)

    def test_harmonic_sum_identity(self):
        a, n = 3.0, 7
        direct = sum(1.0 / (a + i) for i in range(n))
        assert specfun.digamma(a + n) - specfun.digamma(a) == pytest.approx(direct, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.digamma(0.0)


class TestDiscoveryMean:
    @pytest.mark.parametrize("block", [1000, 1 << 16])
    def test_values_do_not_depend_on_the_block(self, monkeypatch, block):
        # both sides of _SERIES_FROM in every block; 30,000 entries
        alpha = np.tile([0.5, 751.23, 999.0, 1001.0, 1e6, 1e17], 5_000)
        m = np.arange(1, alpha.size + 1)
        want = specfun.discovery_mean(alpha, 50, m)
        monkeypatch.setattr(specfun, "_BLOCK", block)
        assert np.array_equal(specfun.discovery_mean(alpha, 50, m), want)

    def test_broadcast_shapes(self):
        assert specfun.discovery_mean(751.23, 50, 7).shape == ()
        assert specfun.discovery_mean(751.23, 50, np.arange(1, 4)).shape == (3,)
        assert specfun.discovery_mean(np.array([1.0, 2.0]), np.array([[0], [5]]), 3).shape == (2, 2)


# log-spaced reals and the integers up to 6e5 (the largest n the CLI sees is 553,949)
SPECIAL_X = np.concatenate([np.geomspace(1e-6, 1e8, 20_001), np.arange(1.0, 600_001.0)])


def _scaled_error(got, ref):
    return np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))


class TestSpecialFunctionsAgainstScipy:
    def test_gammaln(self):
        assert _scaled_error(specfun.gammaln(SPECIAL_X), sps.gammaln(SPECIAL_X)) < 1e-14

    def test_digamma(self):
        assert _scaled_error(specfun.digamma(SPECIAL_X), sps.digamma(SPECIAL_X)) < 1e-14

    def test_trigamma(self):
        ref = sps.polygamma(1, SPECIAL_X)
        assert np.max(np.abs(specfun.trigamma(SPECIAL_X) / ref - 1.0)) < 1e-13

    def test_logsumexp_with_weights(self):
        # 1e-15 absolute up to |result| = 1, beyond that 1e-15 relative: a result
        # near -42 has a float spacing of 7e-15
        rng = np.random.default_rng(3)
        for size in (1, 2, 7, 512, 600):
            for _ in range(50):
                a = rng.uniform(-50.0, 0.0, size)
                b = rng.uniform(0.0, 1.0, size)
                ref = sps.logsumexp(a, b=b)
                assert abs(specfun.logsumexp(a, b) - ref) <= 1e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("name", ["gammaln", "digamma", "trigamma"])
    def test_scalar_and_array_paths_agree(self, name):
        fn = getattr(specfun, name)
        x = np.concatenate([np.geomspace(1e-6, 1e8, 2_001), np.arange(1.0, 40.0),
                            np.arange(7.5, 8.5, 0.01)])
        scalars = np.array([fn(v) for v in x.tolist()])
        assert _scaled_error(scalars, fn(x)) < 1e-14
        assert all(type(fn(v)) is float for v in (0.5, 3, 1e6))

    def test_zero_and_negative_arguments(self):
        # digamma(0.0) itself: TestDigamma.test_domain
        with pytest.raises(DomainError):
            specfun.digamma(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            specfun.trigamma(0.0)
        with pytest.raises(DomainError):
            specfun.gammaln(-0.5)
        # log Gamma has a pole at 0: +inf, as scipy gives, so the taxonomic hyper
        # log-posterior still reads -inf when its shape exp(log a) underflows to 0
        assert specfun.gammaln(0.0) == sps.gammaln(0.0) == math.inf
        assert specfun.gammaln(np.array([0.0, 1.0]))[0] == math.inf

    @pytest.mark.parametrize("x", [3e305, 1e306])
    def test_gammaln_past_the_float_range(self, x):
        # math.lgamma raised OverflowError here while the array path gave inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert specfun.gammaln(x) == math.inf
            assert specfun.gammaln(np.array([x]))[0] == math.inf

    def test_exact_points(self):
        assert specfun.gammaln(1.0) == 0.0 and specfun.gammaln(2.0) == 0.0
        assert specfun.digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-15)
        assert specfun.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)


# Q(a, x) at points where scipy 1.17's gammaincc is off: for a >= ~1e7 just outside
# its asymptotic window |x - a| < 4.5 sqrt(a) it gives 0.99999809 at the first
# (by 1.2e-6).  The values are 40-digit mpmath sums of the series of P = 1 - Q.
GAMMAINCC_MPMATH = [(1e8, 99954800.0, 0.99999691746663784841),
                    (1e11, 99998570000.0, 0.99999693821932592334)]


class TestGammaincPQ:
    @pytest.mark.parametrize("a", [*np.logspace(0, 12, 25), 101.0, 150.0])  # Temme from 100
    def test_against_scipy(self, a):
        # x/a across [0.5, 2] (both tails) and x within 4.4 sqrt(a) of a (the centre)
        x = np.concatenate([a * np.linspace(0.5, 2.0, 1501),
                            a + np.linspace(-4.4, 4.4, 441) * np.sqrt(a)])
        x = x[x >= 0.0]
        trusted = (a < 1e6) | (np.abs(x - a) <= 4.4 * np.sqrt(a))  # see GAMMAINCC_MPMATH
        p, q = specfun.gammainc_pq(a, x)
        for got, want in ((q, sps.gammaincc(a, x)), (p, sps.gammainc(a, x))):
            assert np.abs(got - want)[trusted].max() <= 1e-14
            # relative in the tails: scipy's own error there reaches 1.6e-11 (a = 1e4,
            # Q = 2.7e-283, where this code is within 1e-13 of 40-digit mpmath)
            tail = trusted & (want > 1e-300)
            assert (np.abs(got - want)[tail] <= 5e-11 * want[tail]).all()

    @pytest.mark.parametrize("a, x, want", GAMMAINCC_MPMATH)
    def test_where_scipy_is_off(self, a, x, want):
        p, q = specfun.gammainc_pq(a, x)
        assert q == pytest.approx(want, rel=1e-15)
        assert p == pytest.approx(1.0 - want, rel=1e-10)

    def test_at_zero_and_small_a(self):
        assert specfun.gammainc_pq(3.0, 0.0) == (0.0, 1.0)
        p, q = specfun.gammainc_pq(np.array([1e-3, 1.0, 1e12]), 0.0)
        assert (p == 0.0).all() and (q == 1.0).all()
        a = np.array([1e-3, 0.1, 0.5, 0.9])
        x = np.array([1e-5, 0.05, 2.0, 40.0])
        p, q = specfun.gammainc_pq(a, x)
        assert np.allclose(q, sps.gammaincc(a, x), rtol=1e-13, atol=0)
        assert np.allclose(p, sps.gammainc(a, x), rtol=1e-13, atol=0)

    def test_poisson_pmf_steps_the_cdf(self):
        # P(X <= k) = Q(k + 1, lam), so Q(k + 1, lam) - Q(k, lam) = P(X = k)
        for lam in (0.5, 30.0, 9.5e3, 1e8, 1e11):
            k = np.round(lam + np.linspace(-3, 3, 13) * math.sqrt(lam)) + 1
            k = np.unique(k[k >= 1])
            pmf = specfun.poisson_pmf(k, lam)
            step = specfun.gammainc_pq(k + 1.0, lam)[1] - specfun.gammainc_pq(k, lam)[1]
            assert np.abs(pmf - step).max() <= 1e-15
        k = np.arange(60.0)
        assert np.allclose(specfun.poisson_pmf(k, 7.5), poisson.pmf(k, 7.5), rtol=1e-13, atol=0)
        assert specfun.poisson_pmf(0.0, 0.0) == 1.0 and specfun.poisson_pmf(3.0, 0.0) == 0.0

    def test_scalar_in_scalar_out(self):
        p, q = specfun.gammainc_pq(2.0, 1.0)
        assert isinstance(p, float) and isinstance(q, float)
        assert q == pytest.approx(2.0 / math.e, rel=1e-15)
        assert isinstance(specfun.poisson_pmf(2.0, 1.0), float)

    def test_erfc_is_math_erfc(self):
        x = np.concatenate(([0.0, 1e-300, 5.0, 27.0], np.random.default_rng(4).random(50) * 6))
        assert specfun._erfc(x).tolist() == [math.erfc(v) for v in x.tolist()]

    def test_temme_coefficients(self):
        # c_0 = -1/3 + eta/12 - 2 eta^2/135 + ..., c_1 = -1/540 - eta/288, c_2 = 25/6048
        rows = specfun._TEMME_ROWS
        assert rows[0][:3] == pytest.approx([-1 / 3, 1 / 12, -2 / 135], rel=1e-15)
        assert rows[1][:2] == pytest.approx([-1 / 540, -1 / 288], rel=1e-14)
        assert rows[2][0] == pytest.approx(25 / 6048, rel=1e-14)

    def test_domain(self):
        for a, x in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1e-9), (np.nan, 1.0), (1.0, np.inf)):
            with pytest.raises(DomainError):
                specfun.gammainc_pq(a, x)
        with pytest.raises(DomainError):
            specfun.poisson_pmf(-1.0, 2.0)


class TestNormalQuantile:
    def test_against_ndtri(self):
        p = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20_001), np.logspace(-300, -1, 600),
                            1.0 - np.logspace(-16, -1, 600)])
        want = sps.ndtri(p)
        assert (np.abs(specfun.normal_quantile(p) - want) <= 1.2e-9 * np.abs(want)).all()

    def test_ends_are_finite(self):
        z = specfun.normal_quantile(np.array([0.0, 0.5, 1.0]))
        assert z[1] == 0.0 and -40.0 < z[0] < -37.0 and z[2] == -z[0]


# log h_nu(t) and log(h_{nu+1}(t) / h_nu(t)) at t in HERMITE_T, as 40-digit mpmath
# quadratures (tanh-sinh, split at the mode and +-5, 10, 20, 40 standard deviations);
# the non-integer orders from mpmath's hyperu, h_nu(t) = 2^(nu/2) U(-nu/2, 1/2, t^2/2).
# -1,107,897 is the deepest order of the AP ratio table at the Amazon state.
HERMITE_T = (0.05, 1.41, 10.0, 531.0)
LOG_HERMITE_MPMATH = {
    -1: (0.1863468378353127095772, -0.621908999013755679391, -2.312346617307797836566,
         -6.274765567800270236284),
    -2: (-0.062132887504590540976, -1.414920442835376408796, -4.634183502917683185403,
         -12.54953468212113840578),
    -3: (-0.546580467399567404969, -2.331158886175185400139, -6.965255350926654857874,
         -18.82430734292487193094),
    -40: (-54.43571713588132088295, -62.50879065696619773252, -98.20514577696521533954,
          -250.9933886253608375596),
    -4096: (-14990.33084249944317724, -15076.87098547173559056, -15602.74460933285983486,
            -25730.76116901322394715),
    -65537: (-330659.4401788414447024, -331007.1055650933853722, -333181.8133664665615368,
             -417543.5668450384719918),
    -400000: (-2379875.933923251834748, -2380735.576694211094586, -2386143.929054729346852,
              -2654805.936954719334977),
}
LOG_HERMITE_FRACTIONAL_MPMATH = {
    -0.001: (0.0005731651195255598066716, -0.0005099273128297747680178,
             -0.002307517350398623594695, -0.006274763796300672810797),
    -0.1: (0.05191313813530442238695, -0.05227377870771089764129, -0.2308000008324769410435,
           -0.6274763971855247545726),
    -0.5: (0.1722326628760857405184, -0.285115142714629344860, -1.154970463240540229395,
           -3.137382340582702055546),
    -1.5: (0.0989770498361777211525, -1.000730555601188725678, -3.472095089605137425024,
           -9.412149681647987886386),
}
LOG_HERMITE_RATIO_MPMATH = {
    -2: (0.24847972533990325055, 0.79301144382162072940, 2.32183688560988534883,
         6.27476911432086816949),
    -3: (0.48444757989497686399, 0.91623844333980899134, 2.33107184800897167247,
         6.27477266080373352516),
    -40: (1.84219305724410382003, 1.95075048853493116552, 2.56883195526383706967,
          6.27490385415189975873),
    -4096: (4.15921272087358121539, 4.16983878777006570917, 4.23687693117654853553,
            6.28898210692840338665),
    -65537: (5.54527891542663279938, 5.54793516191687187205, 5.56471126617116307500,
             6.45255124549906894061),
    -400000: (6.44964881656521099686, 6.45072399208202365214, 6.45751490968957521114,
              6.85795843804824827484),
    -1107897: (6.95901061665796711884, 6.95965665661828460883, 6.96373714151161558142,
               7.20862646121114473383),
}


class TestLogHermite:
    def test_order_minus_one_is_mills_ratio(self):
        # h_{-1}(t) = int_0^inf e^{-u^2/2 - tu} du = Phi(-t) / phi(t)
        t = 1.3
        expected = math.log(norm.cdf(-t) / norm.pdf(t))
        assert specfun.log_hermite(-1, t) == pytest.approx(expected, abs=1e-11)

    def test_parabolic_cylinder_oracle(self):
        # h_nu(t) = e^{t^2/4} D_nu(t) in scipy's parabolic-cylinder convention
        for nu in (-2, -3, -7, -15):
            for t in (0.3, 1.0, 4.0):
                d, _ = pbdv(nu, t)
                assert specfun.log_hermite(nu, t) == pytest.approx(
                    t * t / 4 + math.log(d), abs=1e-9)

    def test_three_term_recursion_small(self):
        nu, t = -3, 0.7
        h = {v: math.exp(specfun.log_hermite(v, t)) for v in (nu - 1, nu, nu + 1)}
        assert h[nu + 1] == pytest.approx(t * h[nu] - nu * h[nu - 1], rel=1e-10)

    def test_recursion_residual_grid(self):
        for nu in range(-40, -1):
            for t in (0.1, 0.5, 1.0, 3.0, 10.0):
                h_lo = math.exp(specfun.log_hermite(nu - 1, t))
                h_mid = math.exp(specfun.log_hermite(nu, t))
                h_hi = math.exp(specfun.log_hermite(nu + 1, t))
                assert abs(h_hi - t * h_mid + nu * h_lo) / h_hi < 1e-8

    def test_deep_order_vs_upward_recursion(self):
        # seed the two lowest orders by quadrature and climb to h_0 = 1
        nu0, t = -50, 2.0
        log_h0 = hermite_log_upward(specfun.log_hermite(nu0, t),
                                    specfun.log_hermite(nu0 + 1, t), nu0, 0, t)
        assert log_h0 == pytest.approx(0.0, abs=1e-8)

    def test_positive_and_decreasing_in_t(self):
        for nu in (-1.0, -2.0, -9.0, -33.0):
            vals = [specfun.log_hermite(nu, t) for t in (0.2, 1.0, 2.0, 5.0)]
            assert all(np.isfinite(vals))
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_huge_order(self):
        val = specfun.log_hermite(4_962 + 1 - 2 * 553_949, math.sqrt(2) * 751.0)
        assert np.isfinite(val)

    @pytest.mark.parametrize("order", sorted(LOG_HERMITE_MPMATH))
    def test_against_mpmath(self, order):
        for t, want in zip(HERMITE_T, LOG_HERMITE_MPMATH[order]):
            assert abs(specfun.log_hermite(order, t) - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("order", sorted(LOG_HERMITE_FRACTIONAL_MPMATH))
    def test_fractional_orders_against_mpmath(self, order):
        # above order -1 the integrand's left tail u^{-order-1} falls slowly in log u
        for t, want in zip(HERMITE_T, LOG_HERMITE_FRACTIONAL_MPMATH[order]):
            assert abs(specfun.log_hermite(order, t) - want) <= 1e-13

    @pytest.mark.parametrize("order", sorted(LOG_HERMITE_RATIO_MPMATH))
    def test_ratio_seed_against_mpmath(self, order):
        for t, want in zip(HERMITE_T, LOG_HERMITE_RATIO_MPMATH[order]):
            assert abs(specfun._log_hermite_ratio(order, t) - want) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_hermite(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.log_hermite(-1.0, 0.0)


def _cached_entries():
    return sum(entries.size for _, entries in specfun._hermite_tables.values())


class TestHermiteRatioTable:
    def test_matches_scalar(self):
        # log h_nu = sum_{mu=nu}^{-1} log(p_mu / t) from h_0 = 1, against quadrature
        orders = -np.arange(1, 400, dtype=float)
        for t in (0.1, 1.0, 7.0):
            table = np.cumsum(np.log(specfun.hermite_ratios(t, 0, 399)) - math.log(t))
            scalar = np.array([specfun.log_hermite(v, t) for v in orders])
            assert np.abs(table - scalar).max() < 1e-9

    def test_deep_orders(self):
        n_orders = 400_000
        for t in (0.05, 1.41, 10.0):
            p = specfun.hermite_ratios(t, 0, n_orders)
            for nu in (-1, -2, -399, -4095, -4096, -4097, -65_537, -200_000, -400_000):
                want = math.log(t) + (specfun.log_hermite(nu, t)
                                      - (specfun.log_hermite(nu + 1, t) if nu < -1 else 0.0))
                assert abs(math.log(p[-nu - 1]) - want) <= 1e-9
            # h_0 = 1: climbing every ratio from h_{-4e5} closes at log h_0 = 0, up to
            # the anchor's own rounding (float spacing 4.7e-10 at |log h| ~ 2.4e6)
            climb = math.fsum(math.log(t) - np.log(p))
            assert specfun.log_hermite(-n_orders, t) + climb == pytest.approx(0.0, abs=3e-9)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_same_bits_in_any_read_order(self, order):
        # a deep read, a read from 0 and a read in the gap between them, in every
        # order on a cleared cache: each returns the bits of one read of the whole table
        t, B = 2.0 / math.sqrt(2.0), specfun.HERMITE_BLOCK
        reads = [(20 * B + 5, 22 * B + 7), (0, 100), (8 * B - 3, 9 * B + 1)]
        specfun._hermite_tables.clear()
        whole = specfun.hermite_ratios(t, 0, 22 * B + 7).copy()
        specfun._hermite_tables.clear()
        for i in order:
            start, stop = reads[i]
            assert np.array_equal(specfun.hermite_ratios(t, start, stop), whole[start:stop])
        first, table = specfun._hermite_tables[t]
        assert first == 0 and table.size == 23 * B  # one array of contiguous blocks

    def test_threads_read_one_table(self, monkeypatch):
        # more readers than cores, switching often: every read has the bits of one read
        # of the whole table, and no grown table is lost, so no block is built twice
        B = specfun.HERMITE_BLOCK
        reads = [(t, start, start + 2 * B + 1) for t in (0.7, 3.0)
                 for start in range(0, 10 * B, 3 * B - 7)]
        specfun._hermite_tables.clear()
        whole = {t: specfun.hermite_ratios(t, 0, 12 * B).copy() for t in (0.7, 3.0)}
        specfun._hermite_tables.clear()
        bad, seeds = [], []
        seed = specfun._log_hermite_ratio
        monkeypatch.setattr(specfun, "_log_hermite_ratio",
                            lambda order, t: seeds.append(order) or seed(order, t))

        def reader(w):
            for t, start, stop in reads[w:] + reads[:w]:
                if not np.array_equal(specfun.hermite_ratios(t, start, stop),
                                      whole[t][start:stop]):
                    bad.append((t, start))

        threads = [threading.Thread(target=reader, args=(w,)) for w in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and bad == []
        blocks = -(-max(stop for _, _, stop in reads) // B)
        assert len(seeds) == 2 * blocks  # each block of each t seeded once
        for t in (0.7, 3.0):
            first, table = specfun._hermite_tables[t]
            assert first == 0 and table.size == blocks * B

    def test_views_read_only(self):
        t, B = 1.0, specfun.HERMITE_BLOCK
        whole = specfun.hermite_ratios(t, 0, 3 * B)
        view = specfun.hermite_ratios(t, 10, 2 * B + 100)  # across block seams
        for table in (whole, view):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.5
        assert np.shares_memory(view, whole) and view[0] == whole[10]

    def test_cache_bounded(self, monkeypatch):
        specfun._hermite_tables.clear()
        B = specfun.HERMITE_BLOCK
        for i in range(150):
            t = 0.05 + 0.1 * i
            specfun.hermite_ratios(t, 0, 4 * B)
            assert _cached_entries() <= specfun._HERMITE_CACHE_ORDERS
        # 600 blocks asked for; the cache kept the tables of the most recent t's
        assert _cached_entries() == specfun._HERMITE_CACHE_ORDERS
        assert t in specfun._hermite_tables and 0.05 not in specfun._hermite_tables
        # least recently read goes first: a read within the oldest kept table renews it
        oldest, next_oldest = list(specfun._hermite_tables)[:2]
        specfun.hermite_ratios(oldest, 5, 6)
        specfun.hermite_ratios(99.0, 0, 4 * B)
        assert oldest in specfun._hermite_tables and next_oldest not in specfun._hermite_tables
        # a table in use stays, even alone above the bound
        monkeypatch.setattr(specfun, "_HERMITE_CACHE_ORDERS", 3 * B)
        table = specfun.hermite_ratios(0.3, 0, 5 * B)
        assert list(specfun._hermite_tables) == [0.3] and _cached_entries() == 5 * B
        assert specfun._hermite_tables[0.3][1] is table.base

    def test_domain(self):
        for t, start, stop in [(0.0, 0, 1), (-1.0, 0, 1), (math.nan, 0, 1), (math.inf, 0, 1),
                               (1.0, -1, 1), (1.0, 5, 5)]:
            with pytest.raises(DomainError):
                specfun.hermite_ratios(t, start, stop)


class TestCoefficientTables:
    def test_base_case_all_kinds(self):
        for sigma, shift in [(0.0, 1.0), (0.5, 0.5), (-1.0, 2.0), (0.0, 3.0), (0.5, 2.5)]:
            table = specfun.CoefficientTable(sigma, shift)
            assert table.log_row(0).tolist() == [0.0]
            # row 1: E(1, 0) = shift, E(1, 1) = 1
            assert table.log_row(1) == pytest.approx([math.log(shift), 0.0], abs=1e-15)

    def test_gen_factorial_recursion_interior(self):
        sigma, shift = 0.5, 0.5
        table = specfun.CoefficientTable(sigma, shift)
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 29))
            k = int(rng.integers(1, n + 1))
            row, row_next = np.exp(table.log_row(n)), np.exp(table.log_row(n + 1))
            stay = (n + shift - sigma * k) * row[k] if k <= n else 0.0
            assert row_next[k] == pytest.approx(stay + row[k - 1], rel=1e-11)

    @pytest.mark.parametrize("sigma,shift", [(Fraction(0), Fraction(7, 2)),
                                             (Fraction(1, 2), Fraction(5, 2)),
                                             (Fraction(-1), Fraction(4))])
    def test_noncentral_matches_convolution_identity(self, sigma, shift):
        table = specfun.CoefficientTable(float(sigma), float(shift))
        for m in (1, 3, 8, 14):
            row = np.exp(table.log_row(m))
            for j in range(0, m + 1):
                exact = noncentral_by_convolution(sigma, shift, m, j)
                assert row[j] == pytest.approx(float(exact), rel=1e-9)

    def test_exact_rational_agreement_central(self):
        # row m at shift 1 - sigma is central row m + 1 without its k = 0 entry
        for sigma in (Fraction(0), Fraction(1, 2), Fraction(-1)):
            exact = scaled_coeff_table_exact(sigma, Fraction(0), 21)
            table = specfun.CoefficientTable(float(sigma), float(1 - sigma))
            for m in (0, 4, 11, 20):
                want = [float(e) for e in exact[m + 1][1:]]
                assert np.exp(table.log_row(m)) == pytest.approx(want, rel=1e-11)

    def test_constructor_validation(self):
        for sigma, shift in [(1.0, 1.0), (1.5, 1.0), (0.5, 0.0), (0.0, -2.0),
                             (math.nan, 1.0), (0.5, math.nan)]:
            with pytest.raises(DomainError):
                specfun.CoefficientTable(sigma, shift)
        with pytest.raises(DomainError):
            specfun.CoefficientTable(0.5, 1.0).log_row(-1)
