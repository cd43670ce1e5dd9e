import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pbdv
from scipy.stats import norm

from sigmadiv import specfun
from sigmadiv.errors import DomainError, TableSizeError

from helpers import (hermite_log_upward, noncentral_by_convolution,
                     scaled_coeff_table_exact, stirling1_by_cycles)
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

    def test_domain(self):
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

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_hermite(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.log_hermite(-1.0, 0.0)


def _ratio_table(t, n_orders):
    """t h_nu / h_{nu+1} for nu = -1 .. -n_orders (index -nu - 1)."""
    B = specfun.HERMITE_BLOCK
    blocks = [specfun.hermite_ratio_block(t, b) for b in range((n_orders - 1) // B + 1)]
    return np.concatenate(blocks)[:n_orders]


class TestHermiteRatioTable:
    def test_matches_scalar(self):
        # log h_nu = sum_{mu=nu}^{-1} log(p_mu / t) from h_0 = 1, against quadrature
        orders = -np.arange(1, 400, dtype=float)
        for t in (0.1, 1.0, 7.0):
            table = np.cumsum(np.log(_ratio_table(t, 399)) - math.log(t))
            scalar = np.array([specfun.log_hermite(v, t) for v in orders])
            assert np.abs(table - scalar).max() < 1e-9

    def test_deep_orders(self):
        n_orders = 400_000
        for t in (0.05, 1.41, 10.0):
            p = _ratio_table(t, n_orders)
            for nu in (-1, -2, -399, -4095, -4096, -4097, -65_537, -200_000, -400_000):
                want = math.log(t) + (specfun.log_hermite(nu, t)
                                      - (specfun.log_hermite(nu + 1, t) if nu < -1 else 0.0))
                assert abs(math.log(p[-nu - 1]) - want) <= 1e-9
            # h_0 = 1: climbing every ratio from h_{-4e5} closes at log h_0 = 0, up to
            # the anchor's own rounding (float spacing 4.7e-10 at |log h| ~ 2.4e6)
            climb = math.fsum(math.log(t) - np.log(p))
            assert specfun.log_hermite(-n_orders, t) + climb == pytest.approx(0.0, abs=3e-9)

    def test_cache_bounded(self):
        specfun._hermite_blocks.clear()
        bound = specfun._HERMITE_CACHE_BLOCKS
        for i in range(150):
            t = 0.05 + 0.1 * i
            for b in range(4):
                specfun.hermite_ratio_block(t, b)
            assert len(specfun._hermite_blocks) <= bound
        assert len(specfun._hermite_blocks) == bound  # 600 blocks asked for, the LRU kept the bound
        assert (t, 3) in specfun._hermite_blocks and (0.05, 0) not in specfun._hermite_blocks

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.hermite_ratio_block(0.0, 0)
        with pytest.raises(DomainError):
            specfun.hermite_ratio_block(1.0, -1)


class TestCoefficientTables:
    def test_stirling_first_kind_enumeration(self):
        table = specfun.build_coefficients("stirling1", n_max=12)
        assert table.log_value(4, 2).value() == pytest.approx(11.0, rel=1e-12)
        for n in range(1, 7):
            for k in range(1, n + 1):
                expected = stirling1_by_cycles(n, k)
                assert table.log_value(n, k).value() == pytest.approx(expected, rel=1e-10)

    def test_base_case_all_kinds(self):
        tables = [
            specfun.build_coefficients("stirling1", n_max=4),
            specfun.build_coefficients("gen_factorial", sigma=0.5, n_max=4),
            specfun.build_coefficients("gen_factorial", sigma=-1.0, n_max=4),
            specfun.build_coefficients("noncentral_stirling1", shift=3.0, n_max=4),
            specfun.build_coefficients("noncentral_gen_factorial", sigma=0.5,
                                       shift=2.5, n_max=4),
        ]
        for table in tables:
            lv = table.log_value(1, 1)
            assert lv.sign == 1
            # entry (1,1): 1 for central kinds, shift-free grow term otherwise
            if not table.kind.startswith("noncentral"):
                assert lv.log_magnitude == pytest.approx(0.0, abs=1e-12)

    def test_gen_factorial_recursion_interior(self):
        sigma = 0.5
        table = specfun.build_coefficients("gen_factorial", sigma=sigma, n_max=30)
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 29))
            k = int(rng.integers(1, n + 1))
            e_next = table.log_value(n + 1, k).value()
            stay = (n - sigma * k) * table.log_value(n, k).value()
            grow = table.log_value(n, k - 1).value() if k >= 1 else 0.0
            assert e_next == pytest.approx(stay + grow, rel=1e-11)

    @pytest.mark.parametrize("sigma,shift", [(Fraction(0), Fraction(7, 2)),
                                             (Fraction(1, 2), Fraction(5, 2)),
                                             (Fraction(-1), Fraction(4))])
    def test_noncentral_matches_convolution_identity(self, sigma, shift):
        table = specfun.build_coefficients(
            "noncentral_stirling1" if sigma == 0 else "noncentral_gen_factorial",
            sigma=float(sigma), shift=float(shift), n_max=25)
        for m in (1, 3, 8, 14):
            for j in range(0, m + 1):
                exact = noncentral_by_convolution(sigma, shift, m, j)
                got = table.log_value(m, j).value()
                assert got == pytest.approx(float(exact), rel=1e-9)

    def test_exact_rational_agreement_central(self):
        sigma = Fraction(1, 2)
        exact = scaled_coeff_table_exact(sigma, Fraction(0), 20)
        table = specfun.build_coefficients("gen_factorial", sigma=0.5, n_max=20)
        for n in (5, 12, 20):
            for k in range(1, n + 1):
                assert table.log_value(n, k).value() == pytest.approx(
                    float(exact[n][k]), rel=1e-11)

    def test_table_cap(self):
        table = specfun.build_coefficients("stirling1", n_max=10)
        with pytest.raises(TableSizeError):
            table.log_row(11)

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            specfun.build_coefficients("nope", n_max=5)
        with pytest.raises(DomainError):
            specfun.build_coefficients("gen_factorial", sigma=0.0, n_max=5)
        with pytest.raises(DomainError):
            specfun.build_coefficients("gen_factorial", sigma=1.5, n_max=5)
        with pytest.raises(DomainError):
            specfun.build_coefficients("noncentral_stirling1", shift=0.0, n_max=5)
        with pytest.raises(DomainError):
            specfun.build_coefficients("stirling1", shift=1.0, n_max=5)


class TestLogValue:
    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x):
        lv = specfun.LogValue.from_float(x)
        assert lv.value() == pytest.approx(x, rel=1e-12, abs=1e-300)
        assert (lv.sign == 0) == (x == 0.0)

    def test_zero_invariant(self):
        lv = specfun.LogValue.from_float(0.0)
        assert lv.sign == 0 and lv.log_magnitude == -np.inf
