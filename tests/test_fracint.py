import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from hypcircle.errors import DomainError, ValidationError
from hypcircle.fracint import (
    SampledSeries,
    frac_exp_reference,
    frac_indicator_exp,
    frac_integrate,
)

STEP = 1.0 / 512.0
ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0)


def make_series(fn, s_max=15.0, step=STEP):
    n = int(round(s_max / step)) + 1
    grid = step * np.arange(n)
    return SampledSeries(0.0, step, fn(grid)), grid


class TestTypes:
    def test_frac_order_range(self):
        ones = SampledSeries(0.0, STEP, np.ones(4))
        frac_integrate(ones, 1.0)
        frac_integrate(ones, 1e-6)
        with pytest.raises(ValidationError):
            frac_integrate(ones, 0.0)
        with pytest.raises(ValidationError):
            frac_integrate(ones, 1.2)
        with pytest.raises(ValidationError):
            frac_integrate(ones, math.nan)

    def test_series_invariants(self):
        with pytest.raises(ValidationError):
            SampledSeries(0.0, 0.0, np.ones(3))
        with pytest.raises(ValidationError):
            SampledSeries(0.0, 0.1, np.array([]))


class TestClosedForms:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_constant(self, alpha):
        series, grid = make_series(np.ones_like)
        out = frac_integrate(series, alpha).values
        mask = grid >= 1.0
        ref = grid[mask] ** alpha / gamma(alpha + 1.0)
        assert np.max(np.abs(out[mask] - ref) / ref) <= 1e-3

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_linear(self, alpha):
        series, grid = make_series(lambda g: g.copy())
        out = frac_integrate(series, alpha).values
        mask = grid >= 1.0
        ref = grid[mask] ** (alpha + 1.0) / gamma(alpha + 2.0)
        assert np.max(np.abs(out[mask] - ref) / ref) <= 1e-3

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exponential(self, alpha):
        series, grid = make_series(np.exp)
        out = frac_integrate(series, alpha).values
        mask = grid >= 1.0
        ref = frac_exp_reference(1.0, alpha, grid[mask])
        assert np.max(np.abs(out[mask] - ref) / ref) <= 1e-3

    def test_order_one_is_running_integral(self):
        series, grid = make_series(lambda g: np.cos(g) + 0.3 * g, s_max=5.0)
        out = frac_integrate(series, 1.0).values
        ref = np.sin(grid) + 0.15 * grid * grid
        assert np.max(np.abs(out - ref)) <= 1e-5

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.45), (0.2, 0.2), (0.5, 0.5)])
    def test_semigroup(self, alpha, beta):
        series, grid = make_series(lambda g: np.cos(g) + 1.5, s_max=10.0)
        ab = frac_integrate(frac_integrate(series, alpha), beta).values
        direct = frac_integrate(series, alpha + beta).values
        mask = grid >= 1.0
        assert np.max(np.abs(ab[mask] - direct[mask]) / np.abs(direct[mask])) <= 5e-3


class TestOperatorProperties:
    def test_linearity(self):
        rng = np.random.default_rng(0)
        v1, v2 = rng.normal(size=600), rng.normal(size=600)
        s1 = SampledSeries(0.0, 0.01, v1)
        s2 = SampledSeries(0.0, 0.01, v2)
        s12 = SampledSeries(0.0, 0.01, 2.0 * v1 - 3.0 * v2)
        lhs = frac_integrate(s12, 0.4).values
        rhs = 2.0 * frac_integrate(s1, 0.4).values - 3.0 * frac_integrate(s2, 0.4).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_positivity(self):
        rng = np.random.default_rng(1)
        s = SampledSeries(0.0, 0.01, rng.random(800))
        assert np.all(frac_integrate(s, 0.33).values >= -1e-14)

    def test_output_base_point_zero(self):
        s = SampledSeries(0.0, 0.1, np.ones(10))
        assert frac_integrate(s, 0.5).values[0] == 0.0

    def test_alpha_to_zero_convergence(self):
        # uniform convergence holds away from the base point; measure on [1, 5]
        step = 1.0 / 2048.0
        n = int(round(5.0 / step)) + 1
        grid = step * np.arange(n)
        series = SampledSeries(0.0, step, np.cos(grid) + 2.0)
        mask = grid >= 1.0
        errs = []
        for a in (0.2, 0.1, 0.05, 0.02):
            out = frac_integrate(series, a).values
            errs.append(float(np.max(np.abs(out[mask] - series.values[mask]))))
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


class TestFracExpReference:
    def test_order_one(self):
        assert frac_exp_reference(1.0, 1.0, 2.0) == pytest.approx(math.e ** 2 - 1.0, rel=1e-13)

    def test_large_s_main_term(self):
        # value/e^20 within 5% of 1 for beta=1, alpha=0.5
        v = frac_exp_reference(1.0, 0.5, 20.0)
        assert 0.95 <= v / math.e ** 20 <= 1.05

    def test_closed_vs_quadrature(self):
        # measured worst 1.2e-13 over beta in {0.5, 1, 3}, seven orders and s in [0.01, 30]
        for (b, a, s) in [(1.0, 0.5, 2.0), (0.5, 0.25, 10.0), (2.0, 0.9, 4.0),
                          (0.5, 0.01, 9.0), (1.0, 0.5, 20.0), (3.0, 0.05, 30.0),
                          (0.5, 1.0, 0.01)]:
            c = frac_exp_reference(b, a, s)
            q = frac_exp_reference(b, a, s, method="quadrature")
            assert q == pytest.approx(c, rel=1e-12)

    def test_quadrature_at_zero(self):
        # the kernel (s - x)^(a-1) is infinite at s = x = 0; no warning, no NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frac_exp_reference(0.5, 0.5, 0.0, method="quadrature") == 0.0

    def test_grid_consistency(self):
        # sampled exponential pushed through the discrete operator
        step = 1e-3
        n = int(round(6.0 / step)) + 1
        grid = step * np.arange(n)
        series = SampledSeries(0.0, step, np.exp(0.7 * grid))
        out = frac_integrate(series, 0.6).values
        ref = frac_exp_reference(0.7, 0.6, grid[-1])
        assert out[-1] == pytest.approx(ref, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_exp_reference(-1.0, 0.5, 2.0)


class TestFracIndicatorExp:
    def test_empty_range(self):
        assert frac_indicator_exp(3.0, 0.5, 2.0) == 0.0

    def test_order_one_closed_form(self):
        assert frac_indicator_exp(0.0, 1.0, 2.0) == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)), rel=1e-13)

    def test_quadrature_oracle(self):
        # reference quadrature with the kernel singularity substituted away
        import mpmath as mp
        for (d, a, s) in [(0.5, 0.4, 3.0), (0.0, 0.25, 6.0), (2.0, 0.9, 2.5)]:
            with mp.workdps(25):
                ref = float(mp.quad(
                    lambda v: mp.e ** (-(s - v ** (1.0 / a)) / 2), [0, (s - d) ** a])
                    / a / mp.gamma(a))
            assert frac_indicator_exp(d, a, s) == pytest.approx(ref, rel=1e-10)

    def test_overflow_limit(self):
        # the integral, of size e^{X/2}, overflows from X = s - d = 1418 (alpha
        # = 1) to 1433, so past 1400 it is refused; below the limit it matches mpmath
        import mpmath as mp
        a, X = 0.5, 1400.0
        with mp.workdps(30):
            ref = float(mp.e ** (-X / 2) * X ** a / a * mp.hyp1f1(a, a + 1, X / 2) / mp.gamma(a))
        assert ref == pytest.approx(0.0301787889377, rel=1e-11)
        assert frac_indicator_exp(0.0, a, X) == pytest.approx(ref, rel=1e-12)
        for d, s in [(0.0, 1500.0), (10.0, 1411.0)]:
            with pytest.raises(DomainError, match="1400"):
                frac_indicator_exp(d, a, s)
        with pytest.raises(DomainError):
            frac_indicator_exp(0.0, a, np.array([5.0, 1500.0]))
