import math

import mpmath as mp
import numpy as np
import pytest

from hypcircle.fracint import SampledSeries, frac_exp_reference, frac_integrate
from hypcircle.geometry import Point
from hypcircle.specfun import gauss_legendre
from hypcircle.spectral import (
    Amplitude,
    amplitude,
    bundled_dataset,
    f_alpha_sum,
    main_term,
    spectral_variance,
)
from hypcircle.spectral.terms import MODULAR_COVOLUME

I = Point(0.0, 1.0)


@pytest.fixture(scope="module")
def amps_ii():
    return amplitude(bundled_dataset(), I, I)


def integrated_main_term(alpha, s):
    """3 I_a(e^{t/2})(s): the main term of e_a, as exact_e_alpha subtracts it."""
    return 3.0 * frac_exp_reference(0.5, alpha, s)


class TestMainTerm:
    def test_modular_volume(self):
        # covolume verified by quadrature of the fundamental-domain area
        x, w = gauss_legendre(64)
        nodes = -0.5 + 1.0 * x
        area = float(np.sum(w * (1.0 / np.sqrt(1.0 - nodes ** 2))))
        assert area == pytest.approx(MODULAR_COVOLUME, abs=1e-6)

    def test_modular_values(self):
        assert main_term(0.0) == pytest.approx(3.0, rel=1e-15)
        assert main_term(10.0) == pytest.approx(3.0 * math.e ** 10, rel=1e-12)


class TestMainTermAlpha:
    """Fractional integral (order a, based at 0) of main_term(s) e^{-s/2}."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_modular_closed_form(self, alpha):
        # (pi/vol) 2^a e^{s/2} P(a, s/2), with P from mpmath, not scipy
        s = 7.0
        p = float(mp.gammainc(alpha, 0, 0.5 * s, regularized=True))
        ref = 3.0 * 2.0 ** alpha * math.exp(0.5 * s) * p
        assert integrated_main_term(alpha, s) == pytest.approx(ref, rel=1e-12)

    def test_order_one_quadrature_consistency(self):
        # I_1(M(s) e^{-s/2}) = 6(e^{s/2} - 1), and the product rule applied to
        # the sampled main term reproduces it
        s, step = 12.0, 1.0 / 512.0
        exact = integrated_main_term(1.0, s)
        assert exact == pytest.approx(6.0 * (math.exp(0.5 * s) - 1.0), rel=1e-13)
        grid = step * np.arange(int(round(s / step)) + 1)
        series = SampledSeries(0.0, step, main_term(grid) * np.exp(-0.5 * grid))
        assert frac_integrate(series, 1.0).values[-1] == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_budget_matches_exact_tail(self, alpha):
        # the grid path integrates the sampled main term; its share of the
        # grid-vs-exact gap is negligible (measured max rel 1.5e-7 on [0, 9])
        step = 1.0 / 512.0
        grid = step * np.arange(int(round(9.0 / step)) + 1)
        series = SampledSeries(0.0, step, main_term(grid) * np.exp(-0.5 * grid))
        exact = integrated_main_term(alpha, grid)
        gap = np.max(np.abs(frac_integrate(series, alpha).values - exact))
        assert gap <= 1e-6 * np.max(exact)

    def test_budget_envelope_shape(self):
        # the integration tail (pi/vol) 2^a e^{s/2} - 3 I_a(e^{t/2})(s) decays
        # like 2 (pi/vol) / (Gamma(a) s^(1-a))
        alpha, s = 0.5, 20.0
        tail = 3.0 * 2.0 ** alpha * math.exp(0.5 * s) - integrated_main_term(alpha, s)
        envelope = 6.0 / (math.gamma(alpha) * s ** (1.0 - alpha))
        assert 0.0 < tail <= envelope * 1.01


class TestSpectralVariance:
    def test_empty(self):
        res = spectral_variance([], 0.5, 60.0)
        assert res.value == 0.0 and math.isinf(res.tail_bound)

    def test_single_synthetic_form(self):
        res = spectral_variance([Amplitude(10.0, 1.0)], 0.5, 60.0)
        g = mp.gamma(10.0j)
        g32 = mp.gamma(1.5 + 10.0j)
        expect = float(2.0 * mp.pi * abs(g) ** 2 / (10.0 * abs(g32) ** 2))
        assert res.value == pytest.approx(expect, rel=1e-11)

    def test_unlimited_cutoff_tail_at_top_form(self, amps_ii):
        # t_max = inf sums every form; its tail starts past the top one, where
        # inf^(-1-2a) read 0.0 against 0.0529 at t_top = 26.447 for a = 0.25
        t_top = max(a.t for a in amps_ii)
        unlimited = spectral_variance(amps_ii, 0.25, math.inf)
        assert unlimited == spectral_variance(amps_ii, 0.25, t_top)
        assert unlimited.terms == 24 and unlimited.tail_bound > 0.05

    def test_monotone_in_alpha(self, amps_ii):
        v = [spectral_variance(amps_ii, a, 60.0).value for a in (0.5, 0.25, 0.1)]
        assert v[0] <= v[1] <= v[2]


class TestFAlphaSum:
    def test_empty(self):
        assert f_alpha_sum([], 0.5, 3.0) == 0.0

    def test_single_form_periodicity(self):
        amp = [Amplitude(10.0, 2.0)]
        s = 4.2
        v1 = f_alpha_sum(amp, 0.25, s)
        v2 = f_alpha_sum(amp, 0.25, s + 2.0 * math.pi / 10.0)
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_vectorized(self, amps_ii):
        s = np.array([1.0, 2.0, 3.5])
        vec = f_alpha_sum(amps_ii, 0.25, s)
        for k, sv in enumerate(s):
            assert vec[k] == pytest.approx(f_alpha_sum(amps_ii, 0.25, float(sv)), rel=1e-12)
