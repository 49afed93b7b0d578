import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from scipy.special import roots_jacobi

from hypcircle import constants
from hypcircle.errors import ValidationError
from hypcircle.fracint import SampledSeries, frac_exp_reference, frac_integral_at, frac_integrate
from hypcircle.spectral.transforms import (
    _hr_halfterm,
    _shc_panels,
    h_r_closed,
    r_alpha,
    shc_direct,
    shc_frac,
)


def shc_reference(s, t, dps=25):
    """Independent quadrature with subdivision at the oscillation scale."""
    n = max(4, int(abs(t) * s / math.pi) + 1)
    pts = [s * k / n for k in range(n + 1)]
    f = lambda r: mp.sqrt(mp.cosh(s) - mp.cosh(r)) * mp.cos(r * t)
    with mp.workdps(dps):
        return float(2 ** 1.5 * mp.e ** (-s / 2) * 2 * mp.quad(f, pts))


class TestShcDirect:
    def test_even_in_t(self):
        assert shc_direct(4.0, 7.0) == shc_direct(4.0, -7.0)

    def test_bounded_by_center(self):
        h0 = shc_direct(6.0, 0.0)
        for t in np.linspace(0.1, 40.0, 23):
            assert abs(shc_direct(6.0, float(t))) <= h0

    @pytest.mark.parametrize("s,t", [(3.0, 4.0), (5.0, 0.5), (8.0, 20.0),
                                     (2.0, 50.0), (10.0, 100.0), (0.5, 3.0)])
    def test_against_reference_quadrature(self, s, t):
        assert shc_direct(s, t) == pytest.approx(shc_reference(s, t), rel=1e-9, abs=1e-12)

    def test_self_convergence(self):
        for (s, t) in [(10.0, 100.0), (30.0, 50.0)]:
            v0 = shc_direct(s, t)
            v1 = shc_direct(s, t, refine=1)
            assert abs(v0 - v1) <= 1e-10 * max(abs(v0), 1e-6)

    def test_domain(self):
        # cosh overflows a double near s = 710.5
        for s, t, why in [(0.0, 1.0, "cosh overflows"), (3.0, math.nan, "a finite t"),
                          (3.0, math.inf, "a finite t"), (math.inf, 1.0, "cosh overflows"),
                          (3.0, 1e300, "more than 4096 quadrature panels"),
                          (3.0, -1e300, "more than 4096 quadrature panels"),
                          (1e300, 1.0, "cosh overflows"), (711.0, 1.0, "cosh overflows")]:
            with pytest.raises(ValidationError, match=why):
                shc_direct(s, t)

    def test_array_of_radii(self):
        # one call takes any shape of radii; a float radius gives a float
        assert type(shc_direct(3.0, 7.0)) is float
        radii = np.array([[0.5, 2.0, 4.0], [6.0, 8.0, 10.0]])
        vals = shc_direct(radii, 7.0)
        assert vals.shape == radii.shape
        for s, v in zip(radii.ravel(), vals.ravel()):
            assert v == pytest.approx(shc_direct(float(s), 7.0), rel=1e-9, abs=1e-12)
        assert shc_direct(np.array([4.0]), 7.0)[0] == shc_direct(4.0, 7.0)
        for bad in (0.0, -1.0, 711.0, math.nan):
            with pytest.raises(ValidationError, match=f"cosh overflows; got {bad}"):
                shc_direct(np.array([2.0, bad, 3.0]), 7.0)


class TestHrClosed:
    @pytest.mark.parametrize("s,t", [(3.0, 4.0), (5.0, 0.5), (8.0, 20.0),
                                     (2.0, 43.0), (9.0, 50.0), (4.0, 1.3),
                                     (6.0, 11.0), (10.0, 2.2),
                                     # e^{2R} overflows past R = 354.9
                                     (355.0, 1.0), (700.0, 1.0),
                                     # e^{-2R} underflows to 0 past R = 372
                                     (400.0, 0.7), (400.0, 4.0), (400.0, 31.0),
                                     # Gamma(it) underflows past t = 450
                                     (3.0, 460.0), (3.0, 500.0), (3.0, 1000.0),
                                     # the same series below R = 1
                                     (0.01, 3.0), (0.05, 40.0), (0.3, 12.0), (0.9, 3.0)])
    def test_matches_direct_quadrature(self, s, t):
        lhs = shc_direct(s, t)
        rhs = math.exp(-0.5 * s) * h_r_closed(s, t).value
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_series_against_mpmath(self):
        # each half of the closed form, e^{itR} G(it) 2F1(-1/2, -1/2 - it; 1 - it; q),
        # at q = e^{-2R} from 0.01 up to 0.98 (R = 0.0101), where the series is longest
        for q in (0.01, 0.2, 0.6, 0.95, 0.98):
            R = -math.log(q) / 2.0
            for t in (0.7, 4.0, 31.0, -0.7, -4.0, -31.0):
                with mp.workdps(30):
                    it, Rm = mp.mpc(0, t), mp.mpf(R)
                    ref = complex(mp.exp(it * Rm) * mp.gamma(it) / mp.gamma(1.5 + it)
                                  * mp.hyp2f1(-0.5, -0.5 - it, 1 - it, mp.exp(-2 * Rm)))
                assert abs(_hr_halfterm(R, t) - ref) <= 1e-10 * abs(ref)

    def test_small_radius_envelope(self):
        for (R, t) in [(0.3, 3.0), (0.5, 12.0), (0.8, 40.0)]:
            res = h_r_closed(R, t)
            exact = math.exp(0.5 * R) * shc_direct(R, t)
            assert abs(res.value - exact) <= constants.HR_SMALL_R_ENVELOPE_C * res.error_bound

    @pytest.mark.parametrize("R", [0.01, 0.1, 0.5])
    def test_small_radius_against_mpmath(self, R):
        # 40-digit quadrature of 2^{3/2} int_{-R}^{R} (cosh R - cosh r)^{1/2} e^{irt} dr
        # on panels of two oscillations; measured worst 6.5e-11 at R = 0.01
        for t in (0.7, 17.0, 1000.0):
            n = max(4, int(t * R / (4.0 * math.pi)) + 1)
            with mp.workdps(40):
                f = lambda r: mp.sqrt(mp.cosh(R) - mp.cosh(r)) * mp.cos(t * r)
                ref = float(2 ** 1.5 * 2 * mp.quad(f, mp.linspace(0, R, n + 1)))
            assert h_r_closed(R, t).value == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_small_radius_high_frequency_decay(self):
        # |h_R(t)| <= c R^2 / (R t)^{3/2} deep in the oscillatory regime;
        # the J1 amplitude gives c = 2 pi sqrt(2/pi) ~ 5.0, measured max 5.12
        R = 0.5
        for t in (300.0, 1000.0, 3000.0):
            assert abs(h_r_closed(R, t).value) <= 6.0 * R * R / (R * t) ** 1.5

    def test_integer_it_rejected(self):
        # t is real, so i t is an integer only at t = 0, the pole of Gamma(it)
        with pytest.raises(ValidationError, match="closed form undefined at t = 0"):
            h_r_closed(2.0, 0.0)

    def test_domain(self):
        # sinh overflows a double near R = 710.5; below R = 0.01 the series
        # needs over 2,000 terms and loses digits to cancellation
        for R, t, why in [(0.0, 1.0, "<= R <="), (0.005, 3.0, "<= R <="),
                          (3.0, math.nan, "a finite real t"),
                          (3.0, complex(0.0, math.inf), "a finite real t"),
                          (math.inf, 1.0, "<= R <="), (711.0, 1.0, "<= R <=")]:
            with pytest.raises(ValidationError, match=why):
                h_r_closed(R, t)
        # the spectrum of PSL(2,Z) is real; a complex t is rejected, also off
        # both axes, where the transform is complex (-1.83807 + 1.68804i at
        # R = 2, t = 3 + 0.5i) and the real value could not carry it
        for t in (3.0 + 0.5j, 0.3j, complex(3.0, 0.0)):
            with pytest.raises(ValidationError, match="a finite real t"):
                h_r_closed(2.0, t)


class TestRAlpha:
    def test_modulus_identity(self):
        t, alpha = 7.3, 0.4
        r = r_alpha(t, alpha)
        ref = float(4.0 * mp.pi * abs(mp.gamma(1j * t)) ** 2
                    / (t ** (2 * alpha) * abs(mp.gamma(1.5 + 1j * t)) ** 2))
        assert abs(r) ** 2 == pytest.approx(ref, rel=1e-12)

    def test_decreasing_modulus(self):
        ts = np.linspace(1.0, 50.0, 60)
        mods = [abs(r_alpha(float(t), 0.25)) for t in ts]
        assert all(m1 > m2 for m1, m2 in zip(mods, mods[1:]))

    def test_alpha_to_zero_limit(self):
        t = 5.0
        r = r_alpha(t, 1e-6)
        ref = complex(2.0 * mp.sqrt(mp.pi) * mp.gamma(1j * t) / mp.gamma(1.5 + 1j * t))
        assert abs(r - ref) <= 1e-5 * abs(ref)

    @pytest.mark.parametrize("t", [460.0, 1000.0, 5000.0])
    def test_large_t(self, t):
        # Gamma(it) underflows and Gamma(3/2+it) with it; their ratio does not
        with mp.workdps(30):
            ref = complex(2.0 * mp.sqrt(mp.pi) * mp.gamma(1j * t)
                          / (mp.mpc(0, t) ** 0.25 * mp.gamma(1.5 + 1j * t)))
        assert abs(r_alpha(t, 0.25) - ref) <= 1e-10 * abs(ref)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError, match="undefined at t = 0"):
            r_alpha(0.0, 0.5)
        # orders outside (0, 1] are rejected like everywhere else
        for order in (5.0, -1.0):
            with pytest.raises(ValidationError):
                r_alpha(10.0, order)


class TestShcFrac:
    def test_order_one_is_plain_integral(self):
        # independent reference: composite Gauss-Legendre of the transform in
        # its radius variable
        from hypcircle.specfun import gauss_legendre

        # s = 9.3 is not a multiple of the step: the value must still be taken at s
        x, w = gauss_legendre(32)
        for s in (9.0, 9.3):
            res = shc_frac(s, 7.0, 1.0)
            edges = np.linspace(0.0, s, 33)
            ref = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                nodes = lo + (hi - lo) * x
                vals = np.array([shc_direct(float(v), 7.0) for v in nodes])
                ref += (hi - lo) * float(np.sum(w * vals))
            assert res.value == pytest.approx(ref, abs=1e-6), s

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_main_term_error_decay(self, alpha):
        for t in (5.0, 10.0, 20.0, 40.0):
            res = shc_frac(10.0, t, alpha)
            envelope = 1.0 / (t ** (1.0 + alpha) * (1.0 + math.sqrt(t)))
            assert abs(res.value - res.asymptotic) <= constants.SHC_FRAC_TAIL_C * envelope

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_uniform_decay_bound(self, alpha):
        for t in np.geomspace(5.0, 100.0, 7):
            res = shc_frac(10.0, float(t), alpha)
            assert abs(res.value) * t ** (1.5 + alpha) <= constants.SHC_FRAC_DECAY_C

    def test_uniform_radius_growth(self):
        # |shc_frac| <= C s^{alpha+1} across radii
        alpha = 0.3
        for s in (3.0, 6.0, 10.0, 14.0):
            res = shc_frac(s, 2.0, alpha)
            assert abs(res.value) <= 2.0 * s ** (alpha + 1.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.75])
    def test_against_product_rule(self, alpha):
        # independent reference: the product rule on 8192 samples per unit
        # radius, O(step^2) away from the integral
        s, t = 6.0, 20.0
        cells = int(s * 8192)
        radii = s * np.arange(cells + 1) / cells
        # radius 0 has transform 0
        vals = np.concatenate([[0.0]] + [shc_direct(chunk, t) for chunk in np.array_split(radii[1:], 16)])
        ref = frac_integrate(SampledSeries(0.0, s / cells, vals), alpha).values[-1]
        assert shc_frac(s, t, alpha).value == pytest.approx(ref, rel=3e-5)

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 1.0])
    def test_node_doubling(self, alpha):
        # twice the panels shc_frac uses moves no value by more than 1e-9 relative
        # (measured 1.9e-10); the former global Gauss-Jacobi rule moved alpha = 0.05
        # by more than 1e-8
        s = 10.0
        for t in np.geomspace(5.0, 100.0, 9):
            t = float(t)
            value = shc_frac(s, t, alpha).value
            panels = 2 * _shc_panels(s, t)
            doubled = frac_integral_at(lambda x: shc_direct(x, t), alpha, s, panels)
            assert value == pytest.approx(doubled, rel=1e-9), t

    def test_jacobi_nodes_bounded(self, monkeypatch):
        # scipy's Gauss-Jacobi nodes lose accuracy as their count grows; the
        # composite rule asks for 32 at a time, however large |t| s
        calls = []

        def spy(n, a, b):
            calls.append(n)
            return roots_jacobi(n, a, b)

        monkeypatch.setattr(scipy.special, "roots_jacobi", spy)  # frac_integral_at imports it per call
        shc_frac(10.0, 100.0, 0.05)
        shc_frac(3.0, 500.0, 0.5)
        frac_exp_reference(3.0, 0.25, 30.0, method="quadrature")
        assert calls and max(calls) <= 32

    def test_memory_per_panel(self, numpy_peak):
        # shc_direct sees one panel's 32 radii at a time: numpy's peak
        # allocation reads 10 MiB, where the former rule held all 2,540 radii
        # against the transform nodes and peaked at 619 MiB
        assert numpy_peak(lambda: shc_frac(10.0, 500.0, 0.5)) < 300 * 2 ** 20

    def test_domain(self):
        with pytest.raises(ValidationError, match="a finite s > 2"):
            shc_frac(1.0, 5.0, 0.5)
        # at s = 100, t = 1000, 3,979 panels of 32 radii would each meet up to
        # 127,328 transform nodes: 1.6e10 evaluations, past the work bound
        for s, t, why in [(5.0, 0.0, "a finite t != 0"), (5.0, math.nan, "a finite t != 0"),
                          (5.0, -math.inf, "a finite t != 0"), (math.inf, 1.0, "a finite s > 2"),
                          (100.0, 1000.0, "needs over 67108864 evaluations")]:
            with pytest.raises(ValidationError, match=why):
                shc_frac(s, t, 0.5)
