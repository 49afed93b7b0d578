import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hypcircle.errors import ValidationError
from hypcircle.specfun import bessel_k_imag_scaled, lower_incomplete_exp

SRC = Path(__file__).resolve().parents[1] / "src"

# Recomputes every bundled norm (the top form, t = 26.447, reaches the band
# x ~ t) and the amplitudes at z = w = i, then reports whether mpmath loaded.
_NORMS_WITHOUT_MPMATH = """
import sys
from hypcircle.geometry import Point
from hypcircle.spectral import SpectralDatum, amplitude, bundled_dataset, normalize_l2
bundled = bundled_dataset()
rel = max(abs(normalize_l2(SpectralDatum(t=f.t, parity=f.parity, coeffs=f.coeffs)) / f.l2norm - 1.0)
          for f in bundled.forms)
amplitude(bundled, Point(0.0, 1.0), Point(0.0, 1.0))
print(len(bundled.forms), max(f.t for f in bundled.forms), rel, "mpmath" in sys.modules)
"""


class TestBesselKImag:
    def test_k0_reference(self):
        # classical K_0(1)
        assert bessel_k_imag_scaled(0.0, 1.0) == pytest.approx(0.4210244382407085, rel=1e-12)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(11)
        pts = [(1.0, 0.5), (13.78, 6.28), (26.0, 30.0), (26.0, 1.36), (60.0, 0.001),
               (60.0, 119.0), (45.0, 45.0), (9.53, 3.0)]
        pts += [(float(rng.uniform(0, 61)), float(10 ** rng.uniform(-3, 2.05)))
                for _ in range(20)]
        for t, x in pts:
            with mp.workdps(30):
                ref = float(mp.re(mp.besselk(mp.mpc(0, t), mp.mpf(x)) * mp.exp(0.5 * mp.pi * t)))
            got = bessel_k_imag_scaled(t, x)
            # relative where the value is on the oscillation scale, absolute near zeros
            assert abs(got - ref) <= 1e-10 * (abs(ref) + 1e-2)

    def test_even_in_t(self):
        assert bessel_k_imag_scaled(5.0, 2.0) == bessel_k_imag_scaled(-5.0, 2.0)

    def test_dominated_by_k0(self):
        # |K_it(x)| <= K_0(x); the scaled values carry exp(pi t/2)
        for t in (0.5, 3.0, 10.0):
            for x in (0.1, 1.0, 5.0):
                unscaled = bessel_k_imag_scaled(t, x) * math.exp(-0.5 * math.pi * t)
                assert abs(unscaled) <= bessel_k_imag_scaled(0.0, x) + 1e-300

    def test_positive_at_zero_order(self):
        assert bessel_k_imag_scaled(0.0, 2.5) > 0

    def test_moderate_decay_value(self):
        # far tail but still representable: must be accurate, not zeroed
        with mp.workdps(40):
            ref = float(mp.besselk(mp.mpc(0, 5.0), mp.mpf(60.0)).real * mp.exp(2.5 * mp.pi))
        assert bessel_k_imag_scaled(5.0, 60.0) == pytest.approx(ref, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValidationError, match="K_it requires finite t and 0 < x < inf"):
            bessel_k_imag_scaled(1.0, 0.0)

    @pytest.mark.parametrize("t, x", [(1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0),
                                      (-math.inf, 1.0)])
    def test_non_finite_arguments(self, t, x):
        with pytest.raises(ValidationError, match="K_it requires finite t and 0 < x < inf"):
            bessel_k_imag_scaled(t, x)

    def test_quadrature_node_doubling(self):
        # halving the step of the line rule moves nothing at the 1e-10 level
        # where x > t puts the line through the saddle
        from hypcircle.specfun import _besselk_line_scaled

        for (t, x) in [(3.0, 9.0), (12.0, 70.0), (26.0, 45.0)]:
            v0 = _besselk_line_scaled(t, x)
            v1 = _besselk_line_scaled(t, x, refine=1)
            assert abs(v0 - v1) <= 1e-10 * max(abs(v0), 1e-4)

    def test_line_rule_band_grid(self):
        # the line rule against mpmath on a grid from x << t (small-x series
        # territory) through the band x ~ t to x >> t (real-axis integral),
        # plus the extremes of each: t = 0, tiny x, huge x, large t
        band = [(t, x) for t in np.linspace(10.0, 61.0, 13) for x in t * np.geomspace(0.02, 8.0, 14)]
        band += [(26.447, 26.447), (61.0, 61.0), (40.0, 40.0 * (1.0 + 1e-9))]
        band += [(0.0, 1e-3), (0.0, 700.0), (0.05, 800.0), (63.0, 0.0035), (150.0, 0.05)]
        for t, x in band:
            with mp.workdps(max(40, 30 + int(0.45 * t))):
                ref = float(mp.re(mp.besselk(mp.mpc(0, t), mp.mpf(x)) * mp.exp(0.5 * mp.pi * t)))
            got = bessel_k_imag_scaled(t, x)
            assert abs(got - ref) <= 1e-10 * (abs(ref) + 1e-2), (t, x, got, ref)

    def test_line_rule_step_halving(self):
        # halving the step of the shifted-line rule moves nothing at the 1e-10
        # level, below, at and above x = t and deep in the decaying tail
        from hypcircle.specfun import _besselk_line_scaled

        for (t, x) in [(26.447, 30.0), (61.0, 52.0), (40.0, 40.0), (45.0, 47.0), (61.0, 230.0)]:
            v0 = _besselk_line_scaled(t, x)
            v1 = _besselk_line_scaled(t, x, refine=1)
            assert abs(v0 - v1) <= 1e-10 * max(abs(v0), 1e-300)

    @pytest.mark.parametrize("refine", [0, 1])
    @pytest.mark.parametrize("t", [0.0, 9.53, 26.447, 61.0])
    def test_array_call_matches_scalar_calls(self, t, refine):
        # every x keeps its own line, step and cut-off: one call over many x
        # returns, bit for bit, what one call per x returns
        from hypcircle.specfun import _besselk_line_scaled

        xs = np.geomspace(1e-3, 300.0, 500)
        one_call = _besselk_line_scaled(t, xs, refine=refine)
        per_x = [_besselk_line_scaled(t, float(x), refine=refine) for x in xs]
        assert np.array_equal(one_call, per_x)

    def test_array_shapes(self):
        xs = np.linspace(0.5, 9.0, 12)
        assert type(bessel_k_imag_scaled(3.0, np.float64(2.0))) is float
        assert type(bessel_k_imag_scaled(3.0, np.array(2.0))) is float
        assert bessel_k_imag_scaled(3.0, xs).shape == (12,)
        grid = bessel_k_imag_scaled(3.0, xs.reshape(3, 4))
        assert grid.shape == (3, 4) and grid[1, 2] == bessel_k_imag_scaled(3.0, float(xs[6]))
        empty = bessel_k_imag_scaled(3.0, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_array_with_one_bad_x(self, bad):
        xs = np.linspace(0.5, 40.0, 200)
        xs[137] = bad
        with pytest.raises(ValidationError, match="K_it requires finite t and 0 < x < inf") as err:
            bessel_k_imag_scaled(9.53, xs)
        msg = str(err.value)
        assert "\n" not in msg and msg.endswith(f"x = {bad}") and "40.0" not in msg

    def test_transition_band_accuracy(self):
        # independent arbitrary-precision values across path switches
        for (t, x) in [(3.0, 9.0), (12.0, 70.0), (26.0, 28.0), (26.0, 35.0)]:
            with mp.workdps(30):
                ref = float(mp.re(mp.besselk(mp.mpc(0, t), mp.mpf(x)) * mp.exp(0.5 * mp.pi * t)))
            assert bessel_k_imag_scaled(t, x) == pytest.approx(ref, rel=1e-9, abs=1e-14)


def test_norms_reproduce_without_mpmath():
    # no runtime path imports mpmath; the tests keep it as their oracle
    proc = subprocess.run([sys.executable, "-c", _NORMS_WITHOUT_MPMATH],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    forms, t_top, rel, loaded = proc.stdout.split()
    assert (forms, loaded) == ("24", "False")
    assert abs(float(t_top) - 26.447) < 1e-3
    assert float(rel) <= 1e-10


class TestLowerIncompleteExp:
    def test_zero(self):
        assert lower_incomplete_exp(0.5, 0.0) == 0.0

    def test_order_one(self):
        # integral_0^2 e^{u/2} du = 2(e - 1)
        assert lower_incomplete_exp(1.0, 2.0) == pytest.approx(2.0 * (math.e - 1.0), rel=1e-13)

    def test_quadrature_oracle(self):
        # substitution u = v^(1/alpha) removes the endpoint singularity so the
        # reference quadrature is trustworthy
        for alpha, X in [(0.5, 1.0), (0.25, 7.0), (0.8, 14.0)]:
            with mp.workdps(30):
                ref = float(mp.quad(lambda v: mp.e ** (v ** (1.0 / alpha) / 2), [0, X ** alpha])
                            / alpha)
            assert lower_incomplete_exp(alpha, X) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_kummer_near_and_far_field(self, alpha):
        # the exact path evaluates L at X in (0, 1/512] in its near field and
        # at X in [1/512, s_max] for its Chebyshev kernel; seeded X in both
        # ranges (down to 1e-12) against Kummer's M at 40 digits
        rng = np.random.default_rng(2024)
        X = np.concatenate([(1.0 - rng.random(20)) / 512.0,
                            10.0 ** rng.uniform(-12.0, math.log10(1.0 / 512.0), 10),
                            rng.uniform(1.0 / 512.0, 30.0, 30)])
        got = lower_incomplete_exp(alpha, X)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            ref = np.array([float(mp.mpf(x) ** a / a * mp.hyp1f1(a, a + 1, mp.mpf(x) / 2))
                            for x in X])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14

    @pytest.mark.parametrize("X", [700.0, 1000.0])
    def test_large_argument(self, X):
        # near the overflow limit, where L ~ e^{X/2}
        for alpha in (0.05, 0.5, 1.0):
            with mp.workdps(30):
                ref = float(mp.mpf(X) ** alpha / alpha * mp.hyp1f1(alpha, alpha + 1, X / 2))
            assert lower_incomplete_exp(alpha, X) == pytest.approx(ref, rel=1e-12)

    def test_overflow_is_inf(self):
        # L overflows from X = 1418 (alpha = 1) to 1433 (alpha -> 0): inf there,
        # however large X is, and the finite value beside it is unchanged
        with np.errstate(over="ignore"):
            got = lower_incomplete_exp(0.5, np.array([1000.0, 1500.0, 1e300, math.inf]))
        assert got[0] == pytest.approx(lower_incomplete_exp(0.5, 1000.0), rel=1e-14)
        assert np.all(got[1:] == math.inf)

    def test_vectorized_matches_scalar(self):
        X = np.array([0.0, 0.3, 2.0, 11.0])
        vec = lower_incomplete_exp(0.4, X)
        for i, x in enumerate(X):
            assert vec[i] == pytest.approx(lower_incomplete_exp(0.4, float(x)), rel=1e-14)

    def test_array_shapes(self):
        # a 2-d array keeps its shape, elementwise as if flat; an empty one too
        X = np.array([[11.0, 0.3], [0.0, 2.0]])
        assert np.array_equal(lower_incomplete_exp(0.4, X),
                              lower_incomplete_exp(0.4, X.ravel()).reshape(2, 2))
        assert lower_incomplete_exp(0.4, np.empty(0)).shape == (0,)

    def test_domain(self):
        # a negative X or a NaN is refused, not returned as NaN
        for X in (-1.0, math.nan, np.array([2.0, math.nan])):
            with pytest.raises(ValidationError, match="X must be >= 0 and not NaN"):
                lower_incomplete_exp(0.5, X)
        # an order outside (0, 1] is refused by the check every layer shares
        for alpha in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValidationError, match=r"order must lie in \(0, 1\]"):
                lower_incomplete_exp(alpha, 2.0)
