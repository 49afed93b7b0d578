"""Special functions the spectral side depends on.

K-Bessel with imaginary order, Gauss 2F1 on the negative real axis, and the
exponential-kernel incomplete integral.  Everything is double precision; the
K-Bessel falls back to arbitrary precision on the narrow transition band
where no double-precision representation is cancellation-free.
"""

from __future__ import annotations

import math
import cmath
from functools import lru_cache

import numpy as np
from scipy.special import gamma
from scipy.special import k0 as _scipy_k0

from .errors import (
    ArgumentOutOfRange,
    DomainError,
    NonConvergence,
    PoleProximity,
)

__all__ = [
    "bessel_k_imag_scaled",
    "gauss_2f1",
    "lower_incomplete_exp",
    "gauss_legendre",
]


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# K-Bessel with imaginary order
# ---------------------------------------------------------------------------

# Largest tolerated log-growth of ascending-series terms before the
# accumulated cancellation would eat the 1e-10 accuracy target.
_SERIES_MAX_LOG_GROWTH = 8.0
# Largest tolerated log of (integrand peak / value) for the cosine integral.
_COSINT_MAX_LOG_CANCEL = 8.0


def _series_log_growth(t: float, x: float) -> float:
    """Predicted log of max-term/first-term ratio for the ascending series."""
    q = 0.25 * x * x
    total = 0.0
    k = 0
    while k < 4000:
        r = q / ((k + 1) * math.hypot(k + 1, t))
        if r <= 1.0:
            break
        total += math.log(r)
        k += 1
    return total


def _cosint_log_cancel(t: float, x: float) -> float:
    """Saddle-point estimate of log(integrand peak / integral value).

    The integrand peaks at exp(-x) while the value sits at the saddle
    u = i arcsin(t/x) (capped at i pi/2), so the quadrature sum loses
    roughly exp(t theta - x (1 - cos theta)) to cancellation.
    """
    if t <= 0.0:
        return 0.0
    theta = math.asin(min(1.0, t / x))
    return t * theta - x * (1.0 - math.cos(theta))


def _besselk_series_scaled(t: float, x: float) -> float:
    """exp(pi t / 2) K_{it}(x) by the ascending series, all factors pre-scaled."""
    if t == 0.0:
        return float(_scipy_k0(x))
    # K_{it}(x) = -pi Im(I_{it}(x)) / sinh(pi t); scale both sides by e^{pi t/2}.
    g = math.exp(-0.5 * math.pi * t) / complex(gamma(1.0 + 1j * t))
    q = 0.25 * x * x
    acc = g
    term = g
    for k in range(1, 600):
        term = term * q / (k * (k + 1j * t))
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
    rot = cmath.exp(1j * t * math.log(0.5 * x))
    im = (rot * acc).imag
    return -2.0 * math.pi * im / (-math.expm1(-2.0 * math.pi * t))


def _besselk_cosint_scaled(t: float, x: float, refine: int = 0) -> float:
    """exp(pi t/2) K_{it}(x) by trapezoidal quadrature of the cosine integral.

    The integrand exp(-x cosh u) cos(t u) is even and analytic on the strip
    |Im u| < pi/2, so the trapezoid rule converges geometrically.  The step
    resolves both the strip (aliasing in the oscillation) and, for x > t,
    the Gaussian concentration of width 1/sqrt(x) around u = 0.  The factor
    exp(-x) is pulled out so the sum never underflows.  `refine` halves the
    step for self-convergence tests.
    """
    h = min((math.pi ** 2) / (math.pi * abs(t) + 34.5),
            2.0 * math.pi / (abs(t) + math.sqrt(60.0 * x)),
            0.28) / (1 << refine)
    u_max = math.acosh(1.0 + 46.0 / x)
    n = int(u_max / h) + 2
    u = h * np.arange(n + 1)
    vals = np.exp(-x * (np.cosh(u) - 1.0)) * np.cos(t * u)
    integral = h * (0.5 * vals[0] + np.sum(vals[1:]))
    log_scale = 0.5 * math.pi * t - x
    if log_scale < -700.0:
        return 0.0
    return float(integral) * math.exp(log_scale)


def _besselk_mpmath_scaled(t: float, x: float) -> float:
    """Arbitrary-precision fallback for the transition band."""
    import mpmath as mp

    cancel_digits = 0.45 * max(0.0, 0.5 * math.pi * t - min(x, 0.5 * math.pi * t))
    with mp.workdps(20 + int(cancel_digits)):
        val = mp.besselk(mp.mpc(0, t), mp.mpf(x)) * mp.exp(0.5 * mp.pi * t)
        return float(mp.re(val))


def bessel_k_imag_scaled(t: float, x: float) -> float:
    """exp(pi t / 2) K_{it}(x) for t >= 0, x > 0 (no underflow for moderate t)."""
    if not x > 0.0:
        raise DomainError(f"K_it requires x > 0, got x = {x}")
    if t < 0.0:
        t = -t  # K_{it} is even in t
    if t == 0.0:
        return float(_scipy_k0(x)) if x < 700 else _besselk_cosint_scaled(0.0, x)
    if _cosint_log_cancel(t, x) <= _COSINT_MAX_LOG_CANCEL:
        return _besselk_cosint_scaled(t, x)
    if _series_log_growth(t, x) <= _SERIES_MAX_LOG_GROWTH:
        return _besselk_series_scaled(t, x)
    return _besselk_mpmath_scaled(t, x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1 for arguments on (-1, 0]
# ---------------------------------------------------------------------------

def _hyp2f1_series(a: complex, b: complex, c: complex, x: float) -> complex:
    term = complex(1.0)
    acc = complex(1.0)
    for k in range(800):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        acc += term
        if abs(term) <= 1e-16 * max(abs(acc), 1e-30):
            return acc
    raise NonConvergence(f"2F1 series did not converge at x = {x}")


def gauss_2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """2F1(a, b; c; x) for real x in (-1, 0].

    Plain series near 0; Pfaff transformation w = x/(x-1) in (0, 1/2) for the
    rest of the interval.  Raises ArgumentOutOfRange for x <= -1 — callers
    must switch to a small-radius expansion there.
    """
    if x > 0.0:
        raise ArgumentOutOfRange(f"2F1 path requires x <= 0, got {x}")
    if x <= -1.0:
        raise ArgumentOutOfRange(f"2F1 series/Pfaff path requires x > -1, got {x}")
    a, b, c = complex(a), complex(b), complex(c)
    cr = round(c.real)
    if cr <= 0 and abs(c - cr) <= 1e-12:
        raise PoleProximity(f"2F1 parameter c = {c} at a nonpositive integer")
    if x == 0.0:
        return complex(1.0)
    if x > -0.3:
        return _hyp2f1_series(a, b, c, x)
    w = x / (x - 1.0)
    return (1.0 - x) ** (-a) * _hyp2f1_series(a, c - b, c, w)


# ---------------------------------------------------------------------------
# incomplete exponential-kernel integral
# ---------------------------------------------------------------------------

def lower_incomplete_exp(alpha: float, X) -> np.ndarray | float:
    """integral_0^X exp(u/2) u^(alpha-1) du for X >= 0, vectorized in X.

    Ascending series X^alpha * sum_k X^k / (2^k k! (alpha + k)); all terms
    positive, no cancellation, converges for every finite X.  The ratio of
    a term to the partial sum grows with X, so the series is stopped when it
    has converged at the largest X.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"order must lie in (0, 1], got {alpha}")
    X_arr = np.asarray(X, dtype=float)
    if np.any(X_arr < 0.0):
        raise DomainError("X must be >= 0")
    if X_arr.size == 0:
        return np.zeros(X_arr.shape)
    scalar = X_arr.ndim == 0
    X_arr = np.atleast_1d(X_arr)
    top = X_arr.argmax()
    acc = np.full(X_arr.shape, 1.0 / alpha)
    term = np.full(X_arr.shape, 1.0 / alpha)
    half_x = 0.5 * X_arr
    for k in range(1, 400):
        term *= half_x
        term *= alpha + k - 1
        term /= k * (alpha + k)
        acc += term
        if term.flat[top] <= 1e-17 * acc.flat[top]:
            break
    out = np.power(X_arr, alpha) * acc
    out[X_arr == 0.0] = 0.0
    return float(out[0]) if scalar else out
