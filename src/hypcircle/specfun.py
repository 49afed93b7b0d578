"""Special functions the spectral side depends on.

Complex Gamma (Lanczos), K-Bessel with imaginary order, Gauss 2F1 on the
negative real axis, the exponential-kernel incomplete integral, and zeta on
vertical lines.  Everything is double precision; the K-Bessel falls back to
arbitrary precision on the narrow transition band where no double-precision
representation is cancellation-free.
"""

from __future__ import annotations

import math
import cmath
from functools import lru_cache

import numpy as np
from scipy.special import k0 as _scipy_k0

from .errors import (
    ArgumentOutOfRange,
    DomainError,
    NonConvergence,
    PoleProximity,
)

__all__ = [
    "complex_gamma",
    "bessel_k_imag_scaled",
    "gauss_2f1",
    "lower_incomplete_exp",
    "zeta_line",
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
# complex Gamma
# ---------------------------------------------------------------------------

# Lanczos g = 7, n = 9 coefficient set; ~1e-13 relative on Re z >= 1/2.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lanczos(z: complex) -> complex:
    """Gamma on Re z >= 1/2 via the Lanczos rational approximation."""
    z = z - 1.0
    acc = _LANCZOS_C[0]
    for i, coeff in enumerate(_LANCZOS_C[1:], start=1):
        acc += coeff / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * cmath.exp(-t) * acc


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument.

    Lanczos approximation on Re z >= 1/2, reflection formula elsewhere.
    Raises PoleProximity within 1e-12 of a nonpositive integer.
    """
    z = complex(z)
    if z.real < 0.5:
        zr = round(z.real)
        if zr <= 0 and abs(z.real - zr) <= 1e-12 and abs(z.imag) <= 1e-12:
            raise PoleProximity(f"gamma pole at z = {z}")
        # Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
        return math.pi / (cmath.sin(math.pi * z) * _lanczos(1.0 - z))
    return _lanczos(z)


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
    g = math.exp(-0.5 * math.pi * t) / complex_gamma(1.0 + 1j * t)
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

def _hyp2f1_series(a: complex, b: complex, c: complex, x: float,
                   max_terms: int = 800) -> complex:
    term = complex(1.0)
    acc = complex(1.0)
    for k in range(max_terms):
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
    positive, no cancellation, converges for every finite X.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"order must lie in (0, 1], got {alpha}")
    X_arr = np.asarray(X, dtype=float)
    if np.any(X_arr < 0.0):
        raise DomainError("X must be >= 0")
    scalar = X_arr.ndim == 0
    X_arr = np.atleast_1d(X_arr)
    acc = np.full(X_arr.shape, 1.0 / alpha)
    term = np.full(X_arr.shape, 1.0 / alpha)
    half_x = 0.5 * X_arr
    for k in range(1, 400):
        term = term * half_x * (alpha + k - 1) / (k * (alpha + k))
        acc += term
        if np.all(term <= 1e-17 * acc):
            break
    out = np.power(X_arr, alpha) * acc
    out[X_arr == 0.0] = 0.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Riemann zeta on vertical lines (Euler-Maclaurin)
# ---------------------------------------------------------------------------

_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0, 854513.0 / 138.0, -236364091.0 / 2730.0,
)


def zeta_line(sigma: float, t: float, n_terms: int | None = None) -> complex:
    """zeta(sigma + it) by Euler-Maclaurin summation, for sigma > 0.

    Accuracy ~1e-12 for |t| <= ~100 with the default truncation.
    """
    if sigma <= 0.0:
        raise DomainError(f"requires sigma > 0, got {sigma}")
    s = complex(sigma, t)
    if abs(s - 1.0) < 1e-10:
        raise PoleProximity("zeta pole at s = 1")
    N = n_terms if n_terms is not None else max(16, int(2.0 * abs(t)) + 16)
    n = np.arange(1, N)
    acc = complex(np.sum(n ** (-s)))
    acc += N ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * N ** (-s)
    # correction terms: sum_k B_{2k}/(2k)! * (s)(s+1)...(s+2k-2) * N^{-s-2k+1}
    rising = s
    fact = 2.0
    power = N ** (-s - 1.0)
    for k, b2k in enumerate(_BERNOULLI, start=1):
        acc += b2k / fact * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        power /= N * N
    return acc
