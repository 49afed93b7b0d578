"""Special functions the spectral side depends on.

K-Bessel with imaginary order, Gauss 2F1 on the negative real axis, and the
exponential-kernel incomplete integral, all in double precision.  The
K-Bessel is one trapezoid rule on its integral representation along a line
shifted towards the saddle (Gil, Segura and Temme, ACM TOMS 30, 2004).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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

def _besselk_line_scaled(t: float, x: float, refine: int = 0) -> float:
    """exp(pi t/2) K_{it}(x) by the trapezoid rule on the line Im w = pi/2 - delta.

    There 1/2 integral exp(-x cosh w + i t w) dw has the even integrand
    exp(t delta - x sin(delta) cosh u) cos(t u - x cos(delta) sinh u).  For
    x > t the line runs through the saddle, cos(delta) = t/x.  Otherwise, and
    where x ~ t makes that line too close to pi/2, delta is the largest shift
    with max(t, x) delta - x sin(delta) <= 4, so the peak exceeds the value by
    at most e^4.  The step resolves the strip of half-width delta/2 to e^{-40}
    and the saddle's width 1/sqrt(x sin delta); the sum stops e^{-45} below
    the smaller of the peak and 1.  `refine` halves the step.
    """
    s, delta, step = max(t, x), 0.5 * math.pi, 1.0
    while step > 1e-9:  # Newton from the right: the left side is convex in delta
        step = max(0.0, s * delta - x * math.sin(delta) - 4.0) / (s - x * math.cos(delta))
        delta -= step
    if x > t:
        delta = max(delta, math.acos(t / x))
    decay, freq = math.sin(delta), math.cos(delta)
    peak = t * delta - x * decay
    h = min(math.pi * delta / 40.0, math.pi / math.sqrt(20.0 * x * decay)) / (1 << refine)
    u_max = math.acosh(1.0 + (45.0 + max(peak, 0.0)) / (x * decay))
    u = h * np.arange(int(u_max / h) + 2)
    vals = np.exp(peak - x * decay * (np.cosh(u) - 1.0)) * np.cos(t * u - x * freq * np.sinh(u))
    return float(h * (0.5 * vals[0] + np.sum(vals[1:])))


def bessel_k_imag_scaled(t: float, x: float) -> float:
    """exp(pi t / 2) K_{it}(x) for real t, x > 0 (no underflow for moderate t)."""
    if not x > 0.0:
        raise DomainError(f"K_it requires x > 0, got x = {x}")
    return _besselk_line_scaled(abs(t), x)  # K_{it} is even in t


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
