"""Special functions the spectral side depends on.

K-Bessel with imaginary order, the Gauss 2F1 series on (-1, 1), and the
exponential-kernel incomplete integral, all in double precision.  The
incomplete integral is Kummer's function, SciPy's hyp1f1, imported on the
first call.  The K-Bessel is one trapezoid rule on its integral
representation along a line shifted towards the saddle (Gil, Segura and
Temme, ACM TOMS 30, 2004), vectorized over x: callers pass every x of a
Fourier row, a quadrature or a linear system in one call, so the cost is
the nodes, not the calls.
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

def _besselk_line_scaled(t: float, x, refine: int = 0):
    """exp(pi t/2) K_{it}(x) by the trapezoid rule on the line Im w = pi/2 - delta.

    There 1/2 integral exp(-x cosh w + i t w) dw has the even integrand
    exp(t delta - x sin(delta) cosh u) cos(t u - x cos(delta) sinh u).  For
    x > t the line runs through the saddle, cos(delta) = t/x.  Otherwise, and
    where x ~ t makes that line too close to pi/2, delta is the largest shift
    with max(t, x) delta - x sin(delta) <= 4, so the peak exceeds the value by
    at most e^4.  The step resolves the strip of half-width delta/2 to e^{-40}
    and the saddle's width 1/sqrt(x sin delta); the sum stops e^{-45} below
    the smaller of the peak and 1.  `refine` halves the step.  x may be an
    array: each x keeps its own delta, step and cut-off, the nodes of all x
    form one flat array and each x's sum is one segment of it.
    """
    xs = np.asarray(x, dtype=float).ravel()
    s, delta, step = np.maximum(t, xs), np.full(xs.shape, 0.5 * math.pi), np.ones(xs.shape)
    while np.any(go := step > 1e-9):  # Newton from the right: the left side is convex in delta
        step = np.where(go, np.maximum(0.0, s * delta - xs * np.sin(delta) - 4.0)
                        / (s - xs * np.cos(delta)), 0.0)
        delta -= step
    delta = np.maximum(delta, np.arccos(np.minimum(t / xs, 1.0)))  # saddle line where x > t
    decay, freq = np.sin(delta), np.cos(delta)
    peak = t * delta - xs * decay
    h = np.minimum(math.pi * delta / 40.0, math.pi / np.sqrt(20.0 * xs * decay)) / (1 << refine)
    u_max = np.arccosh(1.0 + (45.0 + np.maximum(peak, 0.0)) / (xs * decay))
    counts = (u_max / h).astype(np.int64) + 2
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(xs.size), counts)
    u = h[owner] * (np.arange(owner.size) - starts[owner])
    vals = (np.exp(peak[owner] - (xs * decay)[owner] * (np.cosh(u) - 1.0))
            * np.cos(t * u - (xs * freq)[owner] * np.sinh(u)))
    vals[starts] *= 0.5
    out = h * np.add.reduceat(vals, starts)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def bessel_k_imag_scaled(t: float, x):
    """exp(pi t / 2) K_{it}(x) for finite real t, x > 0 a float or an array (no underflow)."""
    xs = np.asarray(x, dtype=float)
    bad = xs[~((xs > 0.0) & (xs < math.inf))]
    if bad.size or not math.isfinite(t):  # name the first bad x, not the whole array
        raise DomainError(f"K_it requires finite t and 0 < x < inf, got t = {t}"
                          + (f", x = {bad[0]}" if bad.size else ""))
    return _besselk_line_scaled(abs(t), xs)  # K_{it} is even in t


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1 for arguments in (-1, 1)
# ---------------------------------------------------------------------------

def gauss_2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """2F1(a, b; c; x) for real x in (-1, 1) by its power series.

    The terms fall like |x|^k times a power of k, so the sum stops once a
    term is below 1e-16 of it; 40/(-ln|x|) + 50 terms (|x|^k down to e^-40)
    is the cap, past which NonConvergence is raised.
    """
    if not -1.0 < x < 1.0:
        raise ArgumentOutOfRange(f"2F1 series requires -1 < x < 1, got {x}")
    a, b, c = complex(a), complex(b), complex(c)
    cr = round(c.real)
    if cr <= 0 and abs(c - cr) <= 1e-12:
        raise PoleProximity(f"2F1 parameter c = {c} at a nonpositive integer")
    if x == 0.0:
        return complex(1.0)
    term = complex(1.0)
    acc = complex(1.0)
    for k in range(int(40.0 / -math.log(abs(x))) + 50):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        acc += term
        if abs(term) <= 1e-16 * max(abs(acc), 1e-30):
            return acc
    raise NonConvergence(f"2F1 series did not converge at x = {x}")


# ---------------------------------------------------------------------------
# incomplete exponential-kernel integral
# ---------------------------------------------------------------------------

def lower_incomplete_exp(alpha: float, X) -> np.ndarray | float:
    """integral_0^X exp(u/2) u^(alpha-1) du for X >= 0, vectorized in X.

    Kummer's function: X^alpha/alpha * M(alpha, alpha+1, X/2) (DLMF 13.4.1
    with b = a + 1), M being SciPy's hyp1f1.  The integral rises with X and
    overflows to inf from X = 1418 (alpha = 1) to 1433 (alpha -> 0), so X is
    cut at 1500, which keeps M off the huge arguments where it stalls.
    """
    from scipy.special import hyp1f1  # here, so that importing hypcircle skips SciPy

    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"order must lie in (0, 1], got {alpha}")
    X_arr = np.asarray(X, dtype=float)
    if not np.all(X_arr >= 0.0):
        raise DomainError("X must be >= 0 and not NaN")
    X_arr = np.minimum(X_arr, 1500.0)
    out = X_arr ** alpha / alpha * hyp1f1(alpha, alpha + 1.0, 0.5 * X_arr)
    return float(out) if out.ndim == 0 else out
