"""Integral transforms of ball indicator kernels.

shc_direct evaluates the transform of the normalized indicator kernel by
quadrature; h_r_closed evaluates the same object through hypergeometric /
Bessel closed forms; shc_frac pushes the transform through fractional
integration in the radius variable and carries the large-frequency main term
alongside for comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, rgamma
from scipy.special import i1 as _bessel_i1
from scipy.special import j1 as _bessel_j1

from ..errors import ArgumentOutOfRange, DomainError
from ..fracint import DEFAULT_STEP, SampledSeries, _as_alpha, frac_integrate
from ..specfun import gauss_2f1, gauss_legendre

__all__ = [
    "shc_direct",
    "shc_direct_grid",
    "h_r_closed",
    "HrResult",
    "htilde",
    "shc_frac",
    "ShcFracResult",
    "r_alpha",
]


def _shc_panels(s: float, t: float) -> tuple[int, int]:
    """Panel count and per-panel order; ~4 oscillations per 32-point panel.

    DomainError past a ceiling of 4096 panels (|t| s ~ 1e5), far above the
    t <= 100, s <= 10 the experiments use.
    """
    oscillations = abs(t) * s / (2.0 * math.pi)
    if max(oscillations / 4.0, s / 3.0) >= 4096:
        raise DomainError(f"|t| s = {abs(t) * s:.3g} needs more than 4096 quadrature panels")
    panels = max(2, int(oscillations / 4.0) + 1, int(s / 3.0) + 1)
    return panels, 32


def shc_direct(s: float, t: float, refine: int = 0) -> float:
    """Transform of the radius-s indicator kernel scaled by exp(-s/2):

        2^{3/2} e^{-s/2} integral_{-s}^{s} (cosh s - cosh r)^{1/2} e^{irt} dr

    evaluated with the substitution r = s - v^2 that absorbs the square-root
    vanishing at the endpoints.  `refine` doubles the panel count (used by
    self-convergence tests).
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"requires a finite s > 0, got {s}")
    return float(shc_direct_grid(np.array([s]), t, refine)[0])


def shc_direct_grid(s_values: np.ndarray, t: float, refine: int = 0) -> np.ndarray:
    """shc_direct evaluated on an array of radii sharing one quadrature layout.

    With r = s(1 - xi^2) the integral becomes
        2 s integral_0^1 sqrt(cosh s - cosh(s(1-xi^2))) cos(s(1-xi^2) t) xi dxi,
    smooth in xi, so one Gauss-Legendre grid serves every radius row.
    """
    if not math.isfinite(t):
        raise DomainError(f"requires a finite t, got {t}")
    s_values = np.asarray(s_values, dtype=float)
    out = np.zeros(s_values.shape)
    pos = s_values > 0.0
    if not np.any(pos):
        return out
    s_pos = s_values[pos]
    s_top = float(np.max(s_pos))
    panels, order = _shc_panels(s_top, t)
    panels <<= refine
    x, wq = gauss_legendre(order)
    # panels graded so each carries equal phase: uniform in r/s = 1 - xi^2
    edges = np.sqrt(np.linspace(0.0, 1.0, panels + 1))
    xi = (edges[:-1, None] + np.diff(edges)[:, None] * x[None, :]).ravel()
    wxi = (np.diff(edges)[:, None] * wq[None, :]).ravel()
    # rows: radii, cols: quadrature nodes
    s_col = s_pos[:, None]
    r = s_col * (1.0 - xi[None, :] ** 2)
    inner = np.cosh(s_col) - np.cosh(r)
    integrand = np.sqrt(np.maximum(inner, 0.0)) * np.cos(t * r) * xi[None, :]
    # acc = integral over [0, s]; the full [-s, s] integral is twice that
    acc = 2.0 * s_pos * (integrand @ wxi)
    out[pos] = 2.0 ** 1.5 * np.exp(-0.5 * s_pos) * 2.0 * acc
    return out


@dataclass(frozen=True)
class HrResult:
    """Closed-form kernel transform value with an error-envelope field."""

    value: float
    error_bound: float


def _hr_halfterm(R: float, tc: complex) -> complex:
    x = 1.0 / (1.0 - math.exp(2.0 * R))
    # 1/Gamma is entire: it is 0 where 3/2 + i t is a pole of Gamma
    return (cmath.exp(1j * tc * R) * gamma(1j * tc)
            * rgamma(1.5 + 1j * tc) * gauss_2f1(-0.5, 1.5, 1.0 - 1j * tc, x))


def h_r_closed(R: float, t: complex) -> HrResult:
    """Transform of the radius-R indicator kernel (no exp(-R/2) scaling).

    For R >= 1 the hypergeometric closed form is exact to quadrature-level
    accuracy; for R < 1 the Bessel-J1 expansion main term is returned with
    its O(R^2 e^{R |Im t|} min(R^2, |t|^-2)) envelope in error_bound.
    Purely imaginary t is supported in both branches.
    """
    if not 0.0 < R < math.inf:
        raise DomainError(f"requires a finite R > 0, got {R}")
    tc = complex(t)
    if not cmath.isfinite(tc):
        raise DomainError(f"requires a finite t, got {t}")
    it = 1j * tc
    if abs(it.real - round(it.real)) < 1e-12 and abs(it.imag) < 1e-12:
        raise ArgumentOutOfRange(f"closed form undefined at integer i*t, got t = {t}")
    if R >= 1.0:
        pref = math.sqrt(2.0 * math.pi * math.sinh(R))
        val = pref * (_hr_halfterm(R, tc) + _hr_halfterm(R, -tc))
        return HrResult(float(val.real), 1e-10 * abs(val.real) + 1e-13)
    # small radius: 2 pi R^2 * J1(Rt)/(Rt) * sqrt(sinh R / R) + error envelope
    rt = R * tc
    if abs(rt) < 1e-8:
        j1_ratio = 0.5
    elif abs(rt.imag) < 1e-14:
        xr = rt.real
        j1_ratio = float(_bessel_j1(abs(xr)) / abs(xr))
    elif abs(rt.real) < 1e-14:
        xi_ = abs(rt.imag)
        j1_ratio = float(_bessel_i1(xi_) / xi_)
    else:
        raise ArgumentOutOfRange("small-radius branch needs t real or purely imaginary")
    val = 2.0 * math.pi * R * R * j1_ratio * math.sqrt(math.sinh(R) / R)
    t_abs = abs(tc)
    env = R * R * math.exp(R * abs(tc.imag)) * min(R * R, 1.0 / t_abs ** 2 if t_abs > 0 else R * R)
    return HrResult(float(val), float(env))


def htilde(delta: float, t: float) -> float:
    """Transform of the unit-mass smoothing bump of radius delta.

    The bump is the radius-delta indicator divided by the ball area
    4 pi sinh^2(delta/2); its transform is evaluated by exact quadrature.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"requires 0 < delta < 1, got {delta}")
    h_delta = math.exp(0.5 * delta) * shc_direct(delta, t)
    return h_delta / (4.0 * math.pi * math.sinh(0.5 * delta) ** 2)


def r_alpha(t: float, order) -> complex:
    """Spectral coefficient 2 sqrt(pi) Gamma(it) / ((it)^alpha Gamma(3/2+it)).

    Principal branch of (it)^alpha; even t sign handled by the caller.
    """
    alpha = _as_alpha(order)
    if t == 0.0:
        raise DomainError("undefined at t = 0")
    it = 1j * t
    return 2.0 * math.sqrt(math.pi) * gamma(it) / (it ** alpha * gamma(1.5 + it))


@dataclass(frozen=True)
class ShcFracResult:
    """Fractionally integrated transform with its large-frequency main term."""

    value: float
    asymptotic: float


def shc_frac(s: float, t: float, order, step: float = DEFAULT_STEP) -> ShcFracResult:
    """Fractional integral (in the radius) of the normalized kernel transform.

    Samples x -> shc_direct(x, t) on [0, s] (extended by its limit 0 at x=0)
    with the largest spacing s/n <= step, so that s is the last sample, and
    applies the product-integration operator; the `asymptotic` field is
    Re(r_alpha(t) e^{i t s}).
    """
    if not 2.0 < s < math.inf:
        raise DomainError(f"requires a finite s > 2, got {s}")
    if t == 0.0:
        raise DomainError("requires t != 0")
    alpha = _as_alpha(order)
    cells = math.ceil(s / step)
    grid_step = s / cells
    vals = shc_direct_grid(grid_step * np.arange(cells + 1), t)
    series = SampledSeries(0.0, grid_step, vals)
    integ = frac_integrate(series, alpha)
    asym = (r_alpha(t, alpha) * cmath.exp(1j * t * s)).real
    return ShcFracResult(float(integ.values[-1]), float(asym))
