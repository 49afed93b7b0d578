"""Integral transforms of ball indicator kernels.

shc_direct evaluates the transform of the normalized indicator kernel by
quadrature; h_r_closed evaluates the same object through one Gauss
hypergeometric series in e^{-2R} at every radius, summed here by
_hr_halfterm; shc_frac integrates the transform fractionally in the radius
variable by a composite Gauss-Jacobi rule on _shc_panels' panels and carries
the large-frequency main term alongside.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonConvergence, ValidationError
from ..fracint import _PANEL_NODES, frac_integral_at
from ..geometry import _MAX_RADIUS
from ..specfun import _as_alpha, gauss_legendre

__all__ = [
    "shc_direct",
    "h_r_closed",
    "HrResult",
    "shc_frac",
    "ShcFracResult",
    "r_alpha",
]


# h_r_closed's series needs ~20/R terms; below this cancellation costs digits
_MIN_RADIUS = 0.01

# shc_frac's radii times the transform nodes of each; at s = 10, t up to 643
_SHC_FRAC_EVALUATIONS = 1 << 26


def _shc_panels(s: float, t: float) -> int:
    """Panel count; ~4 oscillations per panel of _PANEL_NODES points.

    ValidationError past a ceiling of 4096 panels (|t| s ~ 1e5), far above the
    t <= 100, s <= 10 the experiments use.
    """
    oscillations = abs(t) * s / (2.0 * math.pi)
    if max(oscillations / 4.0, s / 3.0) >= 4096:
        raise ValidationError(f"|t| s = {abs(t) * s:.3g} needs more than 4096 quadrature panels")
    panels = max(2, int(oscillations / 4.0) + 1, int(s / 3.0) + 1)
    return panels


def shc_direct(s, t: float, refine: int = 0):
    """Transform of the radius-s indicator kernel scaled by exp(-s/2):

        2^{3/2} e^{-s/2} integral_{-s}^{s} (cosh s - cosh r)^{1/2} e^{irt} dr

    at a radius or an array of radii in (0, 709.78]; a float for a float.
    With r = s(1 - xi^2) the integral becomes
        2 s integral_0^1 sqrt(cosh s - cosh(s(1-xi^2))) cos(s(1-xi^2) t) xi dxi,
    smooth in xi, so one Gauss-Legendre grid, laid out for the largest radius,
    serves every radius.  `refine` doubles the panel count (used by
    self-convergence tests).
    """
    if not math.isfinite(t):
        raise ValidationError(f"requires a finite t, got {t}")
    s_arr = np.asarray(s, dtype=float)
    s_pos = s_arr.ravel()
    bad = ~((s_pos > 0.0) & (s_pos <= _MAX_RADIUS))
    if np.any(bad):
        raise ValidationError(f"requires 0 < s <= {_MAX_RADIUS}, where cosh overflows; "
                              f"got {s_pos[bad][0]}")
    panels = _shc_panels(float(np.max(s_pos, initial=0.0)), t) << refine
    x, wq = gauss_legendre(_PANEL_NODES)
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
    out = (2.0 ** 1.5 * np.exp(-0.5 * s_pos) * 2.0 * acc).reshape(s_arr.shape)
    return float(out) if s_arr.ndim == 0 else out


@dataclass(frozen=True)
class HrResult:
    """Closed-form kernel transform value with its error bound."""

    value: float
    error_bound: float


def _gamma_ratio(z: complex) -> complex:
    """Gamma(z) / Gamma(3/2 + z) as one log-gamma difference.

    Each Gamma alone under- or overflows past |Im z| of about 450 while the
    ratio ~ z^{-3/2} stays finite.
    """
    from scipy.special import loggamma  # here, so that importing hypcircle skips SciPy

    return cmath.exp(loggamma(z) - loggamma(1.5 + z))


def _hr_halfterm(R: float, t: float) -> complex:
    """e^{itR} G(it) 2F1(-1/2, -1/2 - it; 1 - it; q) with G = _gamma_ratio, q = e^{-2R}.

    The 2F1 is its power series.  The terms fall like q^k times a power of
    k, so the sum stops once a term is below 1e-16 of it; 20/R + 50 terms
    (q^k down to e^-40) is the cap, past which NonConvergence is raised.
    h_r_closed's t != 0 keeps c = 1 - it off the poles at the nonpositive
    integers, and its R >= 0.01 keeps q <= e^{-0.02}.  Past R = 372 q
    underflows to 0, and the first term, 0, ends the sum at 1.
    """
    it = 1j * t
    q = math.exp(-2.0 * R)
    term = acc = complex(1.0)
    for k in range(int(20.0 / R) + 50):
        term *= (k - 0.5) * (k - 0.5 - it) / ((k + 1.0 - it) * (k + 1)) * q
        acc += term
        if abs(term) <= 1e-16 * max(abs(acc), 1e-30):
            return cmath.exp(it * R) * _gamma_ratio(it) * acc
    raise NonConvergence(f"2F1 series did not converge at q = {q}")


def h_r_closed(R: float, t: float) -> HrResult:
    """Transform of the radius-R indicator kernel (no exp(-R/2) scaling).

    One series for every radius: with q = e^{-2R} and G(z) = Gamma(z)/Gamma(3/2+z),

        h_R(t) = sqrt(pi e^R) Re sum_{+-} e^{+-itR} G(+-it) 2F1(-1/2, -1/2 -+ it; 1 -+ it; q),

    Pfaff's transformation (DLMF 15.8.1) of the form in 1/(1 - e^{2R}).  The
    series needs about 20/R terms and loses digits to cancellation as R falls,
    so R below _MIN_RADIUS is a ValidationError; above it the value is within
    error_bound = 1e-10 |value| + 1e-13 of 40-digit quadrature for t up to
    1000.  t is real: PSL(2,Z) has no exceptional eigenvalue, so every
    spectral parameter it meets is real, and a complex t is a ValidationError.
    """
    if not _MIN_RADIUS <= R <= _MAX_RADIUS:
        raise ValidationError(f"requires {_MIN_RADIUS} <= R <= {_MAX_RADIUS}, got {R}")
    if isinstance(t, complex) or not math.isfinite(t):
        raise ValidationError(f"requires a finite real t, got {t}")
    if abs(t) < 1e-12:  # Gamma(it) has its pole at t = 0
        raise ValidationError(f"closed form undefined at t = 0, got t = {t}")
    halves = _hr_halfterm(R, t) + _hr_halfterm(R, -t)
    val = math.sqrt(math.pi) * math.exp(0.5 * R) * halves.real
    return HrResult(val, 1e-10 * abs(val) + 1e-13)


def r_alpha(t: float, order) -> complex:
    """Spectral coefficient 2 sqrt(pi) Gamma(it) / ((it)^alpha Gamma(3/2+it)).

    Principal branch of (it)^alpha; even t sign handled by the caller.
    """
    alpha = _as_alpha(order)
    if t == 0.0:
        raise ValidationError("undefined at t = 0")
    it = 1j * t
    return 2.0 * math.sqrt(math.pi) * _gamma_ratio(it) / it ** alpha


@dataclass(frozen=True)
class ShcFracResult:
    """Fractionally integrated transform with its large-frequency main term."""

    value: float
    asymptotic: float


def shc_frac(s: float, t: float, order) -> ShcFracResult:
    """Fractional integral (in the radius) of the normalized kernel transform.

    frac_integral_at on the panels _shc_panels lays out for the transform too
    (doubling them moves no value by over 1e-9 relative at s = 10, t <= 100);
    the `asymptotic` field is Re(r_alpha(t) e^{i t s}).
    """
    if not 2.0 < s < math.inf:
        raise ValidationError(f"requires a finite s > 2, got {s}")
    if not (math.isfinite(t) and t != 0.0):
        raise ValidationError(f"requires a finite t != 0, got {t}")
    alpha = _as_alpha(order)
    panels = _shc_panels(s, t)
    # each of the panels x _PANEL_NODES radii meets at most as many transform nodes
    if (panels * _PANEL_NODES) ** 2 > _SHC_FRAC_EVALUATIONS:
        raise ValidationError(f"|t| s = {abs(t) * s:.3g} needs over {_SHC_FRAC_EVALUATIONS} evaluations")
    value = frac_integral_at(lambda x: shc_direct(x, t), alpha, s, panels)
    asym = (r_alpha(t, alpha) * cmath.exp(1j * t * s)).real
    return ShcFracResult(value, float(asym))
