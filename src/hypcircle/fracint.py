"""Riemann-Liouville fractional integration of sampled series.

The discrete operator is product integration: within every grid cell the
integrand is interpolated linearly and the kernel (x-t)^(alpha-1)/Gamma(alpha)
is integrated exactly (the fractional trapezoidal rule).  This keeps O(step^2)
accuracy for smooth inputs and degrades gracefully to O(step^alpha) only at
jump cells, which matters because lattice-point error terms jump at every
orbit distance.  The fractional integral of a smooth function at one point is
a composite Gauss-Jacobi rule instead (frac_integral_at, 32-point panels).
SciPy is imported inside the two functions that call it, so that importing
the package, counting and the grid path never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, ValidationError
from .specfun import _as_alpha, gauss_legendre, lower_incomplete_exp

__all__ = [
    "SampledSeries",
    "frac_integrate",
    "frac_integral_at",
    "frac_exp_reference",
    "frac_indicator_exp",
    "DEFAULT_STEP",
]

# The sample step of every lattice run, the grid s = k/512; the accuracy budgets quoted
# for lattice samples assume it. SampledSeries and frac_integrate take any uniform step.
DEFAULT_STEP = 1.0 / 512.0

# Largest s - d frac_indicator_exp accepts: lower_incomplete_exp overflows from 1418.
_INDICATOR_X_MAX = 1400.0

# Nodes per panel of frac_integral_at; shc_frac lays its radii on the same panels.
_PANEL_NODES = 32


@dataclass(frozen=True)
class SampledSeries:
    """A uniformly sampled real-valued function: sample k sits at start + k*step."""

    start: float
    step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValidationError(f"step must be positive and finite, got {self.step}")
        if not math.isfinite(self.start):
            raise ValidationError(f"start must be finite, got {self.start}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError("values must be a nonempty 1-d array")
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def __len__(self):
        return self.values.size


def frac_integrate(series: SampledSeries, order) -> SampledSeries:
    """Fractional integral of the series on its own grid, based at series.start.

    Each cell is interpolated linearly and the kernel integrated exactly
    (O(step^2) on smooth inputs, the fractional trapezoidal rule).
    """
    alpha = _as_alpha(order)
    vals = series.values
    n = vals.size
    r = np.arange(n + 1, dtype=float)
    pw = r ** (alpha + 1.0)
    a = np.empty(n)
    a[0] = 1.0
    if n > 1:
        a[1:] = pw[2:] - 2.0 * pw[1:-1] + pw[:-2]
    full = np.convolve(vals, a)[:n]
    # boundary cell: the first sample enters with weight c_{j,0}, not a_j
    j = np.arange(n, dtype=float)
    c0 = np.empty(n)
    c0[0] = 0.0
    c0[1:] = (j[1:] - 1.0) ** (alpha + 1.0) - pw[1:-1] + (alpha + 1.0) * j[1:] ** alpha
    full += (c0 - a[: n]) * vals[0]
    full *= series.step ** alpha / math.gamma(alpha + 2.0)
    full[0] = 0.0
    return SampledSeries(series.start, series.step, full)


def frac_integral_at(f, order, s: float, panels: int) -> float:
    """(1/Gamma(a)) integral_0^s f(x) (s-x)^(a-1) dx for a smooth, vectorized f.

    _PANEL_NODES-point Gauss-Legendre times the kernel on `panels` equal panels
    but the last, whose singular kernel is the weight (1-y)^(a-1) of as many
    Gauss-Jacobi nodes; f is called once per panel, and h^a factored out so s = 0 gives 0.
    """
    from scipy.special import roots_jacobi

    alpha = _as_alpha(order)
    h = s / panels
    x, w = gauss_legendre(_PANEL_NODES)
    acc = 0.0
    for k in range(panels - 1):
        acc += np.dot(w * (panels - k - x) ** (alpha - 1.0), f(h * (k + x)))
    y, wj = roots_jacobi(_PANEL_NODES, alpha - 1.0, 0.0)
    acc += np.dot(wj, f(h * (panels - 0.5 + 0.5 * y))) / 2.0 ** alpha
    return float(h ** alpha * acc / math.gamma(alpha))


def frac_exp_reference(beta: float, order, s, method: str = "closed") -> float | np.ndarray:
    """Exact fractional integral of exp(beta*t) from 0 to s, divided by nothing:

        (1/Gamma(a)) * integral_0^s exp(beta t) (s-t)^(a-1) dt
          = exp(beta s) P(a, beta s) / beta^a

    with P the regularized lower incomplete gamma.  method="quadrature" is an
    independent check without P: frac_integral_at on n = ceil(beta s / 8) and 2n
    panels (exact to rounding while beta h <= 8), which must agree to relative 1e-11.
    """
    alpha = _as_alpha(order)
    if beta <= 0.0:
        raise ValidationError(f"requires beta > 0, got {beta}")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValidationError("requires s >= 0")
    if method == "closed":
        from scipy.special import gammainc

        out = np.exp(beta * s_arr) * gammainc(alpha, beta * s_arr) / beta ** alpha
        return float(out) if s_arr.ndim == 0 else out
    if method == "quadrature":
        if s_arr.ndim != 0:
            raise ValidationError("quadrature method is scalar-only")
        n = max(1, math.ceil(beta * s_arr / 8.0))
        coarse, fine = (frac_integral_at(lambda x: np.exp(beta * x), alpha, float(s_arr), k)
                        for k in (n, 2 * n))
        if abs(fine - coarse) > 1e-11 * abs(fine):
            raise NonConvergence("fractional exponential quadrature did not converge")
        return fine
    raise ValidationError(f"unknown method {method!r}")


def frac_indicator_exp(d: float, order, s) -> float | np.ndarray:
    """Fractional integral from 0 to s of the single-jump term 1_{t>=d} exp(-t/2):

        (1/Gamma(a)) integral_d^s exp(-t/2) (s-t)^(a-1) dt   for s > d, else 0.

    Evaluated as exp(-s/2)/Gamma(a) * integral_0^{s-d} exp(u/2) u^(a-1) du,
    whose integral overflows, so s - d > _INDICATOR_X_MAX is a ValidationError.
    """
    alpha = _as_alpha(order)
    if d < 0.0:
        raise ValidationError(f"requires d >= 0, got {d}")
    s_arr = np.asarray(s, dtype=float)
    X = np.maximum(s_arr - d, 0.0)
    if np.any(X > _INDICATOR_X_MAX):
        raise ValidationError(f"requires s - d <= {_INDICATOR_X_MAX:g}, where the integral overflows; "
                              f"got {float(np.max(X)):g}")
    out = np.exp(-0.5 * s_arr) * lower_incomplete_exp(alpha, X) / math.gamma(alpha)
    out = np.where(s_arr > d, out, 0.0)
    return float(out) if s_arr.ndim == 0 else out
