"""End-to-end experiments: error-term sampling, moments, variance comparison,
pointwise-bound scans, limiting-distribution estimates, and hybrid schedules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .counting import DEFAULT_POINT_CAP, BallSpec, DistanceMultiset, list_distances
from .errors import (
    MemoryBudgetExceeded,
    MethodDisagreement,
    ScheduleViolation,
    ValidationError,
    WindowOutOfRange,
)
from .fracint import (
    DEFAULT_STEP,
    SampledSeries,
    _as_alpha,
    frac_exp_reference,
    frac_integrate,
)
from .geometry import Point
from .spectral.terms import _VOL_COEFF, f_alpha_sum, main_term, spectral_variance
from .specfun import lower_incomplete_exp

__all__ = [
    "ErrorSeries",
    "DistributionEstimate",
    "PointwiseScan",
    "VarianceReport",
    "HybridPoint",
    "sample_error",
    "sample_e_alpha",
    "first_moment",
    "window_variance",
    "variance_report",
    "pointwise_scan",
    "distribution_estimate",
    "synthetic_series",
    "SYNTHETIC_STEP",
    "hybrid_run",
    "pointwise_exponent",
    "method_budget",
]

# Grid samples at which the exact path is compared with the grid path.
_CROSSCHECK_POINTS = 33


@dataclass(frozen=True)
class ErrorSeries:
    """A sampled normalized remainder and its fractional order (None if not integrated)."""

    series: SampledSeries
    alpha: float | None

    @property
    def values(self) -> np.ndarray:
        return self.series.values

    @property
    def grid(self) -> np.ndarray:
        return self.series.grid


@dataclass(frozen=True)
class DistributionEstimate:
    """Histogram summary of a long-run sample."""

    edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    mean: float
    variance: float
    count: int
    ks_halves: float

    def __post_init__(self):
        if int(np.sum(self.counts)) != self.count:
            raise ValidationError("histogram counts must sum to the sample count")
        if np.any(np.diff(self.edges) <= 0):
            raise ValidationError("bin edges must be strictly increasing")


def _grid_size(s_max: float, step: float) -> int:
    """Samples k*step in [0, s_max]; MemoryBudgetExceeded past DEFAULT_POINT_CAP."""
    if not 0.0 < step < math.inf:
        raise ValidationError(f"step must be positive and finite, got {step}")
    span = s_max / step + 1e-9
    if not span < DEFAULT_POINT_CAP:
        raise MemoryBudgetExceeded(f"step {step} on [0, {s_max}] exceeds {DEFAULT_POINT_CAP} samples")
    return math.floor(span) + 1


def sample_error(z: Point, w: Point, s_max: float, step: float = DEFAULT_STEP,
                 distances: DistanceMultiset | None = None) -> ErrorSeries:
    """Normalized remainder e(s) = (N(s) - M(s)) e^{-s/2} on the grid k*step.

    One enumeration at s_max supplies N at every grid point through prefix
    counts of the sorted distance list.
    """
    grid = step * np.arange(_grid_size(s_max, step))
    if distances is None:
        distances = list_distances(BallSpec(z, w, s_max))
    counts = np.searchsorted(distances.values, grid, side="right")
    vals = (counts - main_term(grid)) * np.exp(-0.5 * grid)
    series = SampledSeries(0.0, step, vals)
    return ErrorSeries(series=series, alpha=None)


def sample_e_alpha(z: Point, w: Point, order, s_max: float,
                   step: float = DEFAULT_STEP, method: str = "grid",
                   distances: DistanceMultiset | None = None) -> ErrorSeries:
    """Fractionally integrated normalized remainder on the grid k*step in [0, s_max].

    method="grid" integrates the sampled e(s) with the product rule, which
    moves every orbit jump to the next sample.  method="exact" takes
    exact_e_alpha, which keeps each jump where it is, and cross-checks it
    against the grid path at 33 evenly spaced samples: it emits a
    MethodDisagreement warning when they differ by more than 10x
    method_budget.  The order, the method and the grid size are validated
    before the enumeration.
    """
    alpha = _as_alpha(order)
    if method not in ("grid", "exact"):
        raise ValidationError(f"unknown method {method!r}")
    _grid_size(s_max, step)
    if distances is None:
        distances = list_distances(BallSpec(z, w, s_max))
    if method == "grid":
        base = sample_error(z, w, s_max, step, distances=distances)
        series = frac_integrate(base.series, alpha)
        return ErrorSeries(series=series, alpha=alpha)
    vals = exact_e_alpha(distances, alpha, s_max, step)
    series = SampledSeries(0.0, step, vals)
    g = sample_e_alpha(z, w, alpha, s_max, step, "grid", distances=distances)
    idx = np.linspace(0, vals.size - 1, _CROSSCHECK_POINTS).astype(int)
    diff = float(np.max(np.abs(g.values[idx] - vals[idx])))
    budget = method_budget(alpha, step)
    if diff > 10.0 * budget:
        warnings.warn(
            f"grid/exact fractional error terms differ by {diff:.3e} "
            f"(budget {budget:.3e})", MethodDisagreement)
    return ErrorSeries(series=series, alpha=alpha)


# Near/far split of exact_e_alpha: a distance in grid cell k is summed
# directly into samples k+1 .. k+_NEAR_CELLS and through a Taylor expansion
# of order _TAYLOR_ORDER into the samples beyond.
_NEAR_CELLS = 16
_TAYLOR_ORDER = 10


def _kernel_derivatives(alpha: float, X: np.ndarray) -> np.ndarray:
    """Rows L^(r)(X), r = 0.._TAYLOR_ORDER, of L(X) = int_0^X e^{u/2} u^{alpha-1} du.

    L' = e^{X/2} X^{alpha-1}, so by the Leibniz rule
    L^(r+1)(X) = e^{X/2} sum_{j<=r} C(r, j) 2^{j-r} (alpha-1)...(alpha-j) X^{alpha-1-j}.
    Requires X > 0.
    """
    powers = np.empty((_TAYLOR_ORDER, X.size))  # (alpha-1)...(alpha-j) X^{alpha-1-j}
    powers[0] = X ** (alpha - 1.0)
    for j in range(1, _TAYLOR_ORDER):
        powers[j] = powers[j - 1] * (alpha - j) / X
    rows = np.empty((_TAYLOR_ORDER + 1, X.size))
    rows[0] = lower_incomplete_exp(alpha, X)
    half_exp = np.exp(0.5 * X)
    for r in range(_TAYLOR_ORDER):
        coef = [math.comb(r, j) * 0.5 ** (r - j) for j in range(r + 1)]
        rows[r + 1] = half_exp * (np.asarray(coef) @ powers[: r + 1])
    return rows


def exact_e_alpha(distances: DistanceMultiset, alpha: float, s_max: float,
                  step: float = DEFAULT_STEP) -> np.ndarray:
    """Exact e_alpha on the grid s_j = j*step in [0, s_max] (the grid of sample_e_alpha).

    e_alpha(s) = exp(-s/2)/Gamma(alpha) sum_{d < s} L(s - d) - 3 I_alpha(e^{t/2})(s)
    with L(X) = int_0^X e^{u/2} u^{alpha-1} du, summed over the distance
    multiset with multiplicity; the jumps are not moved to the grid.

    A distance d in cell k (s_k <= d < s_{k+1}, offset delta = d - s_k)
    reaches every s_{k+m}, m >= 1.  Near field, m <= q = 16: L(s_{k+m} - d)
    is summed directly, because L is not smooth at 0 (L(X) ~ X^alpha/alpha).
    Far field, m > q: L(m*step - delta) is the order p = 10 Taylor
    polynomial about m*step, so each order r is one convolution of the cell
    moments sum (-delta)^r/r! with the row L^(r)(m*step).  Cost: O(q N)
    for the near field plus p+1 direct convolutions of length n = len(grid),
    O(p n^2), against O(n N) for a direct sum.

    Error bound: the Taylor remainder of each far-field term, relative to
    that term, is at most e^{(q+1)h/2} (1 + q h/2) q^{-(p+1)} / (p+1) with
    h = step (5.3e-15 at the default step), so the truncation error of
    e_alpha(s) is at most that times e_alpha(s) + 3 I_alpha(e^{t/2})(s), the
    sum of the positive jump terms.
    """
    alpha = _as_alpha(alpha)
    n = _grid_size(s_max, step)
    grid = step * np.arange(n)
    d = distances.values
    # s_k <= d < s_{k+1}: sample j is reached when d < s_j, as in a direct sum
    k = np.searchsorted(grid, d, side="right") - 1
    acc = np.zeros(n)
    for m in range(1, _NEAR_CELLS + 1):
        reach = int(np.searchsorted(k, n - m))  # k is sorted; k + m < n
        j = k[:reach] + m
        acc += np.bincount(j, weights=lower_incomplete_exp(alpha, grid[j] - d[:reach]),
                           minlength=n)
    far = n - _NEAR_CELLS - 1  # samples with m > q; cells k < far reach them
    if far > 0:
        rows = _kernel_derivatives(alpha, grid[_NEAR_CELLS + 1:])
        reach = int(np.searchsorted(k, far))
        cell = k[:reach]
        neg_delta = grid[cell] - d[:reach]
        weight = np.ones(reach)
        for r in range(_TAYLOR_ORDER + 1):
            moment = np.bincount(cell, weights=weight, minlength=far)
            acc[_NEAR_CELLS + 1:] += np.convolve(moment, rows[r])[:far]
            weight = weight * neg_delta / (r + 1)
    main = _VOL_COEFF * frac_exp_reference(0.5, alpha, grid)
    return np.exp(-0.5 * grid) * acc / math.gamma(alpha) - main


# Measured max |grid - exact| over s <= 10 at step 1/512, z = w = i:
# 0.125 (a=0.1), 0.111 (0.25), 0.035 (0.5), 0.025 (0.75), 0.026 (1.0);
# pinned at ~2x measured.
_METHOD_BUDGET_TABLE = ((0.1, 0.25), (0.25, 0.25), (0.5, 0.08),
                        (0.75, 0.06), (1.0, 0.06))


def method_budget(alpha: float, step: float = DEFAULT_STEP) -> float:
    """Grid-vs-exact disagreement allowance.

    The grid method moves every orbit jump to the next sample point, so its
    error is controlled by the jump masses, not by smooth-function rates;
    the table interpolates pinned reference measurements and rescales by
    (step / (1/512))^alpha.
    """
    pts = np.array(_METHOD_BUDGET_TABLE)
    base = float(np.interp(alpha, pts[:, 0], pts[:, 1]))
    return base * (step / DEFAULT_STEP) ** alpha


# ---------------------------------------------------------------------------
# windowed moments
# ---------------------------------------------------------------------------

def _window_slice(series: SampledSeries, T: float, window: str):
    if not T > 0.0:
        raise ValidationError(f"window length T must be positive, got {T}")
    lo, hi = (T, 2.0 * T) if window == "T2T" else (0.0, T)
    if window not in ("T2T", "0T"):
        raise ValidationError(f"unknown window {window!r}")
    grid = series.grid
    if lo < grid[0] - 1e-9 or hi > grid[-1] + 1e-9:
        raise WindowOutOfRange(
            f"window [{lo}, {hi}] not covered by series [{grid[0]}, {grid[-1]}]")
    i0 = int(np.searchsorted(grid, lo - 1e-12))
    i1 = int(np.searchsorted(grid, hi + 1e-12))
    return grid[i0:i1], i0, i1


def first_moment(err: ErrorSeries, T: float, window: str = "T2T") -> float:
    """Trapezoid window average of the series over [T, 2T] (or [0, T])."""
    grid, i0, i1 = _window_slice(err.series, T, window)
    vals = err.values[i0:i1]
    return float(np.trapezoid(vals, grid) / (grid[-1] - grid[0]))


def window_variance(err: ErrorSeries, T: float, window: str = "T2T") -> float:
    """Trapezoid window average of the squared series."""
    grid, i0, i1 = _window_slice(err.series, T, window)
    vals = err.values[i0:i1]
    return float(np.trapezoid(vals * vals, grid) / (grid[-1] - grid[0]))


@dataclass(frozen=True)
class VarianceReport:
    empirical: float
    spectral_value: float
    spectral_tail: float
    ratio: float


def variance_report(err: ErrorSeries, amplitudes, order, T: float,
                    t_max: float = math.inf, window: str = "T2T") -> VarianceReport:
    """Empirical window variance against the spectral second-moment sum up to t_max.

    t_max = inf (the default) sums every form.  No pass/fail judgment here:
    the limit is asymptotic and desk-scale windows converge slowly, so the
    ratio is reported as-is.
    """
    if math.isnan(t_max):
        raise ValidationError("spectral cut-off t_max is NaN")
    emp = window_variance(err, T, window=window)
    t_cap = t_max if t_max < math.inf else max((a.t for a in amplitudes), default=1.0)
    spectral_sum = spectral_variance(amplitudes, order, t_cap)
    if spectral_sum.terms == 0:
        raise ValidationError(f"no spectral parameter lies in (0, {t_cap}]")
    ratio = emp / spectral_sum.value if spectral_sum.value > 0 else math.inf
    return VarianceReport(empirical=emp, spectral_value=spectral_sum.value,
                          spectral_tail=spectral_sum.tail_bound, ratio=ratio)


# ---------------------------------------------------------------------------
# pointwise envelope scan
# ---------------------------------------------------------------------------

def pointwise_exponent(alpha: float) -> float:
    """Growth exponent of the pointwise bound: (1-2a)/(6-4a) below 1/2, else 0."""
    if alpha < 0.5:
        return (1.0 - 2.0 * alpha) / (6.0 - 4.0 * alpha)
    return 0.0


@dataclass(frozen=True)
class PointwiseScan:
    x_values: np.ndarray = field(repr=False)
    envelopes: np.ndarray = field(repr=False)
    envelope_constant: float
    fitted_exponent: float
    alpha: float


def pointwise_scan(err: ErrorSeries) -> PointwiseScan:
    """Envelope constants sup_{s<=x} |e_a(s)| m(x) at x = 8, 9, ... up to the series end.

    m(x) = e^{-x (1-2a)/(6-4a)} for a < 1/2, 1/x for a = 1/2, and 1 above;
    fitted_exponent is the least-squares slope of log sup_{s<=x}|e_a| vs x.
    """
    alpha = err.alpha if err.alpha is not None else 0.0
    grid = err.grid
    x_values = np.arange(8.0, grid[-1] + 1e-9, 1.0)
    if x_values.size == 0:
        raise ValidationError(
            f"no scan point: x runs from 8 to the end of the series, {grid[-1]}")
    run_max = np.maximum.accumulate(np.abs(err.values))
    idx = np.searchsorted(grid, x_values + 1e-12) - 1
    sup = run_max[idx]
    if alpha < 0.5:
        damp = np.exp(-x_values * pointwise_exponent(alpha))
    elif alpha == 0.5:
        damp = 1.0 / x_values
    else:
        damp = np.ones_like(x_values)
    env = sup * damp
    slope = float(np.polyfit(x_values, np.log(np.maximum(sup, 1e-300)), 1)[0])
    return PointwiseScan(x_values=x_values, envelopes=env,
                         envelope_constant=float(np.max(env)),
                         fitted_exponent=slope, alpha=alpha)


# ---------------------------------------------------------------------------
# limiting distribution
# ---------------------------------------------------------------------------

# Default sample step of the synthetic series, and samples per f_alpha_sum call.
SYNTHETIC_STEP = 1.0 / 256.0
_SYNTHETIC_CHUNK = 2_000_000


def synthetic_series(amplitudes, order, L: float, step: float = SYNTHETIC_STEP) -> ErrorSeries:
    """The almost-periodic model sampled as a series on [0, L]."""
    if not 0.0 < L < math.inf:
        raise ValidationError(f"series length L must be positive and finite, got {L}")
    n = _grid_size(L, step)
    out = np.empty(n)
    alpha = _as_alpha(order)
    for lo in range(0, n, _SYNTHETIC_CHUNK):
        hi = min(lo + _SYNTHETIC_CHUNK, n)
        out[lo:hi] = f_alpha_sum(amplitudes, alpha, step * np.arange(lo, hi))
    return ErrorSeries(series=SampledSeries(0.0, step, out), alpha=alpha)


def _ks_two_sample_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance of pre-sorted samples."""
    allv = np.concatenate([a, b])
    allv.sort(kind="mergesort")
    ca = np.searchsorted(a, allv, side="right") / a.size
    cb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def distribution_estimate(err: ErrorSeries, bins="fd") -> DistributionEstimate:
    """Histogram, moments, and a half-vs-half KS stationarity diagnostic."""
    vals = err.values
    if vals.size < 2:
        raise ValidationError(f"a distribution estimate needs at least 2 samples, got {vals.size}")
    edges = np.histogram_bin_edges(vals, bins=bins)
    counts, edges = np.histogram(vals, bins=edges)
    half = vals.size // 2
    a = np.sort(vals[:half])
    b = np.sort(vals[half:])
    ks = _ks_two_sample_sorted(a, b)
    return DistributionEstimate(
        edges=edges, counts=counts,
        mean=float(np.mean(vals)), variance=float(np.var(vals)),
        count=int(vals.size), ks_halves=ks,
    )


# ---------------------------------------------------------------------------
# hybrid order schedules
# ---------------------------------------------------------------------------

_SCHEDULES = {
    "inv-sqrt": lambda T: 1.0 / math.sqrt(T),
    "inv-T": lambda T: 1.0 / T,
}

# Largest admissible condition value 1/(alpha e^{2 T alpha}) at T >= 9.
_CONDITION_MAX = 0.05


@dataclass(frozen=True)
class HybridPoint:
    T: float
    alpha: float
    condition: float
    variance: float


def schedule_condition(alpha: float, T: float) -> float:
    """Admissibility quantity 1/(alpha e^{2 T alpha}); must stay small."""
    return 1.0 / (alpha * math.exp(2.0 * T * alpha))


def hybrid_run(z: Point, w: Point, schedule: str, T_values, step: float = DEFAULT_STEP,
               distances: DistanceMultiset | None = None) -> list[HybridPoint]:
    """Variances over the windows [0, T] along a vanishing-order schedule alpha(T).

    schedule names an entry of _SCHEDULES.  It must have alpha(T) decreasing
    and the condition quantity 1/(alpha e^{2 T alpha}) at most _CONDITION_MAX
    at every listed T (checked at T >= 9 where the asymptotic regime is meant);
    otherwise ScheduleViolation is raised.
    """
    if schedule not in _SCHEDULES:
        raise ValidationError(f"unknown schedule {schedule!r}, expected one of {sorted(_SCHEDULES)}")
    sched = _SCHEDULES[schedule]
    T_values = sorted(float(T) for T in T_values)
    if not all(T > 0.0 for T in T_values):
        raise ValidationError(f"window lengths T must be positive, got {T_values}")
    alphas = [sched(T) for T in T_values]
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ScheduleViolation("schedule must have decreasing alpha(T)")
    conds = [schedule_condition(a, T) for a, T in zip(alphas, T_values)]
    for T, cond in zip(T_values, conds):
        if T >= 9.0 and cond > _CONDITION_MAX:
            raise ScheduleViolation(
                f"condition value {cond:.4g} at T={T} exceeds {_CONDITION_MAX}")
    s_need = max(T_values)
    _grid_size(s_need, step)
    if distances is None:
        distances = list_distances(BallSpec(z, w, s_need))
    out = []
    for T, a, cond in zip(T_values, alphas, conds):
        err = sample_e_alpha(z, w, a, s_need, step=step, distances=distances)
        var = window_variance(err, T, window="0T")
        out.append(HybridPoint(T=T, alpha=a, condition=cond, variance=var))
    return out
