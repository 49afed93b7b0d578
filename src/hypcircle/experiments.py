"""End-to-end experiments: error-term sampling, moments, variance comparison,
pointwise-bound scans, limiting-distribution estimates, and hybrid schedules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .counting import DEFAULT_POINT_CAP, BallSpec, DistanceMultiset, _chunks, list_distances
from .errors import MemoryBudgetExceeded, MethodDisagreement, ValidationError
from .fracint import DEFAULT_STEP, SampledSeries, frac_exp_reference, frac_integrate
from .geometry import Point
from .spectral.terms import _VOL_COEFF, _model_terms, spectral_variance
from .specfun import _as_alpha, lower_incomplete_exp

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
    if not math.isfinite(s_max):
        raise ValidationError(f"radius {s_max} is not finite")
    if s_max < 0.0:
        raise ValidationError(f"radius must be >= 0, got {s_max}")
    span = s_max / step + 1e-9
    if not span < DEFAULT_POINT_CAP:
        raise MemoryBudgetExceeded(f"step {step} on [0, {s_max}] exceeds {DEFAULT_POINT_CAP} samples")
    return math.floor(span) + 1


def _reaching(distances: DistanceMultiset, s_max: float) -> np.ndarray:
    """The sorted distances, refused unless they are listed to s_max: past their
    radius a list misses orbit points, and N(s) would be silently short."""
    if not distances.s >= s_max:
        raise ValidationError(f"distances listed to radius {distances.s:g} cannot give N(s) up to {s_max:g}")
    return distances.values


def sample_error(z: Point, w: Point, s_max: float,
                 distances: DistanceMultiset | None = None) -> ErrorSeries:
    """Normalized remainder e(s) = (N(s) - M(s)) e^{-s/2} on the grid k/512.

    One enumeration at s_max supplies N at every grid point through prefix
    counts of the sorted distance list.
    """
    grid = DEFAULT_STEP * np.arange(_grid_size(s_max, DEFAULT_STEP))
    if distances is None:
        distances = list_distances(BallSpec(z, w, s_max))
    counts = np.searchsorted(_reaching(distances, s_max), grid, side="right")
    # N e^{-s/2} - 3 e^{s/2}: the unscaled 3 e^s overflows from s = 708.7, where e(s) is finite
    vals = counts * np.exp(-0.5 * grid) - _VOL_COEFF * np.exp(0.5 * grid)
    return ErrorSeries(series=SampledSeries(0.0, DEFAULT_STEP, vals), alpha=None)


def sample_e_alpha(z: Point, w: Point, order, s_max: float, method: str = "grid",
                   distances: DistanceMultiset | None = None) -> ErrorSeries:
    """Fractionally integrated normalized remainder on the grid k/512 in [0, s_max].

    method="grid" integrates the sampled e(s) with the product rule, which
    moves every orbit jump to the next sample.  method="exact" takes
    exact_e_alpha, which keeps each jump where it is (a direct sum into the
    next sample, a degree-18 Chebyshev expansion of the kernel beyond it),
    and cross-checks it against the grid path at 33 evenly spaced samples:
    it emits a MethodDisagreement warning when they differ by more than 10x
    method_budget.  The order, the method and the grid size are validated
    before the enumeration.
    """
    alpha = _as_alpha(order)
    if method not in ("grid", "exact"):
        raise ValidationError(f"unknown method {method!r}")
    _grid_size(s_max, DEFAULT_STEP)
    if distances is None:
        distances = list_distances(BallSpec(z, w, s_max))
    grid_path = frac_integrate(sample_error(z, w, s_max, distances=distances).series, alpha)
    if method == "grid":
        return ErrorSeries(series=grid_path, alpha=alpha)
    vals = exact_e_alpha(distances, alpha, s_max)
    idx = np.linspace(0, vals.size - 1, _CROSSCHECK_POINTS).astype(int)
    diff = float(np.max(np.abs(grid_path.values[idx] - vals[idx])))
    budget = method_budget(alpha)
    if diff > 10.0 * budget:
        warnings.warn(f"grid/exact fractional error terms differ by {diff:.3e} "
                      f"(budget {budget:.3e})", MethodDisagreement)
    return ErrorSeries(series=SampledSeries(0.0, DEFAULT_STEP, vals), alpha=alpha)


_CHEB_DEGREE = 18  # of the interpolant of L on every cell past the first


def exact_e_alpha(distances: DistanceMultiset, alpha: float, s_max: float) -> np.ndarray:
    """Exact e_alpha on the grid s_j = j/512 in [0, s_max] (the grid of sample_e_alpha).

    e_alpha(s) = exp(-s/2)/Gamma(alpha) sum_{d < s} L(s - d) - 3 I_alpha(e^{t/2})(s)
    with L(X) = int_0^X e^{u/2} u^{alpha-1} du, summed over the distance
    multiset with multiplicity; the jumps are not moved to the grid.

    A distance d in cell k (s_k <= d < s_{k+1}) reaches every s_{k+m}.  For
    m = 1, L(s_{k+1} - d) is summed directly: L(X) ~ X^alpha/alpha is not
    analytic at 0.  For m >= 2, L(m*step - delta), delta = d - s_k =
    step (x+1)/2, is replaced by its interpolant sum_{j<=J} c_j(m) T_j(x) in
    the J+1 Chebyshev points, J = 18, so degree j adds one convolution of
    the cell moments sum T_j(x) with the row c_j.  Cost O(J (N + n^2)) for
    N distances and n samples, against O(n N) for a direct sum; memory
    O(_CHUNK_POINTS + J n) beside the list, which is walked in chunks of whole cells.

    Error bound: L(m*step - delta) is singular at x = 2m-1, outside the
    Bernstein ellipse of every rho < 2m-1 + sqrt((2m-1)^2 - 1) (5.83 at
    m = 2), so the interpolant is within 4 M rho^{-J}/(rho-1) of it, twice
    the truncated series' 2 M rho^{-J}/(rho-1) (Trefethen, Approximation
    Theory and Approximation Practice, SIAM 2013, Thm 8.2); M is the largest
    |L| on the ellipse over L on the cell.  At rho = 5.8 and the step
    1/512, M <= 3.0 for every m >= 2 and alpha, so the truncation error of
    e_alpha(s) is at most 4.5e-14 times the sum of the positive jump terms,
    e_alpha(s) + 3 I_alpha(e^{t/2})(s).
    """
    alpha = _as_alpha(alpha)
    step = DEFAULT_STEP
    n = _grid_size(s_max, step)
    grid = step * np.arange(n)
    d = _reaching(distances, s_max)
    # cell k, s_k <= d < s_{k+1}, holds d[first[k]:first[k+1]]; d < s_j reaches s_j
    first = np.searchsorted(d, grid)
    acc, moments = np.zeros(n), np.zeros((_CHEB_DEGREE + 1, n - 1))
    for lo, hi in _chunks(np.diff(first)):  # the cells k < n-1, which reach sample k+1
        k = np.repeat(np.arange(hi - lo), np.diff(first[lo:hi + 1]))  # cell - lo
        dk = d[first[lo]:first[hi]]
        acc[lo + 1:hi + 1] += np.bincount(k, minlength=hi - lo, weights=lower_incomplete_exp(
            alpha, grid[lo + 1:hi + 1][k] - dk))
        x = 2.0 * (dk - grid[lo:hi][k]) / step - 1.0
        t_prev, t_cur = np.zeros(x.size), np.ones(x.size)
        for j in range(_CHEB_DEGREE + 1):
            moments[j, lo:hi] = np.bincount(k, weights=t_cur, minlength=hi - lo)
            t_prev, t_cur = t_cur, (2.0 if j else 1.0) * x * t_cur - t_prev
    cells = n - 2  # cells k < n-2 reach the samples k+m, m >= 2
    if cells > 0:
        deg = np.arange(_CHEB_DEGREE + 1)
        # T_j(x_i) = cos(pi i j / J) at the Chebyshev points x_i = cos(pi i / J)
        cheb = np.cos(np.pi / _CHEB_DEGREE * (np.outer(deg, deg) % (2 * _CHEB_DEGREE)))
        ends = np.where(deg % _CHEB_DEGREE, 1.0, 0.5)  # the DCT-I halves i, j = 0, J
        offset = 0.5 * (cheb[1, :, None] + 1.0)  # delta/step at the nodes
        kernel = lower_incomplete_exp(alpha, step * (np.arange(2, n) - offset))
        # a constant moves c_0 only; taken out, c_j (j >= 1) round with the variation of L
        centre = kernel[_CHEB_DEGREE // 2]
        coef = 2.0 / _CHEB_DEGREE * np.outer(ends, ends) * cheb @ (kernel - centre)
        coef[0] += centre
        for j in range(_CHEB_DEGREE + 1):
            acc[2:] += np.convolve(moments[j, :cells], coef[j])[:cells]
    main = _VOL_COEFF * frac_exp_reference(0.5, alpha, grid)
    return np.exp(-0.5 * grid) * acc / math.gamma(alpha) - main


# Max |grid - exact| at step 1/512, z = w = i, s <= 10, for a = 0.1, 0.25, 0.5, 0.75, 1:
# 0.125, 0.111, 0.035, 0.025, 0.026 over the 129 samples test_grid_vs_exact_budget reads,
# pinned at ~2x; all 5,121 samples give 0.403, 0.328, 0.095, 0.030, 0.027, past it for a <= 0.5.
_METHOD_BUDGET_TABLE = ((0.1, 0.25), (0.25, 0.25), (0.5, 0.08),
                        (0.75, 0.06), (1.0, 0.06))


def method_budget(alpha: float) -> float:
    """Grid-vs-exact disagreement allowance on the grid k/512.

    The grid method moves every orbit jump to the next sample point, so its
    error is controlled by the jump masses, not by smooth-function rates;
    the table interpolates pinned reference measurements.
    """
    pts = np.array(_METHOD_BUDGET_TABLE)
    return float(np.interp(alpha, pts[:, 0], pts[:, 1]))


# ---------------------------------------------------------------------------
# windowed moments
# ---------------------------------------------------------------------------

_MOMENT_BLOCK = 2 ** 16  # samples per np.sum in the windowed moments, 0.5 MiB


def _samples_below(series: SampledSeries, x: float) -> int:
    """np.searchsorted(series.grid, x) without forming the whole grid.

    The quotient (x - start) / step is off the count by at most one sample,
    so four grid points around it settle the count.
    """
    n = series.values.size
    k = min(max(math.ceil((x - series.start) / series.step) - 2, 0), n)
    near = series.start + series.step * np.arange(k, min(k + 4, n))
    return k + int(np.searchsorted(near, x))


def _window_slice(series: SampledSeries, T: float, window: str):
    if not T > 0.0:
        raise ValidationError(f"window length T must be positive, got {T}")
    lo, hi = (T, 2.0 * T) if window == "T2T" else (0.0, T)
    if window not in ("T2T", "0T"):
        raise ValidationError(f"unknown window {window!r}")
    first, last = series.start, series.start + series.step * (series.values.size - 1)
    if lo < first - 1e-9 or hi > last + 1e-9:
        raise ValidationError(f"window [{lo}, {hi}] not covered by series [{first}, {last}]")
    i0 = _samples_below(series, lo - 1e-12)
    i1 = _samples_below(series, hi + 1e-12)
    if i1 - i0 < 2:
        raise ValidationError(f"window [{lo:g}, {hi:g}] needs two samples, it holds {i1 - i0}")
    return series.values[i0:i1]


def _trapezoid_mean(v: np.ndarray, f) -> float:
    """Trapezoid average of f(v) on v's uniform grid, one np.sum per block: f's
    temporaries stay block-sized, and no BLAS thread split ties the bits to the cores."""
    total = math.fsum(float(np.sum(f(v[k:k + _MOMENT_BLOCK]))) for k in range(0, v.size, _MOMENT_BLOCK))
    return (total - float(f(v[0]) + f(v[-1])) / 2.0) / (v.size - 1)


def first_moment(err: ErrorSeries, T: float, window: str = "T2T") -> float:
    """Trapezoid window average of the series over [T, 2T] (or [0, T]): (sum v - (v_first +
    v_last)/2) / (m - 1) on the window's m samples, within 1e-12 x mean |v| of np.trapezoid."""
    return _trapezoid_mean(_window_slice(err.series, T, window), lambda b: b)


def window_variance(err: ErrorSeries, T: float, window: str = "T2T") -> float:
    """Trapezoid window average of the squared series: (sum v^2 - (v_first^2 + v_last^2)/2)
    / (m - 1) on the window's m samples, within 1e-12 x mean v^2 of np.trapezoid."""
    return _trapezoid_mean(_window_slice(err.series, T, window), lambda b: b * b)


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
    ratio is reported as-is.  A series integrated to another order than
    `order` is refused; one with no order (alpha None, e.g. read from a CSV)
    is taken as given.
    """
    if math.isnan(t_max):
        raise ValidationError("spectral cut-off t_max is NaN")
    alpha = _as_alpha(order)
    if err.alpha is not None and err.alpha != alpha:
        raise ValidationError(f"the series is integrated to order {err.alpha}, not {alpha}")
    emp = window_variance(err, T, window=window)
    spectral_sum = spectral_variance(amplitudes, alpha, t_max)
    if spectral_sum.terms == 0:
        raise ValidationError(f"no spectral parameter lies in (0, {t_max}]")
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
    if x_values.size < 2:
        raise ValidationError(f"the exponent fit needs two scan points x = 8, 9, ...; "
                              f"the series ends at {grid[-1]:g}")
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

# Default sample step of the synthetic series; samples per block of the phasor product.
SYNTHETIC_STEP = 1.0 / 256.0
_SYNTHETIC_BLOCK = 2048
# Values taken from each sample per block of the two-sample KS merge.
_KS_BLOCK = 2 ** 13


def synthetic_series(amplitudes, order, L: float, step: float = SYNTHETIC_STEP) -> ErrorSeries:
    """The almost-periodic model f_alpha_sum sampled as a series on [0, L].

    Sample b B + k (block b of B samples, offset k) is
    sum_j Re(S[b, j] P[j, k]) with S[b, j] = c_j e^{i t_j s_b} at the block
    start s_b = b B step and P[j, k] = e^{i t_j k step}, built once. The
    series is then one real matrix product [Re S, Im S] @ [Re P; -Im P]
    in place of a cos and a sin per sample and term. Every block start takes
    its phase from its own s_b, never from the previous block, so rounding
    does not build up: the error is the rounding of the phase t_j s, as in
    f_alpha_sum.
    """
    if not 0.0 < L < math.inf:
        raise ValidationError(f"series length L must be positive and finite, got {L}")
    n = _grid_size(L, step)
    alpha = _as_alpha(order)
    t, c = _model_terms(amplitudes, alpha)
    phasors = np.exp(1j * np.outer(t, step * np.arange(_SYNTHETIC_BLOCK)))
    rhs = np.concatenate([phasors.real, -phasors.imag])
    blocks = -(-n // _SYNTHETIC_BLOCK)
    starts = c * np.exp(1j * np.outer(step * (_SYNTHETIC_BLOCK * np.arange(blocks)), t))
    out = np.concatenate([starts.real, starts.imag], axis=1) @ rhs
    return ErrorSeries(series=SampledSeries(0.0, step, out.ravel()[:n]), alpha=alpha)


def _ks_two_sample_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance of pre-sorted samples.

    The gap between the two empirical CDFs is largest at a sample value x,
    where it is |ca/na - cb/nb| with ca and cb the counts of values <= x in
    a and in b. The samples are merged a block at a time. With v the smaller
    of a[i + B] and b[j + B] (B = _KS_BLOCK, i and j the values already
    merged), a block takes every value below v from both samples, at most 2B
    values; if both samples go on at v, it takes every value <= v instead,
    the whole run of v however long. Either way the next block starts above
    the last value of this one, so a run of equal values never straddles two
    blocks. A stable argsort of a block is one linear merge of its two sorted
    runs; a running count of the entries from a gives ca and cb at each
    pooled value, and the gap is read at the last entry of each run of equal
    values.
    """
    na, nb = a.size, b.size
    i = j = 0
    gap = 0.0
    while i < na or j < nb:
        v = min(a[i + _KS_BLOCK] if i + _KS_BLOCK < na else math.inf,
                b[j + _KS_BLOCK] if j + _KS_BLOCK < nb else math.inf)
        side = "right" if (i == na or a[i] >= v) and (j == nb or b[j] >= v) else "left"
        i1, j1 = int(np.searchsorted(a, v, side)), int(np.searchsorted(b, v, side))
        block = np.concatenate([a[i:i1], b[j:j1]])
        order = np.argsort(block, kind="stable")
        in_a = np.cumsum(order < i1 - i)
        block = block[order]
        ends = np.flatnonzero(np.append(block[1:] != block[:-1], True))
        ca = in_a[ends]
        cb = ends + (j + 1) - ca
        ca += i
        gap = max(gap, float(np.max(np.abs(ca / na - cb / nb))))
        i, j = i1, j1
    return gap


def _check_bins(bins) -> None:
    if not (isinstance(bins, str) and bins == "fd" or isinstance(bins, int) and bins >= 1):
        raise ValidationError(f"bins must be 'fd' or an integer >= 1, got {bins!r}")


def distribution_estimate(err: ErrorSeries, bins="fd") -> DistributionEstimate:
    """Histogram, moments, and a half-vs-half KS stationarity diagnostic.

    bins is "fd" or an integer >= 1. Mean, variance and the edges
    (np.histogram_bin_edges) are taken before the halves are sorted, so their
    temporaries are freed first; KS and counts are read from the sorted halves,
    bin k counting [e_k, e_{k+1}), the last closed: np.histogram's counts.
    """
    _check_bins(bins)
    vals = err.values
    if vals.size < 2:
        raise ValidationError(f"a distribution estimate needs at least 2 samples, got {vals.size}")
    for x in (np.min(vals), np.max(vals)):  # both propagate NaN
        if not math.isfinite(x):
            raise ValidationError(f"a distribution estimate needs finite samples, got {x}")
    mean, variance = float(np.mean(vals)), float(np.var(vals))
    edges = np.histogram_bin_edges(vals, bins)
    half = vals.size // 2
    a = np.sort(vals[:half])
    b = np.sort(vals[half:])
    ks = _ks_two_sample_sorted(a, b)
    # values below each edge; the top edge is the maximum, and the last bin holds it
    below = np.searchsorted(a, edges) + np.searchsorted(b, edges)
    below[-1] = vals.size
    return DistributionEstimate(
        edges=edges, counts=np.diff(below), mean=mean, variance=variance,
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


def hybrid_run(z: Point, w: Point, schedule: str, T_values,
               distances: DistanceMultiset | None = None) -> list[HybridPoint]:
    """Variances over the windows [0, T] along a vanishing-order schedule alpha(T).

    schedule names an entry of _SCHEDULES, each strictly decreasing in T.
    The T must be distinct, and the condition quantity 1/(alpha e^{2 T alpha})
    at most _CONDITION_MAX at every listed T (checked at T >= 9 where the
    asymptotic regime is meant); otherwise ValidationError is raised.
    e(s) is sampled once, to the largest T, and integrated once per order.
    """
    if schedule not in _SCHEDULES:
        raise ValidationError(f"unknown schedule {schedule!r}, expected one of {sorted(_SCHEDULES)}")
    sched = _SCHEDULES[schedule]
    T_values = sorted(float(T) for T in T_values)
    if not all(T > 0.0 for T in T_values):
        raise ValidationError(f"window lengths T must be positive, got {T_values}")
    if len(set(T_values)) < len(T_values):
        raise ValidationError(f"window lengths T must be distinct, got {T_values}")
    alphas = [_as_alpha(sched(T)) for T in T_values]
    conds = [schedule_condition(a, T) for a, T in zip(alphas, T_values)]
    for T, cond in zip(T_values, conds):
        if T >= 9.0 and cond > _CONDITION_MAX:
            raise ValidationError(f"condition value {cond:.4g} at T={T} exceeds {_CONDITION_MAX}")
    base = sample_error(z, w, max(T_values), distances=distances)
    out = []
    for T, a, cond in zip(T_values, alphas, conds):
        err = ErrorSeries(series=frac_integrate(base.series, a), alpha=a)
        var = window_variance(err, T, window="0T")
        out.append(HybridPoint(T=T, alpha=a, condition=cond, variance=var))
    return out
