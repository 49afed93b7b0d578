import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

from hypcircle import constants, counting, experiments
from hypcircle.counting import BallSpec, DistanceMultiset, list_distances
from hypcircle.errors import MemoryBudgetExceeded, ValidationError
from hypcircle.experiments import (
    DistributionEstimate,
    ErrorSeries,
    distribution_estimate,
    exact_e_alpha,
    first_moment,
    hybrid_run,
    method_budget,
    pointwise_exponent,
    pointwise_scan,
    sample_e_alpha,
    sample_error,
    schedule_condition,
    synthetic_series,
    variance_report,
    window_variance,
)
from hypcircle.fracint import (
    DEFAULT_STEP,
    SampledSeries,
    frac_exp_reference,
    frac_indicator_exp,
)
from hypcircle.geometry import Point
from hypcircle.spectral import Amplitude, amplitude, f_alpha_sum
from hypcircle.spectral.transforms import r_alpha
from hypcircle.specfun import lower_incomplete_exp

I = Point(0.0, 1.0)


def const_series(c, T=16.0, step=1.0 / 64.0):
    n = int(T / step) + 1
    return ErrorSeries(series=SampledSeries(0.0, step, np.full(n, c)), alpha=None)


def cosine_series(A, freq, phase=0.3, T=400.0, step=1.0 / 64.0):
    n = int(T / step) + 1
    g = step * np.arange(n)
    return ErrorSeries(series=SampledSeries(0.0, step, A * np.cos(freq * g + phase)),
                       alpha=None)


class TestSampleError:
    def test_small_radius_shape(self, distances_14):
        err = sample_error(I, I, 14.0, distances=distances_14)
        g = err.grid
        first_pos = distances_14.values[distances_14.values > 1e-12][0]
        mask = g < first_pos - 1e-3
        ref = 2.0 * np.exp(-0.5 * g[mask]) - 3.0 * np.exp(0.5 * g[mask])
        assert np.max(np.abs(err.values[mask] - ref)) == 0.0

    def test_jump_heights(self, distances_14):
        # e jumps by (multiplicity) e^{-d/2} at each orbit distance
        step = DEFAULT_STEP
        err = sample_error(I, I, 14.0, distances=distances_14)
        d = distances_14.values
        d3 = d[d > 1e-12][0]  # acosh(1.5), multiplicity 8
        k = int(math.ceil(d3 / step))
        jump = (err.values[k] - err.values[k - 1])
        expected = 8.0 * math.exp(-0.5 * d3)
        # discrete grid also carries the smooth -3 e^{s/2} drift over one step
        assert jump == pytest.approx(expected, abs=0.02)

    def test_mean_much_smaller_than_std_high_window(self, distances_14):
        # qualitative first-moment smallness over the top window [12, 14]
        err = sample_error(I, I, 14.0, distances=distances_14)
        grid, vals = err.grid, err.values
        sel = (grid >= 12.0) & (grid <= 14.0)
        m = float(np.mean(vals[sel]))
        s = float(np.std(vals[sel]))
        assert abs(m) <= 0.5 * s

    def test_short_distance_list_rejected(self):
        # a list to s = 8 misses every orbit point past 8: taken for s_max = 10
        # it gave e(10) = -385.4, where the list to 10 gives -1.87
        short = list_distances(BallSpec(I, I, 8.0))
        for call in (lambda: sample_error(I, I, 10.0, distances=short),
                     lambda: exact_e_alpha(short, 0.5, 10.0),
                     lambda: sample_e_alpha(I, I, 0.5, 10.0, distances=short),
                     lambda: hybrid_run(I, I, "inv-sqrt", [6.0, 9.0, 10.0], distances=short)):
            with pytest.raises(ValidationError, match="radius 8 "):
                call()
        full = list_distances(BallSpec(I, I, 10.0))
        assert sample_error(I, I, 10.0, distances=full).values[-1] == pytest.approx(-1.87, abs=0.01)
        # a longer list serves any smaller radius
        assert np.array_equal(sample_error(I, I, 8.0, distances=full).values,
                              sample_error(I, I, 8.0, distances=short).values)

    def test_finite_past_exp_overflow(self):
        # 3 e^s overflows from s = 708.686, where e(s) = N e^{-s/2} - 3 e^{s/2} is finite
        err = sample_error(I, I, 709.0, distances=DistanceMultiset([0.1, 0.5], 709.0))
        assert np.all(np.isfinite(err.values))
        ref = 2.0 * math.exp(-354.5) - 3.0 * math.exp(354.5)
        assert err.grid[-1] == 709.0 and err.values[-1] == pytest.approx(ref, rel=1e-15)


class TestSampleEAlpha:
    def test_order_one_matches_quadrature(self, distances_14):
        err = sample_e_alpha(I, I, 1.0, 10.0, distances=distances_14)
        base = sample_error(I, I, 10.0, distances=distances_14)
        # trapezoid of e agrees with the order-1 product rule on smooth spans
        ref = np.concatenate([[0.0], np.cumsum(
            0.5 * (base.values[1:] + base.values[:-1]) * base.series.step)])
        assert np.max(np.abs(err.values - ref)) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_grid_vs_exact_budget(self, alpha, distances_14):
        err = sample_e_alpha(I, I, alpha, 10.0, method="grid", distances=distances_14)
        idx = np.linspace(0, len(err.values) - 1, 129).astype(int)
        exact = exact_e_alpha(distances_14, alpha, 10.0)[idx]
        diff = float(np.max(np.abs(err.values[idx] - exact)))
        assert diff <= method_budget(alpha)
        assert diff >= method_budget(alpha) / 20.0  # drift guard on the pin

    def test_exact_method_crosschecks(self, distances_14):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no MethodDisagreement expected
            err = sample_e_alpha(I, I, 0.5, 6.0, method="exact",
                                 distances=distances_14)
        assert np.array_equal(err.values, exact_e_alpha(distances_14, 0.5, 6.0))

    def test_boundedness_above_half(self, distances_14):
        err = sample_e_alpha(I, I, 0.75, 14.0, distances=distances_14)
        sel = (err.grid >= 5.0)
        assert np.max(np.abs(err.values[sel])) <= constants.POINTWISE_BOUNDED_C

    def test_grid_vs_exact_generic_points(self):
        # the dual-method agreement is not special to the symmetric center
        z, w = Point(0.2, 1.3), Point(-0.1, 0.9)
        dist = list_distances(BallSpec(z, w, 6.0))
        err = sample_e_alpha(z, w, 0.4, 6.0, distances=dist)
        idx = np.linspace(0, len(err.values) - 1, 65).astype(int)
        exact = exact_e_alpha(dist, 0.4, 6.0)[idx]
        assert float(np.max(np.abs(err.values[idx] - exact))) <= method_budget(0.4)

    def test_exact_with_no_distance_below_last_sample(self):
        # d(z, w) = 0.2997 lies past s_{n-1} = 153/512, so no distance reaches a
        # sample; the exact path must still agree with the grid path
        z, w = Point(0.2, 1.14), Point(-0.3, 1.1)
        dist = list_distances(BallSpec(z, w, 0.3))
        assert dist.values.size == 1 and dist.values[0] > 153 / 512
        exact = exact_e_alpha(dist, 0.5, 0.3)
        grid = sample_e_alpha(z, w, 0.5, 0.3, distances=dist).values
        assert float(np.max(np.abs(exact - grid))) <= method_budget(0.5)

    def test_bad_method_and_order_rejected_before_enumerating(self, monkeypatch):
        def no_enumeration(spec):
            raise AssertionError("enumerated before validating")

        monkeypatch.setattr(experiments, "list_distances", no_enumeration)
        with pytest.raises(ValidationError, match="unknown method"):
            sample_e_alpha(I, I, 0.5, 12.0, method="exakt")
        with pytest.raises(ValidationError):
            sample_e_alpha(I, I, 1.5, 12.0, method="exact")


def direct_sum_e_alpha(distances, alpha, s):
    """The per-jump sum sum_d I_alpha(1_{t>=d} e^{-t/2})(s) minus the main term."""
    total = sum(frac_indicator_exp(float(d), alpha, s) for d in distances.values)
    return total - 3.0 * frac_exp_reference(0.5, alpha, s)


class TestExactEAlpha:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("z, w, s_max", [
        (I, I, 6.0),  # d = 0 and multiplicities
        (Point(0.2, 1.3), Point(-0.1, 0.9), 5.001),  # s_max not a multiple of the step
    ])
    def test_matches_direct_sum(self, alpha, z, w, s_max):
        dist = list_distances(BallSpec(z, w, s_max))
        vals = exact_e_alpha(dist, alpha, s_max)
        assert vals.size == len(sample_error(z, w, s_max, distances=dist).values)
        idx = np.linspace(0, vals.size - 1, 33).astype(int)
        ref = direct_sum_e_alpha(dist, alpha, DEFAULT_STEP * idx)
        assert np.max(np.abs(vals[idx] - ref)) <= 1e-11

    def test_order_one_closed_form(self, distances_14):
        # L(1, X) = 2 (e^{X/2} - 1), so
        # e_1(s) = sum_{d<s} 2 (e^{-d/2} - e^{-s/2}) - 6 (e^{s/2} - 1).
        # Summed as a cumulative sum of its increments over the grid cells:
        # a running sum of the terms themselves loses 1e-10 at s = 10.
        vals = exact_e_alpha(distances_14, 1.0, 10.0)
        grid = DEFAULT_STEP * np.arange(vals.size)
        d = distances_14.values
        below = np.searchsorted(d, grid, side="left")  # jumps before s_j
        cell = np.searchsorted(grid, d, side="right")  # s_{cell-1} <= d < s_cell
        mass = np.bincount(cell, weights=np.exp(-0.5 * d), minlength=grid.size + 1)[:grid.size]
        decay = np.exp(-0.5 * grid)
        inc = (2.0 * (mass[1:] - np.diff(below) * decay[1:])
               + 2.0 * below[:-1] * (decay[:-1] - decay[1:])
               - 6.0 * np.diff(np.exp(0.5 * grid)))
        ref = np.concatenate([[0.0], np.cumsum(inc)])
        assert np.max(np.abs(vals - ref)) <= 1e-11

    @pytest.mark.parametrize("samples", [1, 2, 3])
    @pytest.mark.parametrize("z, w", [(I, I), (Point(0.2, 1.3), Point(0.2, 1.302))],
                             ids=["i", "generic"])
    def test_shortest_grids(self, samples, z, w):
        # 1 and 2 samples reach no cell past the first; 3 samples reach one,
        # which holds d = 0 (z = w = i) or d = 0.0015 < 1/512 (the generic pair)
        s_max = DEFAULT_STEP * (samples - 0.9)
        dist = list_distances(BallSpec(z, w, s_max))
        vals = exact_e_alpha(dist, 0.3, s_max)
        assert vals.size == samples
        ref = direct_sum_e_alpha(dist, 0.3, DEFAULT_STEP * np.arange(samples))
        assert np.max(np.abs(vals - ref)) <= 1e-13

    @pytest.mark.parametrize("z, w", [(I, I), (Point(0.2, 1.14), Point(-0.3, 1.1))],
                             ids=["i", "generic"])
    def test_truncation_bound(self, z, w):
        # the docstring's bound: at s <= 9 the Chebyshev truncation moves e_alpha(s) by
        # at most 4.5e-14 x the positive jump sum e^{-s/2}/Gamma(alpha) sum_{d<s} L(s - d),
        # here against that sum taken directly with math.fsum at 9 samples
        dist = list_distances(BallSpec(z, w, 9.0))
        d = dist.values
        first = int(d[0] / DEFAULT_STEP) + 1  # the first sample past the first distance
        for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
            vals = exact_e_alpha(dist, alpha, 9.0)
            for j in np.linspace(first, vals.size - 1, 9).astype(int):
                s = DEFAULT_STEP * j
                jumps = (math.exp(-0.5 * s) / math.gamma(alpha)
                         * math.fsum(lower_incomplete_exp(alpha, s - d[d < s])))
                ref = jumps - 3.0 * frac_exp_reference(0.5, alpha, s)
                assert abs(vals[j] - ref) <= 4.5e-14 * jumps

    def test_radius_zero(self):
        vals = exact_e_alpha(list_distances(BallSpec(I, I, 0.0)), 0.5, 0.0)
        assert vals.tolist() == [0.0]

    @pytest.mark.parametrize("z, w", [(I, I), (Point(0.2, 1.3), Point(-0.1, 0.9))],
                             ids=["i", "generic"])
    def test_chunked_walk_is_bit_identical(self, monkeypatch, z, w):
        # each cell falls in one chunk and np.bincount adds its terms in list
        # order, so chunks of about 300 distances give the one-chunk bytes
        dist = list_distances(BallSpec(z, w, 10.0))
        for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
            monkeypatch.setattr(counting, "_CHUNK_POINTS", dist.count)
            whole = exact_e_alpha(dist, alpha, 10.0)
            monkeypatch.setattr(counting, "_CHUNK_POINTS", 300)
            assert exact_e_alpha(dist, alpha, 10.0).tobytes() == whole.tobytes()

    def test_peak_memory(self, numpy_peak):
        # 1.33 M distances (10.1 MiB) at s = 13: the walk holds a chunk of about
        # 2^16 distances and the (19, n-2) cell moments beside the list, and
        # numpy's peak allocation reads 6.4 MiB; one whole-list pass read 71.0 MiB
        dist = list_distances(BallSpec(I, I, 13.0))
        assert numpy_peak(lambda: exact_e_alpha(dist, 0.25, 13.0)) < 16 * 2 ** 20


class TestLayerCake:
    def test_jump_sum_reproduces_weighted_count_integral(self):
        # sum over orbit distances of the order-1 jump integrals equals the
        # exact piecewise-constant integral of N(t) e^{-t/2}
        s = 5.0
        dist = list_distances(BallSpec(I, I, s))
        total = float(np.sum([frac_indicator_exp(float(d), 1.0, s)
                              for d in dist.values]))
        edges = np.concatenate([dist.values, [s]])
        counts = np.arange(1, dist.count + 1, dtype=float)
        ref = float(np.sum(counts * 2.0 * (np.exp(-0.5 * edges[:-1])
                                           - np.exp(-0.5 * edges[1:]))))
        assert total == pytest.approx(ref, abs=1e-6)


class TestMoments:
    def test_first_moment_constant(self):
        assert first_moment(const_series(2.5), 4.0) == pytest.approx(2.5, rel=1e-13)

    def test_first_moment_cosine(self):
        A, freq, T = 1.7, 9.0, 150.0
        fm = first_moment(cosine_series(A, freq), T)
        assert abs(fm) <= A / (T * freq) * 2.0 + 1e-9

    def test_window_variance_constant(self):
        assert window_variance(const_series(-1.5), 4.0) == pytest.approx(2.25, rel=1e-13)

    def test_window_variance_cosine(self):
        A, freq, T = 2.0, 7.0, 150.0
        wv = window_variance(cosine_series(A, freq), T)
        assert wv == pytest.approx(A * A / 2.0, abs=A * A / (freq * T) * 3.0)

    def test_window_out_of_range(self):
        with pytest.raises(ValidationError, match=r"window \[3.0, 6.0\] not covered by series"):
            first_moment(const_series(1.0, T=4.0), 3.0)

    def test_zero_window_variant(self):
        s = cosine_series(1.0, 3.0, T=50.0)
        assert abs(first_moment(s, 40.0, window="0T")) <= 0.02

    @pytest.mark.parametrize("block", [2 ** 16, 97])
    def test_moments_match_trapezoid(self, monkeypatch, block):
        # the uniform-grid sum agrees with np.trapezoid on the window's grid:
        # random windows and series, nonzero starts, both windows, and
        # windows of two and three samples; a block of 97 samples splits
        # every longer window into many sums and a partial last block
        monkeypatch.setattr(experiments, "_MOMENT_BLOCK", block)
        rng = np.random.default_rng(17)
        cases = [(0.0, 1.0, 3, 1.0, "0T"), (0.0, 1.0, 3, 1.0, "T2T"), (0.5, 0.5, 4, 0.5, "T2T"),
                 (0.0, 0.5, 3, 1.0, "0T"), (0.0, 0.5, 5, 1.0, "T2T"), (-0.1, 0.1, 4, 0.2, "0T")]
        for k in range(200):
            step, window = (1.0 / 512.0, 0.1, 1.0 / 3.0)[k % 3], ("T2T", "0T")[k % 2]
            n = int(rng.integers(200, 40000))
            span = (n - 1) * step
            if window == "T2T":
                start = rng.uniform(0.05, 0.3) * span
                T = rng.uniform(start, 0.5 * (start + span))
            else:
                start = -rng.uniform(0.0, 0.5) * span
                T = rng.uniform(0.1, 1.0) * (start + span)
            cases.append((start, step, n, T, window))
        sizes = set()
        for start, step, n, T, window in cases:
            vals = rng.standard_normal(n) * rng.uniform(0.1, 10.0) + rng.uniform(-3.0, 3.0)
            err = ErrorSeries(SampledSeries(start, step, vals), alpha=None)
            lo, hi = (T, 2.0 * T) if window == "T2T" else (0.0, T)
            grid = err.series.grid
            i0, i1 = np.searchsorted(grid, lo - 1e-12), np.searchsorted(grid, hi + 1e-12)
            g, v = grid[i0:i1], vals[i0:i1]
            sizes.add(v.size)
            for fn, y in ((first_moment, v), (window_variance, v * v)):
                ref = np.trapezoid(y, g) / (g[-1] - g[0])
                assert abs(fn(err, T, window) - ref) <= 1e-12 * np.mean(np.abs(y))
        assert {2, 3} <= sizes

    def test_moments_peak_memory(self, numpy_peak):
        # no grid and no series-sized temporary: block-sized squares only
        vals = np.random.default_rng(3).standard_normal(2 ** 20)
        err = ErrorSeries(SampledSeries(0.0, 1.0 / 512.0, vals), alpha=None)
        window_variance(ErrorSeries(SampledSeries(0.0, 0.5, vals[:64]), alpha=None), 4.0)
        for fn in (first_moment, window_variance):
            assert numpy_peak(lambda: fn(err, 600.0)) < 2 ** 20
            assert numpy_peak(lambda: fn(err, 1000.0, window="0T")) < 2 ** 20

    def test_window_edges_match_grid_search(self):
        # the window's first and last samples are those a search of the whole
        # grid finds, at grid points and a hair to either side of them
        rng = np.random.default_rng(5)
        for start, step, n in ((0.0, 1.0 / 256.0, 5000), (-2.5, 0.1, 777), (1.0, 1.0 / 3.0, 31)):
            series = SampledSeries(start, step, np.zeros(n))
            grid = series.grid
            xs = np.concatenate([grid[rng.integers(0, n, 50)] + d for d in (-1e-12, 0.0, 1e-12)]
                                + [rng.uniform(start - 1.0, grid[-1] + 1.0, 50)])
            for x in xs:
                assert experiments._samples_below(series, x) == np.searchsorted(grid, x)


class TestSyntheticClosedLoop:
    def test_single_frequency_variance(self):
        amp = [Amplitude(10.0, 1.5)]
        ser = synthetic_series(amp, 0.25, 5.0e3, step=1.0 / 64.0)
        target = 0.5 * abs(1.5 * r_alpha(10.0, 0.25)) ** 2
        assert window_variance(ser, 2.5e3, window="T2T") == pytest.approx(target, rel=2e-2)
        # the [0, L] window converges to the same limit
        assert window_variance(ser, 5.0e3, window="0T") == pytest.approx(target, rel=2e-2)

    def test_variance_report_synthetic_ratio(self):
        amp = [Amplitude(10.0, 1.5)]
        ser = synthetic_series(amp, 0.25, 2.0e4, step=1.0 / 64.0)
        rep = variance_report(ser, amp, 0.25, 1.0e4)
        assert rep.ratio == pytest.approx(1.0, abs=0.02)

    def test_variance_report_real_containment(self, distances_14, amplitudes_ii):
        err = sample_e_alpha(I, I, 0.75, 14.0, distances=distances_14)
        rep = variance_report(err, amplitudes_ii, 0.75, 7.0)
        scan = pointwise_scan(err)
        assert rep.empirical <= scan.envelope_constant ** 2
        assert math.isfinite(rep.ratio) and rep.ratio > 0.0

    def test_variance_report_order_mismatch_rejected(self, distances_14, amplitudes_ii):
        # an e_0.5 series against the order-0.25 spectral sum read 4.03 where the
        # matching sum reads 15.84
        err = sample_e_alpha(I, I, 0.5, 10.0, distances=distances_14)
        with pytest.raises(ValidationError, match="integrated to order 0.5, not 0.25"):
            variance_report(err, amplitudes_ii, 0.25, 5.0)
        # a series with no order (e.g. read from a CSV) is taken as given
        plain = ErrorSeries(series=err.series, alpha=None)
        assert (variance_report(plain, amplitudes_ii, 0.5, 5.0)
                == variance_report(err, amplitudes_ii, 0.5, 5.0))

    def test_variance_report_real_smoke(self, distances_14, amplitudes_ii):
        err = sample_e_alpha(I, I, 0.25, 14.0, distances=distances_14)
        rep = variance_report(err, amplitudes_ii, 0.25, 12.0, window="0T")
        assert math.isfinite(rep.ratio) and rep.ratio > 0.0


def _model_reference(amps, alpha, s):
    """The model at the sample points s by mpmath at 40 digits, from the same
    double t_j and c_j = r_alpha(t_j) b_j that the series uses."""
    terms = [(a.t, r_alpha(a.t, alpha) * a.b) for a in amps if a.b != 0.0]
    with mp.workdps(40):
        return np.array([float(sum(mp.mpf(c.real) * mp.cos(mp.mpf(t) * mp.mpf(sv))
                                   - mp.mpf(c.imag) * mp.sin(mp.mpf(t) * mp.mpf(sv))
                                   for t, c in terms)) for sv in s])


@pytest.fixture(scope="module")
def model_cases(dataset_session):
    return {
        "one-form": [Amplitude(10.0, 1.5)],
        # 24 forms, the odd ones with b = 0
        "axis": amplitude(dataset_session, I, I),
        "off-axis": amplitude(dataset_session, Point(0.2, 1.14), Point(-0.3, 1.1)),
    }


class TestSyntheticBlocks:
    B = experiments._SYNTHETIC_BLOCK
    # a block edge near 2 M samples, deep in the one product
    DEEP = 976 * B

    @staticmethod
    def _bound(amps, alpha, s_max):
        # both forms round the phase t_j s; a few ulp of it on each term
        eps = np.finfo(float).eps
        return 32.0 * eps * sum(abs(r_alpha(a.t, alpha) * a.b) * (1.0 + a.t * s_max)
                                for a in amps)

    @pytest.mark.parametrize("case", ["one-form", "axis", "off-axis"])
    @pytest.mark.parametrize("L,step", [
        (100.0, 1.0 / 64.0),    # 6,401 samples: three blocks and a partial one
        (10.0, 1.0 / 64.0),     # 641 samples: one partial block
        (8000.0, 1.0 / 256.0),  # 2,048,001 samples: 1,001 blocks
    ])
    def test_matches_scalar_form(self, model_cases, case, L, step):
        amps = model_cases[case]
        ser = synthetic_series(amps, 0.25, L, step=step)
        n = int(round(L / step)) + 1
        assert ser.values.size == n and n % self.B != 0
        rng = np.random.default_rng(3)
        idx = np.array([0, self.B - 1, self.B, self.B + 1, self.DEEP - 1, self.DEEP,
                        self.DEEP + 1, n - 1] + list(rng.integers(0, n, 40)))
        idx = np.unique(idx[idx < n])
        ref = f_alpha_sum(amps, 0.25, step * idx)
        assert np.max(np.abs(ser.values[idx] - ref)) <= self._bound(amps, 0.25, L)

    @pytest.mark.parametrize("step, error", [(0.0, ValidationError), (math.inf, ValidationError),
                                             (1e-15, MemoryBudgetExceeded)])
    def test_bad_step_refused(self, step, error):
        # a step that is not positive and finite, or that gives more samples than the cap
        with pytest.raises(error, match="step"):
            synthetic_series([Amplitude(10.0, 1.0)], 0.5, 100.0, step=step)

    def test_no_terms(self):
        for amps in ([], [Amplitude(10.0, 0.0), Amplitude(12.0, 0.0)]):
            ser = synthetic_series(amps, 0.5, 40.0, step=1.0 / 64.0)
            assert ser.values.size == 2561 and not np.any(ser.values)

    @pytest.mark.parametrize("case", ["axis", "off-axis"])
    def test_large_phase_against_mpmath(self, model_cases, case):
        # t_j s reaches 5e6 at s = 2e5; the error is the rounding of that phase
        amps = model_cases[case]
        step = 0.25
        ser = synthetic_series(amps, 0.25, 2.0e5, step=step)
        n = ser.values.size
        blocks = np.arange(n // self.B - 30, n // self.B) * self.B
        idx = np.concatenate([blocks - 1, blocks, [n - 1]])
        ref = _model_reference(amps, 0.25, step * idx)
        assert np.max(np.abs(ser.values[idx] - ref)) <= 1e-9


class TestPointwiseScan:
    def test_exponent_cases(self):
        assert pointwise_exponent(0.25) == pytest.approx(0.1)
        assert pointwise_exponent(0.1) == pytest.approx(0.8 / 5.6)
        assert pointwise_exponent(0.75) == 0.0

    @pytest.mark.parametrize("alpha,cap", [(0.1, constants.POINTWISE_ENVELOPE_C),
                                           (0.25, constants.POINTWISE_ENVELOPE_C)])
    def test_envelopes_non_increasing(self, alpha, cap, distances_14):
        err = sample_e_alpha(I, I, alpha, 14.0, distances=distances_14)
        scan = pointwise_scan(err)
        env = scan.envelopes
        assert all(e2 <= e1 * (1.0 + 1e-12) for e1, e2 in zip(env, env[1:]))
        assert scan.envelope_constant <= cap

    def test_half_order_linear_bound(self, distances_14):
        err = sample_e_alpha(I, I, 0.5, 14.0, distances=distances_14)
        scan = pointwise_scan(err)
        assert scan.envelope_constant <= constants.POINTWISE_HALF_C

    @pytest.mark.parametrize("alpha", [0.75, 0.9])
    def test_bounded_orders(self, alpha, distances_14):
        err = sample_e_alpha(I, I, alpha, 14.0, distances=distances_14)
        scan = pointwise_scan(err)
        assert scan.envelope_constant <= constants.POINTWISE_BOUNDED_C
        assert scan.fitted_exponent <= 0.05


class TestDistribution:
    def test_single_form_arcsine(self):
        amp = [Amplitude(10.0, 1.0)]
        ser = synthetic_series(amp, 0.25, 1.0e5, step=1.0 / 128.0)
        A = abs(r_alpha(10.0, 0.25))
        vals = np.sort(ser.values)
        n = vals.size
        cdf = 0.5 + np.arcsin(np.clip(vals / A, -1.0, 1.0)) / math.pi
        ks = float(np.max(np.abs(np.arange(1, n + 1) / n - cdf)))
        assert ks <= 0.01

    def test_multi_form_stability(self, amplitudes_ii):
        ser = synthetic_series(amplitudes_ii, 0.25, 1.0e5, step=1.0 / 128.0)
        est = distribution_estimate(ser)
        assert est.ks_halves <= 0.02
        assert abs(est.mean) <= 2.0 * math.sqrt(est.variance / est.count) + 1e-6

    def test_ks_matches_scipy(self):
        # ties within and across the halves, halves of unequal size, and the
        # estimate's own split of an odd-length series
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = np.sort(rng.integers(0, rng.integers(1, 12), rng.integers(1, 150)).astype(float))
            b = np.sort(rng.integers(0, rng.integers(1, 12), rng.integers(1, 150)).astype(float))
            ref = scipy.stats.ks_2samp(a, b).statistic
            assert experiments._ks_two_sample_sorted(a, b) == pytest.approx(ref, abs=1e-15)
        vals = rng.integers(-5, 6, 2001).astype(float)
        est = distribution_estimate(ErrorSeries(SampledSeries(0.0, 0.5, vals), alpha=None))
        ref = scipy.stats.ks_2samp(vals[:1000], vals[1000:]).statistic
        assert est.ks_halves == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_ks_blocks_match_scipy(self, monkeypatch, block):
        # tie-heavy samples, a run of equal values longer than a block, and
        # one sample wholly below the other, merged a few values at a time
        monkeypatch.setattr(experiments, "_KS_BLOCK", block)
        rng = np.random.default_rng(block)
        pairs = [(np.sort(rng.integers(0, rng.integers(1, 6), rng.integers(1, 60)).astype(float)),
                  np.sort(rng.integers(0, rng.integers(1, 6), rng.integers(1, 60)).astype(float)))
                 for _ in range(100)]
        pairs += [
            (np.array([0.0, 1.0] + [2.0] * 20 + [3.0]), np.array([2.0] * 9 + [4.0])),
            (np.full(15, 5.0), np.full(4, 5.0)),
            (np.arange(10.0), np.arange(20.0, 27.0)),
            (np.arange(20.0, 27.0), np.arange(10.0)),
            (np.array([1.0]), np.array([1.0, 1.0, 2.0])),
        ]
        for a, b in pairs:
            ref = scipy.stats.ks_2samp(a, b).statistic
            assert experiments._ks_two_sample_sorted(a, b) == pytest.approx(ref, abs=1e-15)

    @pytest.mark.parametrize("bins", ["fd", 1, 8, 25])
    def test_histogram_matches_numpy(self, bins):
        # values on interior edges and the maximum on the closed last edge,
        # ties, a constant series and odd lengths count as np.histogram does,
        # and the mean and variance are np.mean's and np.var's bit for bit
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1001)
        series = [x, rng.integers(-4, 5, 2001).astype(float), np.full(9, 0.3), np.arange(11.0)]
        if bins != "fd":
            # edges of bins >= 1 depend on the minimum and maximum only
            series.append(np.concatenate([x, np.repeat(np.histogram_bin_edges(x, bins), 3)]))
        for vals in series:
            est = distribution_estimate(ErrorSeries(SampledSeries(0.0, 0.5, vals), alpha=None), bins)
            counts, edges = np.histogram(vals, bins)
            assert est.edges.tobytes() == edges.tobytes()
            assert est.counts.dtype == counts.dtype and np.array_equal(est.counts, counts)
            assert (est.mean, est.variance) == (float(np.mean(vals)), float(np.var(vals)))

    def test_peak_memory(self, numpy_peak):
        # the sorted halves, one series' bytes, and the KS merge's blocks: the
        # variance temporary and the percentiles' copy of the series are freed
        # before the halves are made; a small first call takes numpy's
        # one-time imports out of the count
        vals = np.random.default_rng(3).standard_normal(2 ** 20)
        distribution_estimate(ErrorSeries(SampledSeries(0.0, 0.5, vals[:64]), alpha=None))
        err = ErrorSeries(SampledSeries(0.0, 0.5, vals), alpha=None)
        assert numpy_peak(lambda: distribution_estimate(err)) < 1.25 * vals.nbytes

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        vals = np.arange(12.0)
        vals[4] = bad
        with pytest.raises(ValidationError, match=f"needs finite samples, got {bad}"):
            distribution_estimate(ErrorSeries(SampledSeries(0.0, 0.5, vals), alpha=None))

    @pytest.mark.parametrize("bins", [0, -3, 2.5, "auto", None, [0.0, 1.0]])
    def test_bad_bins_refused(self, bins):
        ser = cosine_series(1.0, 5.0, T=10.0)
        with pytest.raises(ValidationError, match="bins must be 'fd' or an integer >= 1"):
            distribution_estimate(ser, bins)

    def test_real_data_within_pointwise_bound(self, distances_14):
        err = sample_e_alpha(I, I, 0.75, 14.0, distances=distances_14)
        scan = pointwise_scan(err)
        est = distribution_estimate(err)
        B = scan.envelope_constant
        assert est.edges[0] >= -B - 1e-9 and est.edges[-1] <= B + 1e-9

    def test_histogram_invariants(self):
        ser = cosine_series(1.0, 5.0, T=100.0)
        est = distribution_estimate(ser, bins=32)
        assert int(np.sum(est.counts)) == est.count
        assert np.all(np.diff(est.edges) > 0)

    def test_bad_histogram_rejected(self):
        with pytest.raises(ValidationError):
            DistributionEstimate(edges=np.array([0.0, 1.0]), counts=np.array([3]),
                                 mean=0.0, variance=1.0, count=5, ks_halves=0.0)


class TestHybrid:
    def test_inv_sqrt_schedule(self, distances_14):
        pts = hybrid_run(I, I, "inv-sqrt", [6.0, 9.0, 12.0], distances=distances_14)
        assert [p.T for p in pts] == [6.0, 9.0, 12.0]
        for p in pts:
            assert p.alpha == pytest.approx(1.0 / math.sqrt(p.T))
            assert p.condition == pytest.approx(
                math.sqrt(p.T) * math.exp(-2.0 * math.sqrt(p.T)), rel=1e-12)
            assert p.variance <= constants.HYBRID_VARIANCE_C
        assert pts[1].condition <= 0.02

    def test_each_order_through_sample_e_alpha(self, monkeypatch, distances_14):
        # one e(s), sampled once on the distances given, serves every order, and
        # each order's e_alpha is sample_e_alpha's
        calls, sample = [], experiments.sample_error

        def counted(*args, **kwargs):
            calls.append(kwargs["distances"])
            return sample(*args, **kwargs)

        monkeypatch.setattr(experiments, "sample_error", counted)
        pts = hybrid_run(I, I, "inv-sqrt", [6.0, 9.0, 12.0], distances=distances_14)
        assert len(calls) == 1 and calls[0] is distances_14
        for p in pts:
            err = sample_e_alpha(I, I, p.alpha, 12.0, distances=distances_14)
            assert p.variance == window_variance(err, p.T, window="0T")

    def test_inv_T_schedule_rejected(self, distances_14):
        with pytest.raises(ValidationError, match="condition value .* exceeds"):
            hybrid_run(I, I, "inv-T", [6.0, 9.0, 12.0], distances=distances_14)

    def test_unknown_schedule_rejected(self, distances_14):
        with pytest.raises(ValidationError, match="unknown schedule"):
            hybrid_run(I, I, "inv-cube", [6.0, 9.0, 12.0], distances=distances_14)

    def test_order_above_one_rejected_before_enumerating(self, monkeypatch):
        # alpha(0.5) = 1.41 under inv-sqrt
        monkeypatch.setattr(experiments, "list_distances", lambda spec: pytest.fail("enumerated"))
        with pytest.raises(ValidationError, match="order must lie"):
            hybrid_run(I, I, "inv-sqrt", [0.5, 4.0])

    def test_condition_quantity(self):
        assert schedule_condition(1.0 / 3.0, 9.0) == pytest.approx(
            3.0 * math.exp(-6.0), rel=1e-12)


class TestPreTraceSanity:
    def test_truncated_spectral_sum_tracks_error_term(self, amplitudes_ii):
        # smoothed partial sum over the bundled spectrum reproduces e(s) up to
        # a bounded residual (continuous spectrum omitted, eigenvalues
        # truncated at the bundled ceiling)
        from hypcircle.spectral.transforms import shc_direct

        dist = list_distances(BallSpec(I, I, 10.0))
        err = sample_error(I, I, 10.0, distances=dist)
        delta = 0.04
        sel = (err.grid >= 6.0) & (err.grid <= 10.0)
        svals = err.grid[sel]
        partial = np.zeros_like(svals)
        for a in amplitudes_ii:
            if abs(a.b) < 1e-12:
                continue
            # transform of the unit-mass bump: the radius-delta indicator over the ball area
            hd = (math.exp(0.5 * delta) * shc_direct(delta, a.t)
                  / (4.0 * math.pi * math.sinh(0.5 * delta) ** 2))
            partial += hd * shc_direct(svals + delta, a.t) * a.b
        resid = float(np.mean(np.abs(err.values[sel] - partial)))
        assert resid <= constants.PRETRACE_RESIDUAL_C
        assert resid >= constants.PRETRACE_RESIDUAL_C / 8.0  # drift guard
