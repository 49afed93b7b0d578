import hashlib
import math
import struct

import numpy as np
import pytest

from hypcircle.counting import (
    BallSpec,
    DistanceMultiset,
    brute_force_count,
    count_ball,
    list_distances,
    load_distances,
    required_entry_bound,
    save_distances,
)
from hypcircle.errors import (
    BoundInsufficient,
    MemoryBudgetExceeded,
    ValidationError,
)
from hypcircle import counting
from hypcircle.geometry import Point, pullback

I = Point(0.0, 1.0)


def random_spec(rng, s_hi=6.0):
    z = Point(float(rng.uniform(-0.8, 0.8)), float(np.exp(rng.uniform(-0.6, 0.7))))
    w = Point(float(rng.uniform(-0.8, 0.8)), float(np.exp(rng.uniform(-0.6, 0.7))))
    return BallSpec(z, w, float(rng.uniform(0.0, s_hi)))


class TestPinnedCounts:
    def test_radius_zero_at_i(self):
        # identity and the order-2 rotation both fix i
        assert count_ball(BallSpec(I, I, 0.0)) == 2

    def test_radius_one_at_i(self):
        # 2 cosh d(i, gi) = a^2+b^2+c^2+d^2: Frobenius norm <= 2 cosh 1 admits
        # the stabilizer plus the eight norm-3 matrices
        assert count_ball(BallSpec(I, I, 1.0)) == 10

    def test_distance_list_small(self):
        d0 = list_distances(BallSpec(I, I, 0.0))
        assert list(d0.values) == [0.0, 0.0]
        d1 = list_distances(BallSpec(I, I, 1.0))
        assert d1.count == 10
        assert d1.values[:2] == pytest.approx([0.0, 0.0], abs=1e-15)
        assert d1.values[2:] == pytest.approx([math.acosh(1.5)] * 8, rel=1e-12)

    def test_brute_force_pinned(self):
        assert brute_force_count(BallSpec(I, I, 0.0), 4) == 2
        assert brute_force_count(BallSpec(I, I, 1.0), 6) == 10


class TestOracleEquivalence:
    def test_hundred_random_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            spec = random_spec(rng)
            fast = count_ball(spec)
            slow = brute_force_count(spec, required_entry_bound(spec))
            assert fast == slow, spec

    def test_list_length_matches_count(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            spec = random_spec(rng)
            assert list_distances(spec).count == count_ball(spec)

    @pytest.mark.parametrize("spec, n", [
        (BallSpec(I, I, 9.0), 24194),                # entry bound 181
        (BallSpec(Point(0.3, 4.0), I, 3.0), 54),     # high centre: the c = 0 translations lead
    ], ids=["i-i-s9", "high-centre-s3"])
    def test_past_small_radii(self, spec, n):
        assert brute_force_count(spec, required_entry_bound(spec)) == count_ball(spec) == n

    def test_bound_insufficiency_reported(self):
        spec = BallSpec(I, I, 4.0)
        with pytest.raises(BoundInsufficient) as err:
            brute_force_count(spec, 3)
        assert err.value.required == required_entry_bound(spec)
        assert brute_force_count(spec, err.value.required) == count_ball(spec)


class TestInvariances:
    def test_bi_invariance_exact(self, mobius):
        rng = np.random.default_rng(7)
        gens = [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (5, 2, 2, 1)]
        for _ in range(12):
            spec = random_spec(rng, s_hi=5.0)
            for g in gens:
                moved = BallSpec(mobius(g, spec.z), mobius(g, spec.w), spec.s)
                assert count_ball(moved) == count_ball(spec)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            spec = random_spec(rng, s_hi=5.5)
            flipped = BallSpec(spec.w, spec.z, spec.s)
            assert count_ball(flipped) == count_ball(spec)

    def test_distance_multiset_bi_invariance(self, mobius):
        g = (3, 1, 2, 1)
        spec = BallSpec(Point(0.2, 1.3), Point(-0.1, 0.9), 5.0)
        moved = BallSpec(mobius(g, spec.z), mobius(g, spec.w), spec.s)
        d1 = list_distances(spec).values
        d2 = list_distances(moved).values
        assert d1.size == d2.size
        assert np.max(np.abs(d1 - d2)) <= 1e-9

    def test_monotone_in_radius(self):
        z, w = Point(0.2, 1.3), Point(-0.1, 0.9)
        counts = [count_ball(BallSpec(z, w, s)) for s in np.linspace(0.0, 6.0, 40)]
        assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))

    def test_growth_sanity(self):
        for s in (10.0, 12.0, 14.0):
            n = count_ball(BallSpec(I, I, s))
            assert 0.9 <= n / (3.0 * math.exp(s)) <= 1.1


class TestLimitsAndErrors:
    def test_radius_ceiling(self):
        with pytest.raises(ValidationError, match="radius must be finite and in"):
            count_ball(BallSpec(I, I, 710.0))
        with pytest.raises(ValidationError, match="radius must be finite and in"):
            list_distances(BallSpec(I, I, 710.0))

    def test_oracle_bound_refused_before_overflow(self):
        # refused before math.cosh, the squares or math.ceil overflow
        for s in (1000.0, math.inf):
            with pytest.raises(ValidationError, match="radius must be finite and in"):
                required_entry_bound(BallSpec(I, I, s))
        with pytest.raises(ValidationError, match="overflows"):
            required_entry_bound(BallSpec(Point(0.0, 1e300), I, 3.0))

    def test_point_cap(self, monkeypatch):
        monkeypatch.setattr(counting, "DEFAULT_POINT_CAP", 10)
        with pytest.raises(MemoryBudgetExceeded):
            list_distances(BallSpec(I, I, 12.0))

    def test_point_cap_bounds_the_held_list(self, monkeypatch, numpy_peak):
        # at s = 12 the 488,114 points pass a cap of 300,000: the list is
        # refused before it grows past the cap, so it never holds more than
        # 8 bytes per capped point
        cap = 300_000
        monkeypatch.setattr(counting, "DEFAULT_POINT_CAP", cap)

        def refused():
            with pytest.raises(MemoryBudgetExceeded, match="orbit points exceed cap 300000"):
                list_distances(BallSpec(I, I, 12.0))

        assert numpy_peak(refused) < cap * 8 + 16 * 2 ** 20

    def test_oracle_size_guard(self, monkeypatch, numpy_peak):
        # the oracle's E (2E+1)^2 matrices are refused one past the cap, before
        # any array is allocated (one (a, d) box array at E = 64 is 133 kB; the
        # refusal peaks near 1.2 kB), and scanned at the cap
        spec = BallSpec(I, I, 2.0)
        bound = 64
        work = bound * (2 * bound + 1) ** 2
        monkeypatch.setattr(counting, "_WORK_CAP", work - 1)

        def refused():
            with pytest.raises(MemoryBudgetExceeded, match="oracle"):
                brute_force_count(spec, bound)

        assert numpy_peak(refused) < 16 * 2 ** 10
        monkeypatch.setattr(counting, "_WORK_CAP", work)
        assert brute_force_count(spec, bound) == count_ball(spec)

    def test_work_cap_apart_from_point_cap(self, monkeypatch):
        # the count holds no point, so the point cap does not stop it; the
        # list holds every point, so it does
        monkeypatch.setattr(counting, "DEFAULT_POINT_CAP", 1000)
        assert count_ball(BallSpec(I, I, 12.0)) == 488_114
        with pytest.raises(MemoryBudgetExceeded, match="orbit points exceed cap 1000"):
            list_distances(BallSpec(I, I, 12.0))

    def test_work_cap(self, monkeypatch, numpy_peak):
        # the ball's pi e^s / (2 Im z) candidate rows are refused just past the
        # cap, before any array is allocated, and counted just under it
        estimate = 0.5 * math.pi * math.exp(12.0)
        monkeypatch.setattr(counting, "_WORK_CAP", math.floor(estimate))

        def refused():
            with pytest.raises(MemoryBudgetExceeded, match="candidate rows, past the work cap"):
                count_ball(BallSpec(I, I, 12.0))

        assert numpy_peak(refused) < 16 * 2 ** 10
        monkeypatch.setattr(counting, "_WORK_CAP", math.ceil(estimate))
        assert count_ball(BallSpec(I, I, 12.0)) == 488_114

    def test_oracle_work_bound(self):
        # 2^30 matrices admit entry bounds up to 644 (about 7 s); 645 visits
        # 1,075,009,245 and is refused at once, even where the ball is tiny
        with pytest.raises(MemoryBudgetExceeded, match="645 visits 1075009245 matrices"):
            brute_force_count(BallSpec(I, I, 2.0), 645)

    def test_distance_list_peak_memory(self, numpy_peak):
        # 488,114 points (3.7 MiB) at s = 12: the distance array grows in place
        # per row chunk, and the points are formed in chunks of about 2^16
        # straight into it: numpy's peak allocation reads 11.4 MiB
        assert numpy_peak(lambda: list_distances(BallSpec(I, I, 12.0))) < 24 * 2 ** 20

    def test_count_peak_memory(self, numpy_peak):
        # 155 k rows at s = 12, streamed in c-chunks: numpy's peak allocation
        # reads 6.7 MiB; with whole-ball row arrays it read 10.2 MiB, and
        # 15.4 MiB with the integer row arrays kept through the Mobius step
        assert numpy_peak(lambda: count_ball(BallSpec(I, I, 12.0))) < 13 * 2 ** 20

    def test_row_stage_peak_memory(self, numpy_peak):
        # 1.15 M rows at s = 14, streamed in c-chunks of about 2^16 candidate
        # rows: numpy's peak allocation reads 8.3 MiB; four whole-ball row
        # arrays of 8.8 MiB made it 40 MiB, whole-ball row temporaries 78.4 MiB
        assert numpy_peak(lambda: count_ball(BallSpec(I, I, 14.0))) < 48 * 2 ** 20

    @pytest.mark.parametrize("with_diagnostics", [False, True])
    def test_streamed_count_peak_memory(self, numpy_peak, with_diagnostics):
        # no array the size of the ball: 8.3 MiB at s = 14 either way, where
        # the whole-ball row arrays read 40 MiB, and 88.7 MiB with a second
        # whole-ball pass for the boundary ties
        spec = BallSpec(I, I, 14.0)
        assert numpy_peak(lambda: count_ball(spec, with_diagnostics)) < 16 * 2 ** 20

    def test_cache_round_trip_peak_memory(self, tmp_path, numpy_peak):
        # 488,114 distances (3.7 MiB) at s = 12: save writes the array's own
        # buffer and load reads the file straight into one array, so each
        # peaks near one array; a bytes copy of the file doubled both
        ms = list_distances(BallSpec(I, I, 12.0))
        path = tmp_path / "cache.bin"
        saved = numpy_peak(lambda: save_distances(path, ms))
        loaded = numpy_peak(lambda: load_distances(path, 12.0))
        assert saved < 0.25 * ms.values.nbytes
        assert loaded < 1.5 * ms.values.nbytes

    def test_negative_radius(self):
        with pytest.raises(ValidationError):
            BallSpec(I, I, -1.0)


class TestReducedCentre:
    # candidate rows grow like pi e^s / Im z; the centre is reduced first

    def test_low_centre_counts_as_its_image(self):
        # unreduced, (0, 0.001) needs 5e8 candidate rows, past the row cap
        low, high = Point(0.0, 0.001), Point(0.0, 1000.0)
        assert count_ball(BallSpec(low, I, 12.0)) == count_ball(BallSpec(high, I, 12.0))

    def test_low_centre_rows_scanned(self):
        # 2,103,260 rows unreduced, 212 at the image (0, 100)
        s = 10.0
        _, diag = count_ball(BallSpec(Point(0.0, 0.01), I, s), with_diagnostics=True)
        assert diag.rows_scanned <= 4.0 * math.exp(s)


class TestReducedOrbitPoint:
    # the orbit of w is the orbit of its image in the fundamental domain

    def test_low_orbit_point_counts_as_its_image(self, numpy_peak):
        # the rows are the same cosets either way, but unreduced, (0.3, 0.001)
        # has c up to 4,243 at s = 10 and a residue table of 9e6 entries (72 MB;
        # 5e8 entries at s = 14); its image (0.3, 10) has c <= 42
        w, z = Point(0.3, 1e-3), Point(0.1, 1.2)
        low, image = BallSpec(z, w, 10.0), BallSpec(z, pullback(w), 10.0)
        assert numpy_peak(lambda: count_ball(low, with_diagnostics=True)) < 16 * 2 ** 20
        assert count_ball(low, with_diagnostics=True) == count_ball(image, with_diagnostics=True)
        spec = BallSpec(z, w, 3.0)
        assert count_ball(spec) == brute_force_count(spec, required_entry_bound(spec)) == 45

    @pytest.mark.parametrize("w", [Point(-0.5, math.sqrt(0.75)), Point(0.5, 1.0),
                                   Point(0.3, 1.1), Point(-0.2, 7.0)])
    def test_reduced_orbit_point_left_as_is(self, w):
        # so counts and distances for such w are bit-identical to the unreduced path
        assert pullback(w) == w


def _euclid_lift(c: int, d: int) -> tuple[int, int]:
    """Per-row extended Euclid on (d, c): a*d - b*c = 1, a tracked as d's coefficient."""
    r0, r1, s0, s1 = d, c, 1, 0
    while r1:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    a = s0 * r0
    return a, (a * d - 1) // c


def _height_bound_rows(spec: BallSpec) -> list[tuple[int, int]]:
    """Coprime bottom rows (c, d), c >= 1, under the guarded height bound |c w + d|^2 <= B."""
    z, w, guard = spec.z, spec.w, counting._BOUNDARY_GUARD
    cosh_eff = math.cosh(spec.s) * (1.0 + guard)
    B = (cosh_eff + math.sqrt(cosh_eff * cosh_eff - 1.0)) * w.y / z.y * (1.0 + guard)
    rows = []
    for c in range(1, math.floor(math.sqrt(B) / w.y) + 1):
        half = math.sqrt(max(B - (c * w.y) ** 2, 0.0))
        rows += [(c, d) for d in range(math.ceil(-c * w.x - half), math.floor(-c * w.x + half) + 1)
                 if math.gcd(c, d) == 1]
    return rows


class TestResidueLift:
    @pytest.mark.parametrize("spec", [
        BallSpec(I, I, 4.0),
        BallSpec(Point(0.2, 1.3), Point(-0.4, 0.95), 11.0),
        BallSpec(Point(-0.45, 0.9), Point(-0.1, 2.5), 8.0),
        BallSpec(Point(0.0, 3.0), Point(0.5, math.sqrt(0.75)), 9.0),
    ])
    def test_matches_per_row_euclid(self, spec):
        # every coprime row lifted by its own Euclid gives the base points of
        # _row_chunks, which lifts once per residue class, bit for bit
        c, d = np.array(_height_bound_rows(spec)).T
        assert np.any(c == 1) and np.any(d < 0)
        a, b = np.array([_euclid_lift(int(ci), int(di)) for ci, di in zip(c, d)]).T
        assert np.all(a * d - b * c == 1)
        wc = spec.w.z
        den = c * wc + d
        den2 = den.real ** 2 + den.imag ** 2
        x0 = np.concatenate([[spec.w.x], ((a * wc + b) * den.conjugate()).real / den2])
        y0 = np.concatenate([[spec.w.y], spec.w.y / den2])
        chunks = list(counting._row_chunks(spec))
        got_x0, got_y0 = np.concatenate([ch[0] for ch in chunks]), np.concatenate([ch[1] for ch in chunks])
        ref, got = np.lexsort((y0, x0)), np.lexsort((got_y0, got_x0))
        assert np.array_equal(x0[ref], got_x0[got]) and np.array_equal(y0[ref], got_y0[got])


class TestDistanceDump:
    def test_roundtrip(self, tmp_path):
        spec = BallSpec(Point(0.2, 1.3), Point(-0.1, 0.9), 4.0)
        ms = list_distances(spec)
        path = tmp_path / "cache.bin"
        save_distances(path, ms)
        back = load_distances(path, spec.s)
        assert back.count == ms.count
        assert np.array_equal(back.values, ms.values)

    def test_larger_radius_cut_to_s(self, tmp_path):
        z, w = Point(0.2, 1.3), Point(-0.1, 0.9)
        path = tmp_path / "cache.bin"
        save_distances(path, list_distances(BallSpec(z, w, 4.0)))
        back = load_distances(path, 3.0)
        assert back.s == 3.0
        assert np.array_equal(back.values, list_distances(BallSpec(z, w, 3.0)).values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "cache.bin"
        save_distances(path, DistanceMultiset(values=np.array([0.1, 0.5, 0.9]), s=1.0))
        raw = bytearray(path.read_bytes())
        raw[16:24] = np.array([bad], dtype="<f8").tobytes()  # the second value
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="finite"):
            load_distances(path, 1.0)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        save_distances(path, DistanceMultiset(values=np.array([0.1, 0.5]), s=1.0))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValidationError, match="25 bytes"):
            load_distances(path, 1.0)

    def test_smaller_radius_rejected(self, tmp_path):
        # a radius-4 cache cannot answer a radius-6 query: the distances in
        # (4, 6] were never enumerated
        path = tmp_path / "cache.bin"
        save_distances(path, list_distances(BallSpec(I, I, 4.0)))
        with pytest.raises(ValidationError, match="radius 4, below 6"):
            load_distances(path, 6.0)

    @pytest.mark.parametrize("s", [4.0, 0.0])
    def test_count_header_rejected(self, tmp_path, s):
        # the older layout began with the u64 count, which reads as a
        # subnormal radius: below any positive query, and below the values
        values = list_distances(BallSpec(I, I, 4.0)).values
        path = tmp_path / "cache.bin"
        path.write_bytes(struct.pack("<Q", values.size) + values.astype("<f8").tobytes())
        with pytest.raises(ValidationError):
            load_distances(path, s)

    def test_sorted_invariant(self):
        with pytest.raises(ValidationError):
            DistanceMultiset(values=np.array([1.0, 0.5]), s=2.0)

    @pytest.mark.parametrize("s", [math.inf, math.nan, -1.0])
    def test_bad_radius_rejected(self, s):
        # a list "complete to radius inf" would pass for any s_max and give N(s) short
        with pytest.raises(ValidationError, match="radius must be finite"):
            DistanceMultiset(values=np.empty(0), s=s)

    def test_infinite_radius_file_rejected(self, tmp_path):
        # 800 is past 709.78, where cosh overflows
        path = tmp_path / "cache.bin"
        for radius in (math.inf, 800.0):
            path.write_bytes(struct.pack("<d", radius) + np.array([0.1, 0.5], dtype="<f8").tobytes())
            with pytest.raises(ValidationError, match="radius must be finite"):
                load_distances(path, 6.0)


class TestBoundaryDiagnostics:
    def test_exact_tie_flagged(self):
        tot, diag = count_ball(BallSpec(I, I, math.acosh(1.5)), with_diagnostics=True)
        assert tot == 10  # closed ball keeps the eight boundary points
        assert diag.boundary_ties == 8

    def test_generic_radius_no_ties(self):
        _, diag = count_ball(BallSpec(I, I, 1.0), with_diagnostics=True)
        assert diag.boundary_ties == 0


class TestChunkedEnumeration:
    def test_row_chunking_is_exact(self, monkeypatch):
        # rows are independent, so counting per c-chunk of the rows (the c=0
        # row first, then ordered by c) and summing is exact at any chunk size;
        # sizes 1 and 7 cut inside one c and leave chunks empty
        spec = BallSpec(Point(0.2, 1.3), Point(-0.1, 0.9), 6.0)
        expected = count_ball(spec, with_diagnostics=True)
        for size in (1, 7, 4096):
            monkeypatch.setattr(counting, "_CHUNK_POINTS", size)
            total_chunks = sum(int(counts.sum()) for *_, counts in counting._row_chunks(spec))
            assert total_chunks == count_ball(spec)
            assert count_ball(spec, with_diagnostics=True) == expected

    def test_distance_list_walks_the_ball_once(self, monkeypatch):
        # list_distances takes the row chunks once and needs no count to size its list
        calls, row_chunks = [], counting._row_chunks

        def counted(spec):
            calls.append(spec)
            return row_chunks(spec)

        def no_count(*args, **kwargs):
            raise AssertionError("list_distances called count_ball")

        monkeypatch.setattr(counting, "_row_chunks", counted)
        monkeypatch.setattr(counting, "count_ball", no_count)
        assert list_distances(BallSpec(I, I, 8.0)).count == 8_874
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", [BallSpec(I, I, 8.0),
                                      BallSpec(Point(0.2, 1.14), Point(-0.3, 1.1), 8.0)])
    def test_point_chunks_bit_identical(self, monkeypatch, spec):
        # chunk sizes 1 and 7 leave chunks empty (several cuts in one row) and of
        # one row; any chunking forms the same doubles in the same order
        digest = hashlib.sha256(list_distances(spec).values.tobytes()).hexdigest()
        for size in (1, 7, 4096):
            monkeypatch.setattr(counting, "_CHUNK_POINTS", size)
            values = list_distances(spec).values
            assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_prefix_counts_consistent(self):
        # N at intermediate radii from one enumeration equals direct counts
        spec = BallSpec(Point(0.2, 1.3), Point(-0.1, 0.9), 6.0)
        ms = list_distances(spec)
        for s in (1.0, 2.5, 4.0, 5.5):
            n_direct = count_ball(BallSpec(spec.z, spec.w, s))
            n_prefix = int(np.searchsorted(ms.values, s, side="right"))
            assert n_direct == n_prefix
