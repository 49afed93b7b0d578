"""Exact orbit counting for the modular group.

count_ball enumerates {gamma in PSL(2,Z) : d(z, gamma w) <= s} in
O(N + #rows).  An exact height bound leaves an interval of d per c for the
bottom rows (c,d), built from their residue classes d mod c with one Euclid
per class for the Bezout lift that fixes each row's base orbit point; the
other elements with that row differ by integer translations, an interval of
them per row.  The rows number about pi e^s / Im z, so z is first reduced to
the fundamental domain (d(z, gamma w) = d(gamma^-1 z, w)); w is reduced too,
as its orbit is the same set, which keeps c below about e^{s/2}.  One
generator streams the rows and their translation intervals in c-chunks, so
count_ball holds no array the size of the ball; list_distances grows its one
distance list in place over the same single pass, up to DEFAULT_POINT_CAP.

brute_force_count is an independent validation oracle that scans every
canonical integer matrix inside an entry bound.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundInsufficient, MemoryBudgetExceeded, ValidationError
from .geometry import _MAX_RADIUS, Point, distance_from_u, pullback

__all__ = ["BallSpec", "DistanceMultiset", "CountDiagnostics", "count_ball", "list_distances",
           "brute_force_count", "required_entry_bound", "save_distances", "load_distances",
           "DEFAULT_POINT_CAP"]

# Points a run may hold: a distance list or a sample grid.
DEFAULT_POINT_CAP = 10**8

# Relative guard on the cosh-comparison deciding boundary membership;
# orbits in the guard band are counted (the ball is closed) and flagged.
_BOUNDARY_GUARD = 1e-12

# Candidate rows, or orbit points, the ball stage forms per chunk, so its temporaries stay small.
_CHUNK_POINTS = 2 ** 16

# Candidates one pass may visit: the ball's rows, or brute_force_count's E (2E + 1)^2 matrices.
_WORK_CAP = 2 ** 30


@dataclass(frozen=True)
class BallSpec:
    """A hyperbolic ball query: center z, orbit base point w, radius s."""

    z: Point
    w: Point
    s: float

    def __post_init__(self):
        if not 0.0 <= self.s <= _MAX_RADIUS:
            raise ValidationError(f"radius must be finite and in [0, {_MAX_RADIUS}], got {self.s}")


@dataclass(frozen=True)
class DistanceMultiset:
    """Sorted orbit distances d(z, gamma w) <= s, with multiplicity."""

    values: np.ndarray = field(repr=False)
    s: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not 0.0 <= self.s <= _MAX_RADIUS:
            raise ValidationError(f"radius must be finite and in [0, {_MAX_RADIUS}], got {self.s}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("distances must be finite")
        if vals.size and (vals[0] < 0.0 or vals[-1] > self.s):
            raise ValidationError("distances must lie in [0, s]")
        if np.any(vals[1:] < vals[:-1]):
            raise ValidationError("distances must be sorted ascending")

    @property
    def count(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class CountDiagnostics:
    """Side information from an enumeration run."""

    rows_scanned: int
    boundary_ties: int


def _row_chunks(spec: BallSpec):
    """Rows of the ball in c-chunks of about _CHUNK_POINTS candidate rows: yields
    (x0, y0, k_lo, counts), the base orbit points (x0, y0) = gamma0(w) of the
    c=0 row, then of the rows (c, d) with Im(gamma0 w) >= Im(z) e^{-s}, i.e.
    |c w + d|^2 <= e^s Im(w)/Im(z), ordered by c; and each row's translations
    k_lo .. k_lo + counts - 1 in the ball.

    Per c, the d form an interval whose first min(length, c) values lead the
    residue classes d mod c.  The Euclid on (d, c) first steps to (c, d mod c)
    with coefficients (0, 1), so gcd and Bezout lift a*d - b*c = 1 run once per
    class; each class expands to its rows d = lead + j*c.
    """
    z, w, s = spec.z, spec.w, spec.s
    work = 0.5 * math.pi * math.exp(s) / z.y  # half the ellipse |c w + d|^2 <= B: pi B / (2 Im w)
    if not work <= _WORK_CAP:  # before any array; the estimate is within 2e-4 from s = 17 on
        raise MemoryBudgetExceeded(
            f"radius {s:g} visits about {work:.3g} candidate rows, past the work cap {_WORK_CAP}")
    cosh_eff = math.cosh(s) * (1.0 + _BOUNDARY_GUARD)
    # the c=0 row spans the most translations k; past 2^50 they are not exact
    # doubles, and the height products of _k_intervals overflow
    if not math.sqrt(2.0 * (cosh_eff - 1.0) * z.y * w.y) <= 2.0 ** 50:
        raise ValidationError(f"Im z = {z.y:g} and Im w = {w.y:g} are too high for radius {s:g}")
    exp_eff = cosh_eff + math.sqrt(max(cosh_eff * cosh_eff - 1.0, 0.0))
    B = exp_eff * w.y / z.y * (1.0 + _BOUNDARY_GUARD)
    c_max = int(math.floor(math.sqrt(B) / w.y))
    cs = np.arange(1, c_max + 1, dtype=np.int64)
    half = np.sqrt(np.maximum(B - (cs * w.y) ** 2, 0.0))
    d_lo = np.ceil(-cs * w.x - half).astype(np.int64)
    d_hi = np.floor(-cs * w.x + half).astype(np.int64)
    n_per_c = np.maximum(d_hi - d_lo + 1, 0)
    x0, y0 = np.array([w.x]), np.array([w.y])
    yield x0, y0, *_k_intervals(spec, x0, y0, _BOUNDARY_GUARD)
    for lo, hi in _chunks(n_per_c):
        n_cls = np.minimum(n_per_c[lo:hi], cs[lo:hi])
        c = np.repeat(cs[lo:hi], n_cls)
        lead = np.arange(c.size) + np.repeat(d_lo[lo:hi] - (np.cumsum(n_cls) - n_cls), n_cls)
        d_top = np.repeat(d_hi[lo:hi], n_cls)
        cop = np.gcd(c, lead) == 1
        c, lead, d_top = c[cop], lead[cop], d_top[cop]
        # extended Euclid on (c, lead mod c), tracking the coefficient of lead
        a = np.empty_like(c)
        live, r0, r1 = np.arange(c.size), c, lead % c
        s0, s1 = np.zeros_like(c), np.ones_like(c)
        while live.size:
            done = r1 == 0
            a[live[done]] = s0[done]  # remainders stay >= 0, so the gcd is +1
            live, r0, r1, s0, s1 = (v[~done] for v in (live, r0, r1, s0, s1))
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        n = (d_top - lead) // c + 1
        # row i of the chunk, in a class whose rows start at i0, has d = lead + (i - i0) c
        ar, cr = np.repeat(a, n), np.repeat(c, n)
        d = np.repeat(lead - (np.cumsum(n) - n) * c, n) + np.arange(cr.size) * cr
        # gamma0 w = (a w + b) / (c w + d) with b = (a d - 1) / c
        num = ar * w.z + (ar * d - 1) // cr
        den = cr * w.z + d
        num *= np.conjugate(den, out=den)
        den2 = den.real ** 2 + den.imag ** 2
        x0, y0 = num.real / den2, w.y / den2
        yield x0, y0, *_k_intervals(spec, x0, y0, _BOUNDARY_GUARD)


def _chunks(sizes: np.ndarray):
    """Slices [lo, hi) of items of the given sizes, of about _CHUNK_POINTS in all each."""
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1] if ends.size else 0, _CHUNK_POINTS), side="right")
    return zip(cuts, np.append(cuts[1:], ends.size))


def _k_intervals(spec: BallSpec, x0: np.ndarray, y0: np.ndarray, guard: float):
    """First translation k_lo and count per row: |z - (gamma0 w + k)|^2 <= 4U yz y0."""
    z, s = spec.z, spec.s
    U_eff = 0.5 * (math.cosh(s) * (1.0 + guard) - 1.0)
    disc = 4.0 * U_eff * z.y * y0 - (z.y - y0) ** 2
    r = np.sqrt(np.maximum(disc, 0.0))
    mid = z.x - x0
    k_lo = np.ceil(mid - r).astype(np.int64)
    counts = np.where(disc >= 0.0, np.maximum(np.floor(mid + r).astype(np.int64) - k_lo + 1, 0), 0)
    return k_lo, counts


def count_ball(spec: BallSpec, with_diagnostics: bool = False):
    """Exact number of gamma in PSL(2,Z) with d(z, gamma w) <= s."""
    spec = replace(spec, z=pullback(spec.z), w=pullback(spec.w))
    total = rows = ties = 0
    for x0, y0, _, counts in _row_chunks(spec):
        n = int(counts.sum())
        total += n
        if with_diagnostics:
            # orbit points within the +/- guard band are counted (closed ball) and reported here
            rows += x0.size
            ties += n - int(_k_intervals(spec, x0, y0, -_BOUNDARY_GUARD)[1].sum())
    if not with_diagnostics:
        return total
    return total, CountDiagnostics(rows_scanned=rows, boundary_ties=ties)


def list_distances(spec: BallSpec) -> DistanceMultiset:
    """All orbit distances d(z, gamma w) <= s, sorted ascending with multiplicity."""
    spec = replace(spec, z=pullback(spec.z), w=pullback(spec.w))
    z, dist, at = spec.z, np.empty(0), 0
    for x0, y0, k_lo, counts in _row_chunks(spec):
        size = at + int(counts.sum())
        if size > DEFAULT_POINT_CAP:
            raise MemoryBudgetExceeded(f"at least {size} orbit points exceed cap {DEFAULT_POINT_CAP}")
        dist.resize(size, refcheck=False)  # a realloc: numpy makes no second copy of the list
        for lo, hi in _chunks(counts):
            n = counts[lo:hi]
            # point i of row r is gamma0 w + k_lo[r] + i - (row r's first i)
            k = np.repeat(k_lo[lo:hi] - (np.cumsum(n) - n), n) + np.arange(n.sum())
            dx = z.x - (np.repeat(x0[lo:hi], n) + k)
            y = np.repeat(y0[lo:hi], n)
            u = (dx * dx + (z.y - y) ** 2) / (4.0 * z.y * y)
            dist[at:at + k.size] = distance_from_u(u)
            at += k.size
    # guard-band points sit a hair above s; the closed-ball convention keeps them
    np.minimum(dist, spec.s, out=dist)
    dist.sort()
    return DistanceMultiset(values=dist, s=spec.s)


def required_entry_bound(spec: BallSpec) -> int:
    """Smallest provably sufficient max-entry bound for a brute-force scan.

    Any gamma with d(z, gamma w) <= s satisfies
    ||gamma||_F <= sigma(g_z) sigma(g_w) sqrt(2 cosh s), and sigma(g_v)^2 <=
    2 cosh d(i, v) for the standard upper-triangular transporter g_v.
    ValidationError where the bound overflows.
    """
    z, w = spec.z, spec.w
    cosh_di_z = (z.x * z.x + z.y * z.y + 1.0) / (2.0 * z.y)
    cosh_di_w = (w.x * w.x + w.y * w.y + 1.0) / (2.0 * w.y)
    bound = math.sqrt(8.0 * cosh_di_z * cosh_di_w * math.cosh(spec.s)) * (1.0 + 1e-9)
    if not math.isfinite(bound):
        raise ValidationError(f"entry bound for Im z = {z.y:g}, Im w = {w.y:g} overflows")
    return math.ceil(bound)


def brute_force_count(spec: BallSpec, entry_bound: int) -> int:
    """Exact ball count by exhaustive scan of all matrices with entries <= bound.

    Independent of the row/translation enumeration: it visits every canonical
    PSL(2,Z) matrix (c > 0, or c = 0 with d > 0) with entries at most E =
    bound, keeping for each c = 1 .. E the (a, d) with c | ad - 1 and
    |b| <= E; c = 0 leaves the translations w + b.  Raises BoundInsufficient
    (reporting the required bound) when the bound cannot be proven to
    contain the ball, and MemoryBudgetExceeded, before anything is
    allocated, when its E (2E + 1)^2 matrices pass _WORK_CAP
    (E <= 644, about 7 s).
    """
    required = required_entry_bound(spec)
    if entry_bound < required:
        raise BoundInsufficient(
            f"entry bound {entry_bound} below required {required}",
            required=required,
        )
    E = int(entry_bound)
    work = E * (2 * E + 1) ** 2
    if work > _WORK_CAP:
        raise MemoryBudgetExceeded(f"oracle entry bound {E} visits {work} matrices, past cap {_WORK_CAP}")
    cosh_s_eff = math.cosh(spec.s) * (1.0 + _BOUNDARY_GUARD)
    zc, wc = spec.z.z, spec.w.z
    # c = 0: ad = 1 with d > 0 forces a = d = 1, the translations w + b
    gw = wc + np.arange(-E, E + 1)
    total = int(np.count_nonzero(_cosh_dist(zc, gw) <= cosh_s_eff))
    box = np.arange(-E, E + 1, dtype=np.int64)
    a, d = (m.ravel() for m in np.meshgrid(box, box, indexing="ij"))
    ad1 = a * d - 1
    for c in range(1, E + 1):
        ok = ad1 % c == 0
        b = ad1[ok] // c
        keep = np.abs(b) <= E
        gw = (a[ok][keep] * wc + b[keep]) / (c * wc + d[ok][keep])
        total += int(np.count_nonzero(_cosh_dist(zc, gw) <= cosh_s_eff))
    return total


def _cosh_dist(zc: complex, wc: np.ndarray) -> np.ndarray:
    """cosh of the hyperbolic distance: 2u + 1."""
    return 1.0 + (np.abs(zc - wc) ** 2) / (2.0 * zc.imag * wc.imag)


# ---------------------------------------------------------------------------
# binary cache format: f64 radius then little-endian f64 distances <= radius
# ---------------------------------------------------------------------------

def save_distances(path, multiset: DistanceMultiset):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<d", multiset.s))
        fh.write(np.ascontiguousarray(multiset.values, dtype="<f8").data)


def load_distances(path, s: float) -> DistanceMultiset:
    """The cached distances <= s; a cache written at a larger radius is cut to s.

    One written at a smaller radius is rejected, and so is the older layout:
    its u64 count reads as a subnormal radius.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8 or size % 8:
            raise ValidationError(f"distance file {path} holds {size} bytes, not a positive multiple of 8")
        (radius,) = struct.unpack("<d", fh.read(8))
        if not radius >= s:
            raise ValidationError(f"distance file {path} was written at radius {radius:g}, below {s:g}")
        values = np.fromfile(fh, dtype="<f8")
    # checks every stored value (finite, in [0, radius], sorted) before the cut
    stored = DistanceMultiset(values=values, s=radius)
    keep = int(np.searchsorted(stored.values, s, side="right"))
    return DistanceMultiset(values=stored.values[:keep], s=s)
