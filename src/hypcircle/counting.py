"""Exact orbit counting for the modular group.

count_ball enumerates {gamma in PSL(2,Z) : d(z, gamma w) <= s} in
O(N + #rows): candidate bottom rows (c,d) are cut by an exact height bound,
a Bezout lift fixes a base orbit point per row (one Euclid per residue class
d mod c, shared by every row of the class), and the remaining elements with
that row differ by integer horizontal translations, so each row contributes an
integer interval of translation indices.  The rows number about pi e^s / Im z,
so the centre z is first reduced to the fundamental domain:
d(z, gamma w) = d(gamma^-1 z, w) leaves the distances unchanged.  w is
reduced too: its orbit is the same set, and a reduced w keeps c below about
e^{s/2} and the residue table below about e^s entries.

brute_force_count is an independent validation oracle that scans every
integer matrix inside an entry bound.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BoundInsufficient,
    MemoryBudgetExceeded,
    RadiusTooLarge,
    ValidationError,
)
from .geometry import Point, distance_from_u, pullback

__all__ = [
    "BallSpec",
    "DistanceMultiset",
    "CountDiagnostics",
    "count_ball",
    "list_distances",
    "brute_force_count",
    "required_entry_bound",
    "save_distances",
    "load_distances",
    "DEFAULT_S_MAX",
    "DEFAULT_POINT_CAP",
]

# Largest radius the enumeration accepts.
DEFAULT_S_MAX = 30.0
DEFAULT_POINT_CAP = 10**8

# Relative guard on the cosh-comparison deciding boundary membership;
# orbits in the guard band are counted (the ball is closed) and flagged.
_BOUNDARY_GUARD = 1e-12


@dataclass(frozen=True)
class BallSpec:
    """A hyperbolic ball query: center z, orbit base point w, radius s."""

    z: Point
    w: Point
    s: float

    def __post_init__(self):
        if not self.s >= 0.0:
            raise ValidationError(f"radius must be >= 0, got {self.s}")


@dataclass(frozen=True)
class DistanceMultiset:
    """Sorted orbit distances d(z, gamma w) <= s, with multiplicity."""

    values: np.ndarray = field(repr=False)
    s: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("distances must be finite")
        if vals.size and (vals[0] < 0.0 or vals[-1] > self.s):
            raise ValidationError("distances must lie in [0, s]")
        if np.any(np.diff(vals) < 0.0):
            raise ValidationError("distances must be sorted ascending")

    @property
    def count(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class CountDiagnostics:
    """Side information from an enumeration run."""

    rows_scanned: int
    boundary_ties: int


def _bezout_tops(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Bezout lift: (a, b) with a*d - b*c == 1 for coprime rows, c >= 1.

    Tracks the coefficient of d through the Euclidean algorithm on (d, c).  Its
    first step leaves (c, d mod c) with coefficients (0, 1) whatever the
    quotient, so a depends on d only through d mod c: the rest runs once per
    residue class and a is gathered back to the rows.  The classes sit in a
    dense table over the c values present, of about c_max^2 / 2 entries, which
    is below the row count when w is reduced (Im w >= sqrt(3)/2).
    """
    c = c.astype(np.int64)
    d = d.astype(np.int64)
    if c.size == 0:
        return c.copy(), c.copy()
    r = d % c
    c_lo = int(c.min())
    slot = (c * (c - 1) - c_lo * (c_lo - 1)) // 2 + r
    # the table first holds a representative row per class, then that class's a
    table = np.full(int(slot.max()) + 1, -1, dtype=np.int64)
    table[slot] = np.arange(c.size)
    live = np.flatnonzero(table >= 0)
    r0, r1 = c[table[live]], r[table[live]]
    s0, s1 = np.zeros_like(r0), np.ones_like(r0)
    while live.size:
        done = r1 == 0
        table[live[done]] = s0[done]  # remainders stay >= 0, so the gcd is +1
        live, r0, r1, s0, s1 = (v[~done] for v in (live, r0, r1, s0, s1))
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    a = table[slot]
    b = (a * d - 1) // c
    return a, b


def _row_geometry(spec: BallSpec, c: np.ndarray, d: np.ndarray):
    """Base orbit point (x0, y0) = gamma0(w) for each bottom row."""
    a, b = _bezout_tops(c, d)
    wc = spec.w.z
    den = c * wc + d
    den2 = den.real ** 2 + den.imag ** 2
    y0 = spec.w.y / den2
    num = a * wc + b
    x0 = (num * den.conjugate()).real / den2
    return x0, y0


def _enumerate_rows(spec: BallSpec):
    """All canonical bottom rows (c, d) that can meet the ball, plus the c=0 row.

    The exact necessary condition is Im(gamma0 w) >= Im(z) e^{-s}, i.e.
    |c w + d|^2 <= e^s Im(w)/Im(z); a relative guard keeps boundary rows.
    """
    z, w, s = spec.z, spec.w, spec.s
    cosh_eff = math.cosh(s) * (1.0 + _BOUNDARY_GUARD)
    exp_eff = cosh_eff + math.sqrt(max(cosh_eff * cosh_eff - 1.0, 0.0))
    B = exp_eff * w.y / z.y * (1.0 + _BOUNDARY_GUARD)
    c_max = int(math.floor(math.sqrt(B) / w.y))
    cs = np.arange(1, c_max + 1, dtype=np.int64)
    half = np.sqrt(np.maximum(B - (cs * w.y) ** 2, 0.0))
    d_lo = np.ceil(-cs * w.x - half).astype(np.int64)
    d_hi = np.floor(-cs * w.x + half).astype(np.int64)
    n_per_c = np.maximum(d_hi - d_lo + 1, 0)
    total = int(n_per_c.sum())
    if total > DEFAULT_POINT_CAP:
        raise MemoryBudgetExceeded(f"{total} candidate rows exceed cap {DEFAULT_POINT_CAP}")
    c_all = np.repeat(cs, n_per_c)
    starts = np.repeat(np.cumsum(n_per_c) - n_per_c, n_per_c)
    d_all = (np.arange(total, dtype=np.int64) - starts
             + np.repeat(d_lo, n_per_c))
    cop = np.gcd(c_all, d_all) == 1
    return c_all[cop], d_all[cop]


def _k_intervals(spec: BallSpec, x0: np.ndarray, y0: np.ndarray, guard: float):
    """Integer translation ranges per row: |z - (gamma0 w + k)|^2 <= 4U yz y0."""
    z, s = spec.z, spec.s
    cosh_eff = math.cosh(s) * (1.0 + guard)
    U_eff = 0.5 * (cosh_eff - 1.0)
    disc = 4.0 * U_eff * z.y * y0 - (z.y - y0) ** 2
    ok = disc >= 0.0
    r = np.sqrt(np.maximum(disc, 0.0))
    center = z.x - x0
    k_lo = np.ceil(center - r).astype(np.int64)
    k_hi = np.floor(center + r).astype(np.int64)
    counts = np.where(ok, np.maximum(k_hi - k_lo + 1, 0), 0)
    return k_lo, k_hi, counts


def _orbit_rows(spec: BallSpec):
    """Base orbit point (x0, y0) of every row that can meet the ball.

    The c=0 row (gamma = T^k, base point w itself) comes first, then the
    rows of _enumerate_rows.
    """
    if spec.s > DEFAULT_S_MAX:
        raise RadiusTooLarge(f"radius {spec.s} exceeds ceiling {DEFAULT_S_MAX}")
    c, d = _enumerate_rows(spec)
    x0, y0 = _row_geometry(spec, c, d)
    return np.concatenate([[spec.w.x], x0]), np.concatenate([[spec.w.y], y0])


def count_ball(spec: BallSpec, with_diagnostics: bool = False):
    """Exact number of gamma in PSL(2,Z) with d(z, gamma w) <= s."""
    spec = replace(spec, z=pullback(spec.z), w=pullback(spec.w))
    x0, y0 = _orbit_rows(spec)
    _, _, counts = _k_intervals(spec, x0, y0, _BOUNDARY_GUARD)
    total = int(counts.sum())
    if not with_diagnostics:
        return total
    # orbit points within the +/- guard band of the boundary are counted
    # (closed ball) and reported here
    _, _, counts_narrow = _k_intervals(spec, x0, y0, -_BOUNDARY_GUARD)
    ties = total - int(counts_narrow.sum())
    return total, CountDiagnostics(rows_scanned=int(x0.size), boundary_ties=ties)


def list_distances(spec: BallSpec) -> DistanceMultiset:
    """All orbit distances d(z, gamma w) <= s, sorted ascending with multiplicity."""
    spec = replace(spec, z=pullback(spec.z), w=pullback(spec.w))
    x0, y0 = _orbit_rows(spec)
    k_lo, k_hi, counts = _k_intervals(spec, x0, y0, _BOUNDARY_GUARD)
    total = int(counts.sum())
    if total > DEFAULT_POINT_CAP:
        raise MemoryBudgetExceeded(f"{total} orbit points exceed cap {DEFAULT_POINT_CAP}")
    keep = counts > 0
    x0, y0, k_lo, counts = x0[keep], y0[keep], k_lo[keep], counts[keep]
    starts = np.cumsum(counts) - counts
    idx = np.arange(total, dtype=np.int64)
    k = idx - np.repeat(starts, counts) + np.repeat(k_lo, counts)
    dx = spec.z.x - (np.repeat(x0, counts) + k)
    dy = spec.z.y - np.repeat(y0, counts)
    u = (dx * dx + dy * dy) / (4.0 * spec.z.y * np.repeat(y0, counts))
    dist = distance_from_u(u)
    # guard-band points sit a hair above s; the closed-ball convention keeps them
    dist = np.minimum(dist, spec.s)
    dist.sort()
    return DistanceMultiset(values=dist, s=spec.s)


def required_entry_bound(spec: BallSpec) -> int:
    """Smallest provably sufficient max-entry bound for a brute-force scan.

    Any gamma with d(z, gamma w) <= s satisfies
    ||gamma||_F <= sigma(g_z) sigma(g_w) sqrt(2 cosh s), and sigma(g_v)^2 <=
    2 cosh d(i, v) for the standard upper-triangular transporter g_v.
    """
    z, w = spec.z, spec.w
    cosh_di_z = (z.x ** 2 + z.y ** 2 + 1.0) / (2.0 * z.y)
    cosh_di_w = (w.x ** 2 + w.y ** 2 + 1.0) / (2.0 * w.y)
    bound = math.sqrt(8.0 * cosh_di_z * cosh_di_w * math.cosh(spec.s))
    return int(math.ceil(bound * (1.0 + 1e-9)))


def brute_force_count(spec: BallSpec, entry_bound: int) -> int:
    """Exact ball count by exhaustive scan of all matrices with entries <= bound.

    Completely independent of the row/translation enumeration; cost grows
    like bound^3, so keep s small.  Raises BoundInsufficient (reporting the
    required bound) when the bound cannot be proven to contain the ball.
    """
    required = required_entry_bound(spec)
    if entry_bound < required:
        raise BoundInsufficient(
            f"entry bound {entry_bound} below required {required}",
            required=required,
        )
    E = int(entry_bound)
    cosh_s_eff = math.cosh(spec.s) * (1.0 + _BOUNDARY_GUARD)
    zc, wc = spec.z.z, spec.w.z
    total = 0
    bc_range = np.arange(-E, E + 1, dtype=np.int64)
    bb, cc = np.meshgrid(bc_range, bc_range, indexing="ij")
    bb = bb.ravel()
    cc = cc.ravel()
    # a = 0: -bc = 1, canonical row has c > 0, d is a free entry
    d_free = np.arange(-E, E + 1, dtype=np.int64)
    gw = (0 * wc - 1) / (1 * wc + d_free)
    total += int(np.count_nonzero(_cosh_dist(zc, gw) <= cosh_s_eff))
    for a in range(-E, E + 1):
        if a == 0:
            continue
        num = 1 + bb * cc
        ok = num % a == 0
        b, c_, dd = bb[ok], cc[ok], num[ok] // a
        ok2 = (np.abs(dd) <= E) & ((c_ > 0) | ((c_ == 0) & (dd > 0)))
        b, c_, dd = b[ok2], c_[ok2], dd[ok2]
        if b.size == 0:
            continue
        gw = (a * wc + b) / (c_ * wc + dd)
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
        fh.write(multiset.values.astype("<f8").tobytes())


def load_distances(path, s: float) -> DistanceMultiset:
    """The cached distances <= s; a cache written at a larger radius is cut to s.

    One written at a smaller radius is rejected, and so is the older layout:
    its u64 count reads as a subnormal radius.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or len(raw) % 8:
        raise ValidationError(f"distance file {path} holds {len(raw)} bytes, not a positive multiple of 8")
    (radius,) = struct.unpack("<d", raw[:8])
    if not radius >= s:
        raise ValidationError(f"distance file {path} was written at radius {radius:g}, below {s:g}")
    # checks every stored value (finite, in [0, radius], sorted) before the cut
    stored = DistanceMultiset(values=np.frombuffer(raw[8:], dtype="<f8").copy(), s=radius)
    keep = int(np.searchsorted(stored.values, s, side="right"))
    return DistanceMultiset(values=stored.values[:keep], s=s)
