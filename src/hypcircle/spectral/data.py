"""Maass cusp form data: file format, evaluation, normalization, amplitudes.

A dataset stores one entry per distinct spectral parameter t (eigenvalue
1/4 + t^2) with Hecke-normalized Fourier coefficients (a_1 = 1) and an
optional L^2 normalization constant.  Evaluation runs through the scaled
Bessel kernel exp(pi t/2) K_{it} so nothing underflows at large t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import ValidationError
from ..geometry import Point, pullback
from ..specfun import bessel_k_imag_scaled, gauss_legendre

__all__ = [
    "SpectralDatum",
    "SpectralDataset",
    "Amplitude",
    "load_spectral_data",
    "parse_spectral_data",
    "dump_spectral_data",
    "bundled_dataset",
    "maass_value",
    "normalize_l2",
    "ensure_l2norm",
    "amplitude",
]

_BUNDLED_NAME = "maass_psl2z.txt"


@dataclass(frozen=True, eq=False)
class SpectralDatum:
    """One Maass cusp form: spectral parameter, parity, Hecke coefficients."""

    t: float
    parity: str
    coeffs: np.ndarray = field(repr=False)  # coeffs[0] = a_1 = 1
    l2norm: float | None = None

    def __post_init__(self):
        if not 0.0 < self.t < math.inf:
            raise ValidationError(f"spectral parameter must be positive and finite, got {self.t}")
        if self.parity not in ("even", "odd"):
            raise ValidationError(f"parity must be even|odd, got {self.parity!r}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
            raise ValidationError("coefficient list must be nonempty and finite")
        if coeffs[0] != 1.0:
            raise ValidationError(f"a_1 must equal 1, got {coeffs[0]}")
        if self.l2norm is not None and not 0.0 < self.l2norm < math.inf:
            raise ValidationError(f"l2norm must be positive and finite, got {self.l2norm}")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True, eq=False)
class SpectralDataset:
    """Forms sorted by spectral parameter, with the group tag and provenance."""

    group: str
    forms: tuple
    source: str = ""

    def __post_init__(self):
        ts = [f.t for f in self.forms]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValidationError("spectral parameters must be strictly increasing")

    def __len__(self):
        return len(self.forms)


@dataclass(frozen=True)
class Amplitude:
    """Frequency t with its spectral weight b = phi(z) * phi(w) (real forms)."""

    t: float
    b: float


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def parse_spectral_data(text: str, origin: str = "<string>") -> SpectralDataset:
    """Parse the line-oriented spectral data format.

    Header: ``#group=PSL2Z #source=<string>``; one line per form:
    ``t=<decimal> parity=<even|odd> l2norm=<decimal|none> coeffs=<a2>,<a3>,...``
    (a_1 = 1 implicit).  Unknown keys are rejected.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("#group="):
        raise ValidationError(f"{origin}:1: missing '#group=' header")
    header = lines[0]
    group_part, _, source_part = header.partition(" #source=")
    group = group_part[len("#group="):].strip()
    source = source_part.strip()
    if group != "PSL2Z":  # every model here is the modular group's
        raise ValidationError(f"{origin}:1: group tag {group!r} is not PSL2Z")
    forms = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if ln.startswith("#"):
            continue
        fields = {}
        for tok in ln.split():
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValidationError(f"{origin}:{lineno}: token {tok!r} is not key=value")
            if key in fields:
                raise ValidationError(f"{origin}:{lineno}: duplicate key {key!r}")
            fields[key] = val
        unknown = set(fields) - {"t", "parity", "l2norm", "coeffs"}
        if unknown:
            raise ValidationError(f"{origin}:{lineno}: unknown keys {sorted(unknown)}")
        missing = {"t", "parity", "l2norm", "coeffs"} - set(fields)
        if missing:
            raise ValidationError(f"{origin}:{lineno}: missing keys {sorted(missing)}")
        try:
            t = float(fields["t"])
            l2 = None if fields["l2norm"] == "none" else float(fields["l2norm"])
            tail = [float(v) for v in fields["coeffs"].split(",") if v]
        except ValueError as exc:
            raise ValidationError(f"{origin}:{lineno}: bad numeric field: {exc}") from exc
        try:
            forms.append(SpectralDatum(t=t, parity=fields["parity"],
                                       coeffs=np.concatenate([[1.0], tail]),
                                       l2norm=l2))
        except ValidationError as exc:
            raise ValidationError(f"{origin}:{lineno}: {exc}") from exc
    if not forms:
        raise ValidationError(f"{origin}: no forms in file")
    try:
        return SpectralDataset(group=group, forms=tuple(forms), source=source)
    except ValidationError as exc:
        raise ValidationError(f"{origin}: {exc}") from exc


def load_spectral_data(path) -> SpectralDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spectral_data(fh.read(), origin=str(path))


def dump_spectral_data(dataset: SpectralDataset) -> str:
    out = [f"#group={dataset.group} #source={dataset.source}"]
    for f in dataset.forms:
        l2 = "none" if f.l2norm is None else f"{f.l2norm:.17g}"
        coeffs = ",".join(f"{c:.17g}" for c in f.coeffs[1:])
        out.append(f"t={f.t:.17g} parity={f.parity} l2norm={l2} coeffs={coeffs}")
    return "\n".join(out) + "\n"


def bundled_dataset() -> SpectralDataset:
    """The packaged modular-group dataset."""
    text = resources.files("hypcircle").joinpath("data", _BUNDLED_NAME).read_text("utf-8")
    return parse_spectral_data(text, origin=_BUNDLED_NAME)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def bessel_decay_cutoff(t: float, log_tol: float = 21.0) -> float:
    """Smallest x beyond which exp(pi t/2) K_{it}(x) < ~exp(-log_tol).

    Solves x cos(theta) + t theta - pi t / 2 = log_tol with
    theta = arcsin(t/x) (the saddle-point decay exponent).
    """
    lo = max(t, 1e-6)
    hi = max(2.0 * t + 60.0, 60.0)

    def decay(x):
        theta = math.asin(min(1.0, t / x)) if x > 0 else 0.5 * math.pi
        return x * math.cos(theta) + t * theta - 0.5 * math.pi * t

    while decay(hi) < log_tol:
        hi *= 1.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if decay(mid) < log_tol:
            lo = mid
        else:
            hi = mid
    return hi


def _required_terms(cutoff: float, y):
    """Fourier terms needed at height y (or at each y), given cutoff = bessel_decay_cutoff(t)."""
    return np.maximum(1, np.ceil(cutoff / (2.0 * math.pi * y)).astype(int))


def maass_value(datum: SpectralDatum, z: Point) -> float:
    """Value of the L^2-normalized form at z via its Fourier expansion.

    phi(z) = rho sqrt(y) sum_n a_n K_{it}(2 pi n y) tr(2 pi n x), with tr =
    2cos (even) or 2sin (odd).  Raises ValidationError if the
    expansion cannot reach ~1e-8 absolute truncation error at Im z.
    """
    needed = _required_terms(bessel_decay_cutoff(datum.t), z.y)
    if needed > datum.coeffs.size:
        raise ValidationError(f"need {needed} coefficients at y = {z.y}, have {datum.coeffs.size}")
    rho_scaled = ensure_l2norm(datum) * math.exp(-0.5 * math.pi * datum.t)
    return rho_scaled * float(_hecke_row_scaled(datum, [z.x], z.y, needed)[0])


def _bessel_row_scaled(t: float, y, n_terms) -> np.ndarray:
    """exp(pi t/2) K_{it}(2 pi n y) for n = 1..n_terms, in one kernel call.  An array
    of heights gives one row per y, max(n_terms) wide and zero past its own n_terms."""
    n = np.arange(1, np.max(n_terms) + 1)
    inside = n <= np.reshape(n_terms, (-1, 1))
    rows = np.zeros(inside.shape)
    rows[inside] = bessel_k_imag_scaled(t, (2.0 * math.pi * np.reshape(y, (-1, 1)) * n)[inside])
    return rows.reshape(np.shape(y) + n.shape)


def _hecke_row_scaled(datum: SpectralDatum, xs, y, n_terms) -> np.ndarray:
    """sqrt(y) sum a_n [e^{pi t/2} K_{it}(2 pi n y)] tr(2 pi n x) for each x in xs;
    with an array of heights, row i of xs and n_terms[i] belong to y[i]."""
    weights = _bessel_row_scaled(datum.t, y, n_terms)
    weights *= datum.coeffs[:weights.shape[-1]]
    phase = 2.0 * math.pi * (np.asarray(xs)[..., None] * np.arange(1, weights.shape[-1] + 1))
    tr = 2.0 * np.cos(phase) if datum.parity == "even" else 2.0 * np.sin(phase)
    return (np.sqrt(y)[..., None, None] * tr @ weights[..., None])[..., 0]


# Margin of the truncation height Y above t/(2 pi), past which K_{it}(2 pi y) decays exponentially.
_TRUNCATION_MARGIN = 3.0


def normalize_l2(datum: SpectralDatum, refine: int = 0) -> float:
    """Constant rho making rho * (Hecke-normalized form) have unit L^2 norm.

    Integrates |form|^2 over the standard fundamental domain truncated at
    height Y = t/(2 pi) + 3 (> 1 for every t): the strip above y = 1 uses exact
    Fourier orthogonality, the arc region sqrt(3)/2 <= y < 1 is a 2-d
    quadrature, and the tail above Y is estimated from the exponential decay
    of the leading term.  Relative accuracy ~1e-4 (refine doubles node
    counts).  The K values come in three kernel calls: every (y, n) pair of
    the strip, the rows of every arc height, and the tail.
    """
    t = datum.t
    Y = t / (2.0 * math.pi) + _TRUNCATION_MARGIN
    cutoff = bessel_decay_cutoff(t)
    needed = _required_terms(cutoff, math.sqrt(3.0) / 2.0)
    if needed > datum.coeffs.size:
        raise ValidationError(f"need {needed} coefficients for normalization, have {datum.coeffs.size}")

    # strip 1 <= y <= Y: integral of |phi|^2 / y^2 dx dy = sum_n 2 a_n^2 K^2 / y dy
    n_y = (220 + int(14.0 * t)) << refine
    ynodes, yw = gauss_legendre(48)
    edges = np.linspace(1.0, Y, max(8, n_y // 48) + 1)
    widths = np.diff(edges)[:, None]
    ys, wys = (edges[:-1, None] + widths * ynodes).ravel(), (yw * widths).ravel()
    ks = _bessel_row_scaled(t, ys, _required_terms(cutoff, ys))
    strip = float(np.sum(wys * 2.0 * np.sum((datum.coeffs[:ks.shape[1]] * ks) ** 2, 1) / ys))

    # arc region sqrt(3)/2 <= y < 1, |x| in [sqrt(1-y^2), 1/2]; |phi|^2 even in x
    xq, xw = gauss_legendre(64 << refine)
    yq, yw2 = gauss_legendre(48 << refine)
    y0 = math.sqrt(3.0) / 2.0
    ys = y0 + (1.0 - y0) * yq
    xc = np.sqrt(np.maximum(1.0 - ys * ys, 0.0))
    xs = xc[:, None] + (0.5 - xc)[:, None] * xq
    sq = np.sum(xw * _hecke_row_scaled(datum, xs, ys, _required_terms(cutoff, ys)) ** 2, 1)
    arc = float(np.sum(yw2 * (1.0 - y0) * 2.0 * (0.5 - xc) * sq / (ys * ys)))

    # tail above Y from the decay of the leading coefficient
    kY = bessel_k_imag_scaled(t, 2.0 * math.pi * Y)
    tail = 2.0 * kY * kY / Y / (4.0 * math.pi)

    norm2_scaled = strip + arc + tail
    return math.exp(0.5 * math.pi * t) / math.sqrt(norm2_scaled)


def ensure_l2norm(datum: SpectralDatum) -> float:
    """Return the stored normalization constant, computing and caching it if absent."""
    if datum.l2norm is None:
        object.__setattr__(datum, "l2norm", normalize_l2(datum))
    return datum.l2norm


def amplitude(dataset: SpectralDataset, z: Point, w: Point) -> list[Amplitude]:
    """Spectral weights b_j = phi_j(z) phi_j(w), one per form.

    The Hecke-Maass forms of PSL(2,Z) are real-valued, so no conjugate is
    taken, and the dataset's spectral parameters strictly increase, so no two
    forms share a frequency.  The forms are evaluated at the fundamental-domain
    representatives of z and w, where their Fourier series need the fewest
    terms; phi(gamma z) = phi(z).
    """
    z, w = pullback(z), pullback(w)
    return [Amplitude(f.t, maass_value(f, z) * maass_value(f, w)) for f in dataset.forms]
