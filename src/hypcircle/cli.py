"""Command-line interface.

Subcommands mirror the library operations; output is CSV (17 significant
digits) or flat JSON.  Exit codes: 0 ok, 2 validation error, 3 numerical
non-convergence, 4 any other failure (out of memory, an internal error).
Every failure prints one `error:` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .counting import (
    BallSpec,
    brute_force_count,
    count_ball,
    list_distances,
    load_distances,
    required_entry_bound,
    save_distances,
)
from .errors import HypCircleError, NonConvergence, ValidationError
from .experiments import (
    SYNTHETIC_STEP,
    ErrorSeries,
    _grid_size,
    distribution_estimate,
    first_moment,
    hybrid_run,
    pointwise_scan,
    sample_e_alpha,
    sample_error,
    synthetic_series,
    variance_report,
    window_variance,
)
from .fracint import DEFAULT_STEP, SampledSeries
from .geometry import Point
from .specfun import _as_alpha
from .spectral import (
    amplitude,
    bundled_dataset,
    h_r_closed,
    load_spectral_data,
    shc_direct,
    shc_frac,
)


def _point(text: str) -> Point:
    try:
        xs, ys = text.split(",")
        return Point(float(xs), float(ys))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}, expected x,y") from exc


def _glue_points(argv: list[str]) -> list[str]:
    """argv with `--z -0.3,1.1` written as `--z=-0.3,1.1`.

    argparse reads a value led by '-' that is not a plain number as an option.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("--z", "--w") and tok.startswith("-") and "," in tok:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _write_csv(path, grid, values):
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"non-finite result at s = {grid[np.argmin(np.isfinite(values))]:g}")
    np.savetxt(path, np.column_stack([grid, values]), fmt="%.17g", delimiter=",",
               header="s,value", comments="")


def _read_csv(path) -> SampledSeries:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "s,value":
            raise ValidationError(f"{path}: expected header 's,value'")
        rows = [ln.split(",") for ln in fh.read().splitlines() if ln]
    try:
        if any(len(r) != 2 for r in rows):
            raise ValueError("a row without exactly two cells")
        grid = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
    except ValueError as exc:
        raise ValidationError(f"{path}: every row must hold two numbers s,value") from exc
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"{path}: every s must be finite")
    if grid.size < 2:
        raise ValidationError(f"{path}: need at least two samples")
    steps = np.diff(grid)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1.0):
        raise ValidationError(f"{path}: grid must be uniform")
    return SampledSeries(float(grid[0]), float(steps[0]), vals)


def _emit(obj):
    bad = [key for key, value in obj.items() if not np.all(np.isfinite(value))]
    if bad:
        raise ValidationError(f"non-finite result for {', '.join(bad)}")
    print(json.dumps(obj))


def _dataset(path):
    return bundled_dataset() if path is None else load_spectral_data(path)


def cmd_count(args):
    spec = BallSpec(args.z, args.w, args.s)
    # the oracle first: its size guard refuses a large ball before the count runs
    oracle = brute_force_count(spec, required_entry_bound(spec)) if args.oracle else None
    n = count_ball(spec)
    out = {"count": n}
    if args.oracle:
        out["oracle"] = oracle
        out["agree"] = oracle == n
    _emit(out)


def cmd_error_term(args):
    # reject a bad order or an oversized grid before enumerating
    if args.alpha is not None:
        _as_alpha(args.alpha)
    _grid_size(args.smax, args.step)
    if args.cache_in:
        distances = load_distances(args.cache_in, args.smax)
    else:
        distances = list_distances(BallSpec(args.z, args.w, args.smax))
    if args.alpha is None:
        err = sample_error(args.z, args.w, args.smax, args.step, distances=distances)
    else:
        err = sample_e_alpha(args.z, args.w, args.alpha, args.smax, args.step,
                             method=args.method, distances=distances)
    # only an enumeration writes a cache: one read with --cache-in is cut to --smax
    if args.cache and not args.cache_in:
        save_distances(args.cache, distances)
    _write_csv(args.out, err.grid, err.values)


def cmd_moments(args):
    series = _read_csv(args.infile)
    err = ErrorSeries(series=series, alpha=None)
    _emit({
        "first": first_moment(err, args.T, window=args.window),
        "second": window_variance(err, args.T, window=args.window),
    })


def cmd_variance(args):
    dataset = _dataset(args.spectral)
    amps = amplitude(dataset, args.z, args.w)
    s_need = 2.0 * args.T if args.window == "T2T" else args.T
    err = sample_e_alpha(args.z, args.w, args.alpha, s_need, args.step)
    rep = variance_report(err, amps, args.alpha, args.T, t_max=args.tmax,
                          window=args.window)
    _emit({
        "empirical": rep.empirical,
        "spectral_value": rep.spectral_value,
        "spectral_tail": rep.spectral_tail,
        "ratio": rep.ratio,
    })


def cmd_scan_pointwise(args):
    err = sample_e_alpha(args.z, args.w, args.alpha, args.smax, args.step)
    scan = pointwise_scan(err)
    _emit({
        "alpha": scan.alpha,
        "envelope_constant": scan.envelope_constant,
        "fitted_exponent": scan.fitted_exponent,
        "x": list(scan.x_values),
        "envelopes": list(scan.envelopes),
    })


def cmd_distribution(args):
    if args.mode == "real":
        if args.L is not None:
            raise ValidationError("--L sets the synthetic series length; --mode real takes --T")
        step = DEFAULT_STEP if args.step is None else args.step
        err = sample_e_alpha(args.z, args.w, args.alpha, 12.0 if args.T is None else args.T, step)
    else:
        if args.T is not None:
            raise ValidationError("--T sets the real window length; --mode synthetic takes --L")
        step = SYNTHETIC_STEP if args.step is None else args.step
        amps = amplitude(_dataset(args.spectral), args.z, args.w)
        err = synthetic_series(amps, args.alpha, 1e5 if args.L is None else args.L, step)
    est = distribution_estimate(err, bins="fd" if args.bins is None else args.bins)
    centers = 0.5 * (est.edges[:-1] + est.edges[1:])
    _write_csv(args.out, centers, est.counts)
    _emit({
        "mean": est.mean,
        "variance": est.variance,
        "count": est.count,
        "ks_halves": est.ks_halves,
    })


def cmd_hybrid(args):
    points = hybrid_run(args.z, args.w, args.schedule, args.Ts, step=args.step)
    _emit({
        "T": [p.T for p in points],
        "alpha": [p.alpha for p in points],
        "condition": [p.condition for p in points],
        "variance": [p.variance for p in points],
        "max_variance": max(p.variance for p in points),
    })


def cmd_shc(args):
    out = {"direct": shc_direct(args.s, args.t)}
    out["closed_form"] = math.exp(-0.5 * args.s) * h_r_closed(args.s, args.t).value
    if args.alpha is not None:
        res = shc_frac(args.s, args.t, args.alpha)
        out["frac"] = res.value
        out["asymptotic"] = res.asymptotic
    _emit(out)


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments with ValidationError, so they end in one `error:` line."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hypcircle", description="hyperbolic lattice-point laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def add_zw(sp, default_z="0,1", default_w="0,1"):
        sp.add_argument("--z", type=_point, default=_point(default_z))
        sp.add_argument("--w", type=_point, default=_point(default_w))

    sp = sub.add_parser("count", help="orbit count in a ball")
    add_zw(sp)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("error-term", help="sample e(s) or its fractional integral")
    add_zw(sp)
    sp.add_argument("--smax", type=float, required=True)
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--method", choices=["grid", "exact"], default="grid")
    sp.add_argument("--out", required=True)
    sp.add_argument("--cache", default=None, help="write distance cache here")
    sp.add_argument("--cache-in", default=None, dest="cache_in",
                    help="read distance cache instead of enumerating")
    sp.set_defaults(func=cmd_error_term)

    sp = sub.add_parser("moments", help="window moments of a sampled series")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--window", choices=["T2T", "0T"], default="T2T")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("variance", help="empirical vs spectral variance")
    add_zw(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--spectral", default=None, help="spectral data file")
    sp.add_argument("--tmax", type=float, default=math.inf)
    sp.add_argument("--window", choices=["T2T", "0T"], default="0T")
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)
    sp.set_defaults(func=cmd_variance)

    sp = sub.add_parser("scan-pointwise", help="pointwise bound envelope scan")
    add_zw(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--smax", type=float, required=True)
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)
    sp.set_defaults(func=cmd_scan_pointwise)

    sp = sub.add_parser("distribution", help="limiting-distribution estimate")
    add_zw(sp)
    sp.add_argument("--mode", choices=["real", "synthetic"], required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--T", type=float, default=None, help="real mode: window length (default 12)")
    sp.add_argument("--L", type=float, default=None,
                    help="synthetic mode: series length (default 1e5)")
    sp.add_argument("--step", type=float, default=None,
                    help="sample step (default 1/512 real, 1/256 synthetic)")
    sp.add_argument("--spectral", default=None)
    sp.add_argument("--bins", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_distribution)

    sp = sub.add_parser("hybrid", help="vanishing-order schedule variances")
    add_zw(sp)
    sp.add_argument("--schedule", choices=["inv-sqrt", "inv-T"], default="inv-sqrt")
    sp.add_argument("--Ts", type=_floats, required=True, help="comma-separated T values")
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)
    sp.set_defaults(func=cmd_hybrid)

    sp = sub.add_parser("shc", help="kernel transform values")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_shc)

    return p


def _fail(message: str, code: int) -> int:
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_points(sys.argv[1:] if argv is None else argv))
        with np.errstate(all="ignore"):  # a non-finite result is refused by name instead
            args.func(args)
        return 0
    except NonConvergence as exc:
        return _fail(str(exc), 3)
    except (HypCircleError, OSError) as exc:
        return _fail(str(exc), 2)
    except Exception as exc:  # a MemoryError or a bug: one line, no traceback
        return _fail(f"{type(exc).__name__}: {exc}", 4)


if __name__ == "__main__":
    sys.exit(main())
