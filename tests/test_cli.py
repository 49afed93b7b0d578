import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hypcircle.cli import _emit, _write_csv, main
from hypcircle.counting import BallSpec, list_distances, save_distances
from hypcircle.errors import MemoryBudgetExceeded, NonConvergence, ValidationError
from hypcircle.geometry import Point

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help exits this way
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_skips_scipy_signal():
    # scipy.signal costs about a second at start-up and nothing needs it
    code = "import sys, hypcircle.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_counting_commands_skip_scipy(tmp_path):
    # SciPy costs about 0.3 s at start-up; count, grid error-term and moments
    # never call it, so it loads only where a SciPy function is first called
    out, code = tmp_path / "e.csv", (
        "import sys\n"
        "from hypcircle.cli import main\n"
        "loaded = ['scipy' in sys.modules]\n"
        "for argv in (['count', '--s', '3'],\n"
        "             ['error-term', '--smax', '4', '--alpha', '0.25', '--out', sys.argv[1]],\n"
        "             ['moments', '--in', sys.argv[1], '--T', '1']):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(loaded, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(out)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[False, False, False, False]"


@pytest.mark.parametrize("argv", [
    ("error-term", "--smax", "4", "--alpha", "0.25", "--method", "exact"),
    ("shc", "--s", "3", "--t", "4", "--alpha", "0.5"),
])
def test_scipy_commands_in_fresh_process(tmp_path, argv):
    # these call SciPy, which a fresh process has not imported yet
    if argv[0] == "error-term":
        argv += ("--out", str(tmp_path / "e.csv"))
    proc = subprocess.run([sys.executable, "-m", "hypcircle.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestCount:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "count", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 10

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "count", "--s", "2", "--oracle")
        payload = json.loads(out)
        assert code == 0 and payload["agree"]

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "--s", "-1")
        assert code == 2 and "error" in err

    def test_radius_ceiling_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "--s", "200")
        assert code == 2

    def test_oracle_past_cap_one_line(self, capsys):
        # at s = 16 the oracle's entry bound 5,962 would visit 8.5e11
        # matrices, about 790 times its cap
        code, out, err = run(capsys, "count", "--s", "16", "--oracle")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_too_many_candidate_rows_one_line(self):
        # s = 29 is a valid radius, but its 6.2e12 candidate rows, streamed at
        # a few million a second, would take weeks: the work cap refuses them
        # before any row is formed; in a subprocess, so that nothing else
        # reaches stderr
        proc = subprocess.run([sys.executable, "-m", "hypcircle.cli", "count", "--s", "29"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1

    def test_past_work_cap_fast(self, capsys):
        # s = 21 would visit pi e^21 / 2 = 2.07e9 candidate rows, past the
        # 2^30 work cap: refused at once, before any row is formed
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--s", "21")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "work cap" in err


@pytest.mark.parametrize("argv", [
    ("count", "--z", "-0.3,1.1", "--s", "3"),
    ("count", "--z", "0.2,1.14", "--w", "-0.3,1.1", "--s", "5"),
    ("variance", "--w", "-0.1,0.9", "--z", "-0.2,1.3", "--alpha", "0.5", "--T", "3"),
    ("scan-pointwise", "--z", "-0.3,1.1", "--alpha", "0.75", "--smax", "9"),
    ("hybrid", "--w", "-0.3,1.1", "--Ts", "6,9"),
])
def test_spaced_negative_point(capsys, argv):
    # argparse took '-0.3,1.1' for an option and exited 2 with "expected one
    # argument"; the spaced form now reads as the '=' form does
    glued = " ".join(argv).replace("--z ", "--z=").replace("--w ", "--w=").split()
    spaced = run(capsys, *argv)
    assert spaced[0] == 0, spaced[2]
    assert spaced == run(capsys, *glued)


class TestErrorTerm:
    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "e.csv"
        code, _, _ = run(capsys, "error-term", "--smax", "4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "s,value"
        assert len(lines) == 4 * 512 + 2
        s0, v0 = lines[1].split(",")
        assert float(s0) == 0.0
        assert float(v0) == pytest.approx(-1.0)

    def test_csv_bytes(self, tmp_path):
        # 17 significant digits round-trip every double; counts print as integers
        path = tmp_path / "v.csv"
        _write_csv(path, np.array([-0.0, 5e-324, math.pi]), np.array([0, 7, 123456789]))
        assert path.read_bytes() == (b"s,value\n-0,0\n4.9406564584124654e-324,7\n"
                                     b"3.1415926535897931,123456789\n")

    def test_rows_finite_past_exp_overflow(self, tmp_path):
        # 3 e^s overflows from s = 708.686 on, but e(s) = N e^{-s/2} - 3 e^{s/2}
        # does not: every row is finite; in a subprocess, so that numpy's
        # RuntimeWarnings would reach stderr
        cache, out = tmp_path / "c.bin", tmp_path / "e.csv"
        cache.write_bytes(struct.pack("<d", 709.0) + np.array([0.1, 0.5], dtype="<f8").tobytes())
        proc = subprocess.run([sys.executable, "-m", "hypcircle.cli", "error-term", "--cache-in",
                               str(cache), "--smax", "709", "--out", str(out)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "" and proc.stderr == ""
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (709 * 512 + 1, 2) and np.all(np.isfinite(rows))
        ref = 2.0 * math.exp(-354.5) - 3.0 * math.exp(354.5)
        assert rows[-1, 0] == 709.0 and rows[-1, 1] == pytest.approx(ref, rel=1e-15)

    def test_csv_refuses_non_finite(self, tmp_path):
        path = tmp_path / "v.csv"
        with pytest.raises(ValidationError, match="^non-finite result at s = 0.5$"):
            _write_csv(path, np.array([0.0, 0.5, 1.0]), np.array([1.0, math.nan, 2.0]))
        assert not path.exists()

    def test_exact_method(self, capsys, tmp_path):
        grid_path = tmp_path / "grid.csv"
        exact_path = tmp_path / "exact.csv"
        for method, path in (("grid", grid_path), ("exact", exact_path)):
            code, _, _ = run(capsys, "error-term", "--smax", "4", "--alpha", "0.5",
                             "--method", method, "--out", str(path))
            assert code == 0
        g = [float(ln.split(",")[1]) for ln in grid_path.read_text().splitlines()[1:]]
        e = [float(ln.split(",")[1]) for ln in exact_path.read_text().splitlines()[1:]]
        assert max(abs(a - b) for a, b in zip(g, e)) < 0.5

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_bad_step(self, capsys, tmp_path, step):
        # the step is fixed at 1/512, so any --step is refused
        code, _, err = run(capsys, "error-term", "--smax", "2", "--step", step,
                           "--out", str(tmp_path / "e.csv"))
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_alpha_and_cache(self, capsys, tmp_path):
        out_path = tmp_path / "ea.csv"
        cache = tmp_path / "cache.bin"
        code, _, _ = run(capsys, "error-term", "--smax", "4", "--alpha", "0.5",
                         "--out", str(out_path), "--cache", str(cache))
        assert code == 0 and cache.exists()
        out2 = tmp_path / "ea2.csv"
        code2, _, _ = run(capsys, "error-term", "--smax", "4", "--alpha", "0.5",
                          "--out", str(out2), "--cache-in", str(cache),
                          "--cache", str(cache))
        assert code2 == 0
        assert out_path.read_text() == out2.read_text()

    def test_cache_in_alone(self, capsys, tmp_path):
        # the cache written by an enumerating run reproduces its CSV bytes
        enumerated, cached = tmp_path / "enumerated.csv", tmp_path / "cached.csv"
        cache = tmp_path / "cache.bin"
        common = ["--z=0.2,1.3", "--w=-0.1,0.9", "--smax", "5", "--alpha", "0.25"]
        code, _, _ = run(capsys, "error-term", *common, "--out", str(enumerated),
                         "--cache", str(cache))
        assert code == 0
        code, _, err = run(capsys, "error-term", *common, "--out", str(cached),
                           "--cache-in", str(cache))
        assert code == 0, err
        assert cached.read_bytes() == enumerated.read_bytes()

    def test_cached_run_keeps_a_larger_cache(self, capsys, tmp_path):
        # a run that reads its distances from a cache never writes --cache, so
        # it cannot replace an s = 8 cache by one cut to its own s = 4
        cache, out_path = tmp_path / "cache.bin", tmp_path / "e.csv"
        code, _, _ = run(capsys, "error-term", "--smax", "8", "--out", str(out_path),
                         "--cache", str(cache))
        assert code == 0
        written = cache.read_bytes()
        code, _, _ = run(capsys, "error-term", "--smax", "4", "--out", str(out_path),
                         "--cache-in", str(cache), "--cache", str(cache))
        assert code == 0 and cache.read_bytes() == written
        code, _, err = run(capsys, "error-term", "--smax", "8", "--out", str(out_path),
                           "--cache-in", str(cache))
        assert code == 0, err

    def test_exact_with_no_distance_below_last_sample(self, capsys, tmp_path):
        # the ball's one distance, 0.2997, lies past the last sample 153/512
        code, _, err = run(capsys, "error-term", "--z", "0.2,1.14", "--w=-0.3,1.1",
                           "--smax", "0.3", "--alpha", "0.5", "--method", "exact",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 0, err

    def test_cache_in_below_smax_rejected(self, capsys, tmp_path):
        # a radius-4 cache read for --smax 6 would miss every distance in (4, 6]
        cache, out_path = tmp_path / "cache.bin", tmp_path / "e.csv"
        code, _, _ = run(capsys, "error-term", "--smax", "4", "--out", str(out_path),
                         "--cache", str(cache))
        assert code == 0
        code, out, err = run(capsys, "error-term", "--smax", "6", "--out", str(out_path),
                             "--cache-in", str(cache))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestMoments:
    def test_from_csv(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        grid = np.linspace(0.0, 10.0, 2001)
        with open(path, "w") as fh:
            fh.write("s,value\n")
            for s in grid:
                fh.write(f"{s:.17g},{2.0:.17g}\n")
        code, out, _ = run(capsys, "moments", "--in", str(path), "--T", "4",
                           "--window", "T2T")
        payload = json.loads(out)
        assert code == 0
        assert payload["first"] == pytest.approx(2.0, rel=1e-12)
        assert payload["second"] == pytest.approx(4.0, rel=1e-12)

    def test_bad_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("wrong,header\n1,2\n",
                     "s,value\n0,1\n0.5\n1,1\n",  # short row
                     "s,value\n0,1\n0.5,abc\n1,1\n",  # non-numeric cell
                     "s,value\n0,1,7\n0.5,1,8\n1,1,9\n"):  # extra cells
            path.write_text(text)
            code, _, err = run(capsys, "moments", "--in", str(path), "--T", "1")
            assert code == 2
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestJsonCommands:
    def test_shc(self, capsys):
        code, out, _ = run(capsys, "shc", "--s", "3", "--t", "4", "--alpha", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["direct"] == pytest.approx(payload["closed_form"], rel=1e-8)
        assert set(payload) == {"direct", "closed_form", "frac", "asymptotic"}

    def test_shc_large_radius(self, capsys):
        # the closed form never forms e^{2R}, which overflows past R = 354.9
        code, out, err = run(capsys, "shc", "--s", "355", "--t", "1")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["direct"] == pytest.approx(payload["closed_form"], rel=1e-10)

    def test_shc_large_t(self, capsys):
        # Gamma(it) underflows past t = 450; the closed form takes their ratio
        code, out, err = run(capsys, "shc", "--s", "3", "--t", "500", "--alpha", "0.5")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["direct"] == pytest.approx(payload["closed_form"], rel=1e-8)
        assert all(math.isfinite(v) for v in payload.values())

    def test_shc_over_node_budget_one_line(self):
        # in a subprocess, so that numpy's RuntimeWarnings reach stderr
        proc = subprocess.run([sys.executable, "-m", "hypcircle.cli", "shc", "--s", "100",
                               "--t", "1000", "--alpha", "0.5"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1

    def test_variance(self, capsys):
        code, out, _ = run(capsys, "variance", "--alpha", "0.5", "--T", "6",
                           "--tmax", "40")
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {"empirical", "spectral_value", "spectral_tail", "ratio"}
        assert payload["spectral_value"] > 0

    def test_variance_below_fundamental_domain(self, capsys):
        # at y = 0.05 the Fourier series would need 111 coefficients; the forms
        # are evaluated at the reduced point (0, 20) instead
        code, out, err = run(capsys, "variance", "--z", "0,0.05", "--alpha", "0.5", "--T", "3")
        assert code == 0, err
        assert json.loads(out)["spectral_value"] > 0

    def test_scan_pointwise(self, capsys):
        code, out, _ = run(capsys, "scan-pointwise", "--alpha", "0.75", "--smax", "9")
        payload = json.loads(out)
        assert code == 0 and payload["envelope_constant"] > 0

    def test_distribution_synthetic(self, capsys, tmp_path):
        out_path = tmp_path / "hist.csv"
        code, out, _ = run(capsys, "distribution", "--mode", "synthetic",
                           "--alpha", "0.25", "--L", "2000", "--bins", "24",
                           "--out", str(out_path))
        payload = json.loads(out)
        assert code == 0
        assert out_path.read_text().startswith("s,value\n")
        assert payload["count"] > 0

    def test_distribution_synthetic_step(self, capsys, tmp_path):
        # the synthetic series is sampled on s = k/256
        code, out, _ = run(capsys, "distribution", "--mode", "synthetic", "--alpha", "0.5",
                           "--L", "100", "--out", str(tmp_path / "hist.csv"))
        assert code == 0
        assert json.loads(out)["count"] == 25601

    def test_hybrid(self, capsys):
        code, out, _ = run(capsys, "hybrid", "--schedule", "inv-sqrt",
                           "--Ts", "6,9,12")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["variance"]) == 3
        assert payload["condition"][1] == pytest.approx(
            3.0 * math.exp(-6.0), rel=1e-12)

    def test_hybrid_bad_schedule(self, capsys):
        code, _, err = run(capsys, "hybrid", "--schedule", "inv-T", "--Ts", "6,9,12")
        assert code == 2

    def test_hybrid_bad_T_list(self, capsys):
        code, _, err = run(capsys, "hybrid", "--Ts", "6,a")
        assert code == 2
        assert err.strip().splitlines()[-1].endswith("expected comma-separated numbers, got '6,a'")
        for ts in ("0", "-4"):
            code, out, err = run(capsys, "hybrid", "--Ts", ts)
            assert code == 2 and out == ""
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["moments", "--T", "0"],
    ["moments", "--T", "1e-5"],
    ["moments", "--T", "1e-3"],
    ["variance", "--alpha", "0.5", "--T", "0"],
    ["variance", "--alpha", "0.5", "--T", "2", "--tmax", "1"],
    ["distribution", "--mode", "real", "--alpha", "0.5", "--T", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "-3"],
    ["scan-pointwise", "--alpha", "0.5", "--smax", "3"],
    ["scan-pointwise", "--alpha", "0.5", "--smax", "8"],
    ["variance", "--alpha", "0.5", "--T", "2", "--tmax", "nan"],
    ["shc", "--s", "3", "--t", "nan"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "100", "--bins", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "100", "--bins", "-3"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "inf"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "100", "--step", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "100", "--step", "inf"],
    ["distribution", "--mode", "real", "--alpha", "0.5", "--T", "2", "--step", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "100", "--step", "1e-15"],
    ["distribution", "--mode", "real", "--alpha", "0.5", "--step", "1e-15"],
    ["error-term", "--smax", "3", "--step", "1e-15"],
    ["error-term", "--smax", "3", "--step", "inf"],
    ["hybrid", "--Ts", "6", "--step", "inf"],
    ["shc", "--s", "3", "--t", "1e300"],
    ["shc", "--s", "711", "--t", "1"],
    ["shc", "--s", "0.005", "--t", "3"],
    ["shc", "--s", "100", "--t", "1000", "--alpha", "0.5"],
    ["count", "--w", "0,1e-200", "--s", "3"],
    ["count", "--z", "0,1e308", "--s", "3"],
    ["count", "--s", "inf", "--oracle"],
    ["count", "--s", "1000", "--oracle"],
    ["count", "--z", "0,1e300", "--s", "3", "--oracle"],
    ["count", "--z", "0,1e5", "--s", "3", "--oracle"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_empty_window_rejected(capsys, tmp_path, argv):
    # a window with fewer than two samples, a single scan point, an infinite
    # length, a --step (no subcommand takes one: lattice runs sample on
    # s = k/512, the synthetic model on s = k/256), a NaN or huge spectral
    # parameter, a radius where cosh
    # overflows, a fractional transform over its node budget, a NaN cut-off,
    # fewer than one histogram bin, a point so near a cusp or so high that
    # its reduction underflows or its translates pass 2^50, or an oracle whose
    # radius passes the ceiling, whose entry bound overflows or whose scan
    # passes its work cap ends with exit 2 and one line, never NaN on stdout,
    # a warning or a traceback
    if argv[0] == "moments":
        # step 1/512: [1e-5, 2e-5] holds no sample, [1e-3, 2e-3] one
        series = tmp_path / "series.csv"
        series.write_text("s,value\n" + "".join(f"{j / 512!r},1\n" for j in range(513)))
        argv = argv + ["--in", str(series)]
    if argv[0] in ("distribution", "error-term"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_bad_bins_refused_before_series(capsys, monkeypatch, tmp_path, bins):
    # a bad --bins ends with exit 2 and one line before the series is built
    def fail(*args, **kwargs):
        raise AssertionError("synthetic_series called")

    monkeypatch.setattr("hypcircle.cli.synthetic_series", fail)
    code, out, err = run(capsys, "distribution", "--mode", "synthetic", "--alpha", "0.25",
                         "--bins", bins, "--out", str(tmp_path / "out.csv"))
    assert (code, out) == (2, "")
    assert err == f"error: bins must be 'fd' or an integer >= 1, got {bins}\n"


@pytest.mark.parametrize("argv, message", [
    (["error-term", "--smax", "nan"], "radius nan is not finite"),
    (["error-term", "--smax", "inf", "--alpha", "0.5"], "radius inf is not finite"),
    (["variance", "--alpha", "0.5", "--T", "nan"], "radius nan is not finite"),
    (["scan-pointwise", "--alpha", "0.5", "--smax", "nan"], "radius nan is not finite"),
    (["distribution", "--mode", "real", "--alpha", "0.5", "--T", "nan"], "radius nan is not finite"),
    (["moments", "--T", "1"], "every s must be finite"),
], ids=lambda v: "_".join(v).replace("--", "") if isinstance(v, list) else None)
def test_non_finite_number_named(capsys, tmp_path, argv, message):
    # a non-finite radius or grid point ends with exit 2 and one line naming it,
    # not a sample budget on [0, nan] or numpy's RuntimeWarning before the error
    if argv[0] == "moments":
        series = tmp_path / "series.csv"
        series.write_text("s,value\n0,1\n0.5,1\ninf,1\n")
        argv = argv + ["--in", str(series)]
    if argv[0] in ("distribution", "error-term"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert err.strip().endswith(message)


@pytest.mark.parametrize("command", [
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "50"],
    ["variance", "--alpha", "0.5", "--T", "3"],
], ids=["distribution", "variance"])
@pytest.mark.parametrize("bad", ["t=inf", "coeff=nan", "l2norm=inf"])
def test_non_finite_spectral_file_rejected(capsys, tmp_path, command, bad):
    # the first bundled form with one field made non-finite: exit 2 and one
    # line naming the file's line, never a traceback
    from hypcircle.spectral import bundled_dataset
    from hypcircle.spectral.data import dump_spectral_data
    header, form = dump_spectral_data(bundled_dataset()).splitlines()[:2]
    t_tok, _, l2_tok, _ = form.split()
    form = {"t=inf": form.replace(t_tok, "t=inf"),
            "coeff=nan": form.replace("coeffs=", "coeffs=nan,"),
            "l2norm=inf": form.replace(l2_tok, "l2norm=inf")}[bad]
    path = tmp_path / "forms.txt"
    path.write_text(header + "\n" + form + "\n", encoding="utf-8")
    argv = command + ["--spectral", str(path)]
    if command[0] == "distribution":
        argv += ["--out", str(tmp_path / "out.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "forms.txt:2:" in err


@pytest.mark.parametrize("command", [
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "50"],
    ["variance", "--alpha", "0.5", "--T", "3"],
], ids=["distribution", "variance"])
def test_other_group_spectral_file_rejected(capsys, tmp_path, command):
    # a dataset tagged for another group cannot feed the PSL(2,Z) model
    from hypcircle.spectral import bundled_dataset
    from hypcircle.spectral.data import dump_spectral_data
    text = dump_spectral_data(bundled_dataset()).replace("#group=PSL2Z", "#group=Gamma0(11)", 1)
    path = tmp_path / "forms.txt"
    path.write_text(text, encoding="utf-8")
    argv = command + ["--spectral", str(path)]
    if command[0] == "distribution":
        argv += ["--out", str(tmp_path / "out.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "forms.txt:1:" in err and "PSL2Z" in err


@pytest.mark.parametrize("argv, message", [
    (("count", "--s", "2", "--z", "0,-1"), "argument --z: point must satisfy y > 0"),
    (("count", "--s", "2", "--w", "1"), "bad point '1', expected x,y"),
    (("count", "--s", "abc"), "invalid float value"),
    (("count",), "required: --s"),
    (("count", "--s", "1", "--bogus"), "unrecognized arguments: --bogus"),
    (("nosuch",), "invalid choice: 'nosuch'"),
] + [(argv + ("--step", "0.01"), "unrecognized arguments: --step 0.01") for argv in (
    ("count", "--s", "1"),
    ("error-term", "--smax", "3", "--out", "e.csv"),
    ("moments", "--in", "e.csv", "--T", "1"),
    ("variance", "--alpha", "0.5", "--T", "2"),
    ("scan-pointwise", "--alpha", "0.5", "--smax", "9"),
    ("distribution", "--mode", "real", "--alpha", "0.5", "--out", "h.csv"),
    ("distribution", "--mode", "synthetic", "--alpha", "0.5", "--out", "h.csv"),
    ("hybrid", "--Ts", "6"),
    ("shc", "--s", "1", "--t", "1"),
)])
def test_argument_errors_one_line(capsys, argv, message):
    # argparse printed its usage and "hypcircle count: error: ..." and read a
    # point's own message as "invalid _point value"; lattice runs sample on
    # s = k/512 and the synthetic model on s = k/256, so no subcommand takes --step
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("argv, message", [
    (["hybrid", "--Ts", "6,6,9"], "window lengths T must be distinct, got [6.0, 6.0, 9.0]"),
    (["error-term", "--smax", "-1", "--cache-in"], "radius must be >= 0, got -1.0"),
    (["distribution", "--mode", "real", "--alpha", "0.5", "--T", "3", "--L", "-5"],
     "--L sets the synthetic series length; --mode real takes --T"),
    (["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "10", "--T", "-3"],
     "--T sets the real window length; --mode synthetic takes --L"),
], ids=["repeated_T", "negative_radius_cache", "L_with_real", "T_with_synthetic"])
def test_refusal_names_its_cause(capsys, tmp_path, argv, message):
    # a repeated T and a negative radius read with a cache are refused by name,
    # not as a schedule that does not decrease or as an empty array of values;
    # the other mode's length is refused, not silently ignored
    if argv[0] == "distribution":
        argv = argv + ["--out", str(tmp_path / "h.csv")]
    if argv[0] == "error-term":
        cache = tmp_path / "c.bin"
        save_distances(cache, list_distances(BallSpec(Point(0.0, 1.0), Point(0.0, 1.0), 2.0)))
        argv = argv + [str(cache), "--out", str(tmp_path / "e.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert err.strip().endswith(message)


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "count", "--help")
    assert code == 0 and out.startswith("usage: hypcircle count") and err == ""


@pytest.mark.parametrize("exc", [ValueError("bad\nvalue"), MemoryError()],
                         ids=["ValueError", "MemoryError"])
def test_unexpected_failure_one_line(capsys, monkeypatch, exc):
    # any failure outside the package's own errors exits 4 with one line
    def fail(args):
        raise exc

    monkeypatch.setattr("hypcircle.cli.cmd_count", fail)
    code, out, err = run(capsys, "count", "--s", "1")
    assert code == 4 and out == ""
    assert err.startswith(f"error: {type(exc).__name__}") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("exc, code", [(NonConvergence("x"), 3), (MemoryBudgetExceeded("x"), 2)],
                         ids=["NonConvergence", "MemoryBudgetExceeded"])
def test_package_failure_exit_code(capsys, monkeypatch, exc, code):
    # non-convergence exits 3 and a cap exits 2, each with one line
    def fail(args):
        raise exc

    monkeypatch.setattr("hypcircle.cli.cmd_count", fail)
    assert run(capsys, "count", "--s", "1") == (code, "", "error: x\n")


def test_emit_rejects_non_finite(capsys):
    with pytest.raises(ValidationError, match="result for ratio"):
        _emit({"empirical": 1.0, "ratio": math.inf})
    with pytest.raises(ValidationError, match="result for x"):
        _emit({"x": [1.0, math.nan]})
    assert capsys.readouterr().out == ""


def test_determinism(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "error-term", "--smax", "3", "--alpha", "0.25",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
