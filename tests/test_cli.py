import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypcircle.cli import _emit, main
from hypcircle.errors import ValidationError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects malformed arguments this way
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


class TestErrorTerm:
    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "e.csv"
        code, _, _ = run(capsys, "error-term", "--smax", "4", "--step", "0.0078125",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "s,value"
        assert len(lines) == int(4 / 0.0078125) + 2
        s0, v0 = lines[1].split(",")
        assert float(s0) == 0.0
        assert float(v0) == pytest.approx(-1.0)

    def test_exact_method(self, capsys, tmp_path):
        grid_path = tmp_path / "grid.csv"
        exact_path = tmp_path / "exact.csv"
        for method, path in (("grid", grid_path), ("exact", exact_path)):
            code, _, _ = run(capsys, "error-term", "--smax", "4", "--step", "0.03125",
                             "--alpha", "0.5", "--method", method, "--out", str(path))
            assert code == 0
        g = [float(ln.split(",")[1]) for ln in grid_path.read_text().splitlines()[1:]]
        e = [float(ln.split(",")[1]) for ln in exact_path.read_text().splitlines()[1:]]
        assert max(abs(a - b) for a, b in zip(g, e)) < 0.5

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_bad_step(self, capsys, tmp_path, step):
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

    def test_variance(self, capsys):
        code, out, _ = run(capsys, "variance", "--alpha", "0.5", "--T", "6",
                           "--tmax", "40")
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {"empirical", "spectral_value", "spectral_tail", "ratio"}
        assert payload["spectral_value"] > 0

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
        # --step sets the synthetic sample step; without it the step is 1/256
        counts = []
        for extra in ([], ["--step", "0.01"]):
            code, out, _ = run(capsys, "distribution", "--mode", "synthetic", "--alpha", "0.5",
                               "--L", "100", "--out", str(tmp_path / "hist.csv"), *extra)
            assert code == 0
            counts.append(json.loads(out)["count"])
        assert counts == [25601, 10001]

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
    ["variance", "--alpha", "0.5", "--T", "0"],
    ["variance", "--alpha", "0.5", "--T", "2", "--tmax", "1"],
    ["distribution", "--mode", "real", "--alpha", "0.5", "--T", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "0"],
    ["distribution", "--mode", "synthetic", "--alpha", "0.5", "--L", "-3"],
    ["scan-pointwise", "--alpha", "0.5", "--smax", "3"],
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
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_empty_window_rejected(capsys, tmp_path, argv):
    # a window or sample set with nothing in it, an infinite length, a step
    # that is not positive and finite or gives more samples than the cap, a
    # NaN or huge spectral parameter, a NaN cut-off, or fewer than one
    # histogram bin ends with exit 2 and one line, never NaN on stdout or a
    # traceback
    if argv[0] == "moments":
        series = tmp_path / "series.csv"
        series.write_text("s,value\n0,1\n0.5,1\n1,1\n")
        argv = argv + ["--in", str(series)]
    if argv[0] in ("distribution", "error-term"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


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
