import dataclasses
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from hypcircle import constants
from hypcircle.errors import ValidationError
from hypcircle.geometry import Point, pullback
from hypcircle.spectral import (
    SpectralDataset,
    SpectralDatum,
    amplitude,
    bundled_dataset,
    load_spectral_data,
    maass_value,
    normalize_l2,
)
from hypcircle.spectral import data as spectral_data
from hypcircle.spectral.data import dump_spectral_data, parse_spectral_data

I = Point(0.0, 1.0)


@pytest.fixture(scope="module")
def dataset():
    return bundled_dataset()


@pytest.fixture(scope="module")
def amps_ii(dataset):
    return amplitude(dataset, I, I)


class TestParser:
    def test_roundtrip(self, dataset, tmp_path):
        text = dump_spectral_data(dataset)
        back = parse_spectral_data(text)
        assert len(back) == len(dataset)
        assert back.forms[0].t == dataset.forms[0].t
        assert np.array_equal(back.forms[0].coeffs, dataset.forms[0].coeffs)
        path = tmp_path / "forms.txt"
        path.write_text(text, encoding="utf-8")
        again = load_spectral_data(path)
        assert len(again) == len(dataset)

    def test_missing_header(self):
        with pytest.raises(ValidationError, match="missing '#group=' header"):
            parse_spectral_data("t=1 parity=even l2norm=none coeffs=0.5\n")

    def test_group_tag_checked(self):
        form = "t=9.5 parity=odd l2norm=none coeffs=0.1\n"
        for header in ("#group=SL2Z #source=x\n", "#group= #source=x\n"):
            with pytest.raises(ValidationError, match="PSL2Z"):
                parse_spectral_data(header + form)
        assert parse_spectral_data("#group=PSL2Z #source=x\n" + form).group == "PSL2Z"

    def test_empty_form_list(self):
        with pytest.raises(ValidationError):
            parse_spectral_data("#group=PSL2Z #source=x\n")

    def test_unknown_key_rejected(self):
        text = "#group=PSL2Z #source=x\nt=9.5 parity=odd l2norm=none coeffs=0.1 extra=1\n"
        with pytest.raises(ValidationError, match=r":2: unknown keys \['extra'\]"):
            parse_spectral_data(text)

    def test_a1_not_one_rejected(self):
        # a_1 is implicit in the format; an explicit bad datum is rejected
        with pytest.raises(ValidationError):
            SpectralDatum(t=9.5, parity="odd", coeffs=np.array([2.0, 0.1]))

    def test_nonmonotone_t_rejected(self):
        f1 = SpectralDatum(t=9.5, parity="odd", coeffs=np.array([1.0, 0.1]))
        f2 = SpectralDatum(t=9.4, parity="odd", coeffs=np.array([1.0, 0.1]))
        with pytest.raises(ValidationError):
            SpectralDataset(group="PSL2Z", forms=(f1, f2))

    @pytest.mark.parametrize("fields", [
        "t=inf parity=odd l2norm=none coeffs=0.1",
        "t=9.5 parity=odd l2norm=none coeffs=0.1,nan",
        "t=9.5 parity=odd l2norm=none coeffs=inf,0.1",
        "t=9.5 parity=odd l2norm=inf coeffs=0.1",
    ], ids=["t_inf", "coeff_nan", "coeff_inf", "l2norm_inf"])
    def test_non_finite_rejected(self, fields):
        with pytest.raises(ValidationError, match=":2: "):
            parse_spectral_data("#group=PSL2Z #source=x\n" + fields + "\n")

    def test_bad_numeric(self):
        text = "#group=PSL2Z #source=x\nt=abc parity=odd l2norm=none coeffs=0.1\n"
        with pytest.raises(ValidationError, match=":2: bad numeric field"):
            parse_spectral_data(text)


class TestBundledDataset:
    def test_at_least_twenty_forms(self, dataset):
        assert len(dataset) >= 20

    def test_first_even_eigenvalue(self, dataset):
        evens = [f for f in dataset.forms if f.parity == "even"]
        assert evens[0].t == pytest.approx(13.7797513519, abs=1e-9)

    def test_first_odd_eigenvalue(self, dataset):
        odds = [f for f in dataset.forms if f.parity == "odd"]
        assert odds[0].t == pytest.approx(9.5336952613, abs=1e-9)

    @pytest.mark.parametrize("idx", range(24))
    def test_hecke_relations(self, dataset, idx):
        if idx >= len(dataset.forms):
            pytest.skip("fewer forms than parameter grid")
        a = dataset.forms[idx].coeffs

        def g(i):
            return a[i - 1]

        assert g(2) * g(3) == pytest.approx(g(6), abs=1e-7)
        assert g(2) ** 2 - 1.0 == pytest.approx(g(4), abs=1e-7)
        assert g(2) * g(5) == pytest.approx(g(10), abs=1e-7)
        assert g(3) ** 2 - 1.0 == pytest.approx(g(9), abs=1e-7)
        assert g(2) * g(4) - g(2) == pytest.approx(g(8), abs=1e-7)

    def test_l2norms_bundled(self, dataset):
        assert all(f.l2norm is not None and f.l2norm > 0 for f in dataset.forms)


class TestMaassValue:
    def test_odd_vanishes_on_axis(self, dataset):
        f = next(f for f in dataset.forms if f.parity == "odd")
        assert maass_value(f, Point(0.0, 1.3)) == 0.0

    def test_periodicity(self, dataset, mobius):
        f = next(f for f in dataset.forms if f.parity == "even")
        z = Point(0.23, 0.81)
        v1 = maass_value(f, z)
        v2 = maass_value(f, mobius((1, 1, 0, 1), z))  # z + 1
        assert v2 == pytest.approx(v1, abs=1e-10 * max(1.0, abs(v1)))

    @pytest.mark.parametrize("k", [0, 2, 4, 8, 14, 20])
    def test_automorphy_under_inversion(self, dataset, mobius, k):
        f = dataset.forms[k]
        z = Point(0.31, 0.92)
        v1 = maass_value(f, z)
        v2 = maass_value(f, mobius((0, -1, 1, 0), z))  # -1/z
        assert abs(v1 - v2) <= 1e-7

    def test_insufficient_coefficients(self, dataset):
        f = dataset.forms[-1]
        with pytest.raises(ValidationError, match=f"coefficients at y = 0.05, have {f.coeffs.size}") as err:
            maass_value(f, Point(0.0, 0.05))
        needed = int(str(err.value).split()[1])
        assert needed > f.coeffs.size


class TestNormalizeL2:
    def test_recompute_matches_bundled(self, dataset):
        f = dataset.forms[0]
        rho = normalize_l2(f)
        assert rho == pytest.approx(f.l2norm, rel=2e-3)

    def test_homogeneity(self, dataset):
        # doubling the underlying function halves rho; the datum type pins
        # a_1 = 1, so bypass validation on a throwaway copy
        f = dataset.forms[0]
        doubled = SpectralDatum(t=f.t, parity=f.parity, coeffs=f.coeffs.copy())
        object.__setattr__(doubled, "coeffs", 2.0 * f.coeffs)
        assert normalize_l2(doubled) == pytest.approx(0.5 * normalize_l2(f), rel=1e-10)

    def test_self_convergence(self, dataset):
        f = dataset.forms[0]
        r1 = normalize_l2(f)
        r2 = normalize_l2(f, refine=1)
        assert abs(r1 - r2) / r1 <= 1e-4

    def test_rho_scale(self, dataset):
        # rho tracks exp(pi t / 2) up to moderate factors
        for f in (dataset.forms[0], dataset.forms[-1]):
            scaled = f.l2norm * math.exp(-0.5 * math.pi * f.t)
            assert 0.05 < scaled < 20.0

    def test_one_kernel_call_per_batch(self, dataset, monkeypatch):
        # the strip, the arc rows and the tail above Y are one K-Bessel call
        # each, and a point value is one more
        from hypcircle import specfun

        calls = []
        kernel = specfun._besselk_line_scaled

        def counted(t, x, refine=0):
            calls.append(np.size(x))
            return kernel(t, x, refine)

        monkeypatch.setattr(specfun, "_besselk_line_scaled", counted)
        top = dataset.forms[-1]
        assert abs(top.t - 26.447) < 1e-3
        rho = normalize_l2(SpectralDatum(t=top.t, parity=top.parity, coeffs=top.coeffs))
        assert len(calls) <= 3 and sum(calls) > 1000
        assert rho == pytest.approx(top.l2norm, rel=1e-10)
        calls.clear()
        maass_value(top, Point(0.2, 1.14))
        assert len(calls) == 1

    def test_truncation_height_stability(self, dataset, monkeypatch):
        # raising the truncation height by 1 moves rho by less than 1e-3:
        # the estimated tail above Y really is that small
        f = next(f for f in dataset.forms if f.parity == "even")
        r1 = normalize_l2(f)
        monkeypatch.setattr(spectral_data, "_TRUNCATION_MARGIN", spectral_data._TRUNCATION_MARGIN + 1.0)
        r2 = normalize_l2(f)
        assert abs(r2 - r1) / r1 <= 1e-3


class TestAmplitude:
    def test_diagonal_nonnegative(self, amps_ii):
        for a in amps_ii:
            assert type(a.b) is float
            assert a.b >= 0.0

    def test_one_real_weight_per_form(self, dataset):
        z, w = Point(0.2, 1.14), Point(-0.3, 1.1)
        amps = amplitude(dataset, z, w)
        assert [a.t for a in amps] == [f.t for f in dataset.forms]
        for a, f in zip(amps, dataset.forms):
            assert type(a.b) is float
            assert a.b == maass_value(f, pullback(z)) * maass_value(f, pullback(w))

    def test_swap_conjugates(self, dataset):
        # the forms are real, so b(w, z) = conj b(z, w) is the plain symmetry
        z, w = Point(0.2, 1.3), Point(-0.1, 0.9)
        fwd = amplitude(dataset, z, w)
        rev = amplitude(dataset, w, z)
        assert [a.b for a in rev] == [a.b for a in fwd]

    def test_missing_norms_computed_on_first_use(self, dataset, tmp_path):
        # forms read without norms get them from normalize_l2 the first time
        # amplitude evaluates them; a second call reads the stored norms
        bare = SpectralDataset(group=dataset.group, source=dataset.source,
                               forms=tuple(dataclasses.replace(f, l2norm=None) for f in dataset.forms))
        path = tmp_path / "bare.txt"
        path.write_text(dump_spectral_data(bare), encoding="utf-8")
        loaded = load_spectral_data(path)
        assert all(f.l2norm is None for f in loaded.forms)
        z, w = Point(0.2, 1.14), Point(-0.3, 1.1)
        first = np.array([a.b for a in amplitude(loaded, z, w)])
        for f, ref in zip(loaded.forms, dataset.forms):
            assert f.l2norm == pytest.approx(ref.l2norm, rel=1e-4)
        again = np.array([a.b for a in amplitude(loaded, z, w)])
        assert again.tobytes() == first.tobytes()

    def test_odd_forms_drop_out_on_axis(self, dataset, amps_ii):
        odd_ts = {f.t for f in dataset.forms if f.parity == "odd"}
        for a in amps_ii:
            if a.t in odd_ts:
                assert a.b == 0.0

    def test_local_weyl_growth(self, amps_ii):
        t_top = max(a.t for a in amps_ii)
        c = sum(abs(a.b) for a in amps_ii) / t_top ** 2
        assert c <= constants.WEYL_AMPLITUDE_SUM_C
        assert c >= constants.WEYL_AMPLITUDE_SUM_C / 4.0  # drift guard

    def test_amplitude_linear_bound(self, amps_ii):
        c = max(abs(a.b) / a.t for a in amps_ii)
        assert c <= constants.AMPLITUDE_OVER_T_C
        assert c >= constants.AMPLITUDE_OVER_T_C / 4.0


class TestPullback:
    def test_lands_in_fundamental_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            z = Point(float(rng.uniform(-3, 3)), float(np.exp(rng.uniform(-2, 1))))
            p = pullback(z)
            assert abs(p.x) <= 0.5 + 1e-12
            assert p.x * p.x + p.y * p.y >= 1.0 - 1e-12


def test_generator_script_imports():
    # the data generator imports private helpers of spectral.data; loading it
    # without running main() catches a rename that would break it
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_maass_data.py"
    namespace = runpy.run_path(str(script), run_name="not_main")
    assert callable(namespace["main"]) and callable(namespace["automorphy_residual"])
    # and its automorphy solve still reproduces the bundled coefficients
    # a_1..a_10 within the script's 1e-7 gate (about 5.8e-10 and 4.8e-9)
    for f in bundled_dataset().forms[:2]:
        Y, M, Q = namespace["layout"](f.t, 10)
        a = namespace["solve_coeffs"](f.t, f.parity, M, Y, Q)
        assert np.max(np.abs(a[:10] - f.coeffs[:10])) < 1e-7
