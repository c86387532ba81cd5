import json
import math

import numpy as np
import pytest

from implicitreg import cli, terms
from implicitreg.cli import (EXIT_DEGENERATE, EXIT_DOMAIN, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK,
                            main)


def circle_csv(tmp_path, name="circle.csv"):
    s = math.sqrt(2)
    rows = [(2, 0), (-2, 0), (0, 2), (0, -2), (s, s), (s, -s)]
    p = tmp_path / name
    p.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in rows) + "\n")
    return p


def line_csv(tmp_path, name="line.csv"):
    p = tmp_path / name
    xs = [0.0, 1.0, 2.0, 3.0]
    p.write_text("x,y\n" + "\n".join(f"{x!r},{1 + 2 * x!r}" for x in xs) + "\n")
    return p


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFit:
    def test_nonresponse_circle(self, tmp_path, capsys):
        code, rep = run_json(capsys, [
            "fit", "--input", str(circle_csv(tmp_path)),
            "--model", "nonresponse", "--terms", "x2,y2"])
        assert code == EXIT_OK
        values = [c["value"] for c in rep["coefficients"]]
        np.testing.assert_allclose(values, [0.25, 0.25], atol=1e-10)
        assert rep["r_squared"] == pytest.approx(1.0, abs=1e-10)
        assert rep["conic"]["class"] == "Circle"

    def test_rotation_exact_line(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        xs = [1.0, 2.0, 3.0, 4.0]
        p.write_text("x,y\n" + "\n".join(f"{x!r},{2 * x!r}" for x in xs) + "\n")
        code, rep = run_json(capsys, [
            "fit", "--input", str(p), "--model", "rotation:y", "--terms", "x,y,xy"])
        assert code == EXIT_OK
        values = [c["value"] for c in rep["coefficients"]]
        np.testing.assert_allclose(values, [0, 2, 0], atol=1e-9)
        assert rep["r_squared"] == pytest.approx(1.0, abs=1e-9)

    def test_standard_constant_response_exit_code(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,5\n2,5\n3,5\n")
        code = main(["fit", "--input", str(p), "--model", "standard", "--response-col", "y"])
        assert code == EXIT_DEGENERATE

    def test_univariate(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,1\n0,2\n0,3\n")
        code, rep = run_json(capsys, ["fit", "--input", str(p), "--model", "univariate"])
        assert code == EXIT_OK
        assert rep["univariate"]["mu_hat"] == pytest.approx(7 / 3, abs=1e-12)
        assert rep["univariate"]["r2"] == pytest.approx(6 / 7, abs=1e-12)

    def test_parse_error_exit_code(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,abc\n")
        assert main(["fit", "--input", str(p), "--model", "nonresponse",
                     "--terms", "x,y"]) == EXIT_INPUT

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--model", "nonresponse", "--terms", "x,y"]) == EXIT_INPUT

    def test_pivot_not_in_terms(self, tmp_path):
        assert main(["fit", "--input", str(line_csv(tmp_path)),
                     "--model", "rotation:x2", "--terms", "x,y"]) == EXIT_INPUT


    def test_offset_exact_circle_conic(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        assert main(["simulate", "--kind", "circle", "--params", "300,300,1", "--n", "40",
                     "--seed", "5", "--out-file", str(p)]) == EXIT_OK
        code, rep = run_json(capsys, [
            "fit", "--input", str(p), "--model", "nonresponse", "--terms", "x,y,xy,x2,y2"])
        assert code == EXIT_OK
        np.testing.assert_allclose(rep["conic"]["center"], [300, 300], rtol=0, atol=1e-9)
        np.testing.assert_allclose(rep["conic"]["semi_axes"], [1, 1], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("model", ["nonresponse", "standard"])
    def test_utf8_bom_header(self, tmp_path, capsys, model):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\n1,0\n0,1\n0.5,0.5\n")
        code, rep = run_json(capsys, ["fit", "--input", str(p), "--model", model])
        assert code == EXIT_OK
        expect = [1, 1] if model == "nonresponse" else [1, -1]
        np.testing.assert_allclose([c["value"] for c in rep["coefficients"]], expect,
                                   atol=1e-12)


class TestFailures:
    @pytest.mark.parametrize("argv", [
        ["convert", "--direction", "beta-from-alpha", "--values", "1,abc"],
        ["simulate", "--kind", "circle", "--params", "0,0,x", "--n", "5"],
        ["fit", "--input", "{tmp}", "--model", "nonresponse"],
        ["simulate", "--kind", "circle", "--params", "0,0,1", "--n", "5", "--noise", "nan"],
        ["fit", "--input", "{tmp}/xyx.csv", "--model", "nonresponse"],
        ["fit", "--input", "{tmp}/yxx.csv", "--model", "standard"],
    ], ids=["convert-non-numeric", "simulate-non-numeric", "input-is-directory",
            "simulate-nan-noise", "duplicate-header-nonresponse", "duplicate-header-standard"])
    def test_input_failure_exits_2_with_one_line(self, tmp_path, capsys, argv):
        for header in ("x,y,x", "y,x,x"):
            rows = "1,2,3\n2,3,5\n3,5,4\n4,1,2\n"
            (tmp_path / f"{header.replace(',', '')}.csv").write_text(header + "\n" + rows)
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("model", ["nonresponse", "standard"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, model):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"x,y\n1,2\n5,\xe96\n")
        code = main(["fit", "--input", str(p), "--model", model])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and "not UTF-8" in err and len(err.splitlines()) == 1

    def test_cell_over_csv_field_limit_exits_2(self, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("x,y\n1,2\n3,4\n" + "a" * 200000 + ",5\n")
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "x,y"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err == f"error: {p}: data row 3: field larger than field limit (131072)\n"

    def test_overflowing_mixed_term_exits_4(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("x,y\n1e200,1e200\n2e200,1e200\n3e200,2e200\n1e200,5e200\n")
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "x,y,xy"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: term xy undefined at data row 1\n"

    def test_unexpected_exception_exits_5(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_convert", broken)
        code = main(["convert", "--direction", "beta-from-alpha", "--values", "1,2"])
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


class TestRotateAll:
    def test_five_reports(self, tmp_path, capsys):
        rng = np.random.default_rng(83)
        p = tmp_path / "d.csv"
        rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rng.uniform(0.5, 3, size=(30, 2)))
        p.write_text("x,y\n" + rows + "\n")
        code = main(["rotate-all", "--input", str(p), "--terms", "x,y,xy,x2,y2",
                     "--output", "json"])
        assert code == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 5
        assert [r["model"]["lhs"] for r in reports] == ["x", "y", "xy", "x^2", "y^2"]

    def test_two_reports(self, tmp_path, capsys):
        code = main(["rotate-all", "--input", str(line_csv(tmp_path)),
                     "--terms", "x,y", "--output", "json"])
        assert code == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)) == 2

    def test_degenerate_pivot_inline(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,5\n2,5\n3,5\n")
        code = main(["rotate-all", "--input", str(p), "--terms", "x,y",
                     "--output", "json"])
        assert code == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert any("SingularSystem" in w for r in reports for w in r.get("warnings", []))


class TestDiagnose:
    def test_slr_fixture(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,0\n1,1\n2,1\n")
        code, rep = run_json(capsys, [
            "diagnose", "--input", str(p), "--model", "standard", "--response-col", "y"])
        assert code == EXIT_OK
        sep = rep["separation"]
        assert sep["theta_t"] == pytest.approx(90.0, abs=1e-6)
        assert sep["theta_m"] == pytest.approx(60.0, abs=1e-6)
        assert sep["ratio"] == pytest.approx(1.0, abs=1e-8)

    def test_exact_circle_perfect_fit_warning(self, tmp_path, capsys):
        code, rep = run_json(capsys, [
            "diagnose", "--input", str(circle_csv(tmp_path)),
            "--model", "nonresponse", "--terms", "x,y,xy,x2,y2"])
        assert code == EXIT_OK
        assert "PerfectFit" in rep["warnings"]

    def test_noisy_circle_finite_angles(self, tmp_path, capsys):
        from implicitreg import Circle, GeneratorSpec, generate
        from implicitreg.terms import save_csv
        d = generate(GeneratorSpec(Circle(0, 0, 2), n=100, noise_sigma=0.05, seed=17))
        p = tmp_path / "noisy.csv"
        save_csv(p, d)
        code, rep = run_json(capsys, [
            "diagnose", "--input", str(p),
            "--model", "nonresponse", "--terms", "x,y,xy,x2,y2"])
        assert code == EXIT_OK
        sep = rep["separation"]
        assert sep["theta_t"] is not None and sep["ratio"] is not None
        # points jittered outside the fitted circle have no real root in y
        assert 0 <= sep["unreconstructed"] < 100

    def test_loads_and_fits_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        for module, name in ((terms, "load_csv"), (cli.fitters, "fit_nonresponse")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        code, rep = run_json(capsys, [
            "diagnose", "--input", str(circle_csv(tmp_path)),
            "--model", "nonresponse", "--terms", "x,y,xy,x2,y2"])
        assert code == EXIT_OK
        assert calls == ["load_csv", "fit_nonresponse"]

    def test_pinwheel_for_two_term_linear(self, tmp_path, capsys):
        code, rep = run_json(capsys, [
            "diagnose", "--input", str(line_csv(tmp_path)),
            "--model", "nonresponse", "--terms", "x,y"])
        assert code == EXIT_OK
        assert len(rep["pinwheel"]) == 3


class TestSimulate:
    def test_emits_loadable_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--kind", "circle", "--params", "0,0,2",
                     "--n", "25", "--seed", "7", "--out-file", str(out)])
        assert code == EXIT_OK
        from implicitreg import load_csv
        d = load_csv(out)
        assert d.n == 25
        np.testing.assert_allclose(d.x**2 + d.y**2, 4.0, atol=1e-10)

    def test_univariate_kind(self, tmp_path):
        out = tmp_path / "u.csv"
        code = main(["simulate", "--kind", "uniform", "--params", "0,1",
                     "--n", "10", "--seed", "3", "--out-file", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "y"

    def test_bad_params(self):
        assert main(["simulate", "--kind", "circle", "--params", "0,0",
                     "--n", "5"]) == EXIT_INPUT


class TestConvert:
    def test_beta_from_alpha(self, capsys):
        code = main(["convert", "--direction", "beta-from-alpha",
                     "--values", "1,-2", "--output", "json"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["beta"], [1.0, 2.0], atol=1e-15)

    def test_zero_leading_coefficient(self):
        assert main(["convert", "--direction", "beta-from-alpha",
                     "--values", "0,1"]) == EXIT_DEGENERATE


class TestReportRoundTrip:
    def test_json_full_precision(self, tmp_path, capsys):
        code, rep = run_json(capsys, [
            "fit", "--input", str(circle_csv(tmp_path)),
            "--model", "nonresponse", "--terms", "x,y,xy,x2,y2"])
        assert code == EXIT_OK
        # serialization round-trips bit-exactly
        assert json.loads(json.dumps(rep)) == rep

    def test_text_mode_runs(self, tmp_path, capsys):
        code = main(["fit", "--input", str(circle_csv(tmp_path)),
                     "--model", "nonresponse", "--terms", "x2,y2"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "R^2" in text and "Circle" in text
