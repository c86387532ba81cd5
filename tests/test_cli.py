import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import offset_line, unit_condition
from implicitreg import cli, conics, fitters, simulate, terms
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

    def test_univariate_reads_only_y_col(self, tmp_path, capsys):
        # The model never uses x: a file without an x column fits, and a file
        # with one reports the same.
        (tmp_path / "y.csv").write_text("y\n1\n2\n3\n")
        (tmp_path / "xy.csv").write_text("x,y\n0,1\n0,2\n0,3\n")
        for output in ("text", "json"):
            reports = []
            for name in ("y.csv", "xy.csv"):
                assert main(["fit", "--input", str(tmp_path / name), "--model", "univariate",
                             "--output", output]) == EXIT_OK
                reports.append(capsys.readouterr())
            assert reports[0] == reports[1] and reports[0].err == ""

    def test_parse_error_exit_code(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,abc\n")
        assert main(["fit", "--input", str(p), "--model", "nonresponse",
                     "--terms", "x,y"]) == EXIT_INPUT

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--model", "nonresponse", "--terms", "x,y"]) == EXIT_INPUT

    @pytest.mark.parametrize("term_list", ["1", "1,x,y", "x,y,1"])
    def test_nonresponse_refuses_unit_term(self, tmp_path, capsys, term_list):
        # 1 = 1*1 would be a silent exact fit: the term 1 is the intercept
        # that the unit-constant model does not carry.
        for command in ("fit", "diagnose"):
            code = main([command, "--input", str(line_csv(tmp_path)), "--model", "nonresponse",
                         "--terms", term_list])
            err = capsys.readouterr().err
            assert code == EXIT_INPUT
            assert err.startswith("error: ") and "no term 1" in err and len(err.splitlines()) == 1

    def test_nonresponse_through_origin_says_why(self, tmp_path, capsys):
        # x^2 + y^2 = 2x has no constant term: the unit-constant fit cannot
        # exist, a rotation can.
        p = tmp_path / "origin.csv"
        assert main(["simulate", "--kind", "circle", "--params", "1,0,1", "--n", "200",
                     "--out-file", str(p)]) == EXIT_OK
        fit = ["fit", "--input", str(p), "--terms", "x,y,xy,x2,y2", "--model"]
        capsys.readouterr()
        assert main(fit + ["nonresponse"]) == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error: singular system: 'y^2' is collinear with the columns "
                              "before it; ")
        assert "no constant term" in err and "through the origin" in err
        assert "1 = sum a_k T_k cannot express and a rotation can" in err
        assert len(err.splitlines()) == 1
        assert main(fit + ["rotation:x"]) == EXIT_OK
        capsys.readouterr()
        assert main(fit + ["rotation:y"]) == EXIT_DEGENERATE     # a rotation's message is as it was
        assert capsys.readouterr().err == ("error: singular system: 'y^2' is collinear with the "
                                           "columns before it\n")

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

    def test_terms_outside_the_conic_set_report_no_conic(self, tmp_path, capsys):
        argv = ["fit", "--input", str(circle_csv(tmp_path)), "--model", "nonresponse",
                "--terms", "x,y,x^3"]
        code, rep = run_json(capsys, argv)
        assert code == EXIT_OK and "conic" not in rep
        assert [c["term"] for c in rep["coefficients"]] == ["x", "y", "x^3"]
        assert main(argv) == EXIT_OK
        assert "conic class" not in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["standard", "rotation:y"])
    def test_offset_line_slope(self, tmp_path, capsys, model):
        slopes = []
        for offset in (0.0, 1e7):
            x, y = offset_line(offset)
            p = tmp_path / f"line_{offset:g}.csv"
            p.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())))
            terms = [] if model == "standard" else ["--terms", "x,y"]   # standard takes none
            code, rep = run_json(capsys, ["fit", "--input", str(p), "--model", model, *terms])
            assert code == EXIT_OK
            slopes.append(rep["coefficients"][1]["value"])
        tol = 10 * unit_condition(np.ones_like(x), x) * np.finfo(float).eps
        assert slopes[1] == pytest.approx(slopes[0], rel=tol)

    @pytest.mark.parametrize("model", ["nonresponse", "standard"])
    def test_utf8_bom_header(self, tmp_path, capsys, model):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\n1,0\n0,1\n0.5,0.5\n")
        code, rep = run_json(capsys, ["fit", "--input", str(p), "--model", model])
        assert code == EXIT_OK
        expect = [1, 1] if model == "nonresponse" else [1, -1]
        np.testing.assert_allclose([c["value"] for c in rep["coefficients"]], expect,
                                   atol=1e-12)


class TestRequestErrors:
    """A bad request exits 2 before its input is opened, whatever the data."""

    @pytest.mark.parametrize("argv, message", [
        (["diagnose", "--model", "univariate"],
         "diagnose supports nonresponse, rotation, and standard models"),
        (["diagnose", "--model", "nonresponse", "--terms", "x,y,x^3"],
         "diagnosis needs terms drawn from {x, y, xy, x2, y2}"),
        (["fit", "--model", "rotation:q"], "cannot parse term 'q'"),
        (["fit", "--model", "rotation:"], "cannot parse term ''"),
        (["fit", "--model", "rotation:x,y", "--terms", "x,y,xy"],
         "rotation pivot 'x,y' must be one term"),
        (["rotate-all", "--terms", "x"], "a rotation needs at least two terms"),
        (["rotate-all", "--terms", "x,,y"], "cannot parse term ''"),
        (["fit", "--model", "nonresponse", "--terms", "1,x"],
         "the unity-regressand model carries no intercept, so no term 1"),
        (["diagnose", "--model", "nonresponse", "--terms", "1,x"],
         "the unity-regressand model carries no intercept, so no term 1"),
        (["fit", "--model", "nonresponse", "--terms", "x^1e400,y"], "cannot parse term 'x^1e400'"),
        (["fit", "--model", "rotation:x^1e308*x^1e308", "--terms", "x,y"],
         "cannot parse term 'x^1e308*x^1e308'"),
        (["fit", "--model", "standard", "--terms", "x,y,xy,x2,y2"],
         "the standard model takes no --terms"),
        (["diagnose", "--model", "standard", "--terms", "x,y"],
         "the standard model takes no --terms"),
        (["fit", "--model", "univariate", "--terms", "y"], "the univariate model takes no --terms"),
        (["diagnose", "--model", "univariate", "--terms", "x,y"],
         "diagnose supports nonresponse, rotation, and standard models"),
        # A column flag the model never reads, even at its default value.
        (["fit", "--model", "nonresponse", "--response-col", "y"],
         "the nonresponse model takes no --response-col"),
        (["diagnose", "--model", "nonresponse", "--terms", "x,y,xy,x2,y2",
          "--response-col", "nope"], "the nonresponse model takes no --response-col"),
        (["fit", "--model", "rotation:y", "--terms", "x,y", "--response-col", "y"],
         "the rotation model takes no --response-col"),
        (["diagnose", "--model", "rotation:x", "--response-col", "x"],
         "the rotation model takes no --response-col"),
        (["fit", "--model", "standard", "--x-col", "x"], "the standard model takes no --x-col"),
        (["diagnose", "--model", "standard", "--response-col", "y", "--y-col", "y"],
         "the standard model takes no --y-col"),
        (["fit", "--model", "univariate", "--x-col", "nope"],
         "the univariate model takes no --x-col"),
        (["fit", "--model", "univariate", "--y-col", "y", "--response-col", "y"],
         "the univariate model takes no --response-col"),
    ], ids=["diagnose-univariate", "diagnose-non-conic-terms", "unparsable-pivot", "empty-pivot",
            "two-term-pivot", "rotate-all-one-term", "rotate-all-empty-term", "fit-unit-term",
            "diagnose-unit-term", "infinite-exponent", "infinite-pivot-exponent",
            "fit-standard-terms", "diagnose-standard-terms", "fit-univariate-terms",
            "diagnose-univariate-terms", "fit-nonresponse-response-col",
            "diagnose-nonresponse-response-col", "fit-rotation-response-col",
            "diagnose-rotation-response-col", "fit-standard-x-col", "diagnose-standard-y-col",
            "fit-univariate-x-col", "fit-univariate-response-col"])
    def test_refused_before_the_input_is_read(self, tmp_path, capsys, monkeypatch, argv,
                                               message):
        def no_read(*args):
            raise AssertionError("read the input of a bad request")
        monkeypatch.setattr(terms, "_read_columns", no_read)
        code = main(argv + ["--input", str(line_csv(tmp_path))])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")

    @pytest.mark.parametrize("argv, rows, message", [
        (["diagnose", "--model", "univariate"], "1,1\n2,-1\n",
         "diagnose supports nonresponse, rotation, and standard models"),
        (["diagnose", "--model", "nonresponse", "--terms", "x,y,x^3"], "1,2\n2,4\n3,6\n4,8\n",
         "diagnosis needs terms drawn from {x, y, xy, x2, y2}"),
    ], ids=["y-sums-to-0", "x-y-proportional"])
    def test_exit_code_does_not_depend_on_the_data(self, tmp_path, capsys, argv, rows,
                                                   message):
        # Once read, this data would fail the fit (exit 3): no self-weighting
        # mean, a singular system.
        p = tmp_path / "d.csv"
        p.write_text("x,y\n" + rows)
        code = main(argv + ["--input", str(p)])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")


class TestArgumentRefusals:
    """argparse's refusals are request errors: one error: line, exit 2."""

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--model", "nonresponse"], "the following arguments are required: --input"),
        (["simulate", "--kind", "bogus", "--n", "3"],
         "argument --kind: invalid choice: 'bogus' (choose from 'circle', 'ellipse', 'line', "
         "'normal', 'uniform')"),
        (["simulate", "--kind", "uniform", "--params", "-1,3", "--n", "3"],
         "argument --params: expected one argument"),
        (["convert", "--direction", "beta-from-alpha", "--values", "1", "--bogus"],
         "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["rotate-all", "--input", "d.csv", "--terms", "x,y", "--response-col", "nope"],
         "unrecognized arguments: --response-col nope"),
    ], ids=["no-input", "bad-kind", "dash-value", "unknown-flag", "no-command",
            "rotate-all-response-col"])
    def test_one_error_line_exit_2(self, capsys, argv, message):
        assert main(argv) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_0_with_usage_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 0 and out.out.startswith("usage: implicitreg") and not out.err


class TestFailures:
    @pytest.mark.parametrize("argv", [
        ["convert", "--direction", "beta-from-alpha", "--values", "1,abc"],
        ["simulate", "--kind", "circle", "--params", "0,0,x", "--n", "5"],
        ["fit", "--input", "{tmp}", "--model", "nonresponse"],
        ["simulate", "--kind", "circle", "--params", "0,0,1", "--n", "5", "--noise", "nan"],
        ["fit", "--input", "{tmp}/xyx.csv", "--model", "nonresponse"],
        ["fit", "--input", "{tmp}/yxx.csv", "--model", "standard"],
        ["convert", "--direction", "beta-from-alpha", "--values="],
        ["simulate", "--kind", "line", "--params", "0,1", "--n", "3", "--seed", "-1"],
        ["simulate", "--kind", "normal", "--params", "1e308,1e308", "--n", "100"],
        ["simulate", "--kind", "uniform", "--params=-1e308,1e308", "--n", "100"],
        ["simulate", "--kind", "circle", "--params", "1e308,0,1e308", "--n", "3"],
        ["simulate", "--kind", "ellipse", "--params", "1e308,0,1e308,1e308,0.7", "--n", "100"],
    ], ids=["convert-non-numeric", "simulate-non-numeric", "input-is-directory",
            "simulate-nan-noise", "duplicate-header-nonresponse", "duplicate-header-standard",
            "convert-no-values", "simulate-negative-seed", "simulate-normal-overflow",
            "simulate-uniform-overflow", "simulate-circle-overflow",
            "simulate-ellipse-overflow"])
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

    def test_non_utf8_past_the_first_buffer_exits_2(self, tmp_path, capsys):
        # At data row 70001 the byte is met by np.loadtxt on a file, and by
        # the read of the whole body on a pipe.
        p = tmp_path / "late.csv"
        p.write_bytes(b"x,y\n" + b"1,2\n" * 70000 + b"5,\xe96\n")
        argv = ["fit", "--model", "nonresponse", "--input"]
        assert main(argv + [str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err and len(err.splitlines()) == 1
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "implicitreg.cli", *argv, "/dev/stdin"],
                              input=p.read_bytes(), capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT, b"")
        assert proc.stderr.startswith(b"error: /dev/stdin: not UTF-8")
        assert len(proc.stderr.splitlines()) == 1

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

    def test_domain_error_in_a_later_block_names_the_data_row(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(fitters, "ROW_BLOCK", 7)
        p = tmp_path / "d.csv"
        xs = [-1.0 if row == 20 else 1.0 + row / 10 for row in range(1, 31)]
        p.write_text("x,y\n" + "".join(f"{x!r},{1 + x * x!r}\n" for x in xs))
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "y,x^0.5"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: term x^0.5 undefined at data row 20\n"

    @pytest.mark.parametrize("block", [7, fitters.ROW_BLOCK])
    def test_domain_error_names_the_first_bad_row(self, tmp_path, capsys, monkeypatch, block):
        # x^-0.5 is undefined at row 2 (x = 0) and at row 10 (x = -1).
        monkeypatch.setattr(fitters, "ROW_BLOCK", block)
        p = tmp_path / "d.csv"
        xs = [{2: 0.0, 10: -1.0}.get(row, 1.0 + row / 10) for row in range(1, 21)]
        p.write_text("x,y\n" + "".join(f"{x!r},{1 + x * x!r}\n" for x in xs))
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "x^-0.5,y"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: term x^-0.5 undefined at data row 2\n"

    def test_unexpected_exception_exits_5(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_convert", broken)
        code = main(["convert", "--direction", "beta-from-alpha", "--values", "1,2"])
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


class TestExtremeScale:
    ROWS = [(1.0, 2.0), (2.0, 1.5), (3.0, 0.5), (1.5, 3.0)]

    def fit(self, tmp_path, capsys, scale):
        p = tmp_path / f"scaled{scale!r}.csv"
        p.write_text("x,y\n" + "".join(f"{x * scale!r},{y * scale!r}\n" for x, y in self.ROWS))
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "x,y",
                     "--output", "json"])
        out, err = capsys.readouterr()
        return code, json.loads(out) if out else None, err

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_nonresponse_line_scales(self, tmp_path, capsys, scale):
        # Column norms near 1e+-200 square out of the float range; the fit
        # is the unit-scale fit with its coefficients divided by the scale.
        _, base, _ = self.fit(tmp_path, capsys, 1.0)
        code, rep, err = self.fit(tmp_path, capsys, scale)
        assert code == EXIT_OK and err == ""
        for got, ref in zip(rep["coefficients"], base["coefficients"], strict=True):
            assert got["value"] == pytest.approx(ref["value"] / scale, rel=1e-12)
            assert got["stderr"] == pytest.approx(ref["stderr"] / scale, rel=1e-12)
            assert got["t_stat"] == pytest.approx(ref["t_stat"], rel=1e-12)
        assert rep["r_squared"] == pytest.approx(base["r_squared"], rel=1e-12)


    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "rotation:y", "--terms", "x,y"],
        ["rotate-all", "--terms", "x,y"],
        ["diagnose", "--model", "nonresponse", "--terms", "x,y"],
    ], ids=["rotation", "rotate-all", "diagnose"])
    def test_sums_in_data_units_overflow_exit_4(self, tmp_path, capsys, argv):
        # A rotation's residuals and the separation sums are in the data's
        # units; their squares at 1e200 leave the float range.
        p = tmp_path / "big.csv"
        p.write_text("x,y\n" + "".join(f"{x * 1e200!r},{y * 1e200!r}\n" for x, y in self.ROWS))
        code = main(argv + ["--input", str(p)])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == ("error: a sum of squares is beyond the float range; "
                                           "rescale the data\n")

    def test_column_norm_beyond_float_range_exits_4(self, tmp_path, capsys):
        # Every entry is finite, but the norm of the x column is about 2.8e308.
        p = tmp_path / "huge.csv"
        p.write_text("x,y\n1.5e308,1e300\n1.2e308,2e300\n1.7e308,3e300\n1.1e308,1e300\n")
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "x,y"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == ("error: a column of the design has a norm beyond the "
                                           "float range; rescale the data\n")

class TestRotateAll:
    @pytest.mark.parametrize("argv", [
        ["rotate-all", "--terms", "x"],
        ["fit", "--model", "rotation:x", "--terms", "x"],
        ["diagnose", "--model", "rotation:x", "--terms", "x"],
    ], ids=["rotate-all", "fit", "diagnose"])
    def test_single_term_exits_2(self, tmp_path, capsys, argv):
        code = main(argv + ["--input", str(line_csv(tmp_path))])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: a rotation needs at least two terms\n"

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


class TestConicGeometryRefusals:
    @pytest.mark.parametrize("coeffs, message", [
        ((0, 0, 0, -1, -1), "quadratic form is not definite against the constant"),
        ((0, 0, 0, 1, 1, 0), "centered constant vanishes; no unit-constant form"),
    ], ids=["no-real-points", "not-representable"])
    def test_become_a_warning(self, coeffs, message):
        # The class is reported; the geometry is not, and the warning says why.
        warnings = []
        out = cli._conic_dict(conics.ConicCoeffs(*coeffs), warnings)
        assert warnings == [message]
        assert out == {"class": "Circle", "coeffs": [float(v) for v in coeffs[:5]]}


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

    def test_mean_only_standard_fit_is_no_perfect_fit(self, tmp_path, capsys):
        # y on x over a circle centred on the origin: the fit is the mean.
        code, rep = run_json(capsys, [
            "diagnose", "--input", str(circle_csv(tmp_path)),
            "--model", "standard", "--response-col", "y"])
        assert code == EXIT_OK
        assert rep["separation"]["perfect_fit"] is False
        assert rep["separation"]["theta_t"] is None
        assert rep["warnings"] == ["the model explains no variation (SSM = 0), so the "
                                   "separation angles are undefined"]

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


    def test_pinwheel_without_unit_constant_line(self, tmp_path, capsys):
        theta = np.arange(6) * math.pi / 3
        p = tmp_path / "centred.csv"
        p.write_text("x,y\n" + "".join(f"{2 * math.cos(t)!r},{2 * math.sin(t)!r}\n"
                                          for t in theta))
        argv = ["diagnose", "--input", str(p), "--model", "nonresponse", "--terms", "x,y"]
        code, rep = run_json(capsys, argv)
        assert code == EXIT_OK
        unit = rep["pinwheel"][2]
        assert set(unit) == {"label", "slope", "intercept", "vertical", "x_value", "raw_coeffs"}
        assert (unit["slope"], unit["intercept"], unit["vertical"]) == (None, None, False)
        assert rep["pinwheel"][1]["vertical"]
        assert any("centred on the origin" in w for w in rep["warnings"])
        assert main(argv) == EXIT_OK
        assert "  nonresponse line: none\n" in capsys.readouterr().out

    def test_all_zero_conic_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        fit = fitters.fit_nonresponse
        monkeypatch.setattr(fitters, "fit_nonresponse", lambda d, t: dataclasses.replace(
            fit(d, t), coeffs=np.zeros(len(t))))
        argv = ["diagnose", "--input", str(circle_csv(tmp_path)),
                "--model", "nonresponse", "--terms", "x,y,xy,x2,y2"]
        assert main(argv) == EXIT_INPUT
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: at least one coefficient must be nonzero\n")

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

    @pytest.mark.parametrize("kind, params, sample", [
        ("line", "1,2", simulate.Line(1.0, 2.0)),
        ("circle", "3,-2,2", simulate.Circle(3.0, -2.0, 2.0)),
        ("ellipse", "3,-2,2,1,0.5", simulate.Ellipse(3.0, -2.0, 2.0, 1.0, 0.5)),
        ("normal", "1,2", simulate.ConstantNormal(1.0, 2.0)),
        ("uniform", "-1,3", simulate.Uniform(-1.0, 3.0)),
    ])
    def test_bytes_are_repr_rows(self, tmp_path, capsys, kind, params, sample):
        # Three row blocks, the last of three rows, through stdout and --out-file.
        n = 2 * terms.ROW_BLOCK + 3
        out = simulate.generate(simulate.GeneratorSpec(sample, n, 0.05, 9))
        if isinstance(out, terms.Dataset):
            ref = "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(out.x, out.y))
        else:
            ref = "y\n" + "".join(f"{float(v)!r}\n" for v in out)
        argv = ["simulate", "--kind", kind, f"--params={params}", "--n", str(n),
                "--noise", "0.05", "--seed", "9"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == ref
        path = tmp_path / "sim.csv"
        assert main(argv + ["--out-file", str(path)]) == EXIT_OK
        assert path.read_bytes() == ref.encode()

    @pytest.mark.parametrize("params", ["0,0,2", "-0.0,-0.0,1", "3,-2,0.5"])
    @pytest.mark.parametrize("seed", [0, 1, 42, 7])
    def test_circle_bytes_match_the_circle_formula(self, capsys, params, seed):
        # The reference draws theta, then the x and y noise, from the seed's
        # generator and puts each point at (cx + r cos theta, cy + r sin theta).
        cx, cy, r = map(float, params.split(","))
        n, noise = 2 * terms.ROW_BLOCK + 3, 0.05
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2 * math.pi, size=n)
        x = cx + r * np.cos(theta) + rng.normal(0.0, noise, size=n)
        y = cy + r * np.sin(theta) + rng.normal(0.0, noise, size=n)
        ref = "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        assert main(["simulate", "--kind", "circle", f"--params={params}", "--n", str(n),
                     "--noise", str(noise), "--seed", str(seed)]) == EXIT_OK
        assert capsys.readouterr().out == ref

    def test_closed_pipe_exits_2_with_one_line(self):
        # As `simulate ... | head -1`: the reader leaves after the header.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "implicitreg.cli", "simulate", "--kind", "ellipse",
             "--params", "3,-2,2,1,0.5", "--n", str(3 * terms.ROW_BLOCK), "--noise", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"x,y\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (EXIT_INPUT, b"error: [Errno 32] Broken pipe\n")


class TestOutFile:
    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--kind", "circle", "--params", "0,0", "--n", "5"], EXIT_INPUT),
        (["fit", "--input", "{tmp}/absent.csv", "--model", "nonresponse"], EXIT_INPUT),
        (["diagnose", "--input", "{circle}", "--model", "univariate"], EXIT_INPUT),
        (["rotate-all", "--input", "{circle}", "--terms", "x"], EXIT_INPUT),
        (["fit", "--input", "{circle}", "--model", "nonresponse", "--terms", "x^-0.5,y"],
         EXIT_DOMAIN),
        (["convert", "--direction", "beta-from-alpha", "--values", "0,1"], EXIT_DEGENERATE),
    ], ids=["simulate", "fit", "diagnose", "rotate-all", "domain", "convert"])
    def test_failing_command_creates_no_file(self, tmp_path, capsys, argv, code):
        circle = circle_csv(tmp_path)
        out = tmp_path / "out.txt"
        argv = [a.format(tmp=tmp_path, circle=circle) for a in argv]
        assert main(argv + ["--out-file", str(out)]) == code
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_file_holds_what_stdout_shows(self, tmp_path, capsys, output):
        argv = ["diagnose", "--input", str(circle_csv(tmp_path)), "--model", "nonresponse",
                "--terms", "x,y,xy,x2,y2", "--output", output]
        assert main(argv) == EXIT_OK
        shown = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(argv + ["--out-file", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "" and out.read_text() == shown


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


class TestStrictJson:
    """Every JSON report parses under a parser that rejects NaN and Infinity."""

    @staticmethod
    def strict(text):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        return json.loads(text, parse_constant=reject)

    def test_undefined_sigma2_is_null(self, tmp_path, capsys):
        # Two rows for two terms: the fit is exact and sigma2 has no degrees of freedom.
        p = tmp_path / "two.csv"
        p.write_text("x,y\n1,2\n3,1\n")
        code = main(["fit", "--input", str(p), "--model", "nonresponse", "--terms", "x,y",
                     "--output", "json"])
        assert code == EXIT_OK
        rep = self.strict(capsys.readouterr().out)
        assert rep["sigma2_hat"] is None
        assert [c["stderr"] for c in rep["coefficients"]] == [None, None]

    def test_rotate_all_parses(self, tmp_path, capsys):
        p = tmp_path / "three.csv"
        p.write_text("x,y\n1,2\n3,1\n2,5\n")
        code = main(["rotate-all", "--input", str(p), "--terms", "x,y,xy", "--output", "json"])
        assert code == EXIT_OK
        reports = self.strict(capsys.readouterr().out)
        assert len(reports) == 3 and all(r["sigma2_hat"] is None for r in reports)

    @pytest.mark.parametrize("flag, argv", [
        ("--values", ["convert", "--direction", "beta-from-alpha", "--values", "nan,1"]),
        ("--values", ["convert", "--direction", "alpha-from-beta", "--values", "1,inf"]),
        ("--params", ["simulate", "--kind", "circle", "--params", "0,0,nan", "--n", "5"]),
    ], ids=["convert-nan", "convert-inf", "simulate-nan"])
    def test_non_finite_number_exits_2(self, capsys, flag, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    @pytest.mark.parametrize("direction", ["beta-from-alpha", "alpha-from-beta"])
    def test_conversion_overflow_exits_4(self, capsys, recwarn, direction):
        code = main(["convert", "--direction", direction, "--values", "1e-320,1",
                     "--output", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert not recwarn.list


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
