"""Results that do not depend on the data's units: the separation
diagnostics, the conic class and geometry, and sums of squares at the edges
of the float range."""

import functools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_condition
from implicitreg import (
    ConicClass,
    ConicCoeffs,
    Dataset,
    FitResult,
    MultiDataset,
    classify_conic,
    fit_all_rotations,
    fit_nonresponse,
    fit_rotation,
    fit_standard,
    parse_terms,
    pinwheel_data,
    separation_bivariate,
    separation_from_conic,
    separation_univariate,
)
from implicitreg.cli import EXIT_DOMAIN, EXIT_OK, main
from implicitreg.errors import (
    DomainError,
    DomainViolation,
    SingularSystem,
    SumOfSquaresOverflow,
    ZeroVariance,
)
from implicitreg.simulate import Ellipse, GeneratorSpec, generate

EPS = float(np.finfo(float).eps)
CONIC = "x,y,xy,x2,y2"
BENCH = generate(GeneratorSpec(Ellipse(3.0, -2.0, 2.0, 1.0, 0.5), 2000, 0.05, 1))
S2 = math.sqrt(2.0)
CIRCLE = Dataset([2.0, -2.0, 0.0, 0.0, S2, S2], [0.0, 0.0, 2.0, -2.0, S2, -S2])
UNDERFLOW = "error: a sum of squares underflows: it is below the normal float range; " \
            "rescale the data\n"
OVERFLOW = "error: a sum of squares is beyond the float range; rescale the data\n"


def diagnose(x, y) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = os.path.join(tmp, "d.csv"), os.path.join(tmp, "out.json")
        with open(csv, "w") as fh:
            fh.write("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        assert main(["diagnose", "--input", csv, "--model", "nonresponse", "--terms", CONIC,
                     "--output", "json", "--out-file", out]) == EXIT_OK
        with open(out) as fh:
            return json.load(fh)


@functools.cache
def at_unit_scale(name):
    d = {"bench": BENCH, "circle": CIRCLE}[name]
    return diagnose(d.x, d.y)


@given(st.integers(-12, 12))
@settings(max_examples=30, deadline=None)
def test_diagnose_is_free_of_units(k):
    # Scaling rounds each value once, which moves the fit by up to cond^2 *
    # eps relative (as in test_scaling_x_scales_coefficients); the sums,
    # angles and geometry are smooth functions of it.
    s = 10.0 ** k
    terms = parse_terms(CONIC)
    tol = unit_condition(*(t.evaluate(BENCH.x, BENCH.y) for t in terms)) ** 2 * EPS
    base, rep = at_unit_scale("bench"), diagnose(BENCH.x * s, BENCH.y * s)
    sep, ref = rep["separation"], base["separation"]
    assert (sep["perfect_fit"], sep["unreconstructed"]) == (ref["perfect_fit"],
                                                            ref["unreconstructed"])
    for key in ("theta_t", "theta_m", "theta_e", "ratio"):
        assert sep[key] == pytest.approx(ref[key], rel=tol), key
    for key in ("sst", "ssm", "sse"):
        assert sep[key] / s**2 == pytest.approx(ref[key], rel=tol), key
    assert rep["conic"]["class"] == base["conic"]["class"] == "Ellipse"
    for key in ("center", "semi_axes"):
        assert np.array(rep["conic"][key]) / s == pytest.approx(base["conic"][key], rel=tol)
    assert rep["warnings"] == base["warnings"] == []

    # An exact circle stays a perfect fit of radius 2 at the origin.
    circle = diagnose(CIRCLE.x * s, CIRCLE.y * s)
    assert circle["separation"]["perfect_fit"] and circle["warnings"] == ["PerfectFit"]
    assert np.array(circle["conic"]["semi_axes"]) / s == pytest.approx([2.0, 2.0], rel=1e-12)
    assert np.abs(circle["conic"]["center"]).max() / s <= 1e-12


coefficient = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@given(st.lists(coefficient, min_size=5, max_size=5).filter(any), st.integers(-150, 150))
@settings(max_examples=200, deadline=None)
def test_conic_class_is_free_of_units(a, k):
    # Scaling x and y by s = 2^k divides the linear coefficients by s and the
    # quadratic ones by s^2, exactly; the class must not change at all.
    s = 2.0 ** k
    scaled = ConicCoeffs(a[0] / s, a[1] / s, a[2] / s**2, a[3] / s**2, a[4] / s**2)
    assert classify_conic(scaled) is classify_conic(ConicCoeffs(*a))


@pytest.mark.parametrize("c, kind", [
    (ConicCoeffs(1e-10, 1e-10, 0, 1e-20, 0), ConicClass.PARABOLA),
    (ConicCoeffs(1e-6, 0, 0, 1e-12, 2e-12), ConicClass.ELLIPSE),
    (ConicCoeffs(1e6, 1e6, 0, 1e-9, 1e-9), ConicClass.DEGENERATE_OR_LINE),
])
def test_conic_class_of_scaled_shapes(c, kind):
    # 1 = x + y + x^2 with x and y in units of 1e10 is a parabola, not a
    # line, and 1 = x + x^2 + 2y^2 in units of 1e6 is an ellipse, not a
    # parabola; a quadratic part 1e-21 times the squared linear part is absent.
    assert classify_conic(c) is kind


class TestNullAngles:
    def test_nothing_reconstructed_is_no_perfect_fit(self):
        x, y = np.array([1.0, 2.0, 4.0]), np.array([3.0, 1.0, 2.0])
        lost = np.full(3, np.nan)
        d = separation_bivariate(x, lost, y, lost)
        assert (d.theta_t, d.ssm, d.perfect_fit, d.unreconstructed) == (None, 0.0, False, 3)
        assert d.warning == ("the model explains no variation (SSM = 0), so the separation "
                             "angles are undefined; 3 observations were not reconstructed")

    def test_exact_fit_warns_perfect_fit(self):
        y = np.array([0.0, 1.0, 1.0])
        assert separation_univariate(y, y).warning == "PerfectFit"
        assert separation_univariate(y, y + [0.1, -0.2, 0.1]).warning is None

    def test_origin_centred_circle_names_the_cause(self, tmp_path, capsys):
        # The unit-constant line does not exist, so no row is reconstructed.
        p = tmp_path / "centred.csv"
        theta = np.arange(6) * math.pi / 3
        p.write_text("x,y\n" + "".join(f"{2 * math.cos(t)!r},{2 * math.sin(t)!r}\n"
                                          for t in theta))
        assert main(["diagnose", "--input", str(p), "--model", "nonresponse", "--terms", "x,y",
                     "--output", "json"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["separation"]["perfect_fit"] is False
        assert rep["separation"]["theta_t"] is None
        assert "PerfectFit" not in rep["warnings"]
        assert any("explains no variation" in w and "6 observations" in w
                   for w in rep["warnings"])

    @pytest.mark.parametrize("scale", [1e-9, 1e-300])
    def test_small_constant_data_has_no_variation(self, scale):
        ones = np.full(4, 0.1 * scale)
        with pytest.raises(ZeroVariance, match="no total variation"):
            separation_bivariate(ones, ones, ones, ones + [0, 0.1 * scale, 0, 0])


class TestUnderflow:
    ROWS = [(1.0, 3.0), (2.0, 1.0), (3.0, 4.0), (4.0, 2.0), (5.0, 6.0)]

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "rotation:y", "--terms", "x,y"],
        ["fit", "--model", "standard"],
        ["diagnose", "--model", "nonresponse", "--terms", "x,y"],
    ], ids=["rotation", "standard", "diagnose"])
    def test_sums_in_data_units_underflow_exit_4(self, tmp_path, capsys, argv):
        # Squares of deviations near 1e-200 underflow to 0; that is not zero
        # variation.
        p = tmp_path / "tiny.csv"
        p.write_text("x,y\n" + "".join(f"{x * 1e-200!r},{y * 1e-200!r}\n" for x, y in self.ROWS))
        assert main(argv + ["--input", str(p)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == UNDERFLOW

    @pytest.mark.parametrize("scale, message", [(1e-200, UNDERFLOW), (1e200, OVERFLOW)])
    def test_univariate_sum_of_squares_out_of_range_exits_4(self, tmp_path, capsys, scale,
                                                            message):
        p = tmp_path / "y.csv"
        p.write_text("x,y\n" + "".join(f"{x * scale!r},{y * scale!r}\n" for x, y in self.ROWS))
        assert main(["fit", "--model", "univariate", "--input", str(p)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == message

    def test_separation(self):
        y = np.array([1.0, 2.0, 4.0]) * 1e-200
        with pytest.raises(SumOfSquaresOverflow, match="underflows"):
            separation_univariate(y, y * 1.5)


# The bench ellipse scaled by 10^k: every k in the bands where some result
# starts to leave the float range, and every fifth k between.
EDGES = [(-323, -300), (-165, -145), (-80, -70), (5, 15), (70, 80), (145, 160), (295, 306)]
POWERS = sorted({*range(-323, 307, 5), *(k for lo, hi in EDGES for k in range(lo, hi + 1))})
OUT_OF_RANGE = (DomainError, DomainViolation, SumOfSquaresOverflow, SingularSystem)
XY = "x,y"


def _unitless(fit: FitResult) -> list:
    """R^2, F and the t statistics of a fit whose coefficients and standard
    errors are finite."""
    assert np.isfinite(fit.coeffs).all() and np.isfinite(fit.stderr).all()
    return [fit.r_squared, fit.f_stat, *fit.t_stats]


def _rotations(d, terms) -> list:
    # A pivot may hold its own out-of-range refusal while the others fit.
    return [f if isinstance(f, OUT_OF_RANGE) else _unitless(f)
            for f in fit_all_rotations(d, parse_terms(terms))]


def _pinwheel(d) -> list:
    lines = pinwheel_data(d)
    assert all(math.isfinite(v) for line in lines for v in line.raw_coeffs)
    return [line.slope for line in lines]


def _angles(d, terms) -> list:
    sep = separation_from_conic(ConicCoeffs.from_fit(fit_nonresponse(d, parse_terms(terms))), d)
    if sep.theta_t is None and terms == XY and sep.unreconstructed == d.n:
        # TOL_DENOM compares the x,y line's y coefficient absolutely, so from
        # about 1e12 on every row is free and the angles are null (ROADMAP
        # item 3): a known defect, not this property's.
        return None
    return [sep.theta_t, sep.theta_m, sep.ratio]


SCANNED = {
    "nonresponse_xy": lambda d: _unitless(fit_nonresponse(d, parse_terms(XY))),
    "nonresponse_conic": lambda d: _unitless(fit_nonresponse(d, parse_terms(CONIC))),
    "rotation_xy": lambda d: _unitless(fit_rotation(d, parse_terms(XY), 1)),
    "rotation_conic": lambda d: _unitless(fit_rotation(d, parse_terms(CONIC), 1)),
    "all_rotations_xy": lambda d: _rotations(d, XY),
    "all_rotations_conic": lambda d: _rotations(d, CONIC),
    "standard": lambda d: _unitless(fit_standard(MultiDataset(d.y, d.x, ("x",)))),
    "pinwheel": _pinwheel,
    "separation_xy": lambda d: _angles(d, XY),
    "separation_conic": lambda d: _angles(d, CONIC),
}


def _same(got, want, k):
    if isinstance(got, OUT_OF_RANGE) or got is None:
        return
    if isinstance(got, list):
        assert len(got) == len(want), k
        for g, w in zip(got, want):
            _same(g, w, k)
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0), k


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", SCANNED)
def test_results_across_the_float_range(name):
    # At every scale a result either holds, finite and equal to the unscaled
    # unitless statistics and angles, or is refused as out of range; no
    # other exception and no RuntimeWarning.
    check = SCANNED[name]
    want = check(BENCH)
    for k in POWERS:
        d = Dataset(BENCH.x * 10.0 ** k, BENCH.y * 10.0 ** k)
        try:
            got = check(d)
        except OUT_OF_RANGE:
            continue
        _same(got, want, k)
