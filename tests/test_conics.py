import dataclasses
import itertools
import math

import numpy as np
import pytest

from implicitreg import (
    CONIC_TERMS,
    Circle,
    ConicClass,
    ConicCoeffs,
    Dataset,
    Ellipse,
    GeneratorSpec,
    Line,
    classify_conic,
    conic_geometry,
    fit_nonresponse,
    fit_rotation,
    generate,
    invert_rotation_linear,
    parse_terms,
    solve_for_x,
    solve_for_y,
)
from implicitreg.conics import ellipse_points
from implicitreg.errors import InvalidSpec, NoSolutionAtPoint, NotAnEllipse, PoleAtPoint

UNIT_CIRCLE = ConicCoeffs(0, 0, 0, 1, 1)


class TestSolveForY:
    def test_circle_at_zero(self):
        assert solve_for_y(UNIT_CIRCLE, 0.0) == [-1.0, 1.0]

    def test_tangent_double_root(self):
        roots = solve_for_y(UNIT_CIRCLE, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-12)

    def test_outside_circle(self):
        assert solve_for_y(UNIT_CIRCLE, 2.0) == []

    def test_rounded_tangent_snaps_to_double_root(self):
        # the discriminant at x = 1 + 4e-16 is about -9e-16, within TOL_DISC
        assert solve_for_y(UNIT_CIRCLE, 1.0 + 4e-16) == [0.0]

    @pytest.mark.parametrize("b", [1e8, -1e8])
    def test_small_root_without_cancellation(self, b):
        # y^2 + b*y - 1 = 0: the small root is 1/b to first order
        roots = solve_for_y(ConicCoeffs(0, b, 0, 0, 1), 0.0)
        small = min(roots, key=abs)
        assert small == pytest.approx(1 / b, rel=1e-12)

    def test_linear_degrade(self):
        line = ConicCoeffs(1, 1, 0, 0, 0)   # 1 = x + y
        assert solve_for_y(line, 0.25) == [0.75]

    def test_no_solution_at_point(self):
        c = ConicCoeffs(1, 0, 0, 1, 0)      # 1 = x + x^2, y free
        with pytest.raises(NoSolutionAtPoint):
            solve_for_y(c, 2.0)

    def test_root_consistency(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            c = ConicCoeffs(*rng.uniform(-1, 1, size=5))
            x = float(rng.uniform(-3, 3))
            try:
                roots = solve_for_y(c, x)
            except NoSolutionAtPoint:
                continue
            for y in roots:
                res = c.a5 * y * y + (c.a2 + c.a3 * x) * y + c.a1 * x + c.a4 * x * x - 1.0
                assert abs(res) <= 1e-9 * (1.0 + abs(x) + y * y)


class TestSolveForX:
    def test_circle_symmetry(self):
        assert solve_for_x(UNIT_CIRCLE, 0.0) == [-1.0, 1.0]

    def test_line(self):
        assert solve_for_x(ConicCoeffs(1, 1, 0, 0, 0), 0.25) == [0.75]

    def test_outside(self):
        assert solve_for_x(UNIT_CIRCLE, 3.0) == []

    def test_swap_symmetry(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            c = ConicCoeffs(*rng.uniform(-1, 1, size=5))
            v = float(rng.uniform(-2, 2))
            try:
                a = solve_for_x(c.swapped(), v)
                b = solve_for_y(c, v)
            except NoSolutionAtPoint:
                continue
            assert a == b


class TestInvertRotationLinear:
    def _fit(self, a0, a1, a2):
        # Build exact data consistent with y = a0 + a1*x + a2*xy and fit it.
        x = np.array([0.1, 0.4, 0.7, 2.0, 3.0])
        y = (a0 + a1 * x) / (1 - a2 * x)
        return fit_rotation(Dataset(x, y), parse_terms("x,y,xy"), pivot=1)

    def test_line_degenerate(self):
        f = self._fit(1.0, 2.0, 0.0)
        assert invert_rotation_linear(f, 3.0, "for_y") == pytest.approx(7.0, abs=1e-9)

    def test_pole(self):
        # data exactly on y*(1 - x) = 0, so the fit is (0, 0, 1)
        d = Dataset([0.0, 2.0, 1.0, 1.0, 3.0], [0.0, 0.0, 5.0, -3.0, 0.0])
        f = fit_rotation(d, parse_terms("x,y,xy"), pivot=1)
        np.testing.assert_allclose(f.coeffs, [0, 0, 1], atol=1e-10)
        with pytest.raises(PoleAtPoint):
            invert_rotation_linear(f, 1.0, "for_y")

    def test_round_trip(self):
        f = self._fit(1.0, 1.0, 1.0)
        y = invert_rotation_linear(f, 0.5, "for_y")
        assert y == pytest.approx(3.0, abs=1e-8)
        assert invert_rotation_linear(f, y, "for_x") == pytest.approx(0.5, abs=1e-8)

    def test_wrong_shape(self):
        x = np.array([0.0, 1.0, 2.0])
        f = fit_rotation(Dataset(x, 2 * x + 1), parse_terms("x,y"), pivot=1)
        with pytest.raises(InvalidSpec):
            invert_rotation_linear(f, 1.0, "for_y")


class TestNonFinite:
    """A non-finite coefficient or point is refused, not read as an answer."""

    @pytest.mark.parametrize("slot", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coefficient_refused(self, slot, value):
        a = [0.0, 0.0, 0.0, 1.0, 1.0]
        a[slot] = value
        with pytest.raises(InvalidSpec, match="coefficients must be finite"):
            ConicCoeffs(*a)

    @pytest.mark.parametrize("solve", [solve_for_y, solve_for_x])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_point_refused_by_the_solvers(self, solve, value):
        with pytest.raises(InvalidSpec, match="point must be finite"):
            solve(UNIT_CIRCLE, value)

    @pytest.mark.parametrize("which", ["for_y", "for_x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_point_refused_by_the_rational_inversion(self, which, value):
        x = np.array([0.1, 0.4, 0.7, 2.0, 3.0])
        f = fit_rotation(Dataset(x, (1 + x) / (1 - 0.1 * x)), parse_terms("x,y,xy"), pivot=1)
        with pytest.raises(InvalidSpec, match="point must be finite"):
            invert_rotation_linear(f, value, which)


class TestClassify:
    def test_circle(self):
        assert classify_conic(ConicCoeffs(0, 0, 0, 0.25, 0.25)) is ConicClass.CIRCLE

    def test_hyperbola(self):
        assert classify_conic(ConicCoeffs(0, 0, 1, 0, 0)) is ConicClass.HYPERBOLA

    def test_line(self):
        assert classify_conic(ConicCoeffs(1, 1, 0, 0, 0)) is ConicClass.DEGENERATE_OR_LINE

    def test_ellipse(self):
        assert classify_conic(ConicCoeffs(0, 0, 0, 0.25, 1.0)) is ConicClass.ELLIPSE

    def test_parabola(self):
        assert classify_conic(ConicCoeffs(1, 1, 0, 1, 0)) is ConicClass.PARABOLA

    def test_scale_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            c = ConicCoeffs(*rng.uniform(-1, 1, size=5))
            scale = float(rng.uniform(0.01, 100.0))
            scaled = ConicCoeffs(*(scale * c.as_array()))
            assert classify_conic(c) is classify_conic(scaled)


class TestGeometry:
    def test_circle_radius_two(self):
        g = conic_geometry(ConicCoeffs(0, 0, 0, 0.25, 0.25))
        assert g.center == pytest.approx((0.0, 0.0), abs=1e-12)
        assert g.semi_axes == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_axis_aligned_ellipse(self):
        g = conic_geometry(ConicCoeffs(0, 0, 0, 0.25, 1.0))
        assert g.semi_axes == pytest.approx((2.0, 1.0), abs=1e-12)
        assert g.rotation == pytest.approx(0.0, abs=1e-12)

    def test_shifted_circle(self):
        # (x-3)^2 + (y-4)^2 = 16, normalized to unit constant:
        # 1 = (6x + 8y - x^2 - y^2)/9
        c = ConicCoeffs(6 / 9, 8 / 9, 0, -1 / 9, -1 / 9)
        g = conic_geometry(c)
        assert g.center == pytest.approx((3.0, 4.0), abs=1e-9)
        assert g.semi_axes == pytest.approx((4.0, 4.0), abs=1e-9)

    def test_not_an_ellipse(self):
        with pytest.raises(NotAnEllipse):
            conic_geometry(ConicCoeffs(0, 0, 1, 0, 0))

    def test_parametric_round_trip(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            cx, cy = rng.uniform(-1, 1, size=2)
            ax, ay = rng.uniform(0.5, 2.0, size=2)
            rot = float(rng.uniform(0, math.pi))
            c = _ellipse_coeffs(cx, cy, ax, ay, rot)
            if c is None:
                continue
            g = conic_geometry(c)
            for x, y in ellipse_points(g, 32):
                assert abs(c.evaluate(x, y) - 1.0) <= 1e-9


def _ellipse_coeffs(cx, cy, ax, ay, rot):
    """Unit-constant coefficients of a parametric ellipse, or None when the
    constant term vanishes (not representable)."""
    cr, sr = math.cos(rot), math.sin(rot)
    # quadratic form M of the centered ellipse u'Mu = 1
    R = np.array([[cr, -sr], [sr, cr]])
    M = R @ np.diag([1 / ax**2, 1 / ay**2]) @ R.T
    center = np.array([cx, cy])
    # expand (p - c)' M (p - c) = 1 into unit-constant form
    const = 1.0 - float(center @ M @ center)
    if abs(const) < 1e-6:
        return None
    lin = -2.0 * M @ center / const
    quad = M / const
    return ConicCoeffs(lin[0], lin[1], 2.0 * quad[0, 1], quad[0, 0], quad[1, 1])


class TestFromFit:
    """ConicCoeffs.from_fit places each coefficient by its term, whatever the
    order of the fit's terms."""

    ELLIPSE = generate(GeneratorSpec(Ellipse(1.0, -0.5, 2.0, 1.0, 0.5), n=400,
                                     noise_sigma=0.05, seed=1))

    @pytest.mark.parametrize("order", list(itertools.permutations(CONIC_TERMS)),
                             ids=lambda order: ",".join(map(str, order)))
    def test_every_order_matches_the_conic_terms_order(self, order):
        positional = ConicCoeffs(*fit_nonresponse(self.ELLIPSE, CONIC_TERMS).coeffs)
        by_term = ConicCoeffs.from_fit(fit_nonresponse(self.ELLIPSE, order))
        np.testing.assert_allclose(by_term.as_array(), positional.as_array(), rtol=1e-12)

    def test_subset_of_squares(self):
        f = fit_nonresponse(self.ELLIPSE, parse_terms("x2,y2"))
        np.testing.assert_allclose(ConicCoeffs.from_fit(f).as_array(),
                                   ConicCoeffs(0, 0, 0, *f.coeffs).as_array(), rtol=1e-12)

    def test_subset_in_reverse_order(self):
        positional = ConicCoeffs(*fit_nonresponse(self.ELLIPSE, parse_terms("x,y,xy")).coeffs)
        by_term = ConicCoeffs.from_fit(fit_nonresponse(self.ELLIPSE, parse_terms("xy,y,x")))
        np.testing.assert_allclose(by_term.as_array(), positional.as_array(), rtol=1e-12)

    @pytest.mark.parametrize("spec", ["x,y,x2,y2", "y2,x2,y,x"])
    def test_circle_without_xy_in_any_order(self, spec):
        # Read positionally, these fits are hyperbolas and have no centre.
        d = generate(GeneratorSpec(Circle(1.0, -0.5, 2.0), n=2000, noise_sigma=0.05, seed=0))
        g = conic_geometry(ConicCoeffs.from_fit(fit_nonresponse(d, parse_terms(spec))))
        assert g.center == pytest.approx((0.995, -0.496), abs=5e-4)

    def test_refuses_a_rotation(self):
        f = fit_rotation(self.ELLIPSE, CONIC_TERMS, pivot=4)
        with pytest.raises(InvalidSpec, match="unit-constant fit"):
            ConicCoeffs.from_fit(f)

    def test_refuses_a_term_outside_the_conic_set(self):
        f = fit_nonresponse(self.ELLIPSE, parse_terms("x,y,x^3"))
        with pytest.raises(InvalidSpec, match="unit-constant fit"):
            ConicCoeffs.from_fit(f)

    def test_refuses_all_zero_coefficients(self):
        f = dataclasses.replace(fit_nonresponse(self.ELLIPSE, CONIC_TERMS), coeffs=np.zeros(5))
        with pytest.raises(InvalidSpec, match="at least one coefficient must be nonzero"):
            ConicCoeffs.from_fit(f)


class TestSolverNames:
    def test_solve_for_x_names_x(self):
        # 1 = y + y^2: at y = 2.0 every x and none is a root
        with pytest.raises(NoSolutionAtPoint, match=r"^no x solves the relation at y = 2\.0$"):
            solve_for_x(ConicCoeffs(0, 1, 0, 0, 1), 2.0)

    def test_solve_for_y_names_y(self):
        with pytest.raises(NoSolutionAtPoint, match=r"^no y solves the relation at x = 2\.0$"):
            solve_for_y(ConicCoeffs(1, 0, 0, 1, 0), 2.0)


class TestRotationByLabel:
    """invert_rotation_linear reads the rotation of y on const, x and xy by
    label and refuses every other fit, also one with 3 coefficients."""

    LINE = generate(GeneratorSpec(Line(1.0, 2.0), n=200, noise_sigma=0.1, seed=3))

    @pytest.mark.parametrize("fit", [
        lambda d: fit_nonresponse(d, parse_terms("x,y,xy")),
        lambda d: fit_rotation(d, parse_terms("x,y,xy"), pivot=0),
        lambda d: fit_rotation(d, parse_terms("x,y,x2"), pivot=1),
    ], ids=["unit-constant", "rotation-of-x", "rotation-on-x2"])
    @pytest.mark.parametrize("which", ["for_y", "for_x"])
    def test_refuses_other_three_coefficient_fits(self, fit, which):
        f = fit(self.LINE)
        assert len(f.coeffs) == 3
        with pytest.raises(InvalidSpec, match="rotation of y on an intercept, x and xy"):
            invert_rotation_linear(f, 2.0, which)

    @pytest.mark.parametrize("which, at", [("for_y", 2.0), ("for_x", 5.0)])
    def test_term_order_does_not_matter(self, which, at):
        f = fit_rotation(self.LINE, parse_terms("x,y,xy"), pivot=1)
        g = fit_rotation(self.LINE, parse_terms("xy,x,y"), pivot=2)
        assert invert_rotation_linear(g, at, which) == pytest.approx(
            invert_rotation_linear(f, at, which), rel=1e-12)
