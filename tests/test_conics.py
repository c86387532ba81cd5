import dataclasses
import itertools
import math
import re
from fractions import Fraction

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
    MultiDataset,
    Term,
    alpha_from_beta,
    classify_conic,
    conic_geometry,
    fit_nonresponse,
    fit_rotation,
    fit_standard,
    generate,
    parse_terms,
    solve_for_y,
)
from implicitreg.conics import TOL_DENOM, TOL_DISC, _scaled_roots, y_roots
from implicitreg.errors import InvalidSpec, NoSolutionAtPoint, NotAnEllipse, NotRepresentable

UNIT_CIRCLE = ConicCoeffs(0, 0, 0, 1, 1)


def _solve_rotation(fit, at, which):
    """The roots of a rotation's relation (ConicCoeffs.from_fit): its y at
    x = at ("for_y"), or its x at y = at ("for_x") on the swapped relation."""
    c = ConicCoeffs.from_fit(fit)
    return solve_for_y(c if which == "for_y" else c.swapped(), at)


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
    """The x at a given y is solve_for_y on the swapped relation."""

    def test_circle_symmetry(self):
        assert solve_for_y(UNIT_CIRCLE.swapped(), 0.0) == [-1.0, 1.0]

    def test_line(self):
        assert solve_for_y(ConicCoeffs(1, 1, 0, 0, 0).swapped(), 0.25) == [0.75]

    def test_outside(self):
        assert solve_for_y(UNIT_CIRCLE.swapped(), 3.0) == []

    def test_swap_symmetry(self):
        # Each root x at y = v satisfies the unswapped relation within a few
        # eps of its rounding scale, and there are as many as the quadratic
        # a4*x^2 + (a1 + a3*v)*x + (a2*v + a5*v^2 - c0) has real roots.
        rng = np.random.default_rng(59)
        for _ in range(50):
            c = ConicCoeffs(*rng.uniform(-1, 1, size=5))
            v = float(rng.uniform(-2, 2))
            roots = solve_for_y(c.swapped(), v)
            quadratic = np.roots([c.a4, c.a1 + c.a3 * v, c.a2 * v + c.a5 * v * v - c.c0])
            assert len(roots) == np.count_nonzero(quadratic.imag == 0)
            for x in roots:
                scale = abs(c.c0) + sum(abs(a * t.evaluate(x, v))
                                        for a, t in zip(c.as_array(), CONIC_TERMS))
                assert abs(c.evaluate(x, v) - c.c0) <= 4 * np.finfo(float).eps * scale


class TestInvertRotationLinear:
    """The rotation y = a0 + a1*x + a2*xy, inverted by solving its relation."""

    def _fit(self, a0, a1, a2):
        # Build exact data consistent with y = a0 + a1*x + a2*xy and fit it.
        x = np.array([0.1, 0.4, 0.7, 2.0, 3.0])
        y = (a0 + a1 * x) / (1 - a2 * x)
        return fit_rotation(Dataset(x, y), parse_terms("x,y,xy"), pivot=1)

    def test_line_degenerate(self):
        f = self._fit(1.0, 2.0, 0.0)
        assert _solve_rotation(f, 3.0, "for_y") == [pytest.approx(7.0, abs=1e-9)]

    def test_pole(self):
        # data exactly on y*(1 - x) = 0, so the fit is (0, 0, 1)
        d = Dataset([0.0, 2.0, 1.0, 1.0, 3.0], [0.0, 0.0, 5.0, -3.0, 0.0])
        f = fit_rotation(d, parse_terms("x,y,xy"), pivot=1)
        np.testing.assert_allclose(f.coeffs, [0, 0, 1], atol=1e-10)
        with pytest.raises(NoSolutionAtPoint):
            _solve_rotation(f, 1.0, "for_y")

    def test_round_trip(self):
        f = self._fit(1.0, 1.0, 1.0)
        (y,) = _solve_rotation(f, 0.5, "for_y")
        assert y == pytest.approx(3.0, abs=1e-8)
        assert _solve_rotation(f, y, "for_x") == [pytest.approx(0.5, abs=1e-8)]


class TestNonFinite:
    """A non-finite coefficient or point is refused, not read as an answer."""

    @pytest.mark.parametrize("slot", range(6))      # a1..a5, then c0
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coefficient_refused(self, slot, value):
        a = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        a[slot] = value
        with pytest.raises(InvalidSpec, match="coefficients must be finite"):
            ConicCoeffs(*a)

    # The x-solve is solve_for_y on the swapped relation.
    @pytest.mark.parametrize("c", [UNIT_CIRCLE, UNIT_CIRCLE.swapped()],
                             ids=["solve_for_y", "solve_for_x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_point_refused_by_the_solvers(self, c, value):
        with pytest.raises(InvalidSpec, match=f"^the point must be a finite real number, "
                                              f"not {value!r}$"):
            solve_for_y(c, value)

    @pytest.mark.parametrize("which", ["for_y", "for_x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_point_refused_by_the_rational_inversion(self, which, value):
        x = np.array([0.1, 0.4, 0.7, 2.0, 3.0])
        f = fit_rotation(Dataset(x, (1 + x) / (1 - 0.1 * x)), parse_terms("x,y,xy"), pivot=1)
        with pytest.raises(InvalidSpec, match="point must be a finite real number"):
            _solve_rotation(f, value, which)

    @pytest.mark.parametrize("a, bad", [(("a", 0, 0, 1, 1), "a"), ((None, 1), None),
                                        ((1, 10**400), 10**400), ((0, 1, 1j), 1j)],
                             ids=["str", "None", "int-beyond-float-range", "complex"])
    def test_coefficient_of_the_wrong_type_is_named(self, a, bad):
        # Refused before any arithmetic, so no TypeError or OverflowError leaks.
        with pytest.raises(InvalidSpec, match=r"^the coefficients must be finite real numbers, "
                                              rf"not {re.escape(repr(bad))}$"):
            ConicCoeffs(*a)

    @pytest.mark.parametrize("value", [None, 10**400, "1", 1j],
                             ids=["None", "int-beyond-float-range", "str", "complex"])
    def test_point_of_the_wrong_type_is_named(self, value):
        with pytest.raises(InvalidSpec, match=r"^the point must be a finite real number, "
                                              rf"not {re.escape(repr(value))}$"):
            solve_for_y(UNIT_CIRCLE, value)


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

    def test_circle_class_without_real_points(self):
        # 1 = -x^2 - y^2 classifies as a circle, but no point satisfies it.
        with pytest.raises(NotAnEllipse, match="^quadratic form is not definite against the "
                                               "constant$"):
            conic_geometry(ConicCoeffs(0, 0, 0, -1, -1))

    def test_zero_centred_constant_is_not_representable(self):
        # 0 = x^2 + y^2, the point at the origin: no unit-constant form.
        with pytest.raises(NotRepresentable, match="^centered constant vanishes"):
            conic_geometry(ConicCoeffs(0, 0, 0, 1, 1, 0))

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
            d = generate(GeneratorSpec(Ellipse(*g.center, *g.semi_axes, g.rotation), n=32))
            for x, y in zip(d.x, d.y):
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

    def test_reads_a_rotation(self):
        # y2 = b0 + b1*x + ... + b4*x2 reads as b0 = -b1*x - ... - b4*x2 + y2
        f = fit_rotation(self.ELLIPSE, CONIC_TERMS, pivot=4)
        c = ConicCoeffs.from_fit(f)
        assert c.as_array().tolist() == [*(-f.coeffs[1:]), 1.0]
        assert c.c0 == f.coeffs[0]

    def test_refuses_a_response_fit(self):
        md = MultiDataset(self.ELLIPSE.y, self.ELLIPSE.x, ("x",))
        with pytest.raises(InvalidSpec, match="unit-constant fit or rotation"):
            ConicCoeffs.from_fit(fit_standard(md))

    def test_refuses_a_rotation_on_a_term_outside_the_conic_set(self):
        f = fit_rotation(self.ELLIPSE, parse_terms("x,y,x^3"), pivot=2)
        with pytest.raises(InvalidSpec, match="unit-constant fit or rotation"):
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
    def test_solve_for_y_names_y(self):
        with pytest.raises(NoSolutionAtPoint, match=r"^no y solves the relation at x = 2\.0$"):
            solve_for_y(ConicCoeffs(1, 0, 0, 1, 0), 2.0)


class TestRotationByLabel:
    """ConicCoeffs.from_fit reads the rotation of y on const, x and xy by
    label, so its relation has the same roots in any term order."""

    LINE = generate(GeneratorSpec(Line(1.0, 2.0), n=200, noise_sigma=0.1, seed=3))

    @pytest.mark.parametrize("which, at", [("for_y", 2.0), ("for_x", 5.0)])
    def test_term_order_does_not_matter(self, which, at):
        f = fit_rotation(self.LINE, parse_terms("x,y,xy"), pivot=1)
        g = fit_rotation(self.LINE, parse_terms("xy,x,y"), pivot=2)
        assert _solve_rotation(g, at, which) == pytest.approx(
            _solve_rotation(f, at, which), rel=1e-12)


class TestRelation:
    """ConicCoeffs holds the relation c0 = a1*x + ... + a5*y^2 with a general
    constant: 1 in a unit-constant fit, the intercept b0 in a rotation."""

    ELLIPSE = TestFromFit.ELLIPSE

    def _evaluates_to_c0(self, f):
        # The rotation T_p ~ b0 + sum b_k*T_k leaves the residual T_p - fitted
        # on each row, so the relation's value less the residual is c0.
        c = ConicCoeffs.from_fit(f)
        x, y = self.ELLIPSE.x, self.ELLIPSE.y
        rounding = abs(c.c0) + sum(abs(a * t.evaluate(x, y))
                                   for a, t in zip(c.as_array(), CONIC_TERMS))
        assert np.all(np.abs(c.evaluate(x, y) - f.residuals - c.c0) <= 1e-13 * rounding)

    @pytest.mark.parametrize("terms, pivot", [*((CONIC_TERMS, p) for p in range(5)),
                                              (parse_terms("xy,x,y"), 2)],
                             ids=[*map(str, CONIC_TERMS), "y-of-xy,x,y"])
    def test_evaluates_to_c0_on_its_fitted_rows(self, terms, pivot):
        self._evaluates_to_c0(fit_rotation(self.ELLIPSE, terms, pivot))

    def test_b0_zero_is_a_relation(self):
        # y = 0 + 0*x + 1*xy, the fit of TestInvertRotationLinear.test_pole
        # with its intercept exactly 0: the relation 0 = y - xy, y = 0 off x = 1.
        d = Dataset([0.0, 2.0, 1.0, 1.0, 3.0], [0.0, 0.0, 5.0, -3.0, 0.0])
        f = dataclasses.replace(fit_rotation(d, parse_terms("x,y,xy"), pivot=1),
                                coeffs=np.array([0.0, 0.0, 1.0]))
        c = ConicCoeffs.from_fit(f)
        assert (c.c0, c.a2, c.a3) == (0.0, 1.0, -1.0)
        assert solve_for_y(c, 2.0) == [0.0]
        with pytest.raises(NoSolutionAtPoint):
            solve_for_y(c, 1.0)

    @pytest.mark.parametrize("pivot", range(5), ids=map(str, CONIC_TERMS))
    def test_geometry_matches_the_unit_constant_form(self, pivot):
        # b0 != 0, so the rotation divides through to 1 = T_p/b0 - sum b_k/b0*T_k.
        f = fit_rotation(self.ELLIPSE, CONIC_TERMS, pivot=pivot)
        assert f.coeffs[0] != 0
        alpha = dict(zip((f.spec.lhs_term, *f.spec.rhs_terms), alpha_from_beta(f.coeffs)))
        unit = ConicCoeffs(*(alpha[t] for t in CONIC_TERMS))
        got, want = conic_geometry(ConicCoeffs.from_fit(f)), conic_geometry(unit)
        assert got.center == pytest.approx(want.center, rel=1e-12)
        assert got.semi_axes == pytest.approx(want.semi_axes, rel=1e-12)
        assert got.rotation == pytest.approx(want.rotation, rel=1e-12)


def _rational(fit, at, which):
    """The rational inversion of the rotation y = a0 + a1*x + a2*xy, as it
    was computed before it went through the root solver: the oracle of
    TestRotationParity.  A pole raises solve_for_y's refusal; for_x solves
    the swapped relation, so its message names x as y."""
    a = dict(zip(fit.column_labels, map(float, fit.coeffs)))
    if fit.spec.lhs_term != Term(0, 1) or a.keys() != {"const", "x", "xy"}:
        raise InvalidSpec("expected the rotation of y on an intercept, x and xy")
    if not math.isfinite(at):
        raise InvalidSpec(f"the point must be a finite real number, not {at!r}")
    a0, a1, a2 = a["const"], a["x"], a["xy"]
    if which == "for_y":
        denom = 1.0 - a2 * at
        if abs(denom) < 1e-12:
            raise NoSolutionAtPoint(f"no y solves the relation at x = {at}")
        return (a0 + a1 * at) / denom
    if which == "for_x":
        denom = a1 + a2 * at
        if abs(denom) < 1e-12:
            raise NoSolutionAtPoint(f"no y solves the relation at x = {at}")
        return (at - a0) / denom
    raise InvalidSpec("which must be 'for_y' or 'for_x'")


def _exact_rotation_root(fit, at, which):
    """The root of the rotation y = a0 + a1*x + a2*xy at a finite point, in
    exact rational arithmetic on the fitted floats, rounded once."""
    a = dict(zip(fit.column_labels, map(Fraction, fit.coeffs)))
    a0, a1, a2, t = a["const"], a["x"], a["xy"], Fraction(at)
    return float((a0 + a1 * t) / (1 - a2 * t) if which == "for_y" else (t - a0) / (a1 + a2 * t))


def _outcome(f, *args):
    """The floats a call returns (a root list or one float), as their bits
    (all NaNs alike), or the class and message of the refusal it raises."""
    try:
        v = f(*args)
    except (InvalidSpec, NoSolutionAtPoint) as exc:
        return type(exc), str(exc)
    return ["nan" if math.isnan(r) else np.float64(r).tobytes() for r in np.atleast_1d(v)]


class TestRotationParity:
    """solve_for_y on the rotation's relation, or on the swapped relation,
    gives the rational formula's float as its one root, bit for bit, or its
    exception."""

    @staticmethod
    def _fits():
        pole = Dataset([0.0, 2.0, 1.0, 1.0, 3.0], [0.0, 0.0, 5.0, -3.0, 0.0])
        data = [pole] + [generate(GeneratorSpec(shape, n=300, noise_sigma=0.05, seed=seed))
                         for seed in (1, 2)
                         for shape in (Line(1.0, 2.0), Ellipse(1.0, -0.5, 2.0, 1.0, 0.5))]
        orders = [("x,y,xy", 1), ("xy,x,y", 2), ("y,xy,x", 0)]
        return [fit_rotation(d, parse_terms(terms), pivot=p) for d in data for terms, p in orders]

    @staticmethod
    def _points(fit, rng):
        a = dict(zip(fit.column_labels, map(float, fit.coeffs)))
        a0, a1, a2 = a["const"], a["x"], a["xy"]
        special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e200, -1e200, 1.7e308, -1.7e308,
                   math.nan, math.inf, -math.inf, a0]
        poles = [1.0 / a2, -a1 / a2]        # of for_y and of for_x
        near = [p for q in poles for p in (q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf),
                                           q * (1 + 1e-13), q * (1 - 1e-13))]
        rand = [*rng.uniform(-5, 5, 150),
                *(rng.choice([-1, 1], 60) * 10.0 ** rng.uniform(-300, 300, 60))]
        return [float(p) for p in (*special, *near, *rand)]

    @staticmethod
    def _overflows(fit, at, which):
        """Whether the rational formula's numerator or denominator overflows
        at a finite point, and so its quotient is inf, NaN or 0 where the
        root is finite."""
        if not math.isfinite(at):
            return False
        a = dict(zip(fit.column_labels, map(float, fit.coeffs)))
        a0, a1, a2 = a["const"], a["x"], a["xy"]
        parts = (a0 + a1 * at, 1.0 - a2 * at) if which == "for_y" else (at - a0, a1 + a2 * at)
        return not all(map(math.isfinite, parts))

    def test_matches_the_rational_formula(self):
        # Where the oracle's numerator or denominator overflows, the root
        # solver gives the finite root and the oracle does not: the exact root
        # is the reference there.
        rng = np.random.default_rng(2201)
        cases = overflows = 0
        for f in self._fits():
            for at in self._points(f, rng):
                for which in ("for_y", "for_x"):
                    if self._overflows(f, at, which):
                        (root,) = _solve_rotation(f, at, which)
                        assert math.isfinite(root), (f.column_labels, at, which)
                        assert root == pytest.approx(_exact_rotation_root(f, at, which),
                                                     rel=1e-14, abs=0)
                        overflows += 1
                    else:
                        got = _outcome(_solve_rotation, f, at, which)
                        assert got == _outcome(_rational, f, at, which), (
                            f.column_labels, at, which)
                        assert "nan" not in got, (f.column_labels, at, which)
                    cases += 1
        assert cases > 5000 and overflows > 0

    def test_the_pole_of_the_pole_fit(self):
        f = self._fits()[0]
        assert abs(f.coeffs[0]) < 1e-14         # a0 = 0 to rounding, so c0 = 0 too
        for which, at in (("for_y", 1.0), ("for_x", -f.coeffs[1] / f.coeffs[2])):
            assert _outcome(_solve_rotation, f, at, which) == (
                NoSolutionAtPoint, f"no y solves the relation at x = {at}")

    def test_an_exact_zero_keeps_its_value_not_its_sign(self):
        # Where a0 + a1*x cancels exactly, the root solver's -k/b is -0.0 and
        # the rational formula's quotient 0.0: equal values, not equal bits.
        f = self._fits()[3]
        at = -f.coeffs[0] / f.coeffs[1]
        ((got,), want) = _solve_rotation(f, at, "for_y"), _rational(f, at, "for_y")
        assert (got, want) == (0.0, 0.0)
        assert math.copysign(1.0, got) == -math.copysign(1.0, want)


def _y_roots_before(c, x):
    """y_roots as the textbook expression, every temporary its own array, as
    it was written before its steps went in place: the oracle of TestYRoots."""
    x = np.asarray(x, dtype=float)
    a = c.a5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = c.a2 + c.a3 * x
        lin, quad = c.a1 * x, c.a4 * x * x
        k = lin + quad - c.c0
        if a == 0.0:
            free = np.abs(b) < TOL_DENOM
            root = np.where(free, np.nan, -k / b)
            return root, root, free
        disc = b * b - 4 * a * k
        scale = np.maximum(b * b, 4 * abs(a) * (abs(c.c0) + np.abs(lin) + np.abs(quad)))
        none = disc < -TOL_DISC * scale
        disc = np.maximum(disc, 0.0)
        r = np.sqrt(disc)
        q = np.where(b >= 0, -b - r, -b + r)
        t1, t2 = q / (2 * a), 2 * k / q
        double = np.where(none, np.nan, -b / (2 * a))
        lower = np.where(disc == 0.0, double, np.minimum(t1, t2))
        upper = np.where(disc == 0.0, double, np.maximum(t1, t2))
    return lower, upper, np.zeros(x.shape, dtype=bool)


def _overflow(c, x):
    """Rows where the expression overflows at a finite x: in the linear
    branch (a5 = 0) where k = a1*x + a4*x^2 - c0 or b = a2 + a3*x does, in
    the quadratic one where the discriminant b*b - 4*a5*k, the snap's scale
    or 2*k does."""
    with np.errstate(over="ignore", invalid="ignore"):
        lin, quad = c.a1 * x, c.a4 * x * x
        k, b = lin + quad - c.c0, c.a2 + c.a3 * x
        disc = b * b - 4 * c.a5 * k
        scale = np.maximum(b * b, 4 * abs(c.a5) * (abs(c.c0) + np.abs(lin) + np.abs(quad)))
        steps = (k, b) if c.a5 == 0.0 else (disc, scale, 2 * k)
    return np.isfinite(x) & ~np.logical_and.reduce([np.isfinite(v) for v in steps])


def _rounded(v):
    """The float nearest the rational v, or the signed infinity beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _exact_linear_root(c, x):
    """-k/b in exact rational arithmetic on the floats, rounded once."""
    a1, a2, a3, a4, c0, t = map(Fraction, (c.a1, c.a2, c.a3, c.a4, c.c0, x))
    return _rounded(-(a1 * t + a4 * t * t - c0) / (a2 + a3 * t))


SQRT_BITS = 5000    # fractional bits of the oracle's square root; 1500 digits are 4983


def _exact_quadratic_roots(c, x):
    """The real roots y of a5*y^2 + (a2 + a3*x)*y + (a1*x + a4*x^2 - c0) = 0,
    a5 != 0, by the textbook formula on the floats in exact rational
    arithmetic, but for the square root of the discriminant, which is
    truncated to SQRT_BITS fractional bits (the cancellation in
    -b + sqrt(disc) costs a few hundred digits on the rows tested); each root
    rounded once: (lower, upper), or two NaNs where none is real."""
    a1, a2, a3, a4, a5, c0, t = map(Fraction, (*c.as_array().tolist(), c.c0, x))
    b, k = a2 + a3 * t, a1 * t + a4 * t * t - c0
    disc = b * b - 4 * a5 * k
    if disc < 0:
        return math.nan, math.nan
    # sqrt(p/q) = sqrt(p*q)/q, and isqrt's floor is within 1 of sqrt(p*q) * 2^SQRT_BITS.
    p, q = disc.numerator, disc.denominator
    r = Fraction(math.isqrt(p * q << 2 * SQRT_BITS), q << SQRT_BITS)
    return tuple(sorted(_rounded((-b + sign * r) / (2 * a5)) for sign in (-1, 1)))


class TestYRoots:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, 1e154, -1e154,
               1e308, -1e308, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf]

    @staticmethod
    def _conics(rng, a5_zero, c0_zero, count=40):
        for i in range(count):
            a = rng.normal(size=6) * 10.0 ** rng.integers(-3, 4, 6)
            if i % 4 == 0:
                a[rng.integers(0, 4)] = 0.0
            if a5_zero:
                a[4] = 0.0
            if c0_zero:
                a[5] = 0.0
            yield ConicCoeffs(*a)

    @pytest.mark.parametrize("a5_zero", [True, False])
    @pytest.mark.parametrize("c0_zero", [True, False])
    def test_bitwise_the_expression_but_where_it_overflows(self, a5_zero, c0_zero):
        # The steps run in place in the expression's order, so every root is
        # the expression's float, NaN and signed zero alike; the overflow
        # rows of either branch are the one exception.
        rng = np.random.default_rng(2301 + 2 * a5_zero + c0_zero)
        overflows = 0
        for c in self._conics(rng, a5_zero, c0_zero):
            x = np.array([*self.SPECIAL, *(rng.choice([-1, 1], 2000)
                                           * 10.0 ** rng.uniform(-310, 308.2, 2000))])
            over = _overflow(c, x)
            for want, got in zip(_y_roots_before(c, x), y_roots(c, x)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert (got.view(np.uint8).reshape(len(x), -1)[~over]
                        == want.view(np.uint8).reshape(len(x), -1)[~over]).all(), c
            overflows += over.sum()
        assert overflows > 0

    def test_rows_in_range_whose_sum_overflows_keep_their_bits(self):
        # Each row's discriminant (quadratic) or b (linear, a5 = 0) is in
        # range but their sum is not, so the row mask is built: it marks no row.
        for c, x, step in [
            (ConicCoeffs(0.0, 0.0, 1.0, 0.0, 1e-3), np.array([1e154, 1.2e154, 5.0]),
             lambda x: x * x),
            (ConicCoeffs(0.0, 0.0, 1.0), np.array([1e308, 1.5e308, 5.0]), lambda x: x),
        ]:
            with np.errstate(over="ignore"):
                assert math.isinf(np.sum(step(x)))
            assert not _overflow(c, x).any()
            for want, got in zip(_y_roots_before(c, x), y_roots(c, x)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_linear_overflow_matches_exact_arithmetic(self):
        rng = np.random.default_rng(2305)
        rows = 0
        for c in self._conics(rng, a5_zero=True, c0_zero=False, count=200):
            x = rng.choice([-1, 1], 50) * 10.0 ** rng.uniform(296, 308.2, 50)
            lower, upper, free = y_roots(c, x)
            over = _overflow(c, x) & ~free
            for xi, got in zip(x[over], lower[over]):
                assert got == pytest.approx(_exact_linear_root(c, xi), rel=1e-14, abs=0), (c, xi)
                rows += 1
        assert rows > 1000

    @pytest.mark.parametrize("c, x", [
        (ConicCoeffs(0.0, 0.0, 1.0, 0.0, 1e-3), 1e160),        # 1 = xy + 1e-3*y^2: b*b overflows
        (ConicCoeffs(1.0, 0.0, 0.0, 0.0, -1.0, 0.0), 1e308),   # 0 = x - y^2: 4*a5*k overflows
        (ConicCoeffs(0.0, 0.0, 0.0, 1.0, -1.0, 0.0), 1e200),   # 0 = x^2 - y^2: k overflows
        (ConicCoeffs(0.0, 1.0, 0.0, 1.0, 1e-3), 1e160),        # 1 = y + x^2 + 1e-3*y^2: no root
        (ConicCoeffs(0.0, 0.0, 1.0, 1.5, 1e-3), 1e154),        # 1 = xy + 1.5x^2 + 1e-3*y^2: 2*k
        # 0 = -x + 0.999e-298*x^2 - 1e10*y^2: the snap's scale overflows, no root
        (ConicCoeffs(-1.0, 0.0, 0.0, 0.999e-298, -1e10, 0.0), 1e298),
    ], ids=["b_squared", "four_a_k", "k", "k_no_root", "two_k", "scale_no_root"])
    def test_quadratic_overflow_point_matches_exact_arithmetic(self, c, x):
        assert _overflow(c, np.array([x])).all()
        lower, upper, free = y_roots(c, np.array([x]))
        want = _exact_quadratic_roots(c, x)
        assert [lower[0], upper[0]] == pytest.approx(want, rel=1e-15, abs=0, nan_ok=True)
        assert not free[0]

    def test_quadratic_overflow_matches_exact_arithmetic(self):
        rng = np.random.default_rng(2307)
        rows = 0
        for c in self._conics(rng, a5_zero=False, c0_zero=False, count=200):
            x = rng.choice([-1, 1], 50) * 10.0 ** rng.uniform(145, 160, 50)
            lower, upper, _ = y_roots(c, x)
            over = _overflow(c, x)
            for xi, got in zip(x[over], zip(lower[over], upper[over])):
                assert got == pytest.approx(_exact_quadratic_roots(c, xi), rel=1e-14, abs=0,
                                            nan_ok=True), (c, xi)
                rows += 1
        assert rows > 500

    def test_quadratic_overflow_up_to_the_float_maximum_matches_exact_arithmetic(self):
        rng = np.random.default_rng(2707)
        rows = 0
        for c in self._conics(rng, a5_zero=False, c0_zero=False, count=30):
            x = np.array([1.7e308, -1.7e308,
                          *(rng.choice([-1, 1], 30) * 10.0 ** rng.uniform(160, 308.23, 30))])
            lower, upper, _ = y_roots(c, x)
            over = _overflow(c, x)
            for xi, got in zip(x[over], zip(lower[over], upper[over])):
                assert got == pytest.approx(_exact_quadratic_roots(c, xi), rel=1e-14, abs=0,
                                            nan_ok=True), (c, xi)
                rows += 1
        assert rows > 900

    @pytest.mark.parametrize("a5_zero", [True, False])
    @pytest.mark.parametrize("c0_zero", [True, False])
    def test_scaled_roots_are_the_expression_on_rows_in_range(self, a5_zero, c0_zero):
        # On rows that stay in range the split steps are y_roots' own, each
        # scaled by a power of two, so the roots are its floats bit for bit.
        rng = np.random.default_rng(2711 + 2 * a5_zero + c0_zero)
        for c in self._conics(rng, a5_zero, c0_zero):
            x = rng.choice([-1, 1], 2000) * 10.0 ** rng.uniform(-100, 100, 2000)
            lower, upper, free = y_roots(c, x)
            assert not _overflow(c, x).any()
            for want, got in zip((lower, upper), _scaled_roots(c, x)):
                assert (got.view(np.uint64)[~free] == want.view(np.uint64)[~free]).all(), c

    def test_the_rotation_of_a_noisy_line(self):
        # y = 1.0235 + 1.9884x + 3.98e-4*xy: a1*x overflows from x = 1e308 on,
        # and the root stays near -a1/a2 = -4994.
        d = generate(GeneratorSpec(Line(1.0, 2.0), n=300, noise_sigma=0.05, seed=1))
        f = fit_rotation(d, parse_terms("x,y,xy"), pivot=1)
        for at in (1e300, 1e308, 1.7e308, -1.7e308):
            (got,) = solve_for_y(ConicCoeffs.from_fit(f), at)
            assert got == pytest.approx(_exact_rotation_root(f, at, "for_y"), rel=1e-14, abs=0)
            assert -5000 < got < -4990
