"""Property tests for the fitter invariants."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from implicitreg import (
    CONIC_TERMS,
    Dataset,
    Ellipse,
    GeneratorSpec,
    Line,
    MultiDataset,
    Term,
    alpha_from_beta,
    beta_from_alpha,
    fit_all_rotations,
    fit_nonresponse,
    fit_rotation,
    fit_standard,
    generate,
    nra2_closed,
    parse_terms,
)
from implicitreg.errors import DegenerateError, SingularSystem
from oracles import rotation_oracle

finite = st.floats(-50, 50, allow_nan=False)


@st.composite
def paired_data(draw, min_size=3, max_size=20):
    n = draw(st.integers(min_size, max_size))
    x = draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))
    return Dataset(np.array(x), np.array(y))


@given(paired_data(), st.floats(0.1, 10))
@settings(max_examples=100, deadline=None)
def test_scale_covariance_of_two_term_fit(d, c):
    try:
        a1, a2 = nra2_closed(d.x, d.y)
        b1, b2 = nra2_closed(c * d.x, c * d.y)
    except SingularSystem:
        assume(False)
    np.testing.assert_allclose([b1, b2], [a1 / c, a2 / c], rtol=1e-6, atol=1e-9)


@given(paired_data(min_size=5), st.permutations([0, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_term_permutation_permutes_coefficients(d, perm):
    terms = parse_terms("x,y,xy")
    try:
        base = fit_nonresponse(d, terms)
        permuted = fit_nonresponse(d, [terms[i] for i in perm])
    except SingularSystem:
        assume(False)
    np.testing.assert_allclose(permuted.coeffs, base.coeffs[perm], rtol=1e-7, atol=1e-9)


@given(paired_data(min_size=5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_observation_order_is_irrelevant(d, rnd):
    order = list(range(d.n))
    rnd.shuffle(order)
    try:
        base = fit_nonresponse(d, parse_terms("x,y"))
        shuffled = fit_nonresponse(Dataset(d.x[order], d.y[order]), parse_terms("x,y"))
    except SingularSystem:
        assume(False)
    np.testing.assert_allclose(shuffled.coeffs, base.coeffs, rtol=1e-8, atol=1e-10)


@given(paired_data(min_size=8), st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_scaling_x_scales_coefficients(d, c):
    # Scaling x by c scales the column of x^a*y^b by c^a, so its
    # coefficient by c^-a.  Rounding is amplified by up to cond^2, so the
    # property is checked on designs with a unit-column condition below 1e4.
    terms = list(CONIC_TERMS)
    Z = np.column_stack([t.evaluate(d.x, d.y) for t in terms] + [np.ones(d.n)])
    assume(np.linalg.cond(Z / np.linalg.norm(Z, axis=0)) < 1e4)
    base = fit_nonresponse(d, terms)
    scaled = fit_nonresponse(Dataset(c * d.x, d.y), terms)
    back = scaled.coeffs * np.array([c ** t.x_exp for t in terms])
    assert np.linalg.norm(back - base.coeffs) <= 1e-8 * np.linalg.norm(base.coeffs)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8).filter(lambda v: abs(v[0]) > 1e-6))
@settings(max_examples=200, deadline=None)
def test_conversion_round_trip(beta):
    back = beta_from_alpha(alpha_from_beta(beta))
    np.testing.assert_allclose(back, beta, rtol=1e-12, atol=1e-12)


@given(paired_data(min_size=4))
@settings(max_examples=100, deadline=None)
def test_span_inequality(d):
    try:
        f = fit_nonresponse(d, parse_terms("x,y"))
    except SingularSystem:
        assume(False)
    span = float(np.sum(f.coeffs[0] * d.x + f.coeffs[1] * d.y))
    assert span <= d.n * (1 + 1e-9)
    np.testing.assert_allclose(span, d.n * f.r_squared, rtol=1e-8)


CUBIC_TERMS = parse_terms("x,y,xy,x2,y2,x^3,y^3,x^2*y,x*y^2")


@st.composite
def signed_data(draw, min_size=12, max_size=30):
    n = draw(st.integers(min_size, max_size))
    x = draw(st.lists(st.floats(-3, 1), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-3, 1), min_size=n, max_size=n))
    return Dataset(np.array(x), np.array(y))


@given(signed_data())
@settings(max_examples=100, deadline=None)
def test_all_rotations_match_single_rotations_and_oracle(d):
    # One batched read-off serves every pivot; it must give what a single
    # rotation gives, slot for slot, and agree with the normal-equation
    # oracle wherever the design is well conditioned.
    assume((d.x < 0).any() and (d.y < 0).any())
    Z = np.column_stack([t.evaluate(d.x, d.y) for t in CUBIC_TERMS] + [np.ones(d.n)])
    norms = np.linalg.norm(Z, axis=0)
    well_posed = norms.all() and np.linalg.cond(Z / norms) < 1e3
    exps = [(t.x_exp, t.y_exp) for t in CUBIC_TERMS]
    for pivot, batched in enumerate(fit_all_rotations(d, CUBIC_TERMS)):
        if isinstance(batched, DegenerateError):
            with pytest.raises(type(batched), match=re.escape(str(batched))):
                fit_rotation(d, CUBIC_TERMS, pivot)
            continue
        single = fit_rotation(d, CUBIC_TERMS, pivot)
        np.testing.assert_array_equal(batched.coeffs, single.coeffs)
        X = np.column_stack([Z[:, -1], np.delete(Z[:, :-1], pivot, axis=1)])
        np.testing.assert_array_equal(batched.target, Z[:, pivot])
        np.testing.assert_array_equal(batched.residuals, batched.target - batched.fitted)
        # A sum of m + 1 products rounds within a few eps of the sum of their
        # magnitudes, whatever the order of summation.
        bound = 1e-13 * (np.abs(X) @ np.abs(batched.coeffs))
        for fitted in (single.fitted, X @ batched.coeffs):
            assert np.all(np.abs(batched.fitted - fitted) <= bound)
        if well_posed:
            assert batched.r_squared == pytest.approx(single.r_squared, rel=1e-10)
            want = rotation_oracle(d.x, d.y, exps, pivot)
            assert np.linalg.norm(batched.coeffs - want) <= 1e-8 * np.linalg.norm(want)
            sst = float(np.sum((Z[:, pivot] - Z[:, pivot].mean()) ** 2))
            assert batched.r_squared == pytest.approx(1 - batched.sse / sst, abs=1e-8)


@pytest.mark.parametrize("s, t", [(3, -2), (-7, 5), (40, 40), (-100, 60), (1, 0)])
def test_power_of_two_scaling_is_exact(s, t):
    # Scaling x by 2^s and y by 2^t scales the column of x^a*y^b by exactly
    # 2^(a*s + b*t), and Householder QR, the column norms and the read-off
    # carry such a scaling through without rounding: each coefficient and
    # standard error scales by its power of two, bit for bit, and R^2 keeps
    # its bits.  Conic terms only: libm's pow(|x|, 3) is not scale-exact.
    d = generate(GeneratorSpec(Ellipse(3.0, -2.0, 2.0, 1.0, 0.5), 20_000, 0.05, seed=1))
    scaled = Dataset(d.x * 2.0 ** s, d.y * 2.0 ** t)
    terms = list(CONIC_TERMS)
    e = np.array([tm.x_exp * s + tm.y_exp * t for tm in terms])

    def same(got, want, power):
        np.testing.assert_array_equal(got.view(np.uint64), (want * 2.0 ** power).view(np.uint64))

    base, fit = fit_nonresponse(d, terms), fit_nonresponse(scaled, terms)
    same(fit.coeffs, base.coeffs, -e)
    same(fit.stderr, base.stderr, -e)
    assert fit.r_squared == base.r_squared
    rotations = zip(fit_all_rotations(d, terms), fit_all_rotations(scaled, terms), strict=True)
    for pivot, (base_rot, rot) in enumerate(rotations):
        power = e[pivot] - np.concatenate(([0.0], np.delete(e, pivot)))    # const, then the rhs
        same(rot.coeffs, base_rot.coeffs, power)
        same(rot.stderr, base_rot.stderr, power)
        assert rot.r_squared == base_rot.r_squared


OFFSET_LINE = generate(GeneratorSpec(Line(1.0, 2.0), 2000, 0.1, seed=5))
XY = parse_terms("x,y")


def _slopes(d: Dataset) -> list[float]:
    """y on x by standard OLS and by its rotation, then x on y by the other."""
    return [fit_standard(MultiDataset(d.y, d.x, ("x",))).coeffs[1],
            fit_rotation(d, XY, 1).coeffs[1], fit_rotation(d, XY, 0).coeffs[1]]


@pytest.mark.parametrize("k", range(9))
def test_slopes_are_free_of_an_offset(k):
    # Adding t to x and y rounds each value once, by up to eps*t, which moves
    # a slope by about eps*t/sd(x) relative; the fits themselves add only a
    # few eps, as the QR of the factor never forms t^2.  Measured at 8:
    # 1.8e-10 against eps*t/sd(x) = 7.7e-9.
    t = 10.0 ** k
    d = OFFSET_LINE
    shifted = Dataset(d.x + t, d.y + t)
    tol = 8 * np.finfo(float).eps * (1 + t / np.std(d.x))
    for got, want in zip(_slopes(shifted), _slopes(d), strict=True):
        assert got == pytest.approx(want, rel=tol, abs=0)


@pytest.mark.parametrize("pivot", [0, 1])
def test_offset_beyond_the_rank_tolerance_is_singular(pivot):
    # At t = 1e9 the spread of x is 3e-9 of its mean, below RANK_TOL on the
    # unit columns: x is the constant column as far as the factor can tell.
    d = Dataset(OFFSET_LINE.x + 1e9, OFFSET_LINE.y + 1e9)
    with pytest.raises(SingularSystem):
        fit_rotation(d, XY, pivot)
