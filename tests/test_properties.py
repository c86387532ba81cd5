"""Property tests for the fitter invariants."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from implicitreg import (
    CONIC_TERMS,
    Dataset,
    Term,
    alpha_from_beta,
    beta_from_alpha,
    fit_all_rotations,
    fit_nonresponse,
    fit_rotation,
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
