import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import offset_line, random_dataset, unit_condition
from implicitreg import (
    CONIC_TERMS,
    Circle,
    ConicCoeffs,
    Dataset,
    Ellipse,
    GeneratorSpec,
    MultiDataset,
    Term,
    alias_matrix,
    alpha_from_beta,
    beta_from_alpha,
    conic_geometry,
    fit_all_rotations,
    fit_implicit,
    fit_nonresponse,
    fit_rotation,
    fit_standard,
    generate,
    nra2_closed,
    parse_terms,
    pinwheel_data,
    slr_closed,
    univariate_nra,
)
from implicitreg.errors import (
    ConversionUndefined,
    DomainError,
    EmptyDataset,
    DomainViolation,
    InvalidSpec,
    MeanUndefined,
    SingularSystem,
    Underdetermined,
    ZeroVariance,
)
from implicitreg import fitters, terms
from implicitreg.terms import LhsKind, ModelSpec


class TestFitImplicit:
    def test_unity_two_terms(self, tri_dataset):
        f = fit_implicit(tri_dataset, ModelSpec.nonresponse(parse_terms("x,y")))
        np.testing.assert_allclose(f.coeffs, [1, 1], atol=1e-12)
        np.testing.assert_allclose(f.residuals, 0, atol=1e-12)
        assert f.r_squared == pytest.approx(1.0, abs=1e-12)
        assert f.r2_formula == "Eq12-nonresponse"

    def test_exact_line_response(self):
        d = Dataset([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        spec = ModelSpec.rotation(parse_terms("x,y"), pivot=1)
        f = fit_implicit(d, spec)
        np.testing.assert_allclose(f.coeffs, [1, 2], atol=1e-12)
        assert f.r_squared == pytest.approx(1.0, abs=1e-12)
        assert f.r2_formula == "Eq8-centered"

    def test_underdetermined(self):
        d = Dataset([1.0, 2.0], [3.0, 5.0])
        with pytest.raises(Underdetermined):
            fit_implicit(d, ModelSpec.nonresponse(parse_terms("x,y,xy")))

    @pytest.mark.parametrize("pivot", range(5))
    def test_rotation_spec_is_bitwise_fit_rotation(self, pivot):
        # Both read the rotation off one design, Z = [rhs terms, target, 1].
        d = generate(GeneratorSpec(Ellipse(3, -2, 2, 1, 0.5), n=3000, noise_sigma=0.05, seed=1))
        spec = ModelSpec.rotation(CONIC_TERMS, pivot)
        got = fit_implicit(d, spec)
        want = fit_rotation(d, [*spec.rhs_terms, spec.lhs_term], len(spec.rhs_terms))
        assert got.spec == want.spec
        for name in ("coeffs", "stderr", "r_squared", "sigma2_hat", "target", "fitted"):
            assert np.asarray(getattr(got, name)).tobytes() == \
                np.asarray(getattr(want, name)).tobytes(), name

    @pytest.mark.parametrize("kind, rhs, lhs, message", [
        (LhsKind.RESPONSE, ("a",), None, "fit_standard fits the response kind"),
        (LhsKind.UNITY, ("a",), None, "must be Terms"),
        (LhsKind.TERM, ("a",), Term(0, 1), "must be Terms"),
        (LhsKind.TERM, (Term(1, 0),), "y", "a Term lhs_term required"),
        (LhsKind.TERM, (Term(1, 0), Term(0, 1)), Term(0, 1),
         "pivot term must be excluded from rhs_terms"),
        (LhsKind.UNITY, (Term(1, 0),), Term(0, 1), "lhs_term only meaningful when lhs is a term"),
        (LhsKind.RESPONSE, ("a",), Term(0, 1), "lhs_term only meaningful when lhs is a term"),
    ], ids=["response", "unity-str-rhs", "term-str-rhs", "term-str-lhs", "term-pivot-in-rhs",
            "unity-lhs-term", "response-lhs-term"])
    def test_spec_it_cannot_fit_is_refused(self, tri_dataset, kind, rhs, lhs, message):
        with pytest.raises(InvalidSpec, match=message):
            fit_implicit(tri_dataset, ModelSpec(kind, rhs, kind is not LhsKind.UNITY, lhs))


class TestFitNonresponse:
    def test_two_square_terms_unit_circle(self):
        s = math.sqrt(2) / 2
        d = Dataset([1.0, 0.0, s], [0.0, 1.0, s])
        f = fit_nonresponse(d, parse_terms("x2,y2"))
        np.testing.assert_allclose(f.coeffs, [1, 1], atol=1e-12)
        assert f.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_five_term_circle(self, circle6):
        f = fit_nonresponse(circle6, list(CONIC_TERMS))
        np.testing.assert_allclose(f.coeffs, [0, 0, 0, 0.25, 0.25], atol=1e-12)

    def test_linear_pair(self, tri_dataset):
        f = fit_nonresponse(tri_dataset, parse_terms("x,y"))
        np.testing.assert_allclose(f.coeffs, [1, 1], atol=1e-12)

    def test_residual_identity(self, tri_dataset):
        f = fit_nonresponse(tri_dataset, parse_terms("x,y"))
        W = np.column_stack([t.evaluate(tri_dataset.x, tri_dataset.y) for t in f.spec.rhs_terms])
        np.testing.assert_array_equal(f.residuals, 1.0 - W @ f.coeffs)

    def test_three_term_gram_matches_printed_sums(self):
        # The fit of {x, y, xy} with unity target solves the 3-equation
        # system written in raw sums: its inverse Gram matrix inverts them
        # and its coefficients solve them.
        d = random_dataset(np.random.default_rng(11))
        x, y = d.x, d.y
        f = fit_nonresponse(d, parse_terms("x,y,xy"))
        G = np.array([
            [np.sum(x**2), np.sum(x*y), np.sum(x**2*y)],
            [np.sum(x*y), np.sum(y**2), np.sum(x*y**2)],
            [np.sum(x**2*y), np.sum(x*y**2), np.sum(x**2*y**2)],
        ])
        rhs = [np.sum(x), np.sum(y), np.sum(x*y)]
        np.testing.assert_allclose(f.gram_inverse @ G, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(f.coeffs, np.linalg.solve(G, rhs), rtol=1e-10)

    def test_cov_is_sigma2_gram_inverse(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng)
        f = fit_nonresponse(d, parse_terms("x,y,xy"))
        np.testing.assert_allclose(f.cov, f.sigma2_hat * f.gram_inverse, atol=0)

    @pytest.mark.parametrize("term_list", ["1", "1,x,y", "x,y,1"])
    def test_unit_term_refused(self, tri_dataset, term_list):
        # The term 1 is the intercept the unit-constant model does not carry:
        # 1 = 1*1 would fit exactly and say nothing about the data.
        with pytest.raises(InvalidSpec, match="no term 1"):
            fit_nonresponse(tri_dataset, parse_terms(term_list))


class TestFitRotation:
    def test_exact_linear_relation(self):
        d = Dataset([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        f = fit_rotation(d, parse_terms("x,y,xy"), pivot=1)
        np.testing.assert_allclose(f.residuals, 0, atol=1e-10)
        assert f.r_squared == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(f.coeffs, [0, 2, 0], atol=1e-10)

    def test_constant_column_collides_with_intercept(self):
        d = Dataset([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        with pytest.raises(SingularSystem):
            fit_rotation(d, parse_terms("x,y"), pivot=0)

    def test_matches_alias(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng)
        terms = parse_terms("x,y,xy")
        f = fit_rotation(d, terms, pivot=0)
        W1 = np.column_stack([np.ones(d.n), d.y, d.x * d.y])
        A = alias_matrix(W1, d.x)
        np.testing.assert_allclose(f.coeffs, A[:, 0], atol=1e-10)

    def test_f_stat_present_and_positive(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng)
        f = fit_rotation(d, parse_terms("x,y,xy"), pivot=1)
        assert f.f_stat is not None and f.f_stat > 0


class TestFitAllRotations:
    def test_conic_set_order(self):
        rng = np.random.default_rng(13)
        d = random_dataset(rng)
        results = fit_all_rotations(d, list(CONIC_TERMS))
        assert len(results) == 5
        for pivot, r in enumerate(results):
            single = fit_rotation(d, list(CONIC_TERMS), pivot)
            np.testing.assert_allclose(r.coeffs, single.coeffs, atol=0)

    def test_two_term_set(self, tri_dataset):
        assert len(fit_all_rotations(tri_dataset, parse_terms("x,y"))) == 2

    def test_degenerate_pivot_isolated(self):
        # y constant: pivot x regresses on {1, y}, which is rank deficient;
        # pivot y has a constant target, recorded as ZeroVariance.
        d = Dataset([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        results = fit_all_rotations(d, parse_terms("x,y"))
        assert isinstance(results[0], SingularSystem)
        assert isinstance(results[1], ZeroVariance)


def _alias(X1, X2):
    return lambda: alias_matrix(np.array(X1), np.array(X2))


class TestSolver:
    """The scaled, row-blocked QR factor behind every fit."""

    def test_hand_solved_system(self, tri_dataset):
        f = fit_implicit(tri_dataset, ModelSpec.nonresponse(parse_terms("x,y")))
        W = np.column_stack([t.evaluate(tri_dataset.x, tri_dataset.y) for t in f.spec.rhs_terms])
        np.testing.assert_allclose(f.coeffs, [1, 1], atol=1e-14)
        np.testing.assert_allclose(f.gram_inverse @ (W.T @ W), np.eye(2), atol=1e-8)

    def test_identity_system(self):
        np.testing.assert_allclose(alias_matrix(np.eye(2), [3.0, -7.0])[:, 0], [3, -7],
                                   atol=1e-14)

    @pytest.mark.parametrize("fit, message", [
        (_alias([[1.0, 0.0], [np.nan, 1.0], [2.0, 1.0], [3.0, 5.0]], [1.0, 2.0, 3.0, 4.0]),
         "X1 entries must be finite"),
        (_alias([[1.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 5.0]], [1.0, np.inf, 3.0, 4.0]),
         "X2 entries must be finite"),
        (_alias([[1.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 5.0]], [1.0, 2.0, 3.0]),
         "X1 and X2 must have the same number of rows, not 4 and 3"),
        (_alias(np.empty((0, 2)), np.empty(0)), "X1 and X2 have no rows"),
        (_alias(np.empty((4, 0)), [1.0, 2.0, 3.0, 4.0]), "X1 has no columns"),
        (_alias([[1.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 5.0]], np.empty((4, 0))),
         "X2 has no columns"),
        (lambda: fit_all_rotations(Dataset([1.0, 0.0, 0.5], [0.0, 1.0, 0.5]), []),
         "a rotation needs at least two terms"),
    ], ids=["nan-in-X1", "inf-in-X2", "4-rows-against-3", "0-rows", "X1-0-columns",
            "X2-0-columns", "rotations-of-no-terms"])
    def test_bad_input_named_before_the_factor(self, fit, message, monkeypatch):
        def no_factor(*args):
            raise AssertionError("factored bad input")
        monkeypatch.setattr(fitters, "_factor", no_factor)
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            fit()

    @pytest.mark.parametrize("fit", [
        lambda: pinwheel_data(Dataset([1.0], [2.0])),
        lambda: alias_matrix(np.array([[1.0, 2.0]]), np.array([3.0])),
        lambda: fit_standard(MultiDataset([1.0], [[2.0]], ("x",))),
    ], ids=["pinwheel-1-row", "alias-1x2", "standard-1-row"])
    def test_fewer_rows_than_columns_underdetermined(self, fit):
        # Every read-off of the factor refuses n < |S| in one place.
        with pytest.raises(Underdetermined):
            fit()

    def test_equal_columns_singular(self):
        W = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSystem, match=r"'X1\[:, 1\]'"):
            alias_matrix(W, np.ones(3))
        d = Dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(SingularSystem, match="'y' is collinear"):
            fit_implicit(d, ModelSpec.nonresponse(parse_terms("x,y")))

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            m = int(rng.integers(1, min(n - 1, 6) + 1))
            W = rng.normal(size=(n, m))
            t = rng.normal(size=n)
            a = alias_matrix(W, t)[:, 0]
            gap = np.max(np.abs(W.T @ (t - W @ a)))
            assert gap <= 1e-8 * max(1.0, np.max(np.abs(W.T @ t)))
            f = fit_standard(MultiDataset(t, W, tuple(f"x{k}" for k in range(m))))
            X = np.column_stack([np.ones(n), W])
            assert np.max(np.abs(f.gram_inverse @ (X.T @ X) - np.eye(m + 1))) <= 1e-8

    def test_offset_exact_circle(self):
        # Normal equations square the condition number and call this design
        # singular; the scaled factor recovers the circle.
        d = generate(GeneratorSpec(Circle(300.0, 300.0, 1.0), n=40, seed=5))
        f = fit_nonresponse(d, list(CONIC_TERMS))
        g = conic_geometry(ConicCoeffs(*f.coeffs))
        np.testing.assert_allclose(g.center, (300.0, 300.0), rtol=0, atol=1e-9)
        np.testing.assert_allclose(g.semi_axes, (1.0, 1.0), rtol=0, atol=1e-9)

    def test_offset_line_r_squared(self):
        # t't - n*tbar^2 cancels at offset 1e5; sums of centered vectors do not.
        rng = np.random.default_rng(89)
        x = 1e5 + rng.uniform(0, 2, size=100)
        y = x + rng.normal(scale=0.02, size=100)
        rotation = fit_rotation(Dataset(x, y), parse_terms("x,y"), 1)
        standard = fit_standard(MultiDataset(y, x[:, None], ("x",)))
        for f in (rotation, standard):
            expected = 1.0 - f.sse / float(np.sum((y - y.mean()) ** 2))
            assert f.r_squared == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
    def test_offset_line_slope(self, offset):
        # A spread 1e-8 of the offset is still a spread, not a constant target.
        x0, y0 = offset_line(0.0)
        x, y = offset_line(offset)
        tol = 10 * unit_condition(np.ones_like(x), x) * np.finfo(float).eps
        base = fit_standard(MultiDataset(y0, x0[:, None], ("x",))).coeffs[1]
        rotation = fit_rotation(Dataset(x, y), parse_terms("x,y"), 1)
        standard = fit_standard(MultiDataset(y, x[:, None], ("x",)))
        assert rotation.coeffs[1] == pytest.approx(base, rel=tol)
        assert standard.coeffs[1] == pytest.approx(base, rel=tol)

    def test_row_blocks_merge_to_the_same_fit(self, monkeypatch):
        rng = np.random.default_rng(61)
        d = random_dataset(rng, n=50)
        whole = fit_all_rotations(d, list(CONIC_TERMS))
        monkeypatch.setattr(fitters, "ROW_BLOCK", 7)
        blocked = fit_all_rotations(d, list(CONIC_TERMS))
        for a, b in zip(whole, blocked):
            np.testing.assert_allclose(b.coeffs, a.coeffs, rtol=1e-10)
            np.testing.assert_allclose(b.cov, a.cov, rtol=1e-8)

    def test_nonresponse_row_blocks_merge_to_the_same_fit(self, monkeypatch):
        rng = np.random.default_rng(61)
        d = random_dataset(rng, n=50)
        whole = fit_nonresponse(d, list(CONIC_TERMS))
        monkeypatch.setattr(fitters, "ROW_BLOCK", 7)
        blocked = fit_nonresponse(d, list(CONIC_TERMS))
        np.testing.assert_allclose(blocked.coeffs, whole.coeffs, rtol=1e-10)
        np.testing.assert_allclose(blocked.cov, whole.cov, rtol=1e-8)
        np.testing.assert_allclose(blocked.fitted, whole.fitted, rtol=1e-12)
        np.testing.assert_array_equal(blocked.target, np.ones(d.n))

    def test_block_domain_error_names_the_data_row(self, monkeypatch):
        # Row 20 falls in the third block of 7; a block-local number would be 6.
        monkeypatch.setattr(fitters, "ROW_BLOCK", 7)
        x = np.linspace(1.0, 3.0, 30)
        x[19] = -1.0
        d = Dataset(x, np.linspace(0.5, 2.0, 30))
        with pytest.raises(DomainError) as exc:
            fit_nonresponse(d, parse_terms("y,x^0.5"))
        assert exc.value.row == 20 and exc.value.term == Term(0.5, 0)

    @pytest.mark.parametrize("block", [7, fitters.ROW_BLOCK])
    def test_domain_error_names_the_first_bad_row(self, monkeypatch, block):
        # x^-0.5 fails at row 2 (x = 0) and row 10 (x = -1), in the same
        # block or in two: the first bad row is named at every block size.
        monkeypatch.setattr(fitters, "ROW_BLOCK", block)
        x = np.linspace(1.0, 3.0, 20)
        x[1], x[9] = 0.0, -1.0
        d = Dataset(x, np.linspace(0.5, 2.0, 20))
        with pytest.raises(DomainError) as exc:
            fit_nonresponse(d, parse_terms("x^-0.5,y"))
        assert exc.value.row == 2 and exc.value.term == Term(-0.5, 0)

    def test_nonresponse_holds_no_design(self):
        # Peak memory: the three output rows (target, fitted, residuals) and
        # block-sized buffers.  A k x n design alone is 9 more rows here.
        terms = parse_terms("x,y,xy,x2,y2,x^3,y^3,x^2*y,x*y^2")
        rng = np.random.default_rng(5)
        n = 3 * fitters.ROW_BLOCK + 5
        d = Dataset(rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n))
        fit_nonresponse(d, terms)           # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            f = fit_nonresponse(d, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.coeffs.shape == (9,)
        k = len(terms) + 1
        assert peak < 3 * n * 8 + 2 * fitters.ROW_BLOCK * k * 8

    def test_all_rotations_evaluate_and_factor_once(self, monkeypatch):
        # One block: x, y, x^2 and y^2 are computed once each and xy is
        # their product; the fill never goes through Term.evaluate.
        d = random_dataset(np.random.default_rng(67))
        calls = count_powers(monkeypatch, d)
        monkeypatch.setattr(Term, "evaluate", lambda *a: calls.update(["evaluate"]))
        factor = fitters._factor
        monkeypatch.setattr(fitters, "_factor",
                            lambda *a: calls.update(["factor"]) or factor(*a))
        results = fit_all_rotations(d, list(CONIC_TERMS))
        assert len(results) == 5 and all(hasattr(r, "coeffs") for r in results)
        assert calls == {("x", 1): 1, ("y", 1): 1, ("x", 2): 1, ("y", 2): 1, "factor": 1}

    @pytest.mark.parametrize("fit", [
        lambda d: fit_nonresponse(d, list(CONIC_TERMS)),
        lambda d: fit_rotation(d, list(CONIC_TERMS), 2),
        lambda d: fit_standard(MultiDataset(d.y, np.column_stack([d.x, d.x * d.y]), ("x", "xy"))),
    ], ids=["nonresponse", "rotation", "standard"])
    def test_single_fit_factors_once(self, monkeypatch, fit):
        calls = []
        factor = fitters._factor
        monkeypatch.setattr(fitters, "_factor", lambda *a: calls.append(1) or factor(*a))
        assert hasattr(fit(random_dataset(np.random.default_rng(71))), "coeffs")
        assert len(calls) == 1


CUBIC_TERMS = parse_terms("x,y,xy,x2,y2,x^3,y^3,x^2*y,x*y^2")
CUBIC_POWERS = [(v, e) for v in "xy" for e in (1, 2, 3)]


def count_powers(monkeypatch, d):
    """A Counter of the block fill's power computations, keyed by
    (variable, exponent); d is the dataset whose x and y are the bases."""
    calls = Counter()
    power = terms._power

    def counting(base, exp, out=None):
        calls[("x" if np.shares_memory(base, d.x) else "y", exp)] += 1
        return power(base, exp, out)
    monkeypatch.setattr(terms, "_power", counting)
    return calls


def four_block_dataset():
    rng = np.random.default_rng(5)
    n = 3 * fitters.ROW_BLOCK + 5
    return Dataset(rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n))


class TestRowsOnRequest:
    """A fit reads the data once, for its factor, and reads every statistic
    off R; its n-length rows are made only when they are read."""

    @pytest.mark.parametrize("fit", [fit_nonresponse, fit_all_rotations])
    def test_peak_is_the_merge_buffer(self, fit):
        # The factor's k x ROW_BLOCK block buffer, in which the batched tile
        # QR runs; nothing grows with n.
        d = four_block_dataset()
        fit(d, CUBIC_TERMS)                 # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            fit(d, CUBIC_TERMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = len(CUBIC_TERMS) + 1
        assert peak <= fitters.ROW_BLOCK * k * 8 + 128 * 1024

    @pytest.mark.parametrize("fit", [
        lambda d: [fit_nonresponse(d, CUBIC_TERMS)],
        lambda d: fit_all_rotations(d, CUBIC_TERMS),
        lambda d: [fit_standard(MultiDataset(d.y, d.x[:, None], ("x",)))],
    ], ids=["nonresponse", "all_rotations", "standard"])
    def test_result_holds_no_row_until_read(self, fit):
        d = four_block_dataset()
        tracemalloc.start()
        try:
            results = fit(d)
            held = tracemalloc.get_traced_memory()[0]
            results[0].residuals
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < d.n * 8
        assert read - held >= 3 * d.n * 8      # target, fitted and residuals, kept

    def test_nonresponse_evaluates_each_term_once_per_block(self, monkeypatch):
        # Each distinct power of x and y is computed once per block, once per
        # pass; the products x*y, x^2*y and x*y^2 reuse them.
        d = four_block_dataset()
        calls = count_powers(monkeypatch, d)
        monkeypatch.setattr(Term, "evaluate", lambda *a: calls.update(["evaluate"]))
        f = fit_nonresponse(d, CUBIC_TERMS)
        assert calls == {p: 4 for p in CUBIC_POWERS}
        f.target, f.fitted, f.residuals
        assert calls == {p: 8 for p in CUBIC_POWERS}    # one pass makes all three rows

    @pytest.mark.parametrize("fit, small", [(fit_nonresponse, 1), (fit_all_rotations, 9)],
                             ids=["nonresponse", "all_rotations"])
    def test_one_small_qr_per_fit(self, monkeypatch, fit, small):
        # Each of the three whole row blocks factors its tiles in one batched
        # QR, and the four row blocks merge into R; the fits are then read off
        # it in one stacked QR of their R[:, S + [j]], one small R each.
        # Every QR is _qr_r's, in place and without Q, its triangle zeroed in
        # place, and the solve is numpy's gufunc: numpy's qr, triu and solve,
        # which copy their inputs or outputs, are not called.
        calls = []
        qr = fitters._qr_r

        def counting(a):
            calls.append("merge" if a.ndim == 2 and len(a) > k else a.shape)
            return qr(a)
        monkeypatch.setattr(fitters, "_qr_r", counting)
        for module, name in ((np.linalg, "qr"), (np, "triu"), (np.linalg, "solve")):
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, **kw: pytest.fail(f"numpy's {name} called"))
        k = len(CUBIC_TERMS) + 1
        fit(four_block_dataset(), CUBIC_TERMS)
        tiles = (fitters.ROW_BLOCK // fitters.TILE, fitters.TILE, k)
        assert Counter(calls) == {tiles: 3, "merge": 4, (small, k, k): 1}

    def test_constant_pivot_reads_the_data_once(self, monkeypatch):
        d = four_block_dataset()
        d = Dataset(d.x, np.full(d.n, 2.5))
        calls = count_powers(monkeypatch, d)
        monkeypatch.setattr(Term, "evaluate", lambda *a: calls.update(["evaluate"]))
        with pytest.raises(ZeroVariance):
            fit_rotation(d, parse_terms("x,y,x2"), 1)
        assert calls == {("x", 1): 4, ("y", 1): 4, ("x", 2): 4}

    @pytest.mark.parametrize("case", ["nonresponse", "rotation", "all_rotations", "standard",
                                      "term_without_intercept"])
    def test_rows_and_sums_match_the_design(self, monkeypatch, case):
        monkeypatch.setattr(fitters, "ROW_BLOCK", 7)
        d = random_dataset(np.random.default_rng(83), n=40)
        T = {t: t.evaluate(d.x, d.y) for t in CONIC_TERMS}
        one = np.ones(d.n)
        x, y, xy = parse_terms("x,y,xy")
        if case == "nonresponse":
            fits = [(fit_nonresponse(d, list(CONIC_TERMS)), list(T.values()), one)]
        elif case in ("rotation", "all_rotations"):
            pivots = [2] if case == "rotation" else range(5)
            results = ([fit_rotation(d, list(CONIC_TERMS), 2)] if case == "rotation"
                       else fit_all_rotations(d, list(CONIC_TERMS)))
            fits = [(f, [one] + [v for t, v in T.items() if t != CONIC_TERMS[p]], T[CONIC_TERMS[p]])
                    for f, p in zip(results, pivots)]
        elif case == "standard":
            fits = [(fit_standard(MultiDataset(d.y, np.column_stack([d.x, T[xy]]), ("x", "xy"))),
                     [one, d.x, T[xy]], d.y)]
        else:
            spec = ModelSpec(LhsKind.TERM, (x, xy), intercept=False, lhs_term=y)
            fits = [(fit_implicit(d, spec), [T[x], T[xy]], T[y])]
        for f, columns, t in fits:
            assert not {"target", "fitted", "residuals"} & set(vars(f))     # not made yet
            X = np.column_stack(columns)
            np.testing.assert_array_equal(f.target, t)
            np.testing.assert_array_equal(f.residuals, f.target - f.fitted)
            # A sum of m products rounds within a few eps of the sum of their
            # magnitudes, whatever the order of summation.
            assert np.all(np.abs(f.fitted - X @ f.coeffs) <= 1e-13 * (np.abs(X) @ np.abs(f.coeffs)))
            fit = X @ f.coeffs
            assert f.sse == pytest.approx(float(np.sum((t - fit) ** 2)), rel=1e-9)
            if f.spec.lhs is LhsKind.UNITY:
                r2 = float(np.sum(fit)) / d.n
            else:
                r2 = float(np.sum((fit - t.mean()) ** 2) / np.sum((t - t.mean()) ** 2))
            assert f.r_squared == pytest.approx(r2, rel=1e-9)


FILL_EXPONENTS = [0, 1, 2, 3, -1, -2, 0.5, 1.5, -0.5]
# Zeros of both signs and negative values make powers undefined; 1e200
# squares past the float range, and 1.5e308 sums past it while every entry
# stays finite.
FILL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-200, 1e200, -1e200, 1.5e308]


class TestTiledFactor:
    """_factor's two-level tree (a batched QR of each block's tiles, then one
    merge) against the dense QR of the whole design."""

    @pytest.mark.parametrize("blocks, tiles, rows, k, block, tile", [
        (0, 0, 300, 10, None, None),
        (0, 1, 0, 10, None, None),
        (0, 3, 17, 10, None, None),
        (2, 1, 5, 10, None, None),
        (0, 0, 50, 10, 7, None),
        (0, 0, 350, 10, 100, 32),
        (0, 0, 200, 10, 64, 4),
        (0, 2, 300, 1, None, None),
    ], ids=["below_one_tile", "one_tile", "tiles_and_rows_left", "short_last_block",
            "block_7", "block_not_a_tile_multiple", "wider_than_a_tile", "one_column"])
    def test_matches_the_dense_factor(self, monkeypatch, blocks, tiles, rows, k, block, tile):
        # n = blocks whole ROW_BLOCKs, then tiles whole TILEs, then rows more.
        if block is not None:
            monkeypatch.setattr(fitters, "ROW_BLOCK", block)
        if tile is not None:
            monkeypatch.setattr(fitters, "TILE", tile)
        n = blocks * fitters.ROW_BLOCK + tiles * fitters.TILE + rows
        rng = np.random.default_rng(n + k)
        Z = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2, 2, (k, 1))
        scale, R = fitters._factor(terms._source(list(Z)), k, n)
        R = R * scale
        dense = np.linalg.qr(Z.T, mode="r")
        np.testing.assert_allclose(np.abs(np.diag(R)), np.abs(np.diag(dense)), rtol=1e-12)
        gram = Z @ Z.T
        assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)
        np.testing.assert_allclose(scale, np.linalg.norm(Z, axis=1), rtol=1e-12)

    def test_peak_is_the_block_buffer(self):
        # The tile QR runs in the block buffer itself; a copy of the tile
        # stack would double the peak.
        n, k = 20000, 10
        fill = terms._source(list(np.random.default_rng(101).standard_normal((k, n))))
        fitters._factor(fill, k, n)         # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            fitters._factor(fill, k, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fitters.ROW_BLOCK * k * 8 + 128 * 1024

    @pytest.mark.parametrize("shape", ["tile_stack", "tall", "wide", "small_stack"])
    def test_in_place_r_is_numpys_bitwise(self, shape):
        # _qr_r overwrites its input with the Householder factors, and its R
        # is numpy's mode "r" R to the bit: on the strided tile stack of a
        # term-major buffer (its rows left over untouched), on one matrix
        # taller or wider than it is long, and on a stack of small ones.
        rng = np.random.default_rng(103)
        buf = rng.standard_normal((10, 5 * 64 + 17)) * 10.0 ** rng.uniform(-2, 2, (10, 1))
        left = buf[:, 5 * 64:].copy()
        a = {"tile_stack": buf[:, :5 * 64].reshape(10, 5, 64).transpose(1, 2, 0),
             "tall": buf[:, :300].T.copy(),
             "wide": buf[:3].copy(),
             "small_stack": buf[:, [[0, 3, 5], [1, 2, 4]]].transpose(1, 0, 2)}[shape]
        want = np.linalg.qr(a, mode="r")
        before = a.copy()
        got = fitters._qr_r(a)
        assert got.shape == want.shape
        np.testing.assert_array_equal(bits(got), bits(want))
        assert not np.array_equal(a, before)
        np.testing.assert_array_equal(buf[:, 5 * 64:], left)

    def test_domain_error_in_a_later_tile(self):
        # The first undefined entry is x^-1 on the third tile of the second
        # block; x^0.5 fails one tile later, and the error names the first.
        T, B = fitters.TILE, fitters.ROW_BLOCK
        n = B + 4 * T
        x = np.linspace(1.0, 3.0, n)
        first = B + 2 * T + 10
        x[first], x[first + T] = 0.0, -1.0
        d = Dataset(x, np.linspace(0.5, 2.0, n))
        with pytest.raises(DomainError) as exc:
            fit_nonresponse(d, parse_terms("y,x^0.5,x^-1"))
        assert exc.value.row == first + 1 and exc.value.term == Term(-1, 0)


@st.composite
def fill_sources(draw):
    """A dataset and the columns of a design on it: terms with integer,
    negative and fractional exponents, vectors, and the unit constant."""
    n = draw(st.integers(1, 30))
    values = st.lists(st.sampled_from(FILL_VALUES), min_size=n, max_size=n).map(np.array)
    d = Dataset(draw(values), draw(values))
    term = st.builds(Term, st.sampled_from(FILL_EXPONENTS), st.sampled_from(FILL_EXPONENTS))
    columns = draw(st.lists(st.one_of(term, term, values, st.just(1.0)), min_size=1, max_size=6))
    return d, columns


def reference_design(columns, d):
    """Z' made whole, column by column: a term is the product of its
    terms._power powers of the whole x and y columns (1 for the intercept),
    a vector is itself and a constant fills its row.  Also the (term, data
    row) a fill must name: the first non-finite term entry in row-major
    order, that is the first such row and on it the first such term in
    column order; None when every term entry is finite."""
    Z = np.empty((len(columns), d.n))
    with np.errstate(all="ignore"):
        for row, col in zip(Z, columns):
            if not isinstance(col, Term):
                row[:] = col
                continue
            powers = [np.array(terms._power(base, e))
                      for base, e in ((d.x, col.x_exp), (d.y, col.y_exp)) if e != 0]
            row[:] = powers[0] * powers[1] if len(powers) == 2 else powers[0] if powers else 1.0
    for r in range(d.n):
        for col, row in zip(columns, Z):
            if isinstance(col, Term) and not math.isfinite(row[r]):
                return Z, (col, r + 1)
    return Z, None


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockFill:
    """The block source computes each distinct power once per block and
    writes the terms in place.  Its rows are the whole-column products of
    terms._power, bit for bit, and its DomainError names the first
    non-finite term entry in row-major order, whatever the block size."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(fill_sources())
    def test_rows_and_errors_match_evaluate(self, case):
        d, columns = case
        k, n = len(columns), d.n
        Z, expect = reference_design(columns, d)
        for block in (7, fitters.ROW_BLOCK):        # blocks of 7, then one block
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fitters, "ROW_BLOCK", block)
                fill = terms._source(columns, d.x, d.y)
                buf = np.full((k, n + 2), 7.25)     # strided blocks, as the factor writes them
                got = None
                for a in range(0, n, block):
                    b = min(a + block, n)
                    try:
                        fill(buf[:, 1 + a:1 + b], a, b)
                    except DomainError as exc:
                        got = exc.term, exc.row
                        break
                    np.testing.assert_array_equal(bits(buf[:, 1 + a:1 + b]), bits(Z[:, a:b]))
                assert got == expect
                assert (buf[:, [0, -1]] == 7.25).all()
                if expect is not None:
                    # The factor's pass stops at the same term and row.
                    with pytest.raises(DomainError) as exc:
                        fitters._factor(fill, k, n)
                    assert (exc.value.term, exc.value.row) == expect
        # Term.evaluate is the fill of one term: its column, or its first bad row.
        for col, want in zip(columns, Z):
            if isinstance(col, Term):
                bad = ~np.isfinite(want)
                if bad.any():
                    with pytest.raises(DomainError) as exc:
                        col.evaluate(d.x, d.y)
                    assert (exc.value.term, exc.value.row) == (col, int(np.argmax(bad)) + 1)
                else:
                    np.testing.assert_array_equal(bits(col.evaluate(d.x, d.y)), bits(want))


class TestStackedReadOff:
    """fit_all_rotations reads its fits off R in one stacked pass; each slot
    is what the single fit on that pivot gives."""

    FIELDS = ("coeffs", "stderr", "t_stats", "cov", "gram_inverse", "sse", "r_squared",
              "sigma2_hat", "f_stat", "column_labels")

    def test_all_rotations_match_single_fits_bitwise(self):
        d = generate(GeneratorSpec(Ellipse(3.0, -2.0, 2.0, 1.0, 0.5), 3 * fitters.ROW_BLOCK + 5,
                                   0.05, 7))
        for pivot, f in enumerate(fit_all_rotations(d, CUBIC_TERMS)):
            g = fit_rotation(d, CUBIC_TERMS, pivot)
            for name in self.FIELDS:
                a, b = getattr(f, name), getattr(g, name)
                if isinstance(a, list):
                    assert a == b
                else:
                    np.testing.assert_array_equal(bits(np.asarray(a, float)),
                                                  bits(np.asarray(b, float)), err_msg=name)

    def singles(self, d, terms):
        out = []
        for pivot in range(len(terms)):
            try:
                out.append(fit_rotation(d, terms, pivot))
            except (SingularSystem, ZeroVariance) as exc:
                out.append(exc)
        return out

    def test_circle_through_origin_keeps_the_collinear_term(self):
        # x^2 + y^2 = 2x: with y or xy as the pivot, y^2 is collinear.
        d = generate(GeneratorSpec(Circle(1.0, 0.0, 1.0), 200))
        stacked = fit_all_rotations(d, list(CONIC_TERMS))
        for pivot, (f, g) in enumerate(zip(stacked, self.singles(d, list(CONIC_TERMS)))):
            if pivot in (1, 2):
                for e in (f, g):
                    assert isinstance(e, SingularSystem)
                    assert str(e) == "singular system: 'y^2' is collinear with the columns before it"
            else:
                np.testing.assert_array_equal(bits(f.coeffs), bits(g.coeffs))

    def test_constant_pivot_keeps_zero_variance(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.uniform(0, 10, 50), np.full(50, 2.5))
        terms = parse_terms("x,y,x2")
        stacked = fit_all_rotations(d, terms)
        assert [type(f) for f in stacked] == [SingularSystem, ZeroVariance, SingularSystem]
        assert [str(f) for f in stacked] == [str(g) for g in self.singles(d, terms)]
        assert "'y' is collinear" in str(stacked[0])

    def test_underdetermined_fills_every_slot(self):
        d = Dataset([1.0, 2.0, 3.0], [2.0, 1.0, 5.0])
        stacked = fit_all_rotations(d, CUBIC_TERMS)
        assert len(stacked) == 9 and all(isinstance(f, Underdetermined) for f in stacked)


class TestAliasMatrix:
    def test_vector_x1_is_one_column(self):
        x1, x2 = np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.1])
        np.testing.assert_array_equal(alias_matrix(x1, x2), alias_matrix(x1[:, None], x2))
        assert alias_matrix(x1, x2)[0, 0] == pytest.approx(28.3 / 14, rel=1e-14)

    def test_projection_onto_constant(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        A = alias_matrix(np.ones((4, 1)), x)
        assert A[0, 0] == pytest.approx(np.mean(x), abs=1e-14)

    def test_exact_representability(self):
        rng = np.random.default_rng(17)
        X1 = rng.normal(size=(10, 3))
        A = alias_matrix(X1, X1[:, 1])
        np.testing.assert_allclose(A[:, 0], [0, 1, 0], atol=1e-10)

    def test_full_conic_pivot(self):
        rng = np.random.default_rng(19)
        d = random_dataset(rng)
        X1 = np.column_stack([np.ones(d.n), d.y, d.x * d.y, d.x**2, d.y**2])
        A = alias_matrix(X1, d.x)
        f = fit_rotation(d, list(CONIC_TERMS), pivot=0)
        np.testing.assert_allclose(A[:, 0], f.coeffs, atol=1e-10)

    def test_many_columns_one_factor(self, monkeypatch):
        rng = np.random.default_rng(23)
        X1 = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        X2 = rng.normal(size=(40, 3))
        singles = np.column_stack([alias_matrix(X1, c) for c in X2.T])
        lstsq = np.linalg.lstsq(X1, X2, rcond=None)[0]
        calls = []
        factor = fitters._factor
        monkeypatch.setattr(fitters, "_factor", lambda *a: calls.append(1) or factor(*a))
        A = alias_matrix(X1, X2)
        assert A.shape == (4, 3) and len(calls) == 1
        np.testing.assert_allclose(A, singles, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(A, lstsq, rtol=1e-10, atol=1e-10)


class TestFitStandard:
    def test_hand_fixture(self):
        md = MultiDataset([0.0, 1.0, 1.0], [[0.0], [1.0], [2.0]], ("x",))
        f = fit_standard(md)
        np.testing.assert_allclose(f.coeffs, [1 / 6, 1 / 2], atol=1e-12)
        assert f.r_squared == pytest.approx(0.75, abs=1e-12)
        assert f.sse == pytest.approx(1 / 6, abs=1e-12)

    def test_exact_plane(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(20, 2))
        y = 1.0 + 2.0 * X[:, 0] - X[:, 1]
        f = fit_standard(MultiDataset(y, X, ("x1", "x2")))
        assert f.r_squared == pytest.approx(1.0, abs=1e-12)
        assert f.sse == pytest.approx(0.0, abs=1e-20)

    def test_constant_response(self):
        with pytest.raises(ZeroVariance):
            fit_standard(MultiDataset([3.0, 3.0, 3.0], [[1.0], [2.0], [3.0]], ("x",)))

    def test_spread_within_factor_rounding_is_constant(self):
        # An RMS spread of 1e-14 of the mean, at n = 200, is within R's
        # rounding (about 1.9e-14 here): R alone calls the target constant.
        n = 200
        x = np.random.default_rng(n).uniform(0, 10, n)
        t = 1.0 + 1e-14 * np.resize([1.0, -1.0], n)
        with pytest.raises(ZeroVariance):
            fit_standard(MultiDataset(t, x[:, None], ("x",)))
        with pytest.raises(ZeroVariance):
            fit_rotation(Dataset(x, t), parse_terms("x,y"), 1)

    @pytest.mark.parametrize("value", [0.0, 1.0, 3.3, 0.1, 1e7, 1e8, -2.5e15, 1e-300])
    @pytest.mark.parametrize("n", [3, 200, 10001, 200000])
    def test_constant_target_raises_at_any_offset(self, value, n):
        x = np.random.default_rng(n).uniform(0, 10, n)
        t = np.full(n, value)
        with pytest.raises(ZeroVariance):
            fit_standard(MultiDataset(t, x[:, None], ("x",)))
        with pytest.raises(ZeroVariance):
            fit_rotation(Dataset(x, t), parse_terms("x,y"), 1)


class TestClosedForms:
    @pytest.mark.parametrize("call, error", [
        (lambda: slr_closed([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]), InvalidSpec),
        (lambda: nra2_closed([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]), InvalidSpec),
        (lambda: slr_closed([1.0, 2.0], [1.0, 2.0, 3.0]), InvalidSpec),
        (lambda: nra2_closed([1.0, 2.0, 3.0], [1.0, 2.0]), InvalidSpec),
        (lambda: univariate_nra([1.0, np.nan, 2.0]), InvalidSpec),
        (lambda: univariate_nra([]), EmptyDataset),
        (lambda: beta_from_alpha([]), InvalidSpec),
        (lambda: alpha_from_beta([]), InvalidSpec),
    ], ids=["slr-nan", "nra2-nan", "slr-2-against-3", "nra2-3-against-2", "univariate-nan",
            "univariate-empty", "beta-empty", "alpha-empty"])
    def test_bad_input_is_refused_as_a_dataset_is(self, call, error):
        with pytest.raises(error):
            call()

    def test_slr_two_points(self):
        b0, b1 = slr_closed([0.0, 1.0], [1.0, 3.0])
        assert (b0, b1) == pytest.approx((1.0, 2.0), abs=1e-14)

    def test_slr_hand_fixture(self):
        b0, b1 = slr_closed([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert b0 == pytest.approx(1 / 6, abs=1e-14)
        assert b1 == pytest.approx(1 / 2, abs=1e-14)

    def test_slr_constant_x(self):
        with pytest.raises(SingularSystem):
            slr_closed([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_slr_matches_fit_standard(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        b0, b1 = slr_closed(x, y)
        f = fit_standard(MultiDataset(y, x[:, None], ("x",)))
        np.testing.assert_allclose([b0, b1], f.coeffs, rtol=1e-10, atol=1e-12)

    def test_nra2_hand_fixture(self, tri_dataset):
        a1, a2 = nra2_closed(tri_dataset.x, tri_dataset.y)
        assert (a1, a2) == pytest.approx((1.0, 1.0), abs=1e-14)

    def test_nra2_two_points(self):
        assert nra2_closed([1.0, 0.0], [0.0, 1.0]) == pytest.approx((1.0, 1.0), abs=1e-14)

    def test_nra2_proportional(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularSystem):
            nra2_closed(x, 2 * x)

    def test_nra2_matches_fit_nonresponse(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = random_dataset(rng)
            a1, a2 = nra2_closed(d.x, d.y)
            f = fit_nonresponse(d, parse_terms("x,y"))
            np.testing.assert_allclose([a1, a2], f.coeffs, rtol=1e-10, atol=1e-12)


class TestUnivariate:
    def test_constant(self):
        r = univariate_nra(np.array([1.0, 1.0, 1.0]))
        assert r.alpha == 1 and r.mu_hat == 1 and r.r2 == 1

    def test_hand_fixture(self):
        r = univariate_nra(np.array([1.0, 2.0, 3.0]))
        assert r.alpha == pytest.approx(3 / 7, abs=1e-15)
        assert r.mu_hat == pytest.approx(7 / 3, abs=1e-15)
        assert r.r2 == pytest.approx(6 / 7, abs=1e-15)

    def test_zero_sum(self):
        with pytest.raises(MeanUndefined) as exc:
            univariate_nra(np.array([-1.0, 1.0]))
        assert exc.value.alpha == 0.0 and exc.value.r2 == 0.0

    def test_all_zero(self):
        with pytest.raises(ZeroVariance):
            univariate_nra(np.zeros(4))

    def test_noise_lowers_r2(self):
        base = np.full(50, 5.0)
        rng = np.random.default_rng(37)
        noise = rng.normal(0, 1, size=50)
        noise -= noise.mean()    # mean-preserving perturbation
        r_clean = univariate_nra(base).r2
        r_noisy = univariate_nra(base + noise).r2
        assert r_noisy < r_clean == 1.0


class TestConversion:
    @pytest.mark.parametrize("convert", [beta_from_alpha, alpha_from_beta])
    def test_overflow_raises_without_warning(self, convert):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation):
                convert([1e-320, 1.0])
            assert np.isnan(convert([np.nan, 1.0])).all()      # not finite in, no check

    def test_substitution(self):
        beta = beta_from_alpha([1.0, -2.0])
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-15)

    def test_round_trip(self):
        beta = np.array([5.0, -3.0])
        np.testing.assert_allclose(beta_from_alpha(alpha_from_beta(beta)), beta, atol=1e-15)

    def test_zero_alpha0(self):
        with pytest.raises(ConversionUndefined):
            beta_from_alpha([0.0, 1.0])


class TestOracleEquivalence:
    TERM_EXPS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]

    def test_nonresponse_vs_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m = int(rng.integers(2, 6))
            exps = self.TERM_EXPS[:m]
            d = random_dataset(rng)
            f = fit_nonresponse(d, [Term(a, b) for a, b in exps])
            ref = oracles.nonresponse_oracle(d.x, d.y, exps)
            np.testing.assert_allclose(f.coeffs, ref, rtol=1e-8)

    def test_rotation_vs_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            m = int(rng.integers(2, 6))
            exps = self.TERM_EXPS[:m]
            pivot = int(rng.integers(0, m))
            d = random_dataset(rng)
            f = fit_rotation(d, [Term(a, b) for a, b in exps], pivot)
            ref = oracles.rotation_oracle(d.x, d.y, exps, pivot)
            np.testing.assert_allclose(f.coeffs, ref, rtol=1e-8)


class TestStationarityAndSpan:
    def test_gamma_equations_and_span(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = random_dataset(rng)
            f = fit_nonresponse(d, parse_terms("x,y"))
            a1, a2 = f.coeffs
            x, y = d.x, d.y
            scale = max(1.0, abs(np.sum(x)), abs(np.sum(y)))
            assert abs(a1 * np.sum(x**2) + a2 * np.sum(x * y) - np.sum(x)) <= 1e-8 * scale
            assert abs(a1 * np.sum(x * y) + a2 * np.sum(y**2) - np.sum(y)) <= 1e-8 * scale
            span = float(np.sum(a1 * x + a2 * y))
            assert span == pytest.approx(d.n * f.r_squared, rel=1e-10)
            assert span <= d.n + 1e-9

    def test_span_equality_on_exact_data(self, tri_dataset):
        f = fit_nonresponse(tri_dataset, parse_terms("x,y"))
        a1, a2 = f.coeffs
        span = float(np.sum(a1 * tri_dataset.x + a2 * tri_dataset.y))
        assert span == pytest.approx(tri_dataset.n, abs=1e-10)
