import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import offset_line, unit_condition
from implicitreg import (
    ConicCoeffs,
    Dataset,
    Ellipse,
    GeneratorSpec,
    MultiDataset,
    diagnostics,
    fit_all_rotations,
    fit_nonresponse,
    FitResult,
    fit_standard,
    generate,
    load_csv,
    load_multi_csv,
    nra2_closed,
    ols_orthogonality_check,
    parse_terms,
    pinwheel_data,
    reconstruct_from_conic,
    separation_bivariate,
    separation_from_conic,
    separation_univariate,
    slr_closed,
    solve_for_x,
    solve_for_y,
    univariate_nra,
)
from implicitreg.errors import (
    InterceptRequired,
    InvalidSpec,
    NoSolutionAtPoint,
    TriangleViolation,
    ZeroVariance,
)
from implicitreg.fitters import ROW_BLOCK

SLR_Y = np.array([0.0, 1.0, 1.0])
SLR_YHAT = np.array([1 / 6, 2 / 3, 7 / 6])


class TestSeparationUnivariate:
    def test_hand_fixture(self):
        d = separation_univariate(SLR_Y, SLR_YHAT)
        assert d.sst == pytest.approx(2 / 3, abs=1e-14)
        assert d.ssm == pytest.approx(1 / 2, abs=1e-14)
        assert d.sse == pytest.approx(1 / 6, abs=1e-14)
        assert d.theta_t == pytest.approx(90.0, abs=1e-9)
        assert d.theta_m == pytest.approx(60.0, abs=1e-9)
        assert d.ratio == pytest.approx(1.0, abs=1e-12)
        assert d.height == pytest.approx(math.sqrt(1 / 18) * math.sin(math.radians(60)), abs=1e-12)

    def test_exact_fit_flagged(self):
        d = separation_univariate(SLR_Y, SLR_Y)
        assert d.perfect_fit and d.theta_t is None
        assert d.sse == 0.0

    def test_mean_only_model_flagged(self):
        # Estimates at the mean explain nothing: no perfect fit, and the
        # warning names the cause.
        yhat = np.full(3, np.mean(SLR_Y))
        d = separation_univariate(SLR_Y, yhat)
        assert not d.perfect_fit
        assert d.ssm == pytest.approx(0.0, abs=1e-15)
        assert d.warning.startswith("the model explains no variation (SSM = 0)")

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            separation_univariate(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]))

    def test_varying_data_with_far_estimates(self):
        # SST is tiny beside SSM and SSE, but y varies: the angles exist.
        d = separation_univariate([0, 1e-3, 2e-3, 3e-3], [1e6, -1e6, 1e6, -1e6])
        assert d.sst == pytest.approx(5e-6, rel=1e-12)
        assert d.theta_t == pytest.approx(0, abs=1e-5)
        assert not d.perfect_fit and d.warning is None

    def test_law_of_cosines_closure(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            y = rng.normal(size=12)
            yhat = y + rng.normal(scale=0.5, size=12)
            d = separation_univariate(y, yhat)
            if d.perfect_fit:
                continue
            rebuilt = d.ssm + d.sse - 2 * math.sqrt(d.ssm * d.sse) * math.cos(math.radians(d.theta_t))
            assert rebuilt == pytest.approx(d.sst, rel=1e-9)
            assert 0.0 <= d.theta_t <= 180.0 and 0.0 <= d.theta_m <= 180.0

    def test_vector_identity(self):
        # T = M + E componentwise, so SST = SSM + SSE + 2*sum(M*E).
        rng = np.random.default_rng(73)
        y = rng.normal(size=20)
        yhat = y + rng.normal(scale=0.3, size=20)
        ybar = y.mean()
        M = yhat - ybar
        E = y - yhat
        d = separation_univariate(y, yhat)
        assert d.sst == pytest.approx(d.ssm + d.sse + 2 * float(M @ E), rel=1e-12)

    def test_triangle_violation(self):
        with pytest.raises(TriangleViolation):
            # sides that cannot close a triangle by a wide margin
            from implicitreg.diagnostics import _from_sums
            _from_sums(100.0, 1.0, 1.0, 4)


class TestSeparationBivariate:
    def test_exact_estimates(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 3.0, 2.0])
        d = separation_bivariate(x, x, y, y)
        assert d.perfect_fit

    def test_degenerate_point_cloud(self):
        ones = np.ones(4)
        with pytest.raises(ZeroVariance):
            separation_bivariate(ones, ones, ones, ones)

    def test_exact_circle_reconstruction(self, circle6):
        f = fit_nonresponse(circle6, parse_terms("x,y,xy,x2,y2"))
        c = ConicCoeffs(*f.coeffs)
        x_hat, y_hat, bad = reconstruct_from_conic(c, circle6)
        assert bad == 0
        d = separation_bivariate(circle6.x, x_hat, circle6.y, y_hat)
        assert d.perfect_fit and d.unreconstructed == 0

    def test_unreconstructed_tally(self):
        # unit circle coefficients; one observation far outside x-range
        c = ConicCoeffs(0, 0, 0, 1, 1)
        d = Dataset([0.0, 1.0, 5.0], [1.0, 0.0, 5.0])
        x_hat, y_hat, bad = reconstruct_from_conic(c, d)
        assert bad == 1
        sep = separation_bivariate(d.x, x_hat, d.y, y_hat)
        assert sep.unreconstructed == 1


def whole_array_sums(pairs):
    """SST, SSM, SSE and the unreconstructed count over whole arrays: the
    formulas the block sums must reproduce."""
    ok = np.all([np.isfinite(est) for _, est in pairs], axis=0)
    sst = ssm = sse = 0.0
    for obs, est in pairs:
        mean = np.mean(obs)
        sst += np.sum((obs - mean) ** 2)
        ssm += np.sum((est[ok] - mean) ** 2)
        sse += np.sum((est[ok] - obs[ok]) ** 2) + np.sum((obs[~ok] - mean) ** 2)
    return sst, ssm, sse, int(np.sum(~ok))


class TestObservedEntries:
    X, Y = np.array([1.0, 2.0, 4.0, 3.0]), np.array([3.0, 1.0, 2.0, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["univariate", "bivariate-x", "bivariate-y"])
    def test_non_finite_observation_is_refused(self, bad, where):
        x, y = self.X.copy(), self.Y.copy()
        (x if where == "bivariate-x" else y)[1] = bad
        with pytest.raises(InvalidSpec, match="observed entries must be finite"):
            if where == "univariate":
                separation_univariate(y, self.Y + 0.1)
            else:
                separation_bivariate(x, self.X + 0.1, y, self.Y + 0.1)

    @pytest.mark.parametrize("call", [
        lambda: separation_univariate([1.0, 2.0, 3.0], [1.0, 2.0]),
        lambda: separation_univariate([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
        lambda: separation_bivariate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 2.0]),
        lambda: separation_bivariate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                     [1.0, 2.0]),
        lambda: separation_bivariate(*[[[1.0, 2.0], [3.0, 4.0]]] * 4),
        lambda: separation_univariate(1.0, 1.0),
    ], ids=["univariate-lengths", "univariate-2d", "bivariate-observed-lengths",
            "bivariate-estimate-length", "bivariate-2d", "scalar"])
    def test_unpaired_input_is_bad_input(self, call):
        with pytest.raises(InvalidSpec, match="must be equal-length vectors"):
            call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_is_unreconstructed(self, bad):
        x_hat, y_hat = self.X + 0.1, self.Y + 0.1
        y_hat[1] = bad
        assert separation_bivariate(self.X, x_hat, self.Y, y_hat).unreconstructed == 1
        assert separation_univariate(self.Y, y_hat).unreconstructed == 1


class TestBlockSums:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           lost=st.sets(st.integers(0, 59), max_size=12))
    def test_block_sums_match_whole_arrays(self, n, seed, lost):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(3.0, 2.0, n), rng.normal(-2.0, 1.0, n)
        x_hat = x + rng.normal(0.0, 0.3, n)
        y_hat = y + rng.normal(0.0, 0.3, n)
        # NaN rows on both sides of the edges of blocks of 7, plus drawn ones
        rows = [r for r in {*lost, 6, 7, 13, 14} if r < n - 1]
        x_hat[rows[::2]] = np.nan
        y_hat[rows[1::2]] = np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "ROW_BLOCK", 7)
            cases = [(separation_bivariate(x, x_hat, y, y_hat), [(x, x_hat), (y, y_hat)]),
                     (separation_univariate(y, y_hat), [(y, y_hat)])]
        for got, pairs in cases:
            sst, ssm, sse, unreconstructed = whole_array_sums(pairs)
            assert got.sst == pytest.approx(sst, rel=1e-12)
            assert got.ssm == pytest.approx(ssm, rel=1e-12, abs=1e-300)
            assert got.sse == pytest.approx(sse, rel=1e-12)
            assert got.unreconstructed == unreconstructed

    def test_separation_holds_block_sized_temporaries(self):
        rng = np.random.default_rng(7)
        n = 3 * ROW_BLOCK + 5
        x, y = rng.normal(size=n), rng.normal(size=n)
        x_hat, y_hat = x + 0.1, y - 0.1
        x_hat[ROW_BLOCK - 1:ROW_BLOCK + 1] = np.nan
        separation_bivariate(x, x_hat, y, y_hat)
        tracemalloc.start()
        try:
            sep = separation_bivariate(x, x_hat, y, y_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sep.unreconstructed == 2
        assert peak < 6 * ROW_BLOCK * 8


def nearest_per_row(c, d):
    """Reference reconstruction: a nearest pick per row over the scalar solvers
    (memoised per distinct value, so large n stays cheap)."""
    memo = {}

    def pick(solve, at, observed):
        if (solve, at) not in memo:
            try:
                memo[solve, at] = solve(c, at)
            except NoSolutionAtPoint:
                memo[solve, at] = []
        roots = memo[solve, at]
        return min(roots, key=lambda r: (abs(r - observed), r)) if roots else np.nan

    x_hat = np.array([pick(solve_for_x, yi, xi) for xi, yi in zip(d.x, d.y)])
    y_hat = np.array([pick(solve_for_y, xi, yi) for xi, yi in zip(d.x, d.y)])
    return x_hat, y_hat, int(np.sum(~(np.isfinite(x_hat) & np.isfinite(y_hat))))


class TestReconstruction:
    def test_tie_takes_smaller_root(self):
        x_hat, y_hat, bad = reconstruct_from_conic(ConicCoeffs(0, 0, 0, 1, 1),
                                                   Dataset([0.0], [0.0]))
        assert (x_hat[0], y_hat[0], bad) == (-1.0, -1.0, 0)

    def test_linear_relation(self):
        # x + y = 1 (a5 = 0): one root per coordinate
        x_hat, y_hat, bad = reconstruct_from_conic(ConicCoeffs(1, 1),
                                                   Dataset([0.25, 2.0], [0.5, -3.0]))
        np.testing.assert_array_equal(x_hat, [0.5, 4.0])
        np.testing.assert_array_equal(y_hat, [0.75, -1.0])
        assert bad == 0

    def test_free_row_is_unreconstructed(self):
        # 1 = x - y + xy, i.e. (x - 1)(y + 1) = 0: at x = 1 every y solves it
        c = ConicCoeffs(1, -1, 1)
        x_hat, y_hat, bad = reconstruct_from_conic(c, Dataset([1.0, 3.0], [2.0, 0.5]))
        assert np.isnan(y_hat[0]) and x_hat[0] == 1.0
        assert y_hat[1] == -1.0 and x_hat[1] == 1.0
        assert bad == 1

    def test_matches_per_row_scalar_solves(self):
        # Quarter-grid data on quarter-grid conics past one block boundary
        # (exact ties and double roots), then continuous data; plus rows on
        # the tangents, where the discriminant snaps, and free rows.
        rng = np.random.default_rng(97)
        for case in range(8):
            a = rng.normal(size=5)
            a[3] = abs(a[3])
            a[4] = 0.0 if case % 2 else abs(a[4])
            n, grid = (ROW_BLOCK + 3, 4) if case < 4 else (300, None)
            if grid:
                a = np.round(a * grid) / grid
            x, y = rng.normal(scale=3, size=(2, n))
            if grid:
                x, y = np.round(x * grid) / grid, np.round(y * grid) / grid
            disc_in_x = [a[2] ** 2 - 4 * a[4] * a[3], 2 * a[1] * a[2] - 4 * a[4] * a[0],
                         a[1] ** 2 + 4 * a[4]]
            tangents = [r.real for r in np.roots(disc_in_x) if r.imag == 0]
            x[:len(tangents)] = tangents
            if a[4] == 0.0 and a[2] != 0.0:
                x[-2:] = -a[1] / a[2]      # free rows
            c = ConicCoeffs(*a)
            d = Dataset(x, y)
            x_hat, y_hat, bad = reconstruct_from_conic(c, d)
            ref_x, ref_y, ref_bad = nearest_per_row(c, d)
            assert np.array_equal(x_hat, ref_x, equal_nan=True)
            assert np.array_equal(y_hat, ref_y, equal_nan=True)
            assert bad == ref_bad


def noisy_ellipse(rng, n):
    """A drawn ellipse about (1, -1) in the unit-constant form, and n points
    near it."""
    center = np.array([1.0, -1.0])
    turn = rng.uniform(0.0, math.pi)
    R = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    axes = rng.uniform(1.5, 2.0, 2)
    M = R @ np.diag(axes ** -2.0) @ R.T      # (p - center)' M (p - center) = 1
    k = 1.0 - center @ M @ center
    b = -2.0 * M @ center / k
    c = ConicCoeffs(b[0], b[1], 2.0 * M[0, 1] / k, M[0, 0] / k, M[1, 1] / k)
    t = rng.uniform(0.0, 2 * math.pi, n)
    x, y = center[:, None] + R @ (axes[:, None] * [np.cos(t), np.sin(t)])
    return c, x + rng.normal(0.0, 0.05, n), y + rng.normal(0.0, 0.05, n)


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as e:
        return type(e), str(e)


def two_step(c, d):
    """The separation of d against reconstruct_from_conic's arrays, and the
    count of rows reconstruct_from_conic left unreconstructed."""
    x_hat, y_hat, bad = reconstruct_from_conic(c, d)
    return outcome(lambda: separation_bivariate(d.x, x_hat, d.y, y_hat)), bad


class TestStreamedSeparation:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           block=st.sampled_from([7, ROW_BLOCK]), free=st.booleans(), swap=st.booleans())
    def test_matches_two_step_bitwise(self, seed, n, block, free, swap):
        rng = np.random.default_rng(seed)
        if block == ROW_BLOCK:
            n += ROW_BLOCK - 20
        c, x, y = noisy_ellipse(rng, n)
        if free:
            # a5 = 0: a relation linear in y, whose rows at x = -a2/a3
            # determine no y
            c = ConicCoeffs(c.a1, c.a2, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), c.a4)
        # Lost rows on both sides of the block edges: far off the ellipse,
        # or at the free x of the linear relation.
        edges = [r for e in range(block, n, block) for r in (e - 1, e)]
        lost = sorted({*edges, *rng.choice(n, size=min(n, 3), replace=False)})
        x[lost] = -c.a2 / c.a3 if free else 40.0
        y[lost[::2]] = 40.0
        if swap:
            c, x, y = c.swapped(), y, x
        d = Dataset(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "ROW_BLOCK", block)
            streamed = outcome(lambda: diagnostics.separation_from_conic(c, d))
            expected, bad = two_step(c, d)
        assert streamed == expected
        if isinstance(streamed, diagnostics.SeparationDiagnostics):
            assert streamed.unreconstructed == bad
            assert bad >= (len(edges) if not free else 1)

    def test_one_row_raises_as_before(self):
        c, d = ConicCoeffs(0, 0, 0, 1, 1), Dataset([0.5], [0.5])
        with pytest.raises(ZeroVariance, match="need at least two paired observations"):
            diagnostics.separation_from_conic(c, d)
        assert outcome(lambda: diagnostics.separation_from_conic(c, d)) == two_step(c, d)[0]

    def test_traced_peak_is_flat_in_n(self):
        # Every estimate lives one block at a time, so three more blocks of
        # rows add nothing to the peak; whole x_hat and y_hat would add 384 KB.
        rng = np.random.default_rng(11)
        peaks = []
        for blocks in (3, 6):
            c, x, y = noisy_ellipse(rng, blocks * ROW_BLOCK + 5)
            x[::1000] = 40.0
            d = Dataset(x, y)
            diagnostics.separation_from_conic(c, d)
            tracemalloc.start()
            try:
                sep = diagnostics.separation_from_conic(c, d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sep.unreconstructed > 0
        assert abs(peaks[1] - peaks[0]) <= 8 * 1024


class TestOrthogonality:
    def test_slr_fixture(self):
        md = MultiDataset(SLR_Y, np.array([[0.0], [1.0], [2.0]]), ("x",))
        check = ols_orthogonality_check(fit_standard(md))
        assert check.gap <= 1e-10
        assert check.theta_t == pytest.approx(90.0, abs=1e-6)

    def test_exact_fit(self):
        x = np.arange(5.0)
        md = MultiDataset(2 * x + 1, x[:, None], ("x",))
        check = ols_orthogonality_check(fit_standard(md))
        assert check.diagnostics.perfect_fit

    def test_no_intercept_rejected(self, tri_dataset):
        f = fit_nonresponse(tri_dataset, parse_terms("x,y"))
        with pytest.raises(InterceptRequired):
            ols_orthogonality_check(f)


class TestPinwheel:
    def test_exact_line_collinear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        d = Dataset(x, 0.5 + x)      # y = 0.5 + x, avoids the origin
        lines = pinwheel_data(d)
        assert len(lines) == 3
        slopes = [rec.slope for rec in lines]
        intercepts = [rec.intercept for rec in lines]
        np.testing.assert_allclose(slopes, slopes[0], rtol=1e-9)
        np.testing.assert_allclose(intercepts, intercepts[0], rtol=1e-9)

    def test_noisy_line_nearby(self):
        rng = np.random.default_rng(79)
        x = rng.uniform(1, 5, size=60)
        y = 1.0 + 0.8 * x + rng.normal(scale=0.05, size=60)
        lines = pinwheel_data(Dataset(x, y))
        slopes = [rec.slope for rec in lines]
        assert max(slopes) - min(slopes) < 0.1

    def test_circle_pinwheel_spread(self):
        theta = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        d = Dataset(3 + 2 * np.cos(theta), 3 + 2 * np.sin(theta))
        lines = pinwheel_data(d)
        angles = [math.atan(rec.slope) for rec in lines if not rec.vertical]
        spread = max(angles) - min(angles)
        assert spread > 0.5       # wide angular separation on nonlinear data

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e7])
    def test_offset_line(self, offset):
        eps = np.finfo(float).eps
        x0, y0 = offset_line(0.0)
        base = pinwheel_data(Dataset(x0, y0))
        x, y = offset_line(offset)
        lines = pinwheel_data(Dataset(x, y))
        tol = 10 * unit_condition(np.ones_like(x), x, y) * eps
        for line, ref in zip(lines[:2], base[:2]):
            assert line.slope == pytest.approx(ref.slope, rel=tol)
        ref = np.linalg.lstsq(np.column_stack([x, y]), np.ones_like(x), rcond=None)[0]
        tol = 10 * unit_condition(x, y) * eps
        np.testing.assert_allclose(lines[2].raw_coeffs, ref, rtol=tol)

    @pytest.mark.parametrize("n", [50, 3 * ROW_BLOCK + 5, 20_000],
                             ids=["1-block", "4-blocks", "bench-ellipse"])
    def test_lines_are_the_fits_bitwise(self, n):
        # The rotations (pivot y, then x) and the unit-constant fit of
        # {x, y} read off their own factors give the pinwheel's coefficients,
        # through every level of the factor's tile tree: on a noisy line and
        # on the benchmark's ellipse, whose last block ends in a partial tile.
        if n == 20_000:
            d = generate(GeneratorSpec(Ellipse(3.0, -2.0, 2.0, 1.0, 0.5), n, 0.05, seed=1))
        else:
            rng = np.random.default_rng(n)
            x = rng.uniform(1, 5, n)
            d = Dataset(x, 1.0 + 0.8 * x + rng.normal(scale=0.05, size=n))
        xy = parse_terms("x,y")
        x_on_y, y_on_x = fit_all_rotations(d, xy)
        fits = [y_on_x, x_on_y, fit_nonresponse(d, xy)]
        for line, f in zip(pinwheel_data(d), fits, strict=True):
            raw = np.array(line.raw_coeffs)
            np.testing.assert_array_equal(raw.view(np.uint64), f.coeffs.view(np.uint64))

    def test_origin_centred_circle(self):
        # x and y are uncorrelated and both centred: the x-on-y slope is zero
        # (a vertical line) and the unit-constant line does not exist.  The
        # fitted coefficients are rounding noise, which must not become slopes.
        theta = np.arange(6) * math.pi / 3
        y_on_x, x_on_y, unit = pinwheel_data(Dataset(2 * np.cos(theta), 2 * np.sin(theta)))
        assert abs(y_on_x.slope) < 1e-12
        assert x_on_y.vertical and abs(x_on_y.x_value) < 1e-12
        assert unit.missing and not unit.vertical
        assert (unit.slope, unit.intercept, unit.x_value) == (None, None, None)
        assert max(abs(a) for a in unit.raw_coeffs) < 1e-12

    def test_unit_constant_line_vertical_when_y_centred(self):
        theta = np.arange(6) * math.pi / 3
        unit = pinwheel_data(Dataset(3 + 2 * np.cos(theta), 2 * np.sin(theta)))[2]
        assert unit.vertical and not unit.missing
        assert unit.x_value == pytest.approx(11 / 3, rel=1e-12)    # sum x^2 / sum x

    def test_vertical_rotation_flagged(self):
        # y carries no information about x: x-on-y slope is exactly zero
        d = Dataset([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0, 2.0])
        lines = pinwheel_data(d)
        assert not any(rec.vertical for rec in lines) or all(
            rec.x_value is not None for rec in lines if rec.vertical)


def _bits(value):
    """A value as comparable bits: floats and arrays by their bytes, so a
    -0.0 or a NaN's payload counts; dataclasses and FitResults field by field,
    a fit's rows included."""
    if isinstance(value, FitResult):
        fields = [f.name for f in dataclasses.fields(value) if f.compare]
        return tuple(_bits(getattr(value, name))
                     for name in (*fields, "target", "fitted", "residuals"))
    if dataclasses.is_dataclass(value):
        return tuple(_bits(v) for v in dataclasses.astuple(value))
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    if isinstance(value, (float, np.floating, np.ndarray)):
        a = np.asarray(value)
        return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()
    return value


class TestViewsOfTheParse:
    """The loaders' columns are views of one (n, k) parse.  Every result on
    them is the result on contiguous copies, bit for bit."""

    N = 3 * ROW_BLOCK + 5

    @pytest.fixture(scope="class")
    def ellipse_csv(self, tmp_path_factory):
        rng = np.random.default_rng(2302)
        t = rng.uniform(0, 2 * math.pi, self.N)
        x = 3 + 2 * np.cos(t) + rng.normal(0, 0.05, self.N)
        y = -2 + np.sin(t) + rng.normal(0, 0.05, self.N)
        p = tmp_path_factory.mktemp("views") / "ellipse.csv"
        with open(p, "w") as fh:
            fh.write("y,z,x\n")
            fh.writelines(f"{b!r},{a * b!r},{a!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        return p

    @staticmethod
    def _results(d):
        conic, cubic = parse_terms("x,y,xy,x2,y2"), parse_terms("x,y,xy,x2,y2,x^3,y^3,x^2*y,x*y^2")
        nonresponse = fit_nonresponse(d, conic)
        c = ConicCoeffs.from_fit(nonresponse)
        return [nonresponse, fit_nonresponse(d, cubic), *fit_all_rotations(d, conic),
                *fit_all_rotations(d, cubic), slr_closed(d.x, d.y), nra2_closed(d.x, d.y),
                univariate_nra(d.y), separation_from_conic(c, d),
                reconstruct_from_conic(c, d), pinwheel_data(d)]

    def test_load_csv(self, ellipse_csv):
        d = load_csv(ellipse_csv)
        assert not (d.x.flags.c_contiguous or d.y.flags.c_contiguous)
        copy = Dataset(d.x.copy(), d.y.copy())
        assert _bits(self._results(d)) == _bits(self._results(copy))

    def test_load_multi_csv(self, ellipse_csv):
        md = load_multi_csv(ellipse_csv, "y")
        assert not (md.response.flags.c_contiguous or md.explanatory.flags.c_contiguous)
        copy = MultiDataset(md.response.copy(), md.explanatory.copy(), md.column_names)
        assert _bits(fit_standard(md)) == _bits(fit_standard(copy))
