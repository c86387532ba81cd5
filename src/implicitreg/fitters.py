"""Estimation procedures.

Generic implicit fit, the unity-regressand (non-response) fit, rotational
fits, alias matrices, standard multi-column OLS, closed-form SLR and
two-term bivariate solutions, the univariate self-weighting estimator, and
the conversion between unit-constant and response-form coefficients.

Every least-squares fit regresses one column of a design Z on some of its
other columns: the unit column of Z = [T_1..T_m, 1] in the non-response
fit, a term (on the unit column and the other terms) in a rotation, y in
Z = [1, X, y] for standard OLS, an X2 column on X1 in an alias matrix, and
each pinwheel line of diagnostics.  Z is never held whole: the block source
of terms._source, where every term is evaluated, writes ROW_BLOCK rows of
it at a time, term-major, and each block is reduced into the small
triangular factor R by a two-level tree: one batched QR of its TILE-row
tiles, whose leaves stay in cache, then one small QR of [R; the rows
left over; the tile R's], so memory stays flat in n (the TSQR reduction
of Demmel, Grigori, Hoemmen & Langou, arXiv:0808.2664): the one pass over
the data.  The column scales are read off R.  A Factor holds that pass,
and every fit is a read-off of it: the small problem R[:, S] b ~ R[:, j],
where the QR of R[:, S + [j]] gives its coefficients, Gram inverse, rank
and every sum of squares, as the residual norm is the tail of Q'b (Golub
& Van Loan, Matrix Computations, 5.3; Goodnight 1979).  All fits of one
factor are read off in one stacked pass (Factor.solve, which alone
refuses fewer rows than columns): one stacked QR of their R[:, S + [j]],
a rank test on each diagonal and one stacked solve.  Neither Q nor W'W is
formed, a fit's n-length rows are made only when read, and each public
fit runs in one scope of one BLAS thread (_blas.one_thread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._blas import one_thread
from .errors import (
    ConversionUndefined,
    DegenerateError,
    DomainViolation,
    InvalidSpec,
    MeanUndefined,
    SingularSystem,
    SumOfSquaresOverflow,
    Underdetermined,
    ZeroVariance,
)
from .terms import (ROW_BLOCK, Column, Dataset, Fill, LhsKind, ModelSpec, MultiDataset, Term,
                    _design_columns, _observations, _source)

R2_NONRESPONSE = "Eq12-nonresponse"
R2_CENTERED = "Eq8-centered"
R2_UNIVARIATE = "Eq14-univariate"

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)   # the smallest normal float
RANK_TOL = math.sqrt(EPS)   # on the diagonal of a unit-column factor
MEAN_ROUNDING = 4           # times log2(n + 1) * eps * |mean|: bound on a pairwise mean's error
FACTOR_ROUNDING = 4         # times sqrt(n) * eps * |mean|: a constant's spread off R (2.9 seen)
TOL_SINGULAR_FACTOR = 1e-12
TILE = 1024                 # rows per leaf of a row block's QR tree (_factor), set by timing

Fits = Sequence[tuple[ModelSpec, int, Sequence[int]]]   # (spec, j, S): column j on columns S


def singular_tolerance(A: np.ndarray) -> float:
    """Scale-aware tolerance for the closed forms: 1e-12 times the largest
    entry magnitude."""
    return TOL_SINGULAR_FACTOR * max(float(np.max(np.abs(A))), 1e-300)


@dataclass
class FitResult:
    """One least-squares fit, its statistics read off the factor.  target,
    fitted and residuals (target - W @ coeffs) are n-length rows that the
    first read makes from the data, in one block pass, and keeps; the column
    labels too are made on first read."""
    spec: ModelSpec
    coeffs: np.ndarray          # rhs order, intercept first when present
    r_squared: float
    r2_formula: str
    sigma2_hat: float
    cov: np.ndarray
    stderr: np.ndarray          # sqrt of cov's diagonal, taken without squaring
    t_stats: np.ndarray
    f_stat: Optional[float]
    gram_inverse: np.ndarray
    n: int
    sse: float
    _rows: Optional[Callable] = field(default=None, repr=False, compare=False)  # the row pass

    @cached_property
    def column_labels(self) -> list[str]:
        return self.spec.column_labels()

    @cached_property
    def _made(self) -> tuple[np.ndarray, np.ndarray]:
        return self._rows()

    target = property(lambda self: self._made[0])
    fitted = property(lambda self: self._made[1])

    @cached_property
    def residuals(self) -> np.ndarray:
        return self.target - self.fitted


def _factor(fill: Fill, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column norms of the n x k design Z and the R factor of Z scaled to
    unit columns.

    Z is never materialised: fill writes each ROW_BLOCK rows into one reused
    term-major buffer, and a two-level TSQR tree reduces the block into R.
    The block's whole TILE-row tiles are factored in one batched QR: the
    buffer's first t * TILE columns, reshaped to (k, t, TILE) and
    transposed, are that stack of t tiles, with no copy.  Then the running
    R, the fewer than TILE rows left over and the t tile R's are merged in
    one small QR.  Householder QR is column-scale invariant, so the columns
    go in unscaled and their norms are read off the small R by np.hypot,
    which neither overflows nor underflows; R divided by them is the
    unit-column factor.  A zero column keeps scale 1 and stays zero.
    """
    buf = np.empty((k, min(ROW_BLOCK, n)))
    R = np.empty((0, k))
    for a in range(0, n, ROW_BLOCK):
        b = min(a + ROW_BLOCK, n)
        fill(buf[:, :b - a], a, b)
        t = (b - a) // TILE
        leaves = [R, buf[:, t * TILE:b - a].T]      # frees the last block's tile R's first
        if t:
            tiles = buf[:, :t * TILE].reshape(k, t, TILE).transpose(1, 2, 0)
            leaves.append(np.linalg.qr(tiles, mode="r").reshape(-1, k))
        R = np.linalg.qr(np.concatenate(leaves), mode="r")
    if not np.isfinite(R).all():
        raise DomainViolation("a column of the design has a norm beyond the float range; "
                              "rescale the data")
    norms = np.hypot.reduce(R, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    return scale, R / scale


def _singular(label: str, unity: bool = False) -> SingularSystem:
    """SingularSystem naming the collinear column; for a unit-constant fit,
    also what such a relation means there."""
    why = ("; the data satisfy a relation with no constant term, such as a curve "
           "through the origin, which 1 = sum a_k T_k cannot express and a rotation "
           "can") if unity else ""
    return SingularSystem(f"singular system: {label!r} is collinear with the columns "
                          f"before it{why}")


def _in_range(total: float, v: np.ndarray) -> float:
    """total = v'v, or SumOfSquaresOverflow when it left the normal float
    range: beyond it, or below it from entries that are not all 0 (their
    squares underflow, to 0 or to a subnormal that has lost digits)."""
    if not math.isfinite(total) or (total < TINY and v.any()):
        raise SumOfSquaresOverflow(underflow=total < TINY)
    return total


def _squares(v: np.ndarray, scale: float) -> float:
    """(scale |v|)^2 for entries v of a unit-column factor, or
    SumOfSquaresOverflow when it is outside the normal float range."""
    h = math.hypot(*v.tolist()) * float(scale)
    return _in_range(h * h, v)


def _constant(v: np.ndarray, mean: float, total: float) -> bool:
    """Whether v - mean, whose sum of squares is total, is only the rounding
    error of a pairwise mean: its RMS is within MEAN_ROUNDING * log2(n + 1) *
    eps * |mean|.  When the squares underflow to 0, the largest |v - mean|
    stands in for the RMS."""
    n = len(v)
    spread = math.sqrt(total / n) if total else float(np.max(np.abs(v - mean)))
    return spread <= MEAN_ROUNDING * math.log2(n + 1) * EPS * abs(mean)


class Factor:
    """The factored design Z = [columns] of n rows, the one pass over the
    data: the block source fill, the unit column (the constant one, if any),
    and the column scales and unit-column R of _factor.  Every fit of Z is a
    read-off: solve, result(s), coefficients and a result's lazy rows."""

    def __init__(self, columns: Sequence[Column], n: int, x: Optional[np.ndarray] = None,
                 y: Optional[np.ndarray] = None):
        self.fill = _source(columns, x, y)
        self.n, self.k = n, len(columns)
        self.scale, self.R = _factor(self.fill, self.k, n)
        self.unit = next((i for i, c in enumerate(columns) if isinstance(c, float)), None)

    def solve(self, fits: Sequence[tuple[int, Sequence[int]]]
              ) -> list[Union[tuple[np.ndarray, np.ndarray, np.ndarray], int]]:
        """Fits (j, S) of column j on columns S, all of one width m = |S|,
        in one stacked pass: one QR r of each R[:, S + [j]], a rank test on
        each diagonal and one solve over the fits that pass; n < m is Underdetermined.

        A fit's slot holds its coefficients, in original units; a root L of
        the Gram inverse of its columns (the inverse is L L'); and
        t = r[:, -1], column j over scale[j] in the basis of the fit's
        columns.  L is r[:m, :m]^-1 with each row divided by its column's
        scale, so it stays in range for data whose squares would not.  A
        singular fit's slot holds instead the index in S of its first column
        whose unit-scale distance from the span of those before it, on r's
        diagonal, is below RANK_TOL.  Coefficients or a root beyond the float
        range raise DomainViolation.
        """
        cols = np.array([[*S, j] for j, S in fits])
        m = cols.shape[1] - 1
        if self.n < m:
            raise Underdetermined(f"{self.n} observations for {m} columns")
        r = np.linalg.qr(self.R[:, cols].transpose(1, 0, 2), mode="r")
        t = r[:, :, -1]
        low = np.abs(np.diagonal(r, axis1=1, axis2=2)[:, :m]) < RANK_TOL
        out: list = [int(np.argmax(row)) for row in low]
        ok = np.flatnonzero(~low.any(axis=1))
        if ok.size:
            rhs = np.empty((ok.size, m, m + 1))
            rhs[:, :, 0] = t[ok, :m]
            rhs[:, :, 1:] = np.eye(m)
            sol = np.linalg.solve(r[ok, :m, :m], rhs)
            s = self.scale[cols[ok, :m]]
            with np.errstate(over="ignore"):
                coeffs = sol[:, :, 0] * self.scale[cols[ok, m]][:, None] / s
                roots = sol[:, :, 1:] / s[:, :, None]
            if not (np.isfinite(coeffs).all() and np.isfinite(roots).all()):
                raise DomainViolation("the fit's coefficients or their standard errors are "
                                      "beyond the float range; rescale the data")
            for i, c, L in zip(ok.tolist(), coeffs, roots):
                out[i] = (c, L, t[i])
        return out

    def coefficients(self, fits: Sequence[tuple[int, Sequence[int]]],
                     labels: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """The coefficients of fits (j, S), from solve; a singular fit raises
        SingularSystem naming its collinear column by its entry of labels."""
        solved = self.solve(fits)
        for s, names in zip(solved, labels):
            if isinstance(s, int):
                raise _singular(names[s])
        return [s[0] for s in solved]

    def results(self, fits: Fits) -> list[Union[FitResult, DegenerateError]]:
        """The fits (spec, j, S), all of one width, from one solve; a
        singular fit or a constant target keeps its exception in its slot."""
        out: list[Union[FitResult, DegenerateError]] = []
        for fit, solved in zip(fits, self.solve([(j, S) for _, j, S in fits])):
            try:
                out.append(self._result(*fit, solved))
            except (SingularSystem, ZeroVariance) as exc:
                out.append(exc)
        return out

    def result(self, spec: ModelSpec, j: int, S: Sequence[int]) -> FitResult:
        """The one fit (spec, j, S); a degenerate fit raises."""
        return self._result(spec, j, S, *self.solve([(j, S)]))

    def _result(self, spec: ModelSpec, j: int, S: Sequence[int], solved: Union[tuple, int]
                ) -> FitResult:
        """The fit (spec, j, S) from its slot of solve.

        t is the target, its head the fit and its tail the residual: SSE is
        (scale[j] |t[|S|:]|)^2 and the unit-constant R^2 = a'W'1/n is
        |t[:|S|]|^2.  An intercept fit has the unit column first in S, so
        SSR = |t[1:|S|]|^2 and SST = SSR + SSE, with no cancellation; a term
        fit without one takes its own QR with the unit column first and is
        centred on the mean t[0].  R alone decides a constant target: |t[1:]|
        within R's rounding of |t[0]|.  The standard errors are sqrt(sigma2)
        times the row norms of the Gram inverse's root, so they stay in range
        where the covariance does not."""
        if isinstance(solved, int):
            raise _singular(spec.column_labels()[solved], spec.lhs is LhsKind.UNITY)
        coeffs, root, t = solved
        n, m, s = self.n, len(S), self.scale[j]

        if spec.lhs is LhsKind.UNITY:
            sse = _squares(t[m:], s)
            r2, tag = float(t[:m] @ t[:m]), R2_NONRESPONSE
        else:
            if not spec.intercept:
                r = np.linalg.qr(self.R[:, [self.unit, *S, j]], mode="r")
                t = r[:, -1]
            bound = (MEAN_ROUNDING * math.log2(n + 1) + FACTOR_ROUNDING * math.sqrt(n)) * EPS
            if math.hypot(*t[1:].tolist()) <= bound * abs(t[0]):
                raise ZeroVariance("target has zero centered variation")
            sst = _squares(t[1:], s)
            if spec.intercept:
                sse = _squares(t[m:], s)
                ssr = _squares(t[1:m], s)
            else:
                f = r[:, 1:-1] @ (coeffs * self.scale[S] / s)
                sse = _squares(t - f, s)
                f[0] -= t[0]
                ssr = _squares(f, s)
            r2, tag = ssr / sst, R2_CENTERED

        sigma2 = sse / (n - m) if n > m else float("nan")
        if 0.0 < sigma2 < TINY:
            raise SumOfSquaresOverflow(underflow=True)
        has_f = spec.lhs is not LhsKind.UNITY and spec.intercept and m > 1 and sigma2 > 0
        f_stat = (ssr / (m - 1)) / sigma2 if has_f else None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gram_inverse = root @ root.T
            cov = sigma2 * gram_inverse
            stderr = math.sqrt(sigma2) * np.hypot.reduce(root, axis=1)
            t_stats = np.where(stderr > 0, coeffs / stderr, np.nan)
        return FitResult(spec=spec, coeffs=coeffs, r_squared=r2, r2_formula=tag, sigma2_hat=sigma2,
                         cov=cov, stderr=stderr, t_stats=t_stats, f_stat=f_stat, n=n, sse=sse,
                         gram_inverse=gram_inverse, _rows=lambda: self.rows(j, S, coeffs))

    @one_thread
    def rows(self, j: int, S: Sequence[int], coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column j of Z and the fit Z[:, S] coeffs, from one ROW_BLOCK pass
        of the block source."""
        row = np.zeros((1, self.k))
        row[0, S] = coeffs
        target, fitted = np.empty(self.n), np.empty((1, self.n))
        buf = np.empty((self.k, min(ROW_BLOCK, self.n)))
        for a in range(0, self.n, ROW_BLOCK):
            b = min(a + ROW_BLOCK, self.n)
            block = buf[:, :b - a]
            self.fill(block, a, b)
            np.matmul(row, block, out=fitted[:, a:b])
            target[a:b] = block[j]
        return target, fitted[0]


@one_thread
def fit_implicit(d: Dataset, spec: ModelSpec) -> FitResult:
    """Least-squares fit of the implicit model given by spec.

    Z = terms._design_columns(spec), evaluated block by block from d: the
    design is never held whole.  A term fit without an intercept gets a
    leading unit column, which centres its sums and is not among its columns.
    """
    lead = spec.lhs is LhsKind.TERM and not spec.intercept
    columns = [1.0] * lead + _design_columns(spec)
    m = len(columns) - 1
    return Factor(columns, d.n, d.x, d.y).result(spec, m, range(lead, m))


def fit_nonresponse(d: Dataset, terms: Sequence[Term]) -> FitResult:
    """Fit 1 = sum_k a_k T_k (unity as the regressand, no intercept)."""
    return fit_implicit(d, ModelSpec.nonresponse(terms))


def _rotation(terms: Sequence[Term], pivot: int) -> tuple[ModelSpec, int, list[int]]:
    """The rotation on pivot as a fit of Z = [T_1..T_m, 1]: the pivot term
    on the unit column and the other terms."""
    m = len(terms)
    return ModelSpec.rotation(terms, pivot), pivot, [m] + [k for k in range(m) if k != pivot]


@one_thread
def fit_rotation(d: Dataset, terms: Sequence[Term], pivot: int) -> FitResult:
    """OLS of the pivot term on an intercept plus every remaining term."""
    fit = _rotation(terms, pivot)
    return Factor([*terms, 1.0], d.n, d.x, d.y).result(*fit)


@one_thread
def fit_all_rotations(d: Dataset, terms: Sequence[Term]) -> list[Union[FitResult, DegenerateError]]:
    """One rotation fit per pivot, in term order, all read off one factor of
    Z = [T_1..T_m, 1].

    A degenerate pivot (singular design, constant target) is recorded in its
    slot as the exception instance rather than aborting the remaining
    rotations; global errors (domain violations) still propagate.  Too few
    observations fill every slot.
    """
    # Pivot 0 of no terms is refused as that of one term is.
    fits = [_rotation(terms, pivot) for pivot in range(max(len(terms), 1))]
    try:
        return Factor([*terms, 1.0], d.n, d.x, d.y).results(fits)
    except Underdetermined as exc:
        return [exc] * len(terms)


@one_thread
def alias_matrix(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """A = (X1'X1)^{-1} X1'X2, the projection of excluded columns onto
    included ones.  Column j of A is the rotation-fit coefficient vector
    for the j-th excluded column, read off one factor of [X1, X2].  A
    vector X1 or X2 is one column."""
    X1t, X2t = (np.atleast_2d(np.asarray(X, dtype=float).T) for X in (X1, X2))
    n = X1t.shape[-1]
    if n != X2t.shape[-1]:
        raise InvalidSpec(f"X1 and X2 must have the same number of rows, "
                          f"not {n} and {X2t.shape[-1]}")
    if n == 0:
        raise InvalidSpec("X1 and X2 have no rows")
    for name, X in (("X1", X1t), ("X2", X2t)):
        if len(X) == 0:
            raise InvalidSpec(f"{name} has no columns")
        if not np.all(np.isfinite(X)):
            raise InvalidSpec(f"{name} entries must be finite")
    k = len(X1t)
    fits = [(j, range(k)) for j in range(k, k + len(X2t))]
    labels = [[f"X1[:, {i}]" for i in range(k)]] * len(fits)
    return np.column_stack(Factor([*X1t, *X2t], n).coefficients(fits, labels))


@one_thread
def fit_standard(d: MultiDataset) -> FitResult:
    """Intercept OLS of the response on the explanatory columns."""
    k = d.p + 1
    spec = ModelSpec(LhsKind.RESPONSE, d.column_names, intercept=True)
    return Factor([1.0, *d.explanatory.T, d.response], d.n).result(spec, k, range(k))


def _contiguous(*columns) -> list[np.ndarray]:
    """The columns checked as a Dataset's are, each contiguous: BLAS sums a
    dot product of strided columns, such as a CSV's, in another order, and
    the raw sums below should not change in the last bit with the layout."""
    return [np.ascontiguousarray(c) for c in _observations(*columns)]


def slr_closed(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Simple-linear-regression slope and intercept by the raw-sum ratios.

    The paper's printed formula; raw sums lose digits on offset data, so
    pinwheel_data reads its lines off a factor instead.  x and y are checked
    as a Dataset's are."""
    x, y = _contiguous(x, y)
    n = len(x)
    sx, sy = float(np.sum(x)), float(np.sum(y))
    sxx, sxy = float(x @ x), float(x @ y)
    delta = n * sxx - sx * sx
    if abs(delta) < singular_tolerance(np.array([[n, sx], [sx, sxx]])):
        raise SingularSystem("constant x: zero SLR determinant")
    b1 = (n * sxy - sx * sy) / delta
    b0 = sy / n - b1 * sx / n
    return b0, b1


def nra2_closed(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-term unit-constant line 1 = a1*x + a2*y by the raw-sum ratios.

    The paper's printed formula, kept beside the factored fit as
    slr_closed is, and checked as it is."""
    x, y = _contiguous(x, y)
    sx, sy = float(np.sum(x)), float(np.sum(y))
    sxx, syy, sxy = float(x @ x), float(y @ y), float(x @ y)
    delta = sxx * syy - sxy * sxy
    if abs(delta) < singular_tolerance(np.array([[sxx, sxy], [sxy, syy]])):
        raise SingularSystem("x and y proportional: zero determinant")
    a1 = (syy * sx - sxy * sy) / delta
    a2 = (sxx * sy - sxy * sx) / delta
    return a1, a2


@dataclass(frozen=True)
class UnivariateResult:
    alpha: float    # slope of 1 = alpha * y
    mu_hat: float   # self-weighting mean, sum(y^2)/sum(y)
    r2: float       # (sum y)^2 / (n * sum y^2)


def univariate_nra(y: np.ndarray) -> UnivariateResult:
    """Fit 1 = alpha*y; the reciprocal slope is the self-weighting mean.
    y is checked as a Dataset's columns are."""
    (y,) = _contiguous(y)
    n = len(y)
    sy = float(np.sum(y))
    with np.errstate(over="ignore"):
        syy = _in_range(float(y @ y), y)
    if syy <= 0:
        raise ZeroVariance("all-zero variable")
    if sy == 0:
        raise MeanUndefined(alpha=0.0, r2=0.0)
    alpha = sy / syy
    return UnivariateResult(alpha=alpha, mu_hat=syy / sy, r2=sy * sy / (n * syy))


def beta_from_alpha(alpha: Sequence[float]) -> np.ndarray:
    """Map unit-constant coefficients (a0 on the response term, then a_i)
    to response-form coefficients: b0 = 1/a0, b_i = -a_i/a0.

    This is the algebraic inversion of 1 = a0*y + sum a_i x_i into
    y = b0 + sum b_i x_i.
    """
    return _invert(alpha, "coefficient on the response term is zero")


def alpha_from_beta(beta: Sequence[float]) -> np.ndarray:
    """Exact inverse of beta_from_alpha: a0 = 1/b0, a_i = -b_i/b0."""
    return _invert(beta, "intercept is zero")


def _invert(v: Sequence[float], zero: str) -> np.ndarray:
    """(1/v0, -v1/v0, ...), the map between the two coefficient forms and
    its own inverse.  DomainViolation when finite v maps beyond the float
    range.  v may hold non-finite values, which map through unchecked."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not v.size:
        raise InvalidSpec("the coefficients must be a non-empty vector")
    if v[0] == 0:
        raise ConversionUndefined(zero)
    with np.errstate(over="ignore"):
        out = np.concatenate(([1.0], -v[1:])) / v[0]
    if np.isfinite(v).all() and not np.isfinite(out).all():
        raise DomainViolation("the converted coefficients are beyond the float range")
    return out
