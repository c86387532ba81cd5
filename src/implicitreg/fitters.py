"""Estimation procedures.

Generic implicit fit, the unity-regressand (non-response) fit, rotational
fits, alias matrices, standard multi-column OLS, closed-form SLR and
two-term bivariate solutions, the univariate self-weighting estimator, and
the conversion between unit-constant and response-form coefficients.

Every least-squares fit regresses one column of a design Z on some of its
other columns: the unit column of Z = [T_1..T_m, 1] in the non-response
fit, a term (on the unit column and the other terms) in a rotation, y in
Z = [1, X, y] for standard OLS.  Z is scaled to unit-norm columns and
reduced once to its small triangular factor R, merging row blocks as
R <- qr([R; next block]) so memory stays flat in n.  Each fit is then the
small problem R[:, S] b ~ R[:, j], whose own QR gives the coefficients,
the Gram inverse and the rank (Golub & Van Loan, Matrix Computations,
section 5.3).  The Gram matrix W'W is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ConversionUndefined,
    DegenerateError,
    MeanUndefined,
    SingularSystem,
    Underdetermined,
    ZeroVariance,
)
from .terms import Dataset, LhsKind, ModelSpec, MultiDataset, Term, design_matrix

R2_NONRESPONSE = "Eq12-nonresponse"
R2_CENTERED = "Eq8-centered"
R2_UNIVARIATE = "Eq14-univariate"

ROW_BLOCK = 16384           # rows of Z per QR merge step
RANK_TOL = math.sqrt(np.finfo(float).eps)   # on the diagonal of a unit-column factor
TOL_SINGULAR_FACTOR = 1e-12


def singular_tolerance(A: np.ndarray) -> float:
    """Scale-aware tolerance for the closed forms: 1e-12 times the largest
    entry magnitude."""
    return TOL_SINGULAR_FACTOR * max(float(np.max(np.abs(A))), 1e-300)


@dataclass
class FitResult:
    spec: ModelSpec
    coeffs: np.ndarray          # rhs order, intercept first when present
    residuals: np.ndarray       # target - W @ coeffs
    fitted: np.ndarray
    target: np.ndarray
    r_squared: float
    r2_formula: str
    sigma2_hat: float
    cov: np.ndarray
    t_stats: np.ndarray
    f_stat: Optional[float]
    gram_inverse: np.ndarray
    n: int
    column_labels: list[str] = field(default_factory=list)

    @property
    def sse(self) -> float:
        return float(self.residuals @ self.residuals)


def _factor(W: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column norms of Z = [W, t] and the R factor of Z scaled to unit columns.

    Z is never materialised: each ROW_BLOCK rows are scaled and merged into
    R by one small QR.  A zero column keeps scale 1 and stays zero.
    """
    norms = np.sqrt(np.append(np.einsum("ij,ij->j", W, W), t @ t))
    scale = np.where(norms > 0, norms, 1.0)
    R = np.empty((0, len(scale)))
    for a in range(0, len(t), ROW_BLOCK):
        block = np.column_stack([W[a:a + ROW_BLOCK], t[a:a + ROW_BLOCK]]) / scale
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    return scale, R


def _lstsq(scale: np.ndarray, R: np.ndarray, j: int, S: Sequence[int],
           labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of column j of the factored design on columns S, in
    original units, and the Gram inverse of those columns.

    Raises SingularSystem naming the first column of S whose unit-scale
    distance from the span of the columns before it falls below RANK_TOL.
    """
    S = list(S)
    q, r = np.linalg.qr(R[:, S])
    diag = np.abs(np.diag(r))
    k = next((i for i, v in enumerate(diag) if v < RANK_TOL), len(diag))
    if k < len(S):
        raise SingularSystem(f"singular system: {labels[k]!r} is collinear "
                             "with the columns before it")
    sol = np.linalg.solve(r, np.column_stack([q.T @ R[:, j], np.eye(len(S))]))
    s = scale[S]
    return sol[:, 0] * scale[j] / s, (sol[:, 1:] @ sol[:, 1:].T) / np.outer(s, s)


def _finish(spec: ModelSpec, W: np.ndarray, t: np.ndarray, scale: np.ndarray,
            R: np.ndarray, j: int, S: Sequence[int]) -> FitResult:
    n, m = W.shape
    labels = spec.column_labels()
    coeffs, gram_inverse = _lstsq(scale, R, j, S, labels)
    fitted = W @ coeffs
    residuals = t - fitted
    sse = float(residuals @ residuals)

    if spec.lhs is LhsKind.UNITY:
        r2 = float(coeffs @ (W.T @ t)) / n
        tag = R2_NONRESPONSE
        f_stat = None
    else:
        # Centered vectors: t't - n*tbar^2 cancels on offset data.  TERM and
        # RESPONSE specs carry an intercept, so ssr_c is the model sum of squares.
        tbar = float(np.mean(t))
        sst_c = float(np.sum((t - tbar) ** 2))
        if sst_c <= singular_tolerance(np.atleast_2d(t @ t)):
            raise ZeroVariance("target has zero centered variation")
        ssr_c = float(np.sum((fitted - tbar) ** 2))
        r2 = ssr_c / sst_c
        tag = R2_CENTERED
        if spec.intercept and m > 1 and n > m and sse > 0:
            f_stat = (ssr_c / (m - 1)) / (sse / (n - m))
        else:
            f_stat = None

    sigma2 = sse / (n - m) if n > m else float("nan")
    cov = sigma2 * gram_inverse
    diag = np.diag(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(diag > 0, coeffs / np.sqrt(np.where(diag > 0, diag, 1.0)), np.nan)
    return FitResult(
        spec=spec, coeffs=coeffs, residuals=residuals, fitted=fitted, target=t,
        r_squared=r2, r2_formula=tag, sigma2_hat=sigma2, cov=cov,
        t_stats=t_stats, f_stat=f_stat, gram_inverse=gram_inverse, n=n,
        column_labels=labels,
    )


def _fit(spec: ModelSpec, W: np.ndarray, t: np.ndarray) -> FitResult:
    """Regress t on every column of W."""
    m = W.shape[1]
    return _finish(spec, W, t, *_factor(W, t), m, range(m))


def fit_implicit(d: Dataset, spec: ModelSpec) -> FitResult:
    """Least-squares fit of the implicit model given by spec."""
    return _fit(spec, *design_matrix(d, spec))


def fit_nonresponse(d: Dataset, terms: Sequence[Term]) -> FitResult:
    """Fit 1 = sum_k a_k T_k (unity as the regressand, no intercept)."""
    return fit_implicit(d, ModelSpec.nonresponse(terms))


def _rotation(terms: Sequence[Term], W: np.ndarray, ones: np.ndarray, scale: np.ndarray,
              R: np.ndarray, pivot: int) -> FitResult:
    """Rotation on one pivot, read off the factor of Z = [T_1..T_m, 1]."""
    spec = ModelSpec.rotation(terms, pivot)
    m = W.shape[1]
    others = [k for k in range(m) if k != pivot]
    return _finish(spec, np.column_stack([ones, W[:, others]]), W[:, pivot].copy(),
                   scale, R, pivot, [m] + others)


def _term_factor(d: Dataset, terms: Sequence[Term]):
    """Terms evaluated once, the unit column, and the factor of both."""
    W, ones = design_matrix(d, ModelSpec.nonresponse(terms))
    return (W, ones) + _factor(W, ones)


def fit_rotation(d: Dataset, terms: Sequence[Term], pivot: int) -> FitResult:
    """OLS of the pivot term on an intercept plus every remaining term."""
    ModelSpec.rotation(terms, pivot)   # validate before any evaluation
    return _rotation(terms, *_term_factor(d, terms), pivot)


def fit_all_rotations(d: Dataset, terms: Sequence[Term]) -> list[Union[FitResult, DegenerateError]]:
    """One rotation fit per pivot, in term order, from one term evaluation
    and one factorization.

    A degenerate pivot (singular design, constant target) is recorded in
    its slot as the exception instance rather than aborting the remaining
    rotations; global errors (domain violations) still propagate.  Too few
    observations fill every slot.
    """
    try:
        factored = _term_factor(d, terms)
    except Underdetermined as exc:
        return [exc] * len(terms)
    out: list[Union[FitResult, DegenerateError]] = []
    for pivot in range(len(terms)):
        try:
            out.append(_rotation(terms, *factored, pivot))
        except DegenerateError as exc:
            out.append(exc)
    return out


def alias_matrix(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """A = (X1'X1)^{-1} X1'X2, the projection of excluded columns onto
    included ones.  Column j of A is the rotation-fit coefficient vector
    for the j-th excluded column."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X2.ndim == 1:
        X2 = X2[:, None]
    k = X1.shape[1]
    labels = [f"X1[:, {i}]" for i in range(k)]
    columns = []
    for i in range(X2.shape[1]):
        scale, R = _factor(X1, X2[:, i])
        columns.append(_lstsq(scale, R, k, range(k), labels)[0])
    return np.column_stack(columns)


def fit_standard(d: MultiDataset) -> FitResult:
    """Intercept OLS of the response on the explanatory columns."""
    n = d.n
    X = np.column_stack([np.ones(n), d.explanatory])
    if n < X.shape[1]:
        raise Underdetermined(f"{n} observations for {X.shape[1]} columns")
    return _fit(ModelSpec(LhsKind.RESPONSE, d.column_names, intercept=True), X, d.response)


def slr_closed(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Simple-linear-regression slope and intercept by the raw-sum ratios."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    """Two-term unit-constant line 1 = a1*x + a2*y by the raw-sum ratios."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    """Fit 1 = alpha*y; the reciprocal slope is the self-weighting mean."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    sy = float(np.sum(y))
    syy = float(y @ y)
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
    alpha = np.asarray(alpha, dtype=float)
    a0 = alpha[0]
    if a0 == 0:
        raise ConversionUndefined("coefficient on the response term is zero")
    out = np.empty_like(alpha)
    out[0] = 1.0 / a0
    out[1:] = -alpha[1:] / a0
    return out


def alpha_from_beta(beta: Sequence[float]) -> np.ndarray:
    """Exact inverse of beta_from_alpha: a0 = 1/b0, a_i = -b_i/b0."""
    beta = np.asarray(beta, dtype=float)
    b0 = beta[0]
    if b0 == 0:
        raise ConversionUndefined("intercept is zero")
    out = np.empty_like(beta)
    out[0] = 1.0 / b0
    out[1:] = -beta[1:] / b0
    return out
