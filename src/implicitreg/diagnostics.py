"""Sum-of-squares decompositions and the separation diagnostics.

The three sums SST/SSM/SSE are treated as the squared sides of a triangle;
the separation angles come from the law of cosines.  In intercept OLS the
decomposition is exact (SST = SSM + SSE) and the total-separation angle is
90 degrees; implicit fits generally break the identity and the angle
measures by how much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conics import ConicCoeffs, y_roots
from .errors import (
    InterceptRequired,
    TriangleViolation,
    ZeroVariance,
)
from .fitters import RANK_TOL, ROW_BLOCK, FitResult, _factor, _lstsq
from .terms import Dataset

CLAMP_TOL = 1e-9
PERFECT_TOL = 1e-14


@dataclass(frozen=True)
class SeparationDiagnostics:
    sst: float
    ssm: float
    sse: float
    theta_t: Optional[float]    # degrees; None when the fit is exact
    theta_m: Optional[float]
    theta_e: Optional[float]    # third angle, reported without interpretation
    e_hat: float                # sqrt(SSE/n)
    height: Optional[float]     # e_hat * sin(theta_m)
    ratio: Optional[float]      # sqrt(SST/SSM) * sin(theta_m)
    perfect_fit: bool = False
    unreconstructed: int = 0


def _arccos_deg(arg: float) -> float:
    if arg > 1.0 + CLAMP_TOL or arg < -1.0 - CLAMP_TOL:
        raise TriangleViolation(arg)
    return math.degrees(math.acos(min(1.0, max(-1.0, arg))))


def _from_sums(sst: float, ssm: float, sse: float, n: int,
               unreconstructed: int = 0) -> SeparationDiagnostics:
    if sst <= PERFECT_TOL * max(1.0, ssm + sse):
        raise ZeroVariance("no total variation")
    e_hat = math.sqrt(sse / n)
    if sse <= PERFECT_TOL * max(1.0, sst) or ssm <= PERFECT_TOL * max(1.0, sst):
        return SeparationDiagnostics(sst, ssm, sse, None, None, None, e_hat,
                                     None, None, perfect_fit=True,
                                     unreconstructed=unreconstructed)
    theta_t = _arccos_deg((ssm + sse - sst) / (2.0 * math.sqrt(ssm * sse)))
    theta_m = _arccos_deg((sst + sse - ssm) / (2.0 * math.sqrt(sst * sse)))
    theta_e = 180.0 - theta_t - theta_m
    sin_m = math.sin(math.radians(theta_m))
    return SeparationDiagnostics(
        sst=sst, ssm=ssm, sse=sse,
        theta_t=theta_t, theta_m=theta_m, theta_e=theta_e,
        e_hat=e_hat, height=e_hat * sin_m,
        ratio=math.sqrt(sst / ssm) * sin_m,
        unreconstructed=unreconstructed,
    )


def separation_univariate(y: Sequence[float], y_hat: Sequence[float]) -> SeparationDiagnostics:
    """SST/SSM/SSE around the mean of y, with law-of-cosines angles."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.ndim != 1 or len(y) < 2:
        raise ZeroVariance("need at least two paired observations")
    ybar = float(np.mean(y))
    sst = float(np.sum((y - ybar) ** 2))
    ssm = float(np.sum((y_hat - ybar) ** 2))
    sse = float(np.sum((y_hat - y) ** 2))
    return _from_sums(sst, ssm, sse, len(y))


def separation_bivariate(x, x_hat, y, y_hat) -> SeparationDiagnostics:
    """Pooled decomposition over both coordinates.

    NaN entries in x_hat/y_hat mark observations the model could not
    reconstruct; they contribute their raw squared deviation from the mean
    to SSE, nothing to SSM, and are tallied.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    n = len(x)
    if not (len(y) == len(x_hat) == len(y_hat) == n) or n < 2:
        raise ZeroVariance("need at least two paired observations")
    xbar, ybar = float(np.mean(x)), float(np.mean(y))
    sst = float(np.sum((x - xbar) ** 2) + np.sum((y - ybar) ** 2))
    ok = np.isfinite(x_hat) & np.isfinite(y_hat)
    unreconstructed = int(np.sum(~ok))
    ssm = float(np.sum((x_hat[ok] - xbar) ** 2) + np.sum((y_hat[ok] - ybar) ** 2))
    sse = float(np.sum((x_hat[ok] - x[ok]) ** 2) + np.sum((y_hat[ok] - y[ok]) ** 2))
    sse += float(np.sum((x[~ok] - xbar) ** 2) + np.sum((y[~ok] - ybar) ** 2))
    return _from_sums(sst, ssm, sse, n, unreconstructed=unreconstructed)


def _nearest(roots, observed: np.ndarray) -> np.ndarray:
    """The root closest to each observation; ties take the smaller root."""
    lower, upper, _ = roots
    return np.where(np.abs(upper - observed) < np.abs(lower - observed), upper, lower)


def reconstruct_from_conic(c: ConicCoeffs, d: Dataset) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest-root estimates (x_hat, y_hat) from the fitted relation.

    Per observation each coordinate picks the root closest to the observed
    value (ties take the smaller root); an empty root set leaves NaN and
    counts toward the returned tally.  Rows go ROW_BLOCK at a time so the
    temporaries stay small.
    """
    x_hat = np.empty(d.n)
    y_hat = np.empty(d.n)
    swapped = c.swapped()
    for a in range(0, d.n, ROW_BLOCK):
        rows = slice(a, a + ROW_BLOCK)
        y_hat[rows] = _nearest(y_roots(c, d.x[rows]), d.y[rows])
        x_hat[rows] = _nearest(y_roots(swapped, d.y[rows]), d.x[rows])
    bad = int(np.sum(~(np.isfinite(x_hat) & np.isfinite(y_hat))))
    return x_hat, y_hat, bad


@dataclass(frozen=True)
class OrthogonalityCheck:
    gap: float                  # |SST - SSM - SSE| / max(1, SST)
    theta_t: Optional[float]
    diagnostics: SeparationDiagnostics


def ols_orthogonality_check(fit: FitResult) -> OrthogonalityCheck:
    """Verify the exact decomposition of an intercept OLS fit."""
    if not fit.spec.intercept:
        raise InterceptRequired("orthogonality check needs an intercept fit")
    diag = separation_univariate(fit.target, fit.fitted)
    gap = abs(diag.sst - diag.ssm - diag.sse) / max(1.0, diag.sst)
    return OrthogonalityCheck(gap=gap, theta_t=diag.theta_t, diagnostics=diag)


@dataclass(frozen=True)
class PinwheelLine:
    label: str
    slope: Optional[float]      # None for a vertical or a missing line
    intercept: Optional[float]  # y-intercept, None for a vertical or a missing line
    vertical: bool
    x_value: Optional[float]    # x = const when vertical
    raw_coeffs: tuple[float, ...]

    @property
    def missing(self) -> bool:
        """No line: both unit-constant coefficients are zero."""
        return self.slope is None and not self.vertical


def pinwheel_data(d: Dataset) -> list[PinwheelLine]:
    """The two rotation lines and the unit-constant line for {x, y} data.

    All three are read off one factor of [x, y, 1], so offset data fit as
    well as the mathematics allows.  Plotting the three records side by
    side reproduces the pin-wheel comparison: near-collinear for clean
    linear data, widely separated when the underlying relation is
    nonlinear.

    A coefficient counts as zero when its value on the factor's unit
    columns is below RANK_TOL, so rounding noise never becomes a slope.
    The x-on-y line is then vertical, and so is the unit-constant line when
    its y coefficient vanishes; when both of its coefficients vanish (data
    centred on the origin) it does not exist and its record is `missing`.
    """
    W = np.vstack([d.x, d.y])           # term-major [x, y]
    scale, R = _factor(W.T, np.ones(d.n))
    X, Y, ONE = 0, 1, 2

    def zero(coeff: float, column: int, target: int) -> bool:
        return abs(coeff) * scale[column] / scale[target] < RANK_TOL

    out = []
    b0, b1 = _lstsq(scale, R, Y, [ONE, X], ["1", "x"])[0]
    out.append(PinwheelLine("rotation y-on-x", b1, b0, False, None, (b0, b1)))
    c0, c1 = _lstsq(scale, R, X, [ONE, Y], ["1", "y"])[0]    # x = c0 + c1*y
    if zero(c1, Y, X):
        out.append(PinwheelLine("rotation x-on-y", None, None, True, c0, (c0, c1)))
    else:
        out.append(PinwheelLine("rotation x-on-y", 1.0 / c1, -c0 / c1, False, None, (c0, c1)))
    a1, a2 = _lstsq(scale, R, ONE, [X, Y], ["x", "y"])[0]
    if not zero(a2, Y, ONE):
        out.append(PinwheelLine("nonresponse line", -a1 / a2, 1.0 / a2, False, None, (a1, a2)))
    elif zero(a1, X, ONE):
        out.append(PinwheelLine("nonresponse line", None, None, False, None, (a1, a2)))
    else:
        out.append(PinwheelLine("nonresponse line", None, None, True, 1.0 / a1, (a1, a2)))
    return out
