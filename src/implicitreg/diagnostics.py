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
from typing import Callable, Optional, Sequence

import numpy as np

from .conics import ConicCoeffs, y_roots
from .errors import (
    InterceptRequired,
    InvalidSpec,
    SumOfSquaresOverflow,
    TriangleViolation,
    ZeroVariance,
)
from ._blas import one_thread
from .fitters import RANK_TOL, ROW_BLOCK, TINY, Factor, FitResult, _constant
from .terms import Dataset

CLAMP_TOL = 1e-9
PERFECT_TOL = 1e-14

Estimates = Callable[[slice], Sequence[np.ndarray]]   # estimates(rows): each coordinate's on rows


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

    @property
    def warning(self) -> Optional[str]:
        """Why the angles are null: "PerfectFit" when SSE vanishes, the cause
        when SSM does; None when the angles exist."""
        if self.theta_t is not None:
            return None
        if self.perfect_fit:
            return "PerfectFit"
        lost = self.unreconstructed
        return ("the model explains no variation (SSM = 0), so the separation angles are "
                "undefined" + (f"; {lost} observations were not reconstructed" if lost else ""))


def _negligible(part: float, sst: float) -> bool:
    return part <= PERFECT_TOL * sst


def _arccos_deg(arg: float) -> float:
    if arg > 1.0 + CLAMP_TOL or arg < -1.0 - CLAMP_TOL:
        raise TriangleViolation(arg)
    return math.degrees(math.acos(min(1.0, max(-1.0, arg))))


def _root_product(a: float, b: float) -> float:
    """sqrt(a*b), through sqrt(a)*sqrt(b) where a*b leaves the normal range."""
    p = a * b
    return math.sqrt(p) if TINY <= p < math.inf else math.sqrt(a) * math.sqrt(b)


def _from_sums(sst: float, ssm: float, sse: float, n: int,
               unreconstructed: int = 0) -> SeparationDiagnostics:
    """The triangle of the three sums, with thresholds relative to the sums
    so that the data's units do not matter.  When SSE or SSM vanishes the
    angles are null.  Only SSE = 0 is a perfect fit; SSM = 0 is a model that
    explains nothing, whether every row is estimated at the means or rows
    were not reconstructed.  `warning` names the case."""
    e_hat = math.sqrt(sse / n)
    if _negligible(sse, sst) or _negligible(ssm, sst):
        return SeparationDiagnostics(sst, ssm, sse, None, None, None, e_hat, None, None,
                                     perfect_fit=_negligible(sse, sst),
                                     unreconstructed=unreconstructed)
    theta_t = _arccos_deg((ssm + sse - sst) / (2.0 * _root_product(ssm, sse)))
    theta_m = _arccos_deg((sst + sse - ssm) / (2.0 * _root_product(sst, sse)))
    theta_e = 180.0 - theta_t - theta_m
    sin_m = math.sin(math.radians(theta_m))
    return SeparationDiagnostics(
        sst=sst, ssm=ssm, sse=sse,
        theta_t=theta_t, theta_m=theta_m, theta_e=theta_e,
        e_hat=e_hat, height=e_hat * sin_m,
        ratio=math.sqrt(sst / ssm) * sin_m,
        unreconstructed=unreconstructed,
    )


def _separation(obs: Sequence[np.ndarray], estimates: Estimates) -> SeparationDiagnostics:
    """SST/SSM/SSE pooled over the observed coordinates obs, each around the
    mean of its observations, summed ROW_BLOCK rows at a time.
    estimates(rows) gives each coordinate's estimates on the slice rows, so
    no estimate need be held longer than a block.

    A row whose estimate is not finite in some coordinate was not
    reconstructed: it adds its raw squared deviations from the means to
    SSE, nothing to SSM, and is tallied.  A coordinate varies when its
    deviations exceed the rounding error of its mean (fitters._constant).
    A sum beyond the float range, or a varying coordinate's SST below the
    normal range (its squares underflow), raises SumOfSquaresOverflow; SSM
    and SSE are read against SST, so a zero there is only negligible.
    """
    n = len(obs[0])
    spread = [0.0] * len(obs)       # each coordinate's part of SST
    sst = ssm = sse = 0.0
    unreconstructed = 0
    with np.errstate(over="ignore"):
        means = [float(np.mean(o)) for o in obs]
        for a in range(0, n, ROW_BLOCK):
            rows = slice(a, a + ROW_BLOCK)
            ests = estimates(rows)
            ok = np.isfinite(ests[0])
            for est in ests[1:]:
                ok &= np.isfinite(est)
            lost = ~ok
            count = int(np.count_nonzero(lost))
            unreconstructed += count
            for i, (o, est, mean) in enumerate(zip(obs, ests, means)):
                dev = o[rows] - mean
                model = est - mean
                error = est - o[rows]
                if count:
                    model[lost] = 0.0
                    error[lost] = dev[lost]
                part = float(dev @ dev)
                spread[i] += part
                sst += part
                ssm += float(model @ model)
                sse += float(error @ error)
    if not all(map(math.isfinite, (sst, ssm, sse))):
        raise SumOfSquaresOverflow()
    flat = [_constant(o, mean, s) for o, mean, s in zip(obs, means, spread)]
    if all(flat):
        raise ZeroVariance("no total variation")
    if any(s < TINY and not c for s, c in zip(spread, flat)):
        raise SumOfSquaresOverflow(underflow=True)
    return _from_sums(sst, ssm, sse, n, unreconstructed=unreconstructed)


def _paired(observed: Sequence, estimates: Sequence = ()) -> list[np.ndarray]:
    """The observed columns, then the estimates, as float vectors of one
    length (else InvalidSpec), at least two (else ZeroVariance).  An observation
    must be finite; a non-finite estimate marks its row unreconstructed."""
    columns = [np.asarray(v, dtype=float) for v in (*observed, *estimates)]
    shape = columns[0].shape
    if len(shape) != 1 or any(v.shape != shape for v in columns):
        raise InvalidSpec("the observations and estimates must be equal-length vectors")
    if shape[0] < 2:
        raise ZeroVariance("need at least two paired observations")
    if not all(np.isfinite(v).all() for v in columns[:len(observed)]):
        raise InvalidSpec("observed entries must be finite")
    return columns


def separation_univariate(y: Sequence[float], y_hat: Sequence[float]) -> SeparationDiagnostics:
    """SST/SSM/SSE around the mean of y, with law-of-cosines angles.  A
    non-finite entry of y_hat counts as unreconstructed, as in
    separation_bivariate; one of y is refused."""
    y, y_hat = _paired([y], [y_hat])
    return _separation([y], lambda rows: [y_hat[rows]])


def separation_bivariate(x, x_hat, y, y_hat) -> SeparationDiagnostics:
    """Pooled decomposition over both coordinates.

    NaN entries in x_hat/y_hat mark observations the model could not
    reconstruct; they contribute their raw squared deviation from the mean
    to SSE, nothing to SSM, and are tallied.  A non-finite x or y is
    refused.  The sums go ROW_BLOCK rows at a time, so no temporary is as
    long as the data.
    """
    x, y, x_hat, y_hat = _paired([x, y], [x_hat, y_hat])
    return _separation([x, y], lambda rows: [x_hat[rows], y_hat[rows]])


def separation_from_conic(c: ConicCoeffs, d: Dataset) -> SeparationDiagnostics:
    """separation_bivariate of d against its nearest-root reconstruction on
    the relation c, bitwise, with the estimates made one ROW_BLOCK at a
    time and never held whole.  Callers who want the estimates themselves
    use reconstruct_from_conic."""
    return _separation(_paired([d.x, d.y]), _conic_estimates(c, d))


def _nearest(roots, observed: np.ndarray) -> np.ndarray:
    """The root closest to each observation; ties take the smaller root."""
    lower, upper, _ = roots
    return np.where(np.abs(upper - observed) < np.abs(lower - observed), upper, lower)


def _conic_estimates(c: ConicCoeffs, d: Dataset) -> Estimates:
    """The nearest-root estimator of d on c: for a slice of rows, x_hat from
    the roots x at each y and y_hat from the roots y at each x, each the root
    closest to the observed value (ties take the smaller); NaN where no root
    exists or none is determined."""
    swapped = c.swapped()

    def estimates(rows: slice) -> list[np.ndarray]:
        x, y = d.x[rows], d.y[rows]
        return [_nearest(y_roots(swapped, y), x), _nearest(y_roots(c, x), y)]
    return estimates


def reconstruct_from_conic(c: ConicCoeffs, d: Dataset) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest-root estimates (x_hat, y_hat) from the fitted relation.

    Per observation each coordinate picks the root closest to the observed
    value (ties take the smaller root); an empty root set leaves NaN and
    counts toward the returned tally.  Rows go ROW_BLOCK at a time so the
    temporaries stay small.
    """
    x_hat = np.empty(d.n)
    y_hat = np.empty(d.n)
    estimates = _conic_estimates(c, d)
    for a in range(0, d.n, ROW_BLOCK):
        rows = slice(a, a + ROW_BLOCK)
        x_hat[rows], y_hat[rows] = estimates(rows)
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


@one_thread
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
    factor = Factor([d.x, d.y, 1.0], d.n)
    X, Y, ONE = 0, 1, 2

    def zero(coeff: float, column: int, target: int) -> bool:
        return abs(coeff) * factor.scale[column] / factor.scale[target] < RANK_TOL

    fits = [(Y, [ONE, X]), (X, [ONE, Y]), (ONE, [X, Y])]     # y on x, x on y, 1 on x and y
    labels = [["1", "x"], ["1", "y"], ["x", "y"]]
    (b0, b1), (c0, c1), (a1, a2) = factor.coefficients(fits, labels)

    def line(label: str, target: int, a_x: float, a_y: float, const: float, raw) -> PinwheelLine:
        """The line const = a_x*x + a_y*y: a slope, else missing, else vertical."""
        if not zero(a_y, Y, target):
            return PinwheelLine(label, -a_x / a_y, const / a_y, False, None, raw)
        vertical = not zero(a_x, X, target)
        return PinwheelLine(label, None, None, vertical, const / a_x if vertical else None, raw)
    return [line("rotation y-on-x", Y, -b1, 1.0, b0, (b0, b1)),
            line("rotation x-on-y", X, 1.0, -c1, c0, (c0, c1)),
            line("nonresponse line", ONE, a1, a2, 1.0, (a1, a2))]
