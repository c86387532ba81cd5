"""Inversion of fitted implicit relations and conic geometry.

A fitted relation reads c0 = a1*x + a2*y + a3*xy + a4*x^2 + a5*y^2 (c0 = 1
in a unit-constant fit), so the quadratic-in-y form is
a5*y^2 + (a2 + a3*x)*y + (a1*x + a4*x^2 - c0) = 0 and symmetrically for x.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec, NoSolutionAtPoint, NotAnEllipse, NotRepresentable
from .fitters import FitResult
from .terms import CONIC_TERMS, LhsKind

TOL_DISC = 1e-10
TOL_DENOM = 1e-12


def _require_finite_real(v, what: str) -> None:
    """Refuse v, naming it, unless it is a real number within the float range."""
    if not (isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max):     # NaN fails too
        raise InvalidSpec(f"{what}, not {v!r}")


@dataclass(frozen=True)
class ConicCoeffs:
    """Coefficients of c0 = a1*x + a2*y + a3*xy + a4*x^2 + a5*y^2, all finite.
    ConicCoeffs.from_fit(fit) reads a fit by term, and ConicCoeffs(*a) takes
    a1..a5 in CONIC_TERMS order (x, y, xy, x2, y2), then c0."""

    a1: float
    a2: float
    a3: float = 0.0
    a4: float = 0.0
    a5: float = 0.0
    c0: float = 1.0

    def __post_init__(self):
        for v in (self.a1, self.a2, self.a3, self.a4, self.a5, self.c0):
            _require_finite_real(v, "the coefficients must be finite real numbers")
        if not any((self.a1, self.a2, self.a3, self.a4, self.a5)):
            raise InvalidSpec("at least one coefficient must be nonzero")

    @classmethod
    def from_fit(cls, fit: FitResult) -> "ConicCoeffs":
        """The relation of a unit-constant fit or a rotation over CONIC_TERMS, by
        term, 0 in an absent slot.  A rotation T_p = b0 + sum b_k*T_k reads as
        c0 = b0, T_p's coefficient 1 and each other -b_k, with no division."""
        spec, b = fit.spec, list(map(float, fit.coeffs))
        if spec.lhs is LhsKind.UNITY:
            a, c0 = dict(zip(spec.rhs_terms, b)), 1.0
        else:
            c0 = b.pop(0)
            a = {t: -v for t, v in zip(spec.rhs_terms, b)} | {spec.lhs_term: 1.0}
        if not set(a) <= set(CONIC_TERMS):     # and a response fit: its rhs are names
            raise InvalidSpec("a conic is a unit-constant fit or rotation over {x, y, xy, x2, y2}")
        return cls(*(a.get(t, 0.0) for t in CONIC_TERMS), c0)

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3, self.a4, self.a5])

    def evaluate(self, x, y):
        """Right-hand side a1*x + ... + a5*y^2 (equals c0 on the curve)."""
        return (self.a1 * x + self.a2 * y + self.a3 * x * y
                + self.a4 * x * x + self.a5 * y * y)

    def swapped(self) -> "ConicCoeffs":
        """Roles of x and y exchanged: (a1,a4) <-> (a2,a5)."""
        return ConicCoeffs(self.a2, self.a1, self.a3, self.a5, self.a4, self.c0)


class ConicClass(Enum):
    CIRCLE = "Circle"
    ELLIPSE = "Ellipse"
    PARABOLA = "Parabola"
    HYPERBOLA = "Hyperbola"
    DEGENERATE_OR_LINE = "DegenerateOrLine"


def y_roots(c: ConicCoeffs, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots y of the relation at each x: (lower, upper, free).

    lower == upper for a double root or when a5 = 0; both are NaN where no
    real y exists, and free marks a5 = 0 with |a2 + a3*x| < TOL_DENOM (no y
    is determined).  A discriminant within TOL_DISC below zero snaps to a
    double root.  TOL_DISC is relative to the larger of b^2 and 4|a| times
    the rounding scale of k, |c0| + |a1*x| + |a4*x^2|, so the test is free of
    the data's units and a rounded tangent snaps.  Distinct roots take the
    cancellation-free Citardauq pair (Higham, Accuracy and Stability of
    Numerical Algorithms, section 1.8).  Where a step leaves the float range
    at a finite x (b or k; in the quadratic case b^2, 4*a5*k, the snap's
    scale or 2k), the roots come from _scaled_roots.
    """
    x = np.asarray(x, dtype=float)
    a = c.a5
    # The closed form's operations in its order, done in place: the roots
    # are its floats bit for bit, and a call holds five float temporaries.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = c.a3 * x
        b += c.a2
        lin = c.a1 * x
        quad = c.a4 * x
        quad *= x
        k = lin + quad
        k -= c.c0
        if a == 0.0:
            free = np.abs(b) < TOL_DENOM
            # Out-of-range rows are rare; a sum is finite only if each term is.
            over = None if math.isfinite(k.sum() + b.sum()) else (
                ~(np.isfinite(k) & np.isfinite(b)) & np.isfinite(x))
            root = np.negative(k, out=k)
            root /= b
            if over is not None and over.any():
                root[over] = _scaled_roots(c, x[over])[0]
            root[free] = np.nan
            return root, root, free
        scale = np.abs(lin, out=lin)
        scale += abs(c.c0)
        scale += np.abs(quad, out=quad)
        scale *= 4 * abs(a)
        bb = np.multiply(b, b, out=quad)
        np.maximum(bb, scale, out=scale)
        disc = k * (4 * a)
        np.subtract(bb, disc, out=disc)
        t2 = np.multiply(k, 2, out=k)
        over = None if math.isfinite(disc.sum() + scale.sum() + t2.sum()) else (
            ~(np.isfinite(disc) & np.isfinite(scale) & np.isfinite(t2)) & np.isfinite(x))
        scale *= -TOL_DISC
        none = disc < scale
        np.maximum(disc, 0.0, out=disc)
        r = np.sqrt(disc, out=disc)
        zero = r == 0.0                     # where disc == 0
        pos = b >= 0
        nb = np.negative(b, out=b)
        q = np.subtract(nb, r, out=r, where=pos)     # -b - r where b >= 0, else -b + r
        np.add(nb, r, out=q, where=~pos)
        t2 /= q
        t1 = np.divide(q, 2 * a, out=q)
        double = np.divide(nb, 2 * a, out=nb)
        double[none] = np.nan
        lower = np.minimum(t1, t2, out=scale)
        upper = np.maximum(t1, t2, out=t2)
        np.copyto(lower, double, where=zero)
        np.copyto(upper, double, where=zero)
        if over is not None and over.any():
            lower[over], upper[over] = _scaled_roots(c, x[over])
    return lower, upper, np.zeros(x.shape, dtype=bool)


def _split(*terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sum of terms m*2^e as (S, M, E): S*2^E is the sum and M*2^E the
    sum of the magnitudes, with E the largest exponent of a nonzero term, so
    each term scales exactly unless it falls below the normal range."""
    exps = [np.where(m == 0, -1 << 20, e + np.frexp(m)[1]) for m, e in terms]
    E = functools.reduce(np.maximum, exps)
    parts = [np.ldexp(m, e - E) for m, e in terms]
    return functools.reduce(np.add, parts), functools.reduce(np.add, map(np.abs, parts)), E


def _scaled_roots(c: ConicCoeffs, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y_roots' (lower, upper) at finite x, by its own steps with b, k and the
    discriminant each held as a float and a power of two (_split), so only a
    root that itself lies beyond the float range overflows.  The
    discriminant is over 2^F, F even, so its square root is over 2^(F/2)."""
    m, e = np.frexp(x)
    B, _, Eb = _split((c.a2, 0), (c.a3 * m, e))
    K, Kmag, Ek = _split((c.a1 * m, e), (c.a4 * m * m, 2 * e), (-c.c0, 0))
    if c.a5 == 0.0:
        root = np.ldexp(-K / B, Ek - Eb)
        return root, root
    A, Ea = math.frexp(c.a5)
    F = np.maximum(2 * Eb, Ek + Ea + 2)
    F += F & 1
    bb = np.ldexp(B * B, 2 * Eb - F)
    disc = bb - np.ldexp(K * (4 * A), Ek + Ea - F)
    none = disc < -TOL_DISC * np.maximum(bb, np.ldexp(Kmag * (4 * abs(A)), Ek + Ea - F))
    r = np.sqrt(np.maximum(disc, 0.0))
    h = np.ldexp(B, Eb - F // 2)
    q = np.where(B >= 0, -h - r, -h + r)
    t1 = np.ldexp(q / (2 * A), F // 2 - Ea)
    t2 = np.ldexp(K * 2 / q, Ek - F // 2)
    double = np.where(none, np.nan, np.ldexp(-B / (2 * A), Eb - Ea))
    zero = r == 0.0
    return (np.where(zero, double, np.minimum(t1, t2)),
            np.where(zero, double, np.maximum(t1, t2)))


def solve_for_y(c: ConicCoeffs, x: float) -> list[float]:
    """Real y with (x, y) on the fitted curve, ascending; 0, 1, or 2 roots.  The x
    at a given y is solve_for_y(c.swapped(), y), whose refusals name x as y."""
    _require_finite_real(x, "the point must be a finite real number")
    (lower,), (upper,), (free,) = y_roots(c, [x])
    if free:
        raise NoSolutionAtPoint(f"no y solves the relation at x = {x}")
    return [] if math.isnan(lower) else sorted({float(lower), float(upper)})


def classify_conic(c: ConicCoeffs) -> ConicClass:
    """Discriminant classification of the quadratic part, free of the data's
    units: scaling x and y by s scales the linear coefficients by 1/s and the
    quadratic ones by 1/s^2.  So the quadratic part is absent when it is
    within TOL_DISC of the squared linear part, and the discriminant is read
    on the quadratic part divided by its largest coefficient."""
    a1, a2, a3, a4, a5 = c.as_array()
    quad = max(abs(a3), abs(a4), abs(a5))
    if math.sqrt(quad) <= math.sqrt(TOL_DISC) * max(abs(a1), abs(a2)):     # no squares to overflow
        return ConicClass.DEGENERATE_OR_LINE
    a3, a4, a5 = a3 / quad, a4 / quad, a5 / quad
    disc = a3 * a3 - 4 * a4 * a5
    if disc < -TOL_DISC:
        if abs(a3) <= TOL_DISC and abs(a4 - a5) <= TOL_DISC * max(abs(a4), abs(a5)):
            return ConicClass.CIRCLE
        return ConicClass.ELLIPSE
    if disc <= TOL_DISC:
        return ConicClass.PARABOLA
    return ConicClass.HYPERBOLA


@dataclass(frozen=True)
class ConicGeometry:
    center: tuple[float, float]
    semi_axes: tuple[float, float]   # major first
    rotation: float                  # radians, angle of the major axis


def conic_geometry(c: ConicCoeffs) -> ConicGeometry:
    """Center, semi-axes, and axis rotation of an elliptic relation.

    The center solves the gradient system; axes come from the eigenpairs
    of the quadratic-form matrix scaled by the centered constant.
    """
    kind = classify_conic(c)
    if kind not in (ConicClass.CIRCLE, ConicClass.ELLIPSE):
        raise NotAnEllipse(f"classification is {kind.value}")
    M = np.array([[c.a4, c.a3 / 2.0], [c.a3 / 2.0, c.a5]])
    center = np.linalg.solve(2.0 * M, np.array([-c.a1, -c.a2]))
    cx, cy = float(center[0]), float(center[1])
    # Centered form: u' M u = k with k = c0 - evaluate(center).  k
    # vanishes when it is within TOL_DISC of the rounding scale of
    # evaluate(center), |c0| + sum |a_i T_i(center)|.
    k = c.c0 - float(c.evaluate(cx, cy))
    rounding = abs(c.c0) + float(np.abs(c.as_array() * [cx, cy, cx * cy, cx * cx, cy * cy]).sum())
    if abs(k) <= TOL_DISC * rounding:
        raise NotRepresentable("centered constant vanishes; no unit-constant form")
    if k < 0:
        # normalize the sign so the centered form reads u'Mu = k with k > 0
        M = -M
        k = -k
    eigvals, eigvecs = np.linalg.eigh(M)
    if np.any(eigvals <= 0):
        raise NotAnEllipse("quadratic form is not definite against the constant")
    axes = np.sqrt(k / eigvals)
    order = np.argsort(-axes)     # major axis first
    axes = axes[order]
    major_vec = eigvecs[:, order[0]]
    rotation = math.atan2(major_vec[1], major_vec[0])
    if rotation < 0:
        rotation += math.pi       # axis direction is defined modulo pi
    if abs(axes[0] - axes[1]) <= TOL_DISC * axes[0]:
        rotation = 0.0
    return ConicGeometry(center=(cx, cy), semi_axes=(float(axes[0]), float(axes[1])),
                         rotation=rotation)
