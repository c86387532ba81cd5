"""Deterministic seeded generators for tests and the CLI.

All randomness flows through numpy's PCG64 Generator seeded from the spec;
uniform deviates come from the generator's native stream and normal
deviates from its ziggurat method.  Identical specs therefore produce
identical output on any platform running the same numpy build (the suite
only relies on distribution-level tolerances, not bit equality).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import InvalidSpec
from .terms import Dataset

# Abscissa range for line sampling; angle range for circles/ellipses is
# the full turn.
LINE_X_RANGE = (0.0, 10.0)


@dataclass(frozen=True)
class Line:
    b0: float
    b1: float


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    ax: float
    ay: float
    rot: float = 0.0


@dataclass(frozen=True)
class ConstantNormal:
    mu: float
    sigma: float


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float


Kind = Union[Line, Circle, Ellipse, ConstantNormal, Uniform]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: Kind
    n: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Types first, so that no comparison below can raise TypeError.
        for name in ("n", "seed"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise InvalidSpec(f"{name} must be an integer, got {v!r}")
        k = self.kind
        if not isinstance(k, Kind):
            raise InvalidSpec(f"unknown generator kind {k!r}")
        params = {"noise_sigma": self.noise_sigma,
                  **{f"{type(k).__name__}.{f.name}": getattr(k, f.name) for f in fields(k)}}
        for name, v in params.items():
            if not isinstance(v, numbers.Real):
                raise InvalidSpec(f"{name} must be a real number, got {v!r}")
        if not all(map(math.isfinite, params.values())):
            raise InvalidSpec("generator parameters must be finite")
        if self.n < 1:
            raise InvalidSpec("n must be >= 1")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")
        if isinstance(k, Circle) and k.r <= 0:
            raise InvalidSpec("radius must be positive")
        if isinstance(k, Ellipse) and (k.ax <= 0 or k.ay <= 0):
            raise InvalidSpec("semi-axes must be positive")
        if isinstance(k, ConstantNormal) and k.sigma < 0:
            raise InvalidSpec("sigma must be >= 0")
        if isinstance(k, Uniform) and not k.a < k.b:
            raise InvalidSpec("uniform bounds must satisfy a < b")


def generate(spec: GeneratorSpec) -> Union[Dataset, np.ndarray]:
    """Sample per the spec; geometric kinds return a Dataset, univariate
    kinds a plain vector.  InvalidSpec when the parameters give samples
    beyond the float range."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            columns = _sample(spec, np.random.default_rng(spec.seed))
        finite = all(np.isfinite(c).all() for c in columns)
    except OverflowError:       # a uniform range b - a beyond the float range
        finite = False
    if not finite:
        raise InvalidSpec(f"{spec.kind} gives samples beyond the float range")
    return columns[0] if len(columns) == 1 else Dataset(*columns)


def _sample(spec: GeneratorSpec, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The sampled columns: (x, y) for a geometric kind, (y,) for a
    univariate one.  A circle is sampled as the ellipse of equal semi-axes."""
    k = spec.kind
    if isinstance(k, Line):
        x = rng.uniform(*LINE_X_RANGE, size=spec.n)
        y = k.b0 + k.b1 * x
        return _with_noise(x, y, spec, rng)
    if isinstance(k, Circle):
        k = Ellipse(k.cx, k.cy, k.r, k.r)
    if isinstance(k, Ellipse):
        theta = rng.uniform(0.0, 2 * math.pi, size=spec.n)
        u = k.ax * np.cos(theta)
        v = k.ay * np.sin(theta)
        cr, sr = math.cos(k.rot), math.sin(k.rot)
        x = k.cx + cr * u - sr * v
        y = k.cy + sr * u + cr * v
        return _with_noise(x, y, spec, rng)
    if isinstance(k, ConstantNormal):
        if k.sigma == 0:
            return (np.full(spec.n, float(k.mu)),)
        return (rng.normal(k.mu, k.sigma, size=spec.n),)
    return (rng.uniform(k.a, k.b, size=spec.n),)


def _with_noise(x: np.ndarray, y: np.ndarray, spec: GeneratorSpec,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if spec.noise_sigma > 0:
        x = x + rng.normal(0.0, spec.noise_sigma, size=spec.n)
        y = y + rng.normal(0.0, spec.noise_sigma, size=spec.n)
    return x, y
