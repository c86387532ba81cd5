import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci`: the same examples on every run, so a
# property that fails in a CI log fails the same way locally.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)

from implicitreg import Dataset


@pytest.fixture
def tri_dataset():
    """Three points satisfying x + y = 1 with a full-rank {x, y} design."""
    return Dataset([1.0, 0.0, 0.5], [0.0, 1.0, 0.5])


@pytest.fixture
def circle6():
    """Six exact points on the radius-2 circle centered at the origin."""
    s = math.sqrt(2.0)
    return Dataset([2.0, -2.0, 0.0, 0.0, s, s], [0.0, 0.0, 2.0, -2.0, s, -s])


def random_dataset(rng, n=None):
    """Generic well-scaled random dataset for oracle comparisons."""
    if n is None:
        n = int(rng.integers(10, 51))
    x = rng.uniform(0.5, 3.0, size=n)
    y = rng.uniform(0.5, 3.0, size=n)
    return Dataset(x, y)


def offset_line(offset, n=200, seed=3):
    """x in [0, 10] and y = 1 + 2x + N(0, 0.05^2), both shifted by offset.

    Values sit on a 2^-20 grid, so shifts up to 1e8 are exact and every
    offset holds the same line."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0, 10, n) * 2**20) / 2**20
    y = np.round((1 + 2 * x + rng.normal(0, 0.05, n)) * 2**20) / 2**20
    return x + offset, y + offset


def unit_condition(*columns):
    """2-norm condition number of the columns scaled to unit length."""
    Z = np.column_stack(columns)
    return float(np.linalg.cond(Z / np.linalg.norm(Z, axis=0)))
