import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from specpredict import TimeSeries, make_grid


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(256, 0.05)


@pytest.fixture(scope="session")
def oracle_grid():
    """Grid sized for O(n^2) oracle comparisons."""
    return make_grid(2**10, 0.1)


def random_series(grid, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return TimeSeries(grid, rng.standard_normal(grid.n))


def compact_pulse(grid, seed):
    """Modulated Gaussian bump confined to the middle half of the window."""
    rng = np.random.Generator(np.random.Philox(seed))
    t = grid.times()
    sigma = rng.uniform(1.0, 3.0)
    t0 = rng.uniform(-0.05, 0.05) * grid.span
    w0 = rng.uniform(0.3, 2.0)
    return TimeSeries(grid, np.exp(-((t - t0) ** 2) / (2 * sigma**2)) * np.cos(w0 * t))
