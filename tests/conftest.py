import numpy as np
import pytest

from cylmode import build_grid


@pytest.fixture(scope="session")
def grid_cheb():
    """Shared Chebyshev grid, fine enough for machine-accurate smooth fields."""
    return build_grid(24, 32, 2.0 * np.pi)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
