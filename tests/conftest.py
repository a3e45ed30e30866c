import numpy as np
import pytest

from mra_sync import GridSpec, KernelSpec, build_row_covariance


@pytest.fixture(scope="session")
def default_grid():
    # the desk-scale experimental geometry: 6x6 blocks of 3x4 cells, d = 2
    return GridSpec(6, 6, 3, 4, 2)


@pytest.fixture(scope="session")
def default_cov(default_grid):
    return build_row_covariance(default_grid, KernelSpec(5.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def identity_cov():
    """A factory for the covariance that is exactly I: n_blocks blocks of block_cells cells.

    Off the diagonal the delta kernel underflows to exact zeros, and without
    jitter its diagonal is exactly 1.
    """

    def make(n_blocks, block_cells):
        grid = GridSpec(1, n_blocks, 1, block_cells, 2)
        return build_row_covariance(grid, KernelSpec(1e-160, jitter=0.0))

    return make
