import pytest

from efgeo import propagator
from efgeo.grid import Grid1D
from efgeo.model import ModelParams


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def grid4096():
    return Grid1D(-4.0, 6.0, 4096)


@pytest.fixture(scope="session")
def grid1024():
    return Grid1D(-4.0, 6.0, 1024)


@pytest.fixture(scope="session")
def convergence_study(params, grid4096):
    """Final-time L2 errors and fitted order of the model propagation at
    three step sizes, and each run recorded at three times, run once for
    every test that reads them."""
    return propagator.convergence_order(params, grid4096, (8e-4, 4e-4, 2e-4), t_end=0.5)
