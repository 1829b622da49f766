import pytest
from periodic_states import make_periodic_state

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


@pytest.fixture
def periodic_state_factory():
    return make_periodic_state
