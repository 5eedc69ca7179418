import numpy as np
import pytest

from liaisonlab.ring import Ring


@pytest.fixture(scope="session")
def R4():
    """GF(32003)[x0..x3], degrevlex."""
    return Ring(4, 32003)


@pytest.fixture(scope="session")
def R3():
    return Ring(3, 32003)


@pytest.fixture(scope="session")
def R5():
    return Ring(5, 32003)


@pytest.fixture(scope="session")
def Rxy():
    return Ring(2, 32003, names=("x", "y"))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240810)
