import numpy as np
import pytest

from fermidecay import fock
from fermidecay.lattice import LatticeSpec, TimeGrid
from fermidecay.model import ModelParams, hubbard_interaction


@pytest.fixture(autouse=True)
def _empty_model_slot():
    """Every test starts with an empty Fock model slot, so no model leaks
    from one test into the next."""
    fock._MODEL.clear()


@pytest.fixture
def params():
    return ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)


@pytest.fixture
def chain4():
    return LatticeSpec(d=1, L=4)


@pytest.fixture
def atom():
    return LatticeSpec(d=1, L=1)


@pytest.fixture
def grid_bh2():
    return TimeGrid(beta=1.0, half_steps=1)


@pytest.fixture
def hubbard_small():
    return hubbard_interaction(0.1, d=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
