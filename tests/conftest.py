import numpy as np
import pytest
from hypothesis import settings

from fermidecay import fock
from fermidecay.lattice import LatticeSpec, TimeGrid
from fermidecay.model import ModelParams, hubbard_interaction

# every property test draws the same examples on every run, with no deadline;
# each keeps its own max_examples
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


def empty_model_caches():
    """Empty the Fock model slot and the per-lattice H_0 and log Z(H_0)
    caches, so that no model built earlier is reused."""
    fock._MODEL.clear()
    fock._free_hamiltonian.cache_clear()
    fock._free_log_partition.cache_clear()


@pytest.fixture(autouse=True)
def _empty_model_slot():
    """Every test starts with an empty Fock model slot and no cached H_0,
    so no model leaks from one test into the next."""
    empty_model_caches()


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


@pytest.fixture
def blas_count():
    """The thread-count getter of numpy's OpenBLAS, with the count raised
    to at least 2 for the test, so that one thread is told apart from it;
    the earlier count is restored afterwards."""
    handle = fock._blas_handle()
    if handle is None:
        pytest.skip("numpy's OpenBLAS (numpy.libs/libscipy_openblas* or "
                    "libopenblas64_p*) was not found: no thread count to read")
    get, put = handle
    earlier = get()
    put(max(earlier, 2))
    if get() < 2:
        put(earlier)
        pytest.skip("this OpenBLAS runs one thread only")
    yield get
    put(earlier)
