import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fermidecay.lattice import (
    LatticeSpec,
    TimeGrid,
    enumerate_momenta,
    enumerate_sites,
    mode_index,
    periodic_reduce,
    site_index,
    site_ranks,
    spacetime_index,
)


def test_enumerate_sites_lexicographic():
    assert enumerate_sites(LatticeSpec(d=1, L=3)) == [(0,), (1,), (2,)]
    assert enumerate_sites(LatticeSpec(d=2, L=2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_sites(LatticeSpec(d=1, L=1)) == [(0,)]


def test_enumerate_momenta_values():
    np.testing.assert_allclose([k[0] for k in enumerate_momenta(LatticeSpec(1, 2))],
                               [0.0, np.pi])
    np.testing.assert_allclose([k[0] for k in enumerate_momenta(LatticeSpec(1, 4))],
                               [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    k22 = enumerate_momenta(LatticeSpec(2, 2))
    np.testing.assert_allclose(k22, [(0, 0), (0, np.pi), (np.pi, 0), (np.pi, np.pi)])


@pytest.mark.parametrize("x,L,expected", [(3, 4, -1), (-2, 4, -2), (7, 5, 2)])
def test_periodic_reduce_examples(x, L, expected):
    assert periodic_reduce(x, L) == expected


@given(st.integers(-10**6, 10**6), st.integers(1, 64))
def test_periodic_reduce_window_and_idempotence(x, L):
    half = L // 2
    r = periodic_reduce(x, L)
    assert -half <= r <= -half + L - 1
    assert (r - x) % L == 0
    assert periodic_reduce(r, L) == r


@given(st.integers(1, 3), st.integers(1, 4),
       st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_site_ranks_is_site_index(d, L, coords):
    spec = LatticeSpec(d=d, L=L)
    sites = np.array(enumerate_sites(spec)) + coords[:d]
    assert site_ranks(spec, sites).tolist() == \
        [site_index(spec, x) for x in sites]
    assert site_ranks(spec, sites - sites[:, None, :]).tolist() == \
        [[site_index(spec, y - x) for y in sites] for x in sites]


@pytest.mark.parametrize("d,L", [(1, 3), (2, 3), (1, 8), (3, 2)])
def test_momentum_site_counts(d, L):
    spec = LatticeSpec(d=d, L=L)
    assert len(enumerate_sites(spec)) == L**d
    assert len(enumerate_momenta(spec)) == L**d


@pytest.mark.parametrize("d,L", [(1, 4), (2, 3)])
def test_momentum_orthogonality(d, L):
    # sum_x e^{i<k,x>} = L^d * 1_{k=0}
    spec = LatticeSpec(d=d, L=L)
    xs = np.array(enumerate_sites(spec), dtype=float)
    for i, k in enumerate(enumerate_momenta(spec)):
        s = np.exp(1j * (xs @ np.array(k))).sum()
        expected = spec.n_sites if i == 0 else 0.0
        assert abs(s - expected) < 1e-10


def test_time_grid_examples():
    g = TimeGrid(1.0, 1)
    assert g.h == 2.0 and g.n_points == 2
    np.testing.assert_allclose(g.points, [0.0, 0.5])
    g = TimeGrid(2.0, 2)
    assert g.h == 2.0
    np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0, 1.5])
    g = TimeGrid(1.0, 2)
    assert g.h == 4.0
    np.testing.assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75])


def test_time_grid_rejects_zero_half_steps():
    with pytest.raises(ValueError):
        TimeGrid(beta=1.0, half_steps=0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
def test_time_grid_refuses_beta_outside_zero_to_inf(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        TimeGrid(beta, 1)


def test_global_index_order():
    spec = LatticeSpec(d=1, L=2)
    assert mode_index(spec, (0,), 0) == 0
    assert mode_index(spec, (0,), 1) == 1
    assert mode_index(spec, (1,), 0) == 2
    # site coordinates reduce mod L
    assert site_index(spec, (-1,)) == 1
    grid = TimeGrid(1.0, 1)
    assert spacetime_index(spec, grid, (1,), 1, 0) == 3
    assert spacetime_index(spec, grid, (0,), 0, 1) == 4
