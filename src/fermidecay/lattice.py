"""Finite hyper-cubic lattice, its momentum dual, spins and discrete time grids.

Everything downstream (hopping matrices, Fock operators, covariance matrices,
Grassmann generators) indexes degrees of freedom through the orderings fixed
here: sites in lexicographic order, global mode index = site_rank*2 + spin,
space-time index = time_idx*(2*L^d) + mode index (time slowest).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

UP = 0
DOWN = 1
SPINS = (UP, DOWN)

Site = tuple[int, ...]
Momentum = tuple[float, ...]


@dataclass(frozen=True)
class LatticeSpec:
    """d-dimensional periodic lattice of linear size L."""

    d: int
    L: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.L < 1:
            raise ValueError(f"linear size must be >= 1, got {self.L}")

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    @property
    def n_modes(self) -> int:
        """Number of one-particle modes: two spins per site."""
        return 2 * self.L**self.d


def enumerate_sites(spec: LatticeSpec) -> list[Site]:
    """All L^d sites in lexicographic order of their coordinate tuples."""
    return list(itertools.product(range(spec.L), repeat=spec.d))


def site_index(spec: LatticeSpec, site) -> int:
    """Lexicographic rank of a site; coordinates are reduced mod L first."""
    idx = 0
    for c in site:
        idx = idx * spec.L + (int(c) % spec.L)
    return idx


def site_ranks(spec: LatticeSpec, sites) -> np.ndarray:
    """site_index over an integer array of sites of shape (..., d)."""
    return (np.asarray(sites) % spec.L) @ spec.L ** np.arange(spec.d - 1, -1, -1)


def mode_index(spec: LatticeSpec, site, spin: int) -> int:
    """Global one-particle mode index: site lex-rank * 2 + spin (up=0, down=1)."""
    if spin not in SPINS:
        raise ValueError(f"spin must be 0 (up) or 1 (down), got {spin}")
    return 2 * site_index(spec, site) + spin


def enumerate_momenta(spec: LatticeSpec) -> list[Momentum]:
    """All L^d momenta 2*pi*n/L, same lexicographic order convention as sites."""
    step = 2.0 * np.pi / spec.L
    return [tuple(step * n for n in ns)
            for ns in itertools.product(range(spec.L), repeat=spec.d)]


def momentum_grid(spec: LatticeSpec) -> np.ndarray:
    """Momenta as an (L^d, d) float array in enumeration order."""
    return np.array(enumerate_momenta(spec), dtype=float).reshape(spec.n_sites, spec.d)


def periodic_reduce(x, L: int):
    """Reduce an integer vector componentwise into {-floor(L/2), ..., -floor(L/2)+L-1}.

    This is the unique representative of x mod L in the centered window; it is
    idempotent and fixes points already in the window.
    """
    half = L // 2
    if np.isscalar(x):
        return (int(x) + half) % L - half
    return tuple((int(c) + half) % L - half for c in x)


@dataclass(frozen=True)
class TimeGrid:
    """Discrete time grid {0, 1/h, ..., beta - 1/h} with beta*h = 2*half_steps.

    beta and h are stored through (beta, half_steps) so that beta*h is an exact
    even integer, as required for the grid cardinality bookkeeping.
    """

    beta: float
    half_steps: int

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.half_steps < 1:
            raise ValueError(f"half_steps must be >= 1, got {self.half_steps}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_steps / self.beta

    @property
    def n_points(self) -> int:
        """Cardinality of [0, beta)_h, the exact even integer beta*h."""
        return 2 * self.half_steps

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n_points) / self.h


def spacetime_index(spec: LatticeSpec, grid: TimeGrid, site, spin: int,
                    time_idx: int) -> int:
    """Global (site, spin, time) index; time is the slowest-varying coordinate."""
    if not 0 <= time_idx < grid.n_points:
        raise ValueError(f"time index {time_idx} outside grid of {grid.n_points}")
    return time_idx * spec.n_modes + mode_index(spec, site, spin)

