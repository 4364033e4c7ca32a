"""Free thermal covariance on the lattice and its analytic identities.

The covariance is the momentum sum

    C(x xi s, y phi t) = delta_{xi,phi} / L^d * sum_k e^{i<k, y-x>} e^{-(t-s) E_k}
                         * ( 1_{t-s <= 0} / (1 + e^{beta E_k})
                           - 1_{t-s  > 0} / (1 + e^{-beta E_k}) )

with the dispersion optionally shifted off the real momentum grid, E_k ->
E_{k+z} for one complex vector z.  The two branches are evaluated in the
exponentially safe arrangement (splitting on the sign of Re E), which is
exactly the rearrangement used to prove the determinant bound, so no
overflow occurs for any beta in range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    SPINS,
    LatticeSpec,
    TimeGrid,
    enumerate_sites,
    momentum_grid,
    periodic_reduce,
    site_ranks,
)
from .model import (
    GuardError,
    ModelParams,
    decay_base,
    dispersion_grid,
    geometric_sum_factor,
    theorem_decay_base,
)

MATRIX_SIZE_LIMIT = 4096
DET_BLOCK = 256  # trials or contour nodes per stacked evaluation
# contour_nodes takes THETA_NODES_MIN + THETA_NODES_PER_RATIO * (pi/L)/radius
# Gauss-Legendre nodes per theta segment and CIRCLE_NODES trapezoid nodes per
# circle, at most MAX_CONTOUR_NODES in all
THETA_NODES_MIN = 16
THETA_NODES_PER_RATIO = 5
CIRCLE_NODES = 32
MAX_CONTOUR_NODES = 2 ** 21


@dataclass(frozen=True)
class CovarianceSpec:
    """Lattice + parameters + one complex momentum shift z, a d-tuple (zero
    when None), stored as complex numbers so equal shifts are equal keys."""

    spec: LatticeSpec
    params: ModelParams
    shift: tuple | None = None

    def __post_init__(self):
        shift = (0,) * self.spec.d if self.shift is None else tuple(self.shift)
        if len(shift) != self.spec.d:
            raise ValueError(f"shift {shift} has {len(shift)} components, "
                             f"expected d = {self.spec.d}")
        object.__setattr__(self, "shift", tuple(complex(z) for z in shift))


def shift_radius(params: ModelParams, d: int, r: float) -> float:
    """Half log of the decay base: |Im z| below this keeps |Im E_{k+z e_p}| < r."""
    return 0.5 * math.log(decay_base(params, d, r))


def contour_radius(params: ModelParams, d: int, n: int = 1) -> float:
    """The shift radius at pi/(2 beta) over n: the circle radius of the
    n-fold contour checks."""
    return shift_radius(params, d, math.pi / (2.0 * params.beta)) / n


@functools.lru_cache(maxsize=128)
def _dispersions(cs: CovarianceSpec) -> np.ndarray:
    E = dispersion_grid(cs.spec, cs.params, cs.shift)
    E.flags.writeable = False  # shared by every caller of the cache
    return E


def guarded_dispersions(cs: CovarianceSpec, stack=None) -> np.ndarray:
    """Dispersion over the momentum grid, failing loudly when the imaginary
    part guard |Im E_k| < pi/beta is violated (names the offending k and
    the whole shift).

    With stack, a complex (B, d) array of further shifts added to cs.shift,
    E has shape (B, L^d); every row passes the guard.
    """
    if stack is not None and np.shape(stack)[1:] != (cs.spec.d,):
        raise ValueError(f"shift stack has shape {np.shape(stack)}, "
                         f"expected d = {cs.spec.d} columns")
    shift = cs.shift if stack is None else np.add(cs.shift, stack)
    E = (_dispersions(cs) if stack is None
         else dispersion_grid(cs.spec, cs.params, shift))
    limit = math.pi / cs.params.beta
    bad = np.abs(E.imag) >= limit
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), E.shape)
        k = momentum_grid(cs.spec)[idx[-1]]
        z = ", ".join(f"{complex(c):.6g}" for c in np.asarray(shift)[idx[:-1]])
        raise GuardError(
            f"|Im E_k| = {abs(E.imag[idx]):.6g} >= pi/beta = {limit:.6g} "
            f"at k = {tuple(k.tolist())} (shift ({z})): outside the "
            "analyticity strip, reduce the shift radius")
    return E


def _fermi_factor(E: np.ndarray, dt, beta: float) -> np.ndarray:
    """The two-branch time kernel, rearranged per sign of Re E for stability.

    E has the momentum axis last and any leading batch axes; dt may be an
    array.  The result has shape E.shape[:-1] + dt.shape + E.shape[-1:].
    """
    E = np.asarray(E, dtype=complex)
    dt = np.asarray(dt, dtype=float)
    E = E.reshape(E.shape[:-1] + (1,) * dt.ndim + E.shape[-1:])
    dt = dt[..., None]
    early = dt <= 0
    pos = E.real > 0
    den = 1.0 + np.exp(-beta * np.where(pos, E, -E))
    expo = -dt * E + np.where(early, -np.where(pos, beta * E, 0.0),
                              np.where(pos, 0.0, beta * E))
    val = np.exp(expo) / den
    return np.where(early, val, -val)


def covariance_value(cs: CovarianceSpec, a, b) -> complex:
    """C(a, b) for space-time points a = (site, spin, time), b likewise.

    Sites may be arbitrary integer vectors (periodicity makes the phase well
    defined); times must lie in (-beta, beta] differences, which covers both
    the [0, beta) arguments and the doubled grid of the l1 sum.
    """
    (xa, sa, ta), (xb, sb, tb) = a, b
    if sa != sb:
        return 0.0 + 0.0j
    return complex(covariance_entries(cs, np.subtract(xb, xa),
                                      float(tb) - float(ta)))


def covariance_entries(cs: CovarianceSpec, dx, dt, stack=None) -> np.ndarray:
    """Equal-spin C for arrays of site differences dx = x_b - x_a (last axis
    of length d) and time differences dt = t_b - t_a; dx[..., 0] and dt
    broadcast against each other.  This is the one evaluation of the
    momentum sum; with a (B, d) stack of further shifts, see
    guarded_dispersions, the result gains a leading axis of length B."""
    dx = np.asarray(dx, dtype=float)
    dt = np.reshape(dt, (1,) * (dx.ndim - 1 - np.ndim(dt)) + np.shape(dt))
    phase = np.exp(1j * (dx @ momentum_grid(cs.spec).T))
    vals = _fermi_factor(guarded_dispersions(cs, stack), dt,
                         cs.params.beta)
    return np.einsum("...k,...k->...", phase, vals) / cs.spec.n_sites


def _covariance_table(cs: CovarianceSpec, grid: TimeGrid, stack=None):
    """C[site_diff_rank, time_diff_idx] over canonical site differences and
    all grid time differences in (-beta, beta], and those differences."""
    n = grid.n_points
    dts = np.arange(-(n - 1), n + 1) / grid.h  # time differences t_b - t_a
    diffs = np.array(enumerate_sites(cs.spec), dtype=float)[:, None, :]
    return covariance_entries(cs, diffs, dts, stack), dts


@functools.lru_cache(maxsize=64)
def _covariance_lookup(cs: CovarianceSpec, grid: TimeGrid):
    """The unshifted _covariance_table, computed once per (cs, grid)."""
    table, dts = _covariance_table(cs, grid)
    table.flags.writeable = False  # shared by every caller of the cache
    dts.flags.writeable = False
    return table, dts


def covariance_matrix(cs: CovarianceSpec, grid: TimeGrid,
                      stack=None) -> np.ndarray:
    """The full N x N covariance matrix in the global (site, spin, time) order,
    N = 2 L^d beta h (time is the slowest index).

    With a complex (B, d) stack, the result is the (B, N, N) stack of the
    matrices at the shifts cs.shift + stack[b].
    """
    spec = cs.spec
    N = spec.n_modes * grid.n_points
    if N > MATRIX_SIZE_LIMIT:
        raise GuardError(f"covariance matrix size {N} exceeds {MATRIX_SIZE_LIMIT}")
    table, _ = (_covariance_lookup(cs, grid) if stack is None
                else _covariance_table(cs, grid, stack))
    sites = np.array(enumerate_sites(spec))
    rank = site_ranks(spec, sites[None, :, :] - sites[:, None, :])  # site_b - site_a
    tidx = np.arange(grid.n_points)
    dt_idx = tidx[None, :] - tidx[:, None] + grid.n_points - 1  # into dts
    M = table[..., rank[None, :, None, :], dt_idx[:, None, :, None]]
    # (time, site) x (time, site) blocks, nonzero between equal spins only
    M = M[..., None, :, :, None] * np.eye(len(SPINS))[:, None, None, :]
    return M.reshape(M.shape[:-6] + (N, N))


def det_identity_check(cs: CovarianceSpec, grid: TimeGrid) -> dict:
    """det C_h against the closed-form product over momenta of
    (1 + e^{beta E_k})^{-2}; the square counts the two spins."""
    M = covariance_matrix(cs, grid)
    lhs = complex(np.linalg.det(M))
    E = guarded_dispersions(cs)
    beta = cs.params.beta
    # (1 + e^{beta E})^{-2} evaluated overflow-safely via the sign of Re E
    pos = E.real > 0
    log_terms = np.where(pos, -beta * E - np.log1p(np.exp(-beta * np.where(pos, E, 0))),
                         -np.log1p(np.exp(beta * np.where(pos, 0, E))))
    rhs = complex(np.exp(2.0 * np.sum(log_terms)))
    if abs(lhs) < 1e-300 or abs(rhs) < 1e-300:
        raise GuardError(
            f"determinant underflow: |det C_h| = {abs(lhs)}, "
            f"closed form = {abs(rhs)}")
    rel = abs(lhs - rhs) / abs(rhs)
    return {"lhs": lhs, "rhs": rhs, "relative_error": rel}


def matsubara_frequencies(grid: TimeGrid) -> np.ndarray:
    """The beta*h odd frequencies pi(2Z+1)/beta inside (-pi h, pi h)."""
    n = grid.n_points
    odd = np.arange(-n + 1, n, 2)
    return math.pi * odd / grid.beta


def matsubara_check(cs: CovarianceSpec, grid: TimeGrid) -> dict:
    """Conjugate C_h by the momentum/frequency plane-wave unitary and compare
    with the diagonal (1 - e^{-i omega/h + E_k/h})^{-1}."""
    spec = cs.spec
    M = covariance_matrix(cs, grid)
    E = guarded_dispersions(cs)
    omegas = matsubara_frequencies(grid)
    ks = momentum_grid(spec)
    sites = np.array(enumerate_sites(spec), dtype=float)
    T = grid.n_points
    # rows (omega, k, spin) against columns (time, site, spin), both with the
    # last index fastest: the column order of C_h
    norm = 1.0 / math.sqrt(T * spec.n_sites)
    Y = np.kron(np.exp(-1j * np.outer(omegas, grid.points)) * norm,
                np.kron(np.exp(1j * (ks @ sites.T)), np.eye(len(SPINS))))
    targets = np.repeat(
        1.0 / (1.0 - np.exp((-1j * omegas[:, None] + E[None, :]) / grid.h)),
        len(SPINS))
    D = Y @ M @ Y.conj().T
    diag = np.diag(D).copy()
    off = D - np.diag(diag)
    max_off = float(np.max(np.abs(off)))
    max_diag_dev = float(np.max(np.abs(diag - targets)))
    unitarity = float(np.max(np.abs(Y @ Y.conj().T - np.eye(len(Y)))))
    return {"max_offdiagonal": max_off, "max_diagonal_deviation": max_diag_dev,
            "unitarity_defect": unitarity}


def u1_shift_identity_check(cs: CovarianceSpec, grid: TimeGrid, axis: int) -> float:
    """Max deviation of e^{i 2pi <x-y, e_q>/L} C(x,y)(shift) from
    C(x,y)(shift + (2pi/L) e_q), entrywise over the full matrix."""
    spec = cs.spec
    M0 = covariance_matrix(cs, grid)
    M1 = covariance_matrix(cs, grid,
                           np.eye(1, spec.d, axis) * (2.0 * math.pi / spec.L))[0]
    sites = np.array(enumerate_sites(spec), dtype=float)
    comp = np.repeat(sites[:, axis], 2)
    comp = np.tile(comp, grid.n_points)
    phase = np.exp(1j * 2.0 * math.pi * (comp[:, None] - comp[None, :]) / spec.L)
    return float(np.max(np.abs(phase * M0 - M1)))


def _chord_parts(L: int, m) -> tuple[complex, float]:
    """Numerator e^{i 2pi m/L} - 1 and denominator 2pi/L of the chord."""
    return np.exp(1j * 2.0 * math.pi * int(m) / L) - 1.0, 2.0 * math.pi / L


def chord(L: int, m) -> complex:
    """The complex chord (e^{i 2pi m/L} - 1) / (2pi/L) of the contour checks."""
    num, den = _chord_parts(L, m)
    return num / den


def chord_components(spec: LatticeSpec, dvec) -> list[float]:
    """|e^{i 2pi d_q / L} - 1| / (2pi/L) per axis: the finite-lattice distance.
    The modulus is taken before the division, as every envelope value is."""
    return [abs(num) / den for num, den in
            (_chord_parts(spec.L, c) for c in dvec)]


def chord_exponent(spec: LatticeSpec, dvec) -> float:
    return sum(chord_components(spec, dvec)) / (4.0 * math.e * spec.d)


def reduced_exponent(spec: LatticeSpec, dvec) -> float:
    red = periodic_reduce(tuple(int(c) for c in dvec), spec.L)
    return sum(abs(c) for c in red) / (2.0 * math.e * math.pi * spec.d)


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the m-point Gauss-Legendre rule on
    [-1, 1], by Newton's method on the three-term recurrence of P_m from the
    asymptotic roots.

    Memory is O(m) and time O(m^2).  numpy's leggauss diagonalizes an m x m
    companion matrix, O(m^2) memory and O(m^3) time, which the contour rule
    reaches at low temperature (m = 5016 at beta = 250).
    """
    x = -np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    dx = np.ones(m)
    for _ in range(20):  # 3 steps reach 1e-14 from these starting points
        p0, p1 = np.ones_like(x), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (x * p1 - p0) / (x * x - 1.0)  # P_m'(x)
        if np.max(np.abs(dx)) <= 1e-14:
            break  # x converged, and dp is taken at it
        dx = p1 / dp
        x = x - dx
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def contour_nodes(L: int, n: int,
                  radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Shifts sum_j w_j and weights of the n-fold contour quadrature

        prod_j (L/2pi) int_0^{2pi/L} dtheta_j (2pi i)^{-1} oint dw_j (w_j - theta_j)^{-2}

    over the circles |w_j - theta_j| = radius.  The theta segments use
    Gauss-Legendre, whose error falls at a rate set by the radius of
    analyticity around the segment, so the node count grows with the
    segment's half-length over the radius, (pi/L)/radius.  The circles use
    the periodic trapezoid rule, whose error falls geometrically in a fixed
    count.  Refuses more than MAX_CONTOUR_NODES nodes.
    """
    theta_nodes = THETA_NODES_MIN + math.ceil(
        THETA_NODES_PER_RATIO * (math.pi / L) / radius)
    if (theta_nodes * CIRCLE_NODES) ** n > MAX_CONTOUR_NODES:
        raise GuardError(
            f"contour quadrature needs ({theta_nodes} x {CIRCLE_NODES})^{n} "
            f"nodes, over the cap of {MAX_CONTOUR_NODES}")
    nodes, weights = gauss_legendre(theta_nodes)
    seg = 2.0 * math.pi / L
    thetas = 0.5 * seg * (nodes + 1.0)
    th_w = 0.5 * seg * weights * (L / (2.0 * math.pi))
    phis = 2.0 * math.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    w1 = (thetas[:, None] + radius * np.exp(1j * phis)[None, :]).reshape(-1)
    wt1 = (th_w[:, None] * (np.exp(-1j * phis) /
                            (radius * CIRCLE_NODES))[None, :]).reshape(-1)
    total_shift, total_w = w1, wt1
    for _ in range(n - 1):
        total_shift = (total_shift[:, None] + w1[None, :]).reshape(-1)
        total_w = (total_w[:, None] * wt1[None, :]).reshape(-1)
    return total_shift, total_w


def contour_sum(value_at, cs: CovarianceSpec, axis: int, n: int = 1) -> complex:
    """The n-fold contour quadrature sum_b w_b value_at(stack_b), with the
    nodes shifting the momenta along axis on circles of radius
    contour_radius.  value_at takes a (B, d) stack of shifts, DET_BLOCK
    nodes at a time, and returns the B values, so memory does not grow with
    the node count."""
    shifts, weights = contour_nodes(
        cs.spec.L, n, contour_radius(cs.params, cs.spec.d, n))
    e_axis = np.eye(cs.spec.d)[axis]
    total = 0.0 + 0.0j
    for b in range(0, len(shifts), DET_BLOCK):
        stack = np.outer(shifts[b:b + DET_BLOCK], e_axis)
        total += weights[b:b + DET_BLOCK] @ value_at(stack)
    return complex(total)


def contour_formula_check(cs: CovarianceSpec, a, b, axis: int,
                          n: int = 1) -> dict:
    """Iterated contour representation of the chord-weighted covariance.

    lhs: the n-fold contour_sum of C(shift + sum_j w_j e_axis);
    rhs: chord^n * C(shift).
    """
    (xa, sa, ta), (xb, sb, tb) = a, b
    m = int(xa[axis]) - int(xb[axis])
    rhs = chord(cs.spec.L, m)**n * covariance_value(cs, a, b)
    dx, dt = np.subtract(xb, xa), float(tb) - float(ta)
    lhs = contour_sum(lambda stack: covariance_entries(cs, dx, dt, stack),
                      cs, axis, n) if sa == sb else 0.0 + 0.0j
    return {"lhs": lhs, "rhs": rhs, "deviation": abs(lhs - rhs)}


def decay_envelope_check(cs: CovarianceSpec, grid: TimeGrid) -> dict:
    """Scan all (site difference, time difference) pairs for the two decay
    envelopes: 2 F^{-chord exponent} and the reduced-window l1 variant."""
    spec = cs.spec
    F = theorem_decay_base(cs.params, spec.d)
    table, _ = _covariance_lookup(cs, grid)
    chord_ratios, reduced_ratios, rows = [], [], []
    for rank, dvec in enumerate(enumerate_sites(spec)):
        cmax = float(np.max(np.abs(table[rank])))
        env_chord = 2.0 * F ** (-chord_exponent(spec, dvec))
        env_reduced = 2.0 * F ** (-reduced_exponent(spec, dvec))
        chord_ratios.append(cmax / env_chord)
        reduced_ratios.append(cmax / env_reduced)
        rows.append({"diff": dvec, "max_abs_c": cmax,
                     "envelope_chord": env_chord, "envelope_reduced": env_reduced})
    return {"worst_ratio_chord": float(np.max(chord_ratios)),
            "worst_ratio_reduced": float(np.max(reduced_ratios)), "rows": rows}


def l1_time_sums(cs: CovarianceSpec, grid: TimeGrid) -> np.ndarray:
    """Sum of |C| over site differences at each time difference in (-beta,
    beta]: the one source of l1_bound_check and bounds.covariance_l1_D."""
    return np.sum(np.abs(_covariance_lookup(cs, grid)[0]), axis=0)


def l1_bound_check(cs: CovarianceSpec, grid: TimeGrid) -> dict:
    """(1/h) sum over [-beta, beta)_h and over the lattice of |C(x xi t, 0 xi 0)|
    against the closed-form 4 beta ((F^a + 1)/(F^a - 1))^d bound."""
    # C(x xi t, 0 xi 0) is the table entry at (-x mod L, -t)
    lhs = float(np.sum(l1_time_sums(cs, grid))) / grid.h
    rhs = 4.0 * cs.params.beta * geometric_sum_factor(cs.params, cs.spec.d)
    return {"lhs": lhs, "rhs": rhs, "satisfied": lhs <= rhs}


def site_sum_diff(x_sites, y_sites) -> np.ndarray:
    """sum(x) - sum(y) over two lists of lattice sites."""
    return (np.sum(np.array(x_sites, dtype=int), axis=0)
            - np.sum(np.array(y_sites, dtype=int), axis=0))
