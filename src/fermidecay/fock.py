"""Exact Fock-space oracle: Hamiltonians as sparse matrices, thermal traces.

Creation/annihilation operators are realized through the Jordan-Wigner string
in the global mode order, so every sign is reproducible.  Thermal averages go
through the eigendecomposition of H one conserved-number sector at a time:
(N_up, N_down) when H keeps both counts, else the total N, else the whole
space.  Each sector block is diagonalized densely and observables stay
sparse; sizes are desk scale by design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, canonical_site, mode_index
from .model import (
    InteractionCoefficients,
    LambdaCoefficients,
    ModelParams,
    hopping_matrix,
    lattice_terms,
    restrict_interaction,
)

MAX_MODES = 24
MAX_DENSE_DIM = 4096


@dataclass(frozen=True)
class FockSpace:
    spec: LatticeSpec

    def __post_init__(self):
        if self.spec.n_modes > MAX_MODES:
            raise ValueError(
                f"{self.spec.n_modes} modes exceed the {MAX_MODES}-mode guard")

    @property
    def n_modes(self) -> int:
        return self.spec.n_modes

    @property
    def dimension(self) -> int:
        return 2**self.spec.n_modes


@dataclass(frozen=True)
class CorrelationQuery:
    """Sites/spins of the symmetrized m_hat-body correlation observable."""

    x_sites: tuple
    y_sites: tuple
    xi_spins: tuple
    phi_spins: tuple

    def __post_init__(self):
        m = len(self.x_sites)
        if not (len(self.y_sites) == len(self.xi_spins) == len(self.phi_spins) == m):
            raise ValueError("query lists must all have length m_hat")

    @property
    def m_hat(self) -> int:
        return len(self.x_sites)

    def swapped(self) -> "CorrelationQuery":
        return CorrelationQuery(self.y_sites, self.x_sites,
                                self.phi_spins, self.xi_spins)


def query(x_sites, y_sites, xi_spins, phi_spins) -> CorrelationQuery:
    norm = lambda ss: tuple(tuple(int(c) for c in s) for s in ss)
    return CorrelationQuery(norm(x_sites), norm(y_sites),
                            tuple(int(s) for s in xi_spins),
                            tuple(int(s) for s in phi_spins))


@functools.lru_cache(maxsize=8)
def _mode_operators(n_modes: int):
    """All annihilation operators as CSR matrices, built state by state with
    the (-1)^(occupied below) Jordan-Wigner phase."""
    dim = 2**n_modes
    ops = []
    for q in range(n_modes):
        rows, cols, vals = [], [], []
        bit = 1 << q
        below = bit - 1
        for state in range(dim):
            if state & bit:
                phase = -1.0 if (state & below).bit_count() % 2 else 1.0
                rows.append(state & ~bit)
                cols.append(state)
                vals.append(phase)
        op = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False  # shared by every caller of the cache
        ops.append(op)
    return tuple(ops)


def mode_operator(space: FockSpace, mode: int, kind: str) -> sp.csr_matrix:
    if not 0 <= mode < space.n_modes:
        raise ValueError(f"mode {mode} outside 0..{space.n_modes - 1}")
    a = _mode_operators(space.n_modes)[mode]
    if kind == "annihilate":
        return a
    if kind == "create":
        return a.conj().T.tocsr()
    raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")


def _operator_product(space: FockSpace, create_modes, annihilate_modes) -> sp.csr_matrix:
    """psi*_{c1} .. psi*_{ck} psi_{a1} .. psi_{al} in the written order."""
    ops = _mode_operators(space.n_modes)
    dim = space.dimension
    out = sp.identity(dim, dtype=complex, format="csr")
    for m in create_modes:
        out = out @ ops[m].conj().T
    for m in annihilate_modes:
        out = out @ ops[m]
    return out


def build_h0(space: FockSpace, params: ModelParams) -> sp.csr_matrix:
    spec = space.spec
    T = hopping_matrix(spec, params, require_hopping=False)
    ops = _mode_operators(space.n_modes)
    H = sp.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for i in range(space.n_modes):
        for j in range(space.n_modes):
            if T[i, j] != 0:
                H = H + T[i, j] * (ops[i].conj().T @ ops[j])
    return H


def build_interaction(space: FockSpace, u: InteractionCoefficients) -> sp.csr_matrix:
    """V = sum over orders and lattice sites of
    U_{L,l} psi*_{x1 xi1}..psi*_{xl xil} psi_{xl phil}..psi_{x1 phi1}."""
    spec = space.spec
    fin = restrict_interaction(u, spec)
    H = sp.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for l, X, Xi, Phi, coeff in lattice_terms(fin, spec):
        create = [mode_index(spec, x, s) for x, s in zip(X, Xi)]
        annih = [mode_index(spec, x, s) for x, s in zip(reversed(X), reversed(Phi))]
        H = H + coeff * _operator_product(space, create, annih)
    return H


def build_lambda_term(space: FockSpace, lam: LambdaCoefficients) -> sp.csr_matrix:
    """sum over entries of (lambda(X,Y,Xi,Phi) + lambda(Y,X,Phi,Xi)) times
    psi*_{x1 xi1}..psi*_{xm xim} psi_{ym phim}..psi_{y1 phi1}."""
    spec = space.spec
    H = sp.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for X, Y, Xi, Phi, coeff in lam.symmetrized_terms():
        create = [mode_index(spec, canonical_site(spec, x), s)
                  for x, s in zip(X, Xi)]
        annih = [mode_index(spec, canonical_site(spec, y), s)
                 for y, s in zip(reversed(Y), reversed(Phi))]
        H = H + coeff * _operator_product(space, create, annih)
    return H


def _add_terms(space: FockSpace, H, u: InteractionCoefficients | None = None,
               lam: LambdaCoefficients | None = None) -> sp.csr_matrix:
    """(H + V) + Lambda, in that order, so that a Hamiltonian assembled from
    a shared H_0 or H_0 + V is bitwise the one build_hamiltonian makes."""
    if u is not None:
        H = H + build_interaction(space, u)
    if lam is not None:
        H = H + build_lambda_term(space, lam)
    return H


def build_hamiltonian(space: FockSpace, params: ModelParams,
                      u: InteractionCoefficients | None = None,
                      lam: LambdaCoefficients | None = None) -> sp.csr_matrix:
    return _add_terms(space, build_h0(space, params), u, lam)


def observable_pair(space: FockSpace, q: CorrelationQuery) -> sp.csr_matrix:
    """The self-adjoint pair O + O^dagger of the correlation observable."""
    spec = space.spec
    create = [mode_index(spec, canonical_site(spec, x), s)
              for x, s in zip(q.x_sites, q.xi_spins)]
    annih = [mode_index(spec, canonical_site(spec, y), s)
             for y, s in zip(reversed(q.y_sites), reversed(q.phi_spins))]
    O = _operator_product(space, create, annih)
    return O + O.conj().T.tocsr()


def _sectors(H) -> tuple[sp.csr_matrix, list[np.ndarray]]:
    """H as CSR, and the basis states in the finest conserved-number blocks
    that H keeps: (N_up, N_down), else the total N, else a single block.

    Mode 2*site + spin is spin up when even.  A labelling is kept when every
    nonzero entry of H joins two states of equal label.
    """
    H = sp.csr_matrix(H)
    dim = H.shape[0]
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dimension {dim} exceeds dense-trace guard")
    basis = np.arange(dim)
    bits = (basis[:, None] >> np.arange(max(dim - 1, 1).bit_length())) & 1
    n_up, n_down = bits[:, 0::2].sum(axis=1), bits[:, 1::2].sum(axis=1)
    rows, cols = H.nonzero()
    for label in (n_up * dim + n_down, n_up + n_down, np.zeros(dim, dtype=int)):
        if np.array_equal(label[rows], label[cols]):
            break
    order = np.argsort(label, kind="stable")
    return H, np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def diagonalize(H) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigenpairs of H, one (states, eigenvalues, eigenvectors) triple per
    conserved-number sector; the eigenvectors are in the sector's basis."""
    H, sectors = _sectors(H)
    herm_defect = abs(H - H.conj().T).max()
    if herm_defect > 1e-10:
        raise ValueError(f"matrix is not hermitian (defect {herm_defect:.3e})")
    return [(s, *np.linalg.eigh(H[s][:, s].toarray())) for s in sectors]


def _expectation(eig, O, beta: float) -> complex:
    """Tr(e^{-beta H} O) / Tr e^{-beta H} from the sector eigenpairs of H.

    e^{-beta H} is block diagonal, so the entries of O between sectors add
    nothing to the trace and each sector needs only its own block of O.
    """
    O = sp.csr_matrix(O)
    w_min = min(w.min() for _, w, _ in eig)
    num = den = 0.0
    for states, w, V in eig:
        weights = np.exp(-beta * (w - w_min))
        diag = np.einsum("in,in->n", V.conj(), O[states][:, states] @ V)
        num += np.sum(weights * diag)
        den += np.sum(weights)
    return complex(num / den)


def thermal_average(space: FockSpace, H, O, beta: float) -> complex:
    """Tr(e^{-beta H} O) / Tr e^{-beta H} via eigendecomposition of H."""
    return _expectation(diagonalize(H), O, beta)


def log_partition(H, beta: float) -> float:
    H, sectors = _sectors(H)
    w = np.concatenate([np.linalg.eigvalsh(H[s][:, s].toarray()) for s in sectors])
    m = w.min()
    return float(-beta * m + np.log(np.sum(np.exp(-beta * (w - m)))))


def partition_ratio(space: FockSpace, params: ModelParams,
                    u: InteractionCoefficients | None,
                    lam: LambdaCoefficients | None = None) -> float:
    """Tr e^{-beta H_lambda} / Tr e^{-beta H_0}."""
    H0 = build_h0(space, params)
    H = _add_terms(space, H0, u, lam)
    return float(np.exp(log_partition(H, params.beta) -
                        log_partition(H0, params.beta)))


def correlation(space: FockSpace, params: ModelParams,
                u: InteractionCoefficients | None, q: CorrelationQuery,
                eig=None) -> complex:
    """Thermal average of the symmetrized correlation observable.

    eig may carry the precomputed sector eigenpairs `diagonalize(H)` of H so
    that many queries against the same model diagonalize only once.
    """
    if eig is None:
        eig = diagonalize(build_hamiltonian(space, params, u))
    return _expectation(eig, observable_pair(space, q), params.beta)


def lambda_derivative_check(space: FockSpace, params: ModelParams,
                            u: InteractionCoefficients | None,
                            q: CorrelationQuery, step: float = 1e-4) -> dict:
    """Central finite difference of -(1/beta) log(Tr e^{-beta H_lambda} / Tr
    e^{-beta H_0}) in a single lambda entry, against the direct correlation."""
    if step <= 0:
        raise ValueError("step must be positive")
    H0 = build_h0(space, params)
    HV = _add_terms(space, H0, u)
    direct = correlation(space, params, u, q, eig=diagonalize(HV))
    logs = {}
    lz0 = log_partition(H0, params.beta)
    for eps in (step, -step):
        lam = LambdaCoefficients(m_hat=q.m_hat)
        lam.add(q.x_sites, q.y_sites, q.xi_spins, q.phi_spins, eps)
        H = _add_terms(space, HV, lam=lam)
        logs[eps] = log_partition(H, params.beta) - lz0
    fd = -(logs[step] - logs[-step]) / (2.0 * step * params.beta)
    return {"finite_difference": fd, "direct": direct,
            "deviation": abs(fd - direct)}
