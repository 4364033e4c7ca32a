"""Exact Fock-space oracle: Hamiltonians as sparse matrices, thermal traces.

Creation/annihilation operators are realized through the Jordan-Wigner string
in the global mode order, so every sign is reproducible.  Thermal averages go
through a dense hermitian eigendecomposition; sizes are desk scale by design.
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


def build_hamiltonian(space: FockSpace, params: ModelParams,
                      u: InteractionCoefficients | None = None,
                      lam: LambdaCoefficients | None = None) -> sp.csr_matrix:
    H = build_h0(space, params)
    if u is not None:
        H = H + build_interaction(space, u)
    if lam is not None:
        H = H + build_lambda_term(space, lam)
    return H


def observable_pair(space: FockSpace, q: CorrelationQuery) -> sp.csr_matrix:
    """The self-adjoint pair O + O^dagger of the correlation observable."""
    spec = space.spec
    create = [mode_index(spec, canonical_site(spec, x), s)
              for x, s in zip(q.x_sites, q.xi_spins)]
    annih = [mode_index(spec, canonical_site(spec, y), s)
             for y, s in zip(reversed(q.y_sites), reversed(q.phi_spins))]
    O = _operator_product(space, create, annih)
    return O + O.conj().T.tocsr()


def _dense(H) -> np.ndarray:
    M = H.toarray() if sp.issparse(H) else np.asarray(H)
    if M.shape[0] > MAX_DENSE_DIM:
        raise ValueError(f"dimension {M.shape[0]} exceeds dense-trace guard")
    return M


def diagonalize(H) -> tuple[np.ndarray, np.ndarray]:
    M = _dense(H)
    herm_defect = np.max(np.abs(M - M.conj().T))
    if herm_defect > 1e-10:
        raise ValueError(f"matrix is not hermitian (defect {herm_defect:.3e})")
    return np.linalg.eigh(M)


def _expectation(eig, O, beta: float) -> complex:
    """Tr(e^{-beta H} O) / Tr e^{-beta H} from the eigenpairs (w, V) of H."""
    w, V = eig
    weights = np.exp(-beta * (w - w.min()))
    diag = np.einsum("in,ij,jn->n", V.conj(), _dense(O), V)
    return complex(np.sum(weights * diag) / np.sum(weights))


def thermal_average(space: FockSpace, H, O, beta: float) -> complex:
    """Tr(e^{-beta H} O) / Tr e^{-beta H} via eigendecomposition of H."""
    return _expectation(diagonalize(H), O, beta)


def log_partition(H, beta: float) -> float:
    w = np.linalg.eigvalsh(_dense(H))
    m = w.min()
    return float(-beta * m + np.log(np.sum(np.exp(-beta * (w - m)))))


def partition_ratio(space: FockSpace, params: ModelParams,
                    u: InteractionCoefficients | None,
                    lam: LambdaCoefficients | None = None) -> float:
    """Tr e^{-beta H_lambda} / Tr e^{-beta H_0}."""
    H = build_hamiltonian(space, params, u, lam)
    H0 = build_h0(space, params)
    return float(np.exp(log_partition(H, params.beta) -
                        log_partition(H0, params.beta)))


def correlation(space: FockSpace, params: ModelParams,
                u: InteractionCoefficients | None, q: CorrelationQuery,
                eig=None) -> complex:
    """Thermal average of the symmetrized correlation observable.

    eig may carry a precomputed (eigenvalues, eigenvectors) pair of H so that
    many queries against the same model diagonalize only once.
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
    direct = correlation(space, params, u, q)
    logs = {}
    lz0 = log_partition(build_h0(space, params), params.beta)
    for eps in (step, -step):
        lam = LambdaCoefficients(m_hat=q.m_hat)
        lam.add(q.x_sites, q.y_sites, q.xi_spins, q.phi_spins, eps)
        H = build_hamiltonian(space, params, u, lam)
        logs[eps] = log_partition(H, params.beta) - lz0
    fd = -(logs[step] - logs[-step]) / (2.0 * step * params.beta)
    return {"finite_difference": fd, "direct": direct,
            "deviation": abs(fd - direct)}
