import contextlib
import dataclasses
import functools
import importlib.util
import math
import operator
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from fermidecay import bounds, cli, fock
from fermidecay.covariance import CovarianceSpec, covariance_value
from fermidecay.fock import (
    CorrelationQuery,
    FockSpace,
    build_h0,
    build_hamiltonian,
    correlation,
    diagonalize,
    lambda_derivative_check,
    observable_pairs,
    partition_ratio,
    query,
)
from fermidecay.grassmann import SchwingerEngine
from fermidecay.lattice import (
    DOWN,
    SPINS,
    UP,
    LatticeSpec,
    TimeGrid,
    enumerate_sites,
    mode_index,
)
from fermidecay.model import (
    HermiticityError,
    ModelParams,
    density_density_interaction,
    hubbard_interaction,
    hubbard_threshold,
    lambda_terms,
    lattice_terms,
    spin_field_interaction,
    spin_spin_interaction,
)
from conftest import empty_model_caches
from test_model import hopping_reference


def to_csr(op: fock.FockOperator) -> sp.csr_matrix:
    """A FockOperator as a scipy CSR matrix, for sparse algebra in tests."""
    return sp.csr_matrix((op.vals, (op.rows, op.cols)), shape=op.shape)


def from_matrix(M) -> fock.FockOperator:
    """The FockOperator of the nonzero entries of a dense or scipy matrix."""
    M = sp.coo_matrix(M)
    return fock._canonical(M.shape[0], M.row, M.col, M.data)


def number_reference(space, mode):
    """Reference: psi*_mode psi_mode from the state-loop mode operators."""
    return operator_product_reference(space, [mode], [mode])


def test_number_operator_spectrum():
    nop = number_reference(FockSpace(LatticeSpec(d=1, L=2)), 1).toarray()
    vals = np.linalg.eigvalsh(nop)
    assert set(np.round(vals).astype(int)) == {0, 1}


def test_adjoint_and_guards():
    # the assembler's psi*_m is the adjoint of the state-loop psi_m
    for n in (1, 4):
        creators = fock._assemble(n, [[(1.0, (m,), ())] for m in range(n)])
        for op, ref in zip(creators, mode_operators_reference(n), strict=True):
            np.testing.assert_array_equal(op.toarray(), ref.conj().T.toarray())
    # the one size guard: 12 modes, dimension 4096
    assert FockSpace(LatticeSpec(d=1, L=6)).dimension == 4096
    for spec in (LatticeSpec(d=1, L=7), LatticeSpec(d=2, L=3),
                 LatticeSpec(d=1, L=13)):  # 14, 18 and 26 modes
        with pytest.raises(ValueError, match="12-mode guard"):
            FockSpace(spec)


def test_h0_mu_only_is_number_operator():
    # t = t' = 0 is excluded for the full model but fine for H_0 alone
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    p = ModelParams(t=0.0, mu=0.7)
    H = build_h0(space, p).toarray()
    N = sum(number_reference(space, m).toarray() for m in range(space.n_modes))
    np.testing.assert_allclose(H, -0.7 * N, atol=1e-14)


def test_hubbard_atom_spectrum_and_average():
    atom = FockSpace(LatticeSpec(d=1, L=1))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    U = 0.3
    H = build_hamiltonian(atom, p, hubbard_interaction(U, d=1))
    eps = -2.0 * p.t - p.mu
    w = np.sort(np.linalg.eigvalsh(H.toarray()))
    np.testing.assert_allclose(w, sorted([0.0, eps, eps, 2 * eps + U]), atol=1e-12)
    avg = diagonalize(H).expectation(from_matrix(number_reference(atom, 0)), p.beta)
    Z = 1 + 2 * math.exp(-p.beta * eps) + math.exp(-p.beta * (2 * eps + U))
    expected = (math.exp(-p.beta * eps) + math.exp(-p.beta * (2 * eps + U))) / Z
    assert avg.real == pytest.approx(expected, rel=1e-12)
    assert abs(avg.imag) <= 1e-12


def test_thermal_average_identity_and_ground_state():
    atom = FockSpace(LatticeSpec(d=1, L=1))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    H = build_hamiltonian(atom, p, hubbard_interaction(0.3, d=1))
    ident = np.eye(atom.dimension)
    eig = diagonalize(H)
    assert eig.expectation(from_matrix(ident), p.beta) == pytest.approx(1.0)
    # beta -> large: average approaches the ground-state expectation
    states, (w, V) = min(zip(eig.layout.sectors, eig.pairs),
                         key=lambda sector: sector[1][0][0])
    g = np.zeros(atom.dimension, dtype=complex)
    g[states] = V[:, 0]
    nup = number_reference(atom, 0).toarray()
    ground = g.conj() @ nup @ g
    avg = eig.expectation(from_matrix(nup), 50.0)
    assert avg.real == pytest.approx(ground.real, abs=1e-10)


def test_spin_field_contributes_polarization():
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    b = 0.6
    fld = spin_field_interaction({(0,): (0.0, 0.0, b), (1,): (0.0, 0.0, b)})
    V = fock.build_interaction(space, fld).toarray()
    pol = np.zeros_like(V)
    for x in enumerate_sites(spec):
        nu, nd = (number_reference(space, mode_index(spec, x, s)).toarray()
                  for s in (UP, DOWN))
        pol += 0.5 * b * (nu - nd)
    np.testing.assert_allclose(V, pol, atol=1e-14)


def test_hamiltonian_hermitian_with_random_lambda(rng):
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    sites = enumerate_sites(spec)
    lam = _lambda_coupling([
        (((sites[int(rng.integers(2))],), (sites[int(rng.integers(2))],),
          (int(rng.integers(2)),), (int(rng.integers(2)),)), float(rng.normal()))
        for _ in range(5)])
    H = build_hamiltonian(space, p, hubbard_interaction(0.2, d=1), lam).toarray()
    assert np.max(np.abs(H - H.conj().T)) <= 1e-12


def test_correlation_free_value_and_symmetry():
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.0, beta=1.0)
    # mu=0, t'=0, U=0 at x=y: half filling by particle-hole symmetry
    q = query(((0,),), ((0,),), (UP,), (UP,))
    v = correlation(space, p, None, q)
    assert v.real == pytest.approx(1.0, abs=1e-12)
    assert abs(v.imag) <= 1e-12


def test_correlation_translation_invariance():
    spec = LatticeSpec(d=1, L=4)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.2, d=1)
    eig = diagonalize(build_hamiltonian(space, p, u))
    q1 = query(((0,), (1,)), ((2,), (0,)), (UP, DOWN), (UP, DOWN))
    q2 = query(((1,), (2,)), ((3,), (1,)), (UP, DOWN), (UP, DOWN))
    v1 = correlation(space, p, u, q1, eig=eig)
    v2 = correlation(space, p, u, q2, eig=eig)
    assert abs(v1 - v2) <= 1e-10


def test_trivial_hopping_vanishing():
    # t = t' = 0: unbalanced correlations vanish by the U(1) phase argument
    spec = LatticeSpec(d=1, L=4)
    space = FockSpace(spec)
    p = ModelParams(t=0.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.5, d=1)
    eig = diagonalize(build_hamiltonian(space, p, u))
    q = query(((0,),), ((1,),), (UP,), (UP,))
    assert abs(correlation(space, p, u, q, eig=eig)) <= 1e-12
    q2 = query(((0,), (1,)), ((2,), (0,)), (UP, DOWN), (UP, DOWN))
    assert abs(correlation(space, p, u, q2, eig=eig)) <= 1e-12
    # balanced pair survives
    q3 = query(((0,),), ((0,),), (UP,), (UP,))
    assert abs(correlation(space, p, u, q3, eig=eig)) > 0.1


def test_free_correlation_fermi_function():
    spec = LatticeSpec(d=1, L=4)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.3, beta=1.0)
    from fermidecay.lattice import momentum_grid
    from test_model import dispersion_reference
    q = query(((1,),), ((1,),), (UP,), (UP,))
    v = correlation(space, p, None, q)
    fermi = np.mean([1.0 / (1.0 + math.exp(p.beta * dispersion_reference(k, p, 1).real))
                     for k in momentum_grid(spec)])
    assert v.real == pytest.approx(2.0 * fermi, abs=1e-12)


def test_lambda_derivative_matches_correlation():
    atom = FockSpace(LatticeSpec(d=1, L=1))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.1, d=1)
    q = query(((0,),), ((0,),), (UP,), (UP,))
    # log Tr e^{-beta H_0} cancels in the difference: two spectra, H_lambda's
    with mock.patch.object(fock, "log_partition",
                           wraps=fock.log_partition) as spectra:
        res = lambda_derivative_check(atom, p, u, q, step=1e-4)
    assert spectra.call_count == 2
    assert res["deviation"] <= 1e-6
    # second-order central difference: halving the step shrinks the error ~4x
    res2 = lambda_derivative_check(atom, p, u, q, step=5e-5)
    assert res2["deviation"] < res["deviation"]
    ratio = res["deviation"] / res2["deviation"]
    assert 2.0 < ratio < 8.0


def test_lambda_derivative_rounding_floor():
    # eps max|E| / step, from the eigenvalues of H: at mu = 1e6 the one-site
    # energies reach 2e6 and rounding alone makes a deviation over 1e-6,
    # which the floor covers
    atom = FockSpace(LatticeSpec(d=1, L=1))
    u = hubbard_interaction(0.1, d=1)
    q = query(((0,),), ((0,),), (UP,), (UP,))
    p = ModelParams(t=1.0, mu=1e6, beta=1.0)
    res = lambda_derivative_check(atom, p, u, q, step=1e-4)
    e_max = max(np.abs(w).max() for w, _ in fock.model_system(atom, p, u)[1].pairs)
    assert res["rounding_floor"] == np.finfo(float).eps * e_max / 1e-4
    assert 1e-6 < res["deviation"] <= res["rounding_floor"]


def test_lambda_derivative_free_case():
    atom = FockSpace(LatticeSpec(d=1, L=1))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    q = query(((0,),), ((0,),), (UP,), (UP,))
    res = lambda_derivative_check(atom, p, None, q, step=1e-4)
    free = correlation(atom, p, None, q)
    assert res["deviation"] <= 1e-6
    assert res["direct"] == pytest.approx(free)


def test_lambda_derivative_offdiagonal_query():
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.1, d=1)
    q = query(((0,),), ((1,),), (UP,), (UP,))
    res = lambda_derivative_check(space, p, u, q, step=1e-4)
    assert res["deviation"] <= 1e-6


def test_partition_ratio_free_is_one():
    space = FockSpace(LatticeSpec(d=1, L=2))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    assert partition_ratio(space, p, None) == pytest.approx(1.0)


def test_query_validation():
    # every list must carry m_hat entries, or the strings of the observable
    # and of a lambda coupling would be built from zipped, truncated lists
    for X, Y, Xi, Phi in [(((0,),), ((0,), (1,)), (UP,), (UP,)),
                          (((0,),), ((0,), (1,)), (UP,), (UP, DOWN)),
                          (((0,),), ((0,),), (UP, DOWN), (UP,)),
                          (((0,),), ((0,),), (UP,), ()),
                          (((0,), (1,)), ((0,),), (UP,), (UP,))]:
        with pytest.raises(ValueError, match="length m_hat"):
            CorrelationQuery(X, Y, Xi, Phi)
    q = query(((0,), (1,)), ((1,), (0,)), (UP, DOWN), (DOWN, UP))
    s = q.swapped()
    assert s.x_sites == q.y_sites and s.xi_spins == q.phi_spins


def test_query_from_lists_and_numpy_ints():
    # one constructor: lists and numpy integers give the query the tuples
    # give, equal and with the same hash, so both oracles accept it and the
    # engine's plan cache finds it
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.1, d=1)
    ref = query(((0,),), ((1,),), (UP,), (UP,))
    eig = diagonalize(build_hamiltonian(space, p, u))
    engine = SchwingerEngine(spec, p, TimeGrid(p.beta, 1), u)
    for q in (CorrelationQuery([[0]], [[1]], [UP], [UP]),
              query([np.array([0])], [np.array([1])], np.array([UP]), [UP]),
              CorrelationQuery(((np.int64(0),),), ((np.int64(1),),),
                               (np.int64(UP),), (np.int64(UP),))):
        assert hash(q) == hash(ref) and q == ref
        assert all(type(c) is int for x in q.x_sites + q.y_sites for c in x)
        assert all(type(s) is int for s in q.xi_spins + q.phi_spins)
        assert correlation(space, p, u, q, eig=eig) == \
            correlation(space, p, u, ref, eig=eig)
        assert engine.correlation(q) == engine.correlation(ref)


def test_observable_pair_hermitian():
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    q = query(((0,), (1,)), ((1,), (1,)), (UP, DOWN), (UP, DOWN))
    O = observable_pairs(space, [q])[0].toarray()
    np.testing.assert_allclose(O, O.conj().T, atol=1e-14)


def test_car_relations_eight_modes():
    # all mode pairs on the L^d = 4 lattice (8 modes, dim 256), from the
    # state-loop operators that test_mode_operators_match_state_loop pins
    # the package's to; psi_a psi_a = 0 exactly
    ann = mode_operators_reference(8)
    eye = np.eye(2**8)
    for a in range(8):
        assert (ann[a] @ ann[a]).count_nonzero() == 0
        for b in range(8):
            anti = (ann[a] @ ann[b].conj().T + ann[b].conj().T @ ann[a]).toarray()
            np.testing.assert_allclose(anti, eye if a == b else 0, atol=1e-14)
            anti2 = (ann[a] @ ann[b] + ann[b] @ ann[a]).toarray()
            np.testing.assert_allclose(anti2, 0, atol=1e-14)


def _spin_operator(space, spec, x, component):
    from fermidecay.model import PAULI
    out = None
    for xi in (UP, DOWN):
        for phi in (UP, DOWN):
            c = 0.5 * PAULI[component][xi, phi]
            if c != 0:
                term = c * operator_product_reference(
                    space, [mode_index(spec, x, xi)], [mode_index(spec, x, phi)])
                out = term if out is None else out + term
    return out


def test_spin_spin_interaction_operator_identity():
    # the normal-form coefficients reproduce sum_{x,y} w(x-y) <S_x, S_y> exactly
    # (L = 4 keeps the support {0, 1} inside the reduction window)
    spec = LatticeSpec(d=1, L=4)
    space = FockSpace(spec)
    w = {(0,): 0.7, (1,): -0.3}
    ours = fock.build_interaction(space, spin_spin_interaction(w, d=1, L=4)).toarray()
    direct = np.zeros_like(ours)
    for x in enumerate_sites(spec):
        for y in enumerate_sites(spec):
            wl = sum(v for k, v in w.items() if (x[0] - y[0] - k[0]) % spec.L == 0)
            if wl == 0.0:
                continue
            for comp in range(3):
                sx = _spin_operator(space, spec, x, comp)
                sy = _spin_operator(space, spec, y, comp)
                direct += wl * (sx @ sy).toarray()
    np.testing.assert_allclose(ours, direct, atol=1e-12)


def test_density_density_interaction_operator_identity():
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    tables = {2: {(((1,), (0,)), (UP, DOWN)): 0.4},
              1: {(((0,),), (UP,)): -0.2}}
    ours = fock.build_interaction(space,
                                  density_density_interaction(tables)).toarray()

    def number(x, s):
        return number_reference(space, mode_index(spec, x, s)).toarray()

    direct = -0.2 * number((0,), UP)
    for shift in enumerate_sites(spec):  # translated copies of the pair term
        x1 = ((1 + shift[0]) % 2,)
        x2 = (shift[0],)
        direct = direct + 0.4 * number(x1, UP) @ number(x2, DOWN)
    np.testing.assert_allclose(ours, direct, atol=1e-13)


def test_hubbard_interaction_operator_identity():
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    U = 0.45
    ours = fock.build_interaction(space, hubbard_interaction(U, d=1)).toarray()
    direct = np.zeros_like(ours)
    for x in enumerate_sites(spec):
        nu, nd = (number_reference(space, mode_index(spec, x, s)).toarray()
                  for s in (UP, DOWN))
        direct += U * nu @ nd
    np.testing.assert_allclose(ours, direct, atol=1e-13)


@pytest.mark.parametrize("shape, spins", [((1, 4), (UP, DOWN)), ((2, 2), (DOWN,))])
def test_free_fermion_consistency_matches_pair_loop(shape, spins):
    # one correlations batch and one covariance_entries call against one
    # correlation and two covariance_value calls per pair, bit for bit
    spec = LatticeSpec(*shape)
    p = ModelParams(t=1.0, t_prime=0.3, mu=0.2, beta=1.0)
    [row] = cli.free_fermion_consistency(spec, p, spins)
    space, cs = FockSpace(spec), CovarianceSpec(spec, p)
    devs = []
    for xa in enumerate_sites(spec):
        for xb in enumerate_sites(spec):
            for spin in spins:
                v = correlation(space, p, None,
                                query((xa,), (xb,), (spin,), (spin,)))
                a, b = (xa, spin, 0.0), (xb, spin, 0.0)
                devs.append(abs(v - (covariance_value(cs, a, b) +
                                     covariance_value(cs, b, a))))
    assert row.passed and row.computed == float(np.max(devs))


# ---------------------------------------------------------------------------
# one drawn model against its per-term, CSR and full-space references
# ---------------------------------------------------------------------------

def full_space_reference(H):
    """Reference: the eigenpairs of one dense eigh of the whole space, by the
    real solver when H is real."""
    A = H.toarray()
    return np.linalg.eigh(A if A.imag.any() else A.real)


def _full_space_expectation(full, O, beta):
    """Reference: sum_n e^{-beta w_n} (V^dagger O V)_nn / sum_n e^{-beta w_n}
    from the eigenpairs (w, V) of the whole space; one value per beta when
    beta is a sequence."""
    w, V = full
    weights = np.exp(-np.multiply.outer(beta, w - w.min()))
    diag = np.einsum("in,in->n", V.conj(), to_csr(O) @ V)
    return weights @ diag / weights.sum(axis=-1)


def _full_space_log_partition(w, beta):
    """Reference: log Tr e^{-beta H} from the eigenvalues w of the whole space."""
    return float(-beta * w.min() + np.log(np.sum(np.exp(-beta * (w - w.min())))))


def _example_interaction(kind, spec, coupling):
    """One of the four interaction kinds; field_x/y/z is a uniform field along
    that axis, site_field_x/z one whose strength grows with the site rank, so
    that no translation keeps it."""
    origin = (0,) * spec.d
    step = (1,) + (0,) * (spec.d - 1)
    if kind == "hubbard":
        return hubbard_interaction(coupling, d=spec.d)
    if kind == "density_density":
        return density_density_interaction(
            {2: {((step, origin), (UP, DOWN)): coupling},
             1: {((origin,), (DOWN,)): -0.5 * coupling}})
    if kind == "spin_spin":
        return spin_spin_interaction({step: coupling}, d=spec.d)
    vec = np.zeros(3)
    vec["xyz".index(kind[-1])] = coupling
    grows = kind.startswith("site_field")
    return spin_field_interaction({x: tuple((1.0 + 0.5 * i * grows) * vec)
                                   for i, x in enumerate(enumerate_sites(spec))})


def _lambda_coupling(entries):
    """The coupling {query: value} of the (points, coefficient) entries, the
    values of equal queries summed, or None when there are none."""
    if not entries:
        return None
    lam = {}
    for pts, value in entries:
        lam[query(*pts)] = lam.get(query(*pts), 0.0) + value
    return lam


@st.composite
def _points(draw, spec, m):
    sites = enumerate_sites(spec)
    pick = st.integers(0, len(sites) - 1)
    spin = st.sampled_from((UP, DOWN))
    return ([sites[draw(pick)] for _ in range(m)],
            [sites[draw(pick)] for _ in range(m)],
            [draw(spin) for _ in range(m)], [draw(spin) for _ in range(m)])


# the kinds that commute with the one-site translation
_INVARIANT_KINDS = ("hubbard", "spin_spin", "field_x", "field_y", "field_z")
_KINDS = _INVARIANT_KINDS + ("density_density", "site_field_x", "site_field_z")


@st.composite
def _fock_case(draw):
    """(shape, kind, coupling, t', mu, betas, (m_hat, lambda entries),
    split_all, query points for m = 1, 2, 3): two betas, up to three lambda
    entries, each (points, coefficient); split_all takes the momentum blocks
    on every sector of a translation-invariant H, down to the one-state
    ones."""
    shape = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (1, 4), (2, 2)]))
    spec = LatticeSpec(*shape)
    m_hat = draw(st.integers(1, 2))
    entries = [(draw(_points(spec, m_hat)), draw(st.floats(-0.5, 0.5)))
               for _ in range(draw(st.integers(0, 3)))]
    return (shape, draw(st.sampled_from(_KINDS)), draw(st.floats(0.05, 1.0)),
            draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 0.5)),
            (draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))),
            (m_hat, entries), draw(st.booleans()),
            [draw(_points(spec, m)) for m in (1, 2, 3)])


# query points on a chain of four sites or more, for m = 1, 2, 3, and one
# lambda entry there
_CHAIN_POINTS = [([(1,)], [(1,)], [UP], [UP]),
                 ([(0,), (1,)], [(3,), (2,)], [UP, DOWN], [DOWN, UP]),
                 ([(0,), (1,), (2,)], [(1,), (2,), (3,)], [UP, UP, DOWN],
                  [UP, DOWN, DOWN])]
_CHAIN_LAMBDA = (2, [(([(0,), (1,)], [(2,), (3,)], [UP, DOWN], [UP, DOWN]), -0.3)])
_SITE_QUERIES = [(((0,),), ((1,),), (UP,), (UP,)),
                 (((0,), (0,)), ((1,), (1,)), (UP, DOWN), (UP, DOWN))]


def _assert_fock_case(case):
    """One model, each behaviour asserted once against its reference:
    - H_0, V, Lambda and the observables against per-term sums
    - each COO summation against the CSR constructor, the sectors and the
      blocks (real unless the sigma_y field's) against the CSR pattern
    - the dtype of the sector pairs
    - diagonalize(H, spec): one _momentum_pairs call per split sector when H
      commutes with the translation, else the sector path bit for bit
    - at each beta, from the sector path and from diagonalize(H, spec): the
      expectations, log Z and the cached, read-only thermal states, against
      one eigh of the whole space, or against the sector path past 1024
      states
    - the slot's correlations batch against one correlation per query, bit
      for bit, and the empty batch
    """
    (shape, kind, coupling, t_prime, mu, betas, (m_hat, entries), split_all,
     points) = case
    spec = LatticeSpec(*shape)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, t_prime=t_prime, mu=mu, beta=betas[0])
    u = _example_interaction(kind, spec, coupling)
    lam = _lambda_coupling(entries)
    queries = [query(*pts) for pts in points]
    calls = []
    empty_model_caches()
    with mock.patch.object(fock, "_canonical", _recording_canonical(calls)):
        H = build_hamiltonian(space, p, u, lam)
        pairs = observable_pairs(space, queries)
    # every summation: H_0, V, Lambda if any, their sum and the observables
    assert len(calls) == 3 + (lam is not None) + len(queries)
    for args, ours in calls:
        _assert_triplets_match(ours, csr_sum_reference(*args))
    pieces = [(build_h0(space, p), h0_reference(space, p)),
              (fock.build_interaction(space, u), interaction_reference(space, u))]
    if lam is not None:
        pieces.append((lambda_term(space, lam),
                       lambda_term_reference(space, lam)))
    for ours, ref in pieces + [(O, observable_pair_reference(space, q))
                               for O, q in zip(pairs, queries)]:
        assert ours.shape == ref.shape and ours.vals.dtype == np.complex128
        assert abs(to_csr(ours) - ref).max() <= 1e-14
    H_ref = sum((to_csr(ours) for ours, _ in pieces[1:]), to_csr(pieces[0][0]))
    _assert_triplets_match(H, H_ref)
    blocks, layout = fock._blocks(H)
    dtype = np.complex128 if kind == "field_y" else np.float64
    for s, ref_s, block in zip(layout.sectors, sectors_reference(H_ref), blocks,
                               strict=True):
        np.testing.assert_array_equal(s, ref_s)
        assert block.dtype == dtype
        assert np.max(np.abs(block - H_ref[s][:, s].toarray())) <= 1e-15
    eig = diagonalize(H)
    assert all(V.dtype == dtype for _, V in eig.pairs)
    spectrum_only = [fock.log_partition(H, beta) for beta in betas]
    assert sorted(np.concatenate(eig.layout.sectors).tolist()) == \
        list(range(space.dimension))
    invariant = translation_defect_reference(spec, H) <= 1e-12
    if lam is None:
        n = spec.n_sites
        spin_flips = kind.endswith(("field_x", "field_y"))
        assert len(eig.layout.sectors) == (2 * n + 1 if spin_flips else (n + 1) ** 2)
        assert invariant == (kind in _INVARIANT_KINDS or n == 1)
    # without lambda, H is the slot's model, which holds diagonalize(H, spec)
    threshold = 0 if split_all else fock.MOMENTUM_MIN_STATES
    with mock.patch.object(fock, "MOMENTUM_MIN_STATES", threshold), \
            mock.patch.object(fock, "_momentum_pairs",
                              wraps=fock._momentum_pairs) as split:
        if lam is None:
            moment = fock.model_system(space, p, u)[1]
        else:
            moment = diagonalize(H, spec)
    assert split.call_count == invariant * sum(
        len(s) > threshold for s in eig.layout.sectors)
    assert all(V.dtype == dtype for _, V in moment.pairs)
    if not invariant:
        for (w, V), (w_ref, V_ref) in zip(moment.pairs, eig.pairs, strict=True):
            assert w.tobytes() == w_ref.tobytes() and V.tobytes() == V_ref.tobytes()
    # psi*_a psi_b alone: not hermitian, and off-block when the spins differ
    hops = [from_matrix(operator_product_reference(space, [a], [b]))
            for a, b in [(mode_index(spec, q.x_sites[0], q.xi_spins[0]),
                          mode_index(spec, q.y_sites[0], q.phi_spins[0]))
                         for q in queries] + [(0, space.n_modes - 1)]]
    if space.dimension <= 1024:
        w_full, V_full = full_space_reference(H)
        expect = functools.partial(_full_space_expectation, (w_full, V_full))
        log_z = [_full_space_log_partition(w_full, beta) for beta in betas]
        z = [np.sum(np.exp(-beta * (w_full - w_full.min()))) for beta in betas]
    else:  # L = 6: the momentum path against the sector path, whose blocks
           # are checked above
        expect = lambda O, bs: [eig.expectation(O, beta) for beta in bs]
        log_z = [eig.log_partition(beta) for beta in betas]
        z = [eig._thermal(beta)[1] for beta in betas]
    for e in (eig, moment):
        for O in pairs + hops:
            values = [e.expectation(O, beta) for beta in betas]
            assert np.max(np.abs(np.subtract(values, expect(O, betas)))) <= 1e-12
    for beta, log_z_sp, log_z_ref, z_ref in zip(betas, spectrum_only, log_z, z,
                                                strict=True):
        assert abs(eig.log_partition(beta) - log_z_sp) <= 1e-12
        for value in (log_z_sp, eig.log_partition(beta), moment.log_partition(beta)):
            assert abs(value - log_z_ref) <= 1e-12
        assert moment._thermal(beta)[1] == pytest.approx(z_ref, rel=1e-12)
        rho, Z = eig._thermal(beta)
        assert eig._thermal(beta)[0] is rho and rho.dtype == dtype
        assert Z == pytest.approx(sum(map(np.trace, eig.layout.blocks(rho))).real,
                                  rel=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            rho[0] = 0.0
    batch = fock.correlations(space, p, u, queries)
    assert len(batch) == len(queries) and fock.correlations(space, p, u, []) == []
    assert np.array(batch, dtype=complex).tobytes() == np.array(
        [correlation(space, p, u, q) for q in queries], dtype=complex).tobytes()


# each kind on the L = 4 chain, since the derandomized draws cluster on
# shorter chains
_CHAIN_CASES = {kind: ((1, 4), kind, *rest, False, _CHAIN_POINTS) for kind, *rest in [
    ("hubbard", 0.3, 0.4, 0.0, (0.5, 2.0), _CHAIN_LAMBDA),
    ("density_density", 0.6, -0.3, 0.4, (0.7, 1.6), _CHAIN_LAMBDA),
    ("spin_spin", 0.8, 0.1, 0.2, (1.2, 0.3), _CHAIN_LAMBDA),
    ("field_x", 0.2, -0.5, 0.5, (2.0, 0.9), (1, [])),
    ("field_y", 0.9, 0.3, 0.3, (0.4, 1.1), _CHAIN_LAMBDA),
    ("field_z", 0.5, -0.2, 0.1, (1.7, 0.6), (1, []))]}


@settings(max_examples=40)
@given(_fock_case())
# the L = 5 chain, dimension 1024: (N_up, N_down) sectors of up to 100
# states, split into momentum blocks, with a spin-flip query
@example(((1, 5), "hubbard", 0.5, 0.2, 0.2, (1.0, 2.0), (1, []), False,
          [([(0,)], [(1,)], [UP], [DOWN]),
           ([(0,), (0,)], [(2,), (2,)], [UP, DOWN], [UP, DOWN])] + _SITE_QUERIES))
@example(((1, 5), "hubbard", 0.3, 0.0, 0.2, (1.0,), (1, []), False, []))
@example(((1, 4), "hubbard", 0.5, 0.2, 0.2, (1.0,), (1, []), False, _SITE_QUERIES))
@example(((1, 4), "field_y", 0.5, 0.2, 0.3, (1.5,), (1, []), False, []))
# the L = 6 chain, dimension 4096, against the sector path
@example(((1, 6), "spin_spin", 0.4, 0.2, 0.3, (1.5,), (1, []), False, _SITE_QUERIES))
@example(((1, 6), "site_field_z", 0.4, 0.2, 0.3, (1.5,), (1, []), False,
          _SITE_QUERIES))
@example(((2, 2), "site_field_x", 0.4, 0.2, 0.3, (1.5,), (1, []), True, _SITE_QUERIES))
@example(((1, 4), "hubbard", 0.4, 0.2, 0.3, (1.5,),
          (1, [(([(0,)], [(1,)], [UP], [UP]), 0.3)]), True, _SITE_QUERIES))
def test_sectors_match_full_space(case):
    _assert_fock_case(case)


def test_coo_paths_match_csr_reference():
    # the L = 5 chain under a transverse field: N sectors of up to 252 states
    _assert_fock_case(((1, 5), "field_x", 0.7, -0.3, 0.1, (0.6, 1.3),
                       _CHAIN_LAMBDA, False, _CHAIN_POINTS))


def test_assembler_matches_per_term_sums():
    _assert_fock_case(_CHAIN_CASES["density_density"])


@pytest.mark.parametrize("kind", ["hubbard", "spin_spin", "field_z",
                                  "field_x", "field_y"])
def test_real_blocks_and_thermal_states_match_full_space(kind):
    _assert_fock_case(_CHAIN_CASES[kind])


def test_sector_counts_and_L5():
    # (N_up, N_down) sectors, and N sectors under a transverse field, at
    # dimensions 256 and 1024; test_sectors_match_full_space compares the
    # L = 5 chain with the whole space
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    chain = LatticeSpec(d=1, L=4)
    hub = hubbard_interaction(0.3, d=1)
    eig = diagonalize(build_hamiltonian(FockSpace(chain), p, hub))
    assert len(eig.layout.sectors) == 25
    square = LatticeSpec(d=2, L=2)
    fld = _example_interaction("field_x", square, 0.4)
    assert FockSpace(square).dimension == 256
    eig = diagonalize(build_hamiltonian(FockSpace(square), p, fld))
    assert len(eig.layout.sectors) == 9
    eig = diagonalize(build_hamiltonian(FockSpace(LatticeSpec(d=1, L=5)), p, hub))
    assert len(eig.layout.sectors) == 36


# ---------------------------------------------------------------------------
# the translation, and the threshold of the momentum split
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def translation_reference(spec):
    """Reference: T|s> for every basis state s, each occupied mode moved one
    site along axis 0 through mode_index, and the moved creators sorted back
    into ascending order one transposition at a time."""
    sites = enumerate_sites(spec)
    moved = [mode_index(spec, (x[0] + 1,) + x[1:], s) for x in sites for s in SPINS]
    step, sign = [], []
    for state in range(2**spec.n_modes):
        modes = [moved[m] for m in range(spec.n_modes) if state >> m & 1]
        swaps = sum(a > b for i, a in enumerate(modes) for b in modes[i + 1:])
        step.append(sum(1 << m for m in modes))
        sign.append(-1 if swaps % 2 else 1)
    return np.array(step), np.array(sign)


def translation_defect_reference(spec, H):
    """Reference: max |T H T^dagger - H| with T from translation_reference,
    one sparse product."""
    step, sign = translation_reference(spec)
    T = sp.csr_matrix((sign, (step, np.arange(H.dim))), shape=H.shape)
    return abs(T @ to_csr(H) @ T.T - to_csr(H)).max()


@pytest.mark.parametrize("shape", [(1, L) for L in range(1, 7)] + [(2, 1), (2, 2)])
def test_translation_matches_mode_loop(shape):
    spec = LatticeSpec(*shape)
    for ours, ref in zip(fock._translation(spec), translation_reference(spec),
                         strict=True):
        np.testing.assert_array_equal(ours, ref)


def test_no_eigh_past_the_threshold_on_invariant_models():
    # the L = 4 chain: its (2, 2) sector holds 36 states, the sector path's
    # one eigh past 25; the Hubbard, free and t = 0 models split it
    space = FockSpace(LatticeSpec(d=1, L=4))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    hub = hubbard_interaction(0.5, d=1)
    rows, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        rows.append(a.shape[-2])
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", counting):
        for params, u in ((p, hub), (p, None),
                          (dataclasses.replace(p, t=0.0), hub)):
            fock.model_system(space, params, u)
        assert rows and max(rows) <= fock.MOMENTUM_MIN_STATES
        H = fock.model_system(space, p, hub)[0]
        diagonalize(H)
    assert max(rows) == 36
    with pytest.raises(ValueError, match="6 modes, H dimension 256"):
        diagonalize(H, LatticeSpec(d=1, L=3))


# ---------------------------------------------------------------------------
# one BLAS thread inside the dense calls
# ---------------------------------------------------------------------------

def _reading_thread_counts(monkeypatch, get):
    """Patch np.linalg.eigh and eigvalsh, and fock._serial_blas, to record
    the thread count that each call, and each scope once open, sees: a
    list of (name, block size or None for a scope, count)."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def reading(a, *args, _name=name, _solve=getattr(np.linalg, name),
                    **kwargs):
            seen.append((_name, a.shape[-1], get()))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, reading)
    scope = fock._serial_blas

    @contextlib.contextmanager
    def reading_scope():
        with scope():
            seen.append(("scope", None, get()))
            yield
    monkeypatch.setattr(fock, "_serial_blas", reading_scope)
    return seen


def _thread_cases():
    """The sigma_x-field square (N-sectors of 28, 56 and 70 states), with
    and without its lattice, the free L=4 chain (a 36-state sector) without
    it, and the free L=5 chain (100-state sectors, split into momentum
    blocks; its thermal products are on the whole sectors) with it; with an
    observable of each space."""
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    square = LatticeSpec(d=2, L=2)
    chain, chain5 = LatticeSpec(d=1, L=4), LatticeSpec(d=1, L=5)
    field = build_hamiltonian(FockSpace(square), p,
                              _example_interaction("field_x", square, 0.4))
    free, free5 = (build_hamiltonian(FockSpace(c), p) for c in (chain, chain5))
    return p.beta, [
        (H, spec, observable_pairs(FockSpace(shape), [query(
            ((0,) * shape.d,), ((1,) + (0,) * (shape.d - 1),), (UP,), (UP,))])[0])
        for H, spec, shape in ((field, square, square), (field, None, square),
                               (free, None, chain), (free5, chain5, chain5))]


def test_dense_calls_run_on_one_blas_thread(blas_count, monkeypatch):
    seen = _reading_thread_counts(monkeypatch, blas_count)
    earlier = blas_count()
    beta, cases = _thread_cases()
    solved = set()
    for H, spec, O in cases:
        for call in (lambda: diagonalize(H, spec),
                     lambda: fock.log_partition(H, beta),
                     lambda: diagonalize(H, spec).expectation(O, beta)):
            seen.clear()
            call()
            assert seen and all(count == 1 for *_, count in seen), seen
            assert blas_count() == earlier
            solved |= {n for name, n, _ in seen if name != "scope"}
    assert {28, 36, 56, 70, 100} <= solved


def test_thread_count_restored_on_error(blas_count, monkeypatch):
    earlier = blas_count()

    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError(f"planted failure at {blas_count()} threads")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    H = build_hamiltonian(FockSpace(LatticeSpec(d=1, L=4)), ModelParams())
    for call in (diagonalize, functools.partial(fock.log_partition, beta=1.0)):
        with pytest.raises(np.linalg.LinAlgError, match="at 1 threads"):
            call(H)
        assert blas_count() == earlier


def test_pairs_without_the_library_match_the_scoped_ones(blas_count,
                                                          monkeypatch):
    # without the library the scope does nothing, and past about 90 states
    # two threads change the last bits; so the scoped pairs, taken at two
    # threads or more, must be those of a process on one thread
    beta, cases = _thread_cases()

    def run():
        out = []
        for H, spec, _ in cases:
            eig = diagonalize(H, spec)
            out.append(([(w.tobytes(), V.tobytes()) for w, V in eig.pairs],
                        eig._thermal(beta)[0].tobytes(),
                        fock.log_partition(H, beta)))
        return out

    scoped = run()
    _, put = fock._blas_handle()
    monkeypatch.setattr(fock, "_blas_handle", lambda: None)
    put(1)
    assert run() == scoped


# ---------------------------------------------------------------------------
# the one assembler against the per-term sums it replaced
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def mode_operators_reference(n_modes):
    """Reference: the annihilators psi_q built state by state with the
    (-1)^(occupied below) Jordan-Wigner phase."""
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
        ops.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))
    return tuple(ops)


@functools.lru_cache(maxsize=16)
def creators_reference(n_modes):
    """Reference: the adjoints psi*_q of mode_operators_reference."""
    return tuple(op.conj().T.tocsr() for op in mode_operators_reference(n_modes))


def operator_product_reference(space, create_modes, annihilate_modes):
    """Reference: psi*_{c1} .. psi*_{ck} psi_{a1} .. psi_{al} in the written
    order, one sparse product per factor."""
    return functools.reduce(operator.matmul, [
        creators_reference(space.n_modes)[m] for m in create_modes] + [
        mode_operators_reference(space.n_modes)[m] for m in annihilate_modes])


def _zero(space):
    return sp.csr_matrix((space.dimension, space.dimension), dtype=complex)


def h0_reference(space, params):
    """Reference: h[x, y] psi*_{x s} psi_{y s} summed term by term over the
    site pairs of the delta-loop hopping h and both spins, mode 2 x + s."""
    h = hopping_reference(space.spec, params)
    H = _zero(space)
    for x, y in zip(*np.nonzero(h)):
        for s in (UP, DOWN):
            H = H + h[x, y] * operator_product_reference(space, [2 * x + s],
                                                         [2 * y + s])
    return H


@pytest.mark.parametrize("shape", [(1, L) for L in range(1, 7)] + [(2, 2)])
@pytest.mark.parametrize("t, t_prime, mu", [
    (1.0, 0.0, 0.2), (0.7, 0.3, -0.4), (1.0, -0.5, 0.0), (0.0, 0.6, 0.3),
    (-0.8, 0.25, 1.3)])
def test_build_h0_matches_delta_loop_bitwise(shape, t, t_prime, mu):
    # the site hopping put on both spins by build_h0 itself gives the same
    # triplets, bit for bit, as the per-term sum over the delta loop
    space = FockSpace(LatticeSpec(*shape))
    p = ModelParams(t=t, t_prime=t_prime, mu=mu)
    ours, ref = build_h0(space, p), h0_reference(space, p)
    ref.sum_duplicates()
    ref = ref.tocoo()
    np.testing.assert_array_equal(ours.rows, ref.row)
    np.testing.assert_array_equal(ours.cols, ref.col)
    assert ours.vals.dtype == ref.data.dtype == np.complex128
    assert ours.vals.tobytes() == ref.data.tobytes()


def interaction_reference(space, u):
    spec = space.spec
    H = _zero(space)
    for X, _, Xi, Phi, coeff in lattice_terms(u, spec):
        create = [mode_index(spec, x, s) for x, s in zip(X, Xi)]
        annih = [mode_index(spec, x, s) for x, s in zip(reversed(X), reversed(Phi))]
        H = H + coeff * operator_product_reference(space, create, annih)
    return H


def lambda_term(space, lam):
    """Lambda of the coupling lam as _add_terms assembles it."""
    return fock._normal_ordered(space, [lambda_terms(lam)])[0]


def lambda_term_reference(space, lam):
    return sum((value * observable_pair_reference(space, q)
                for q, value in lam.items()), _zero(space))


def observable_pair_reference(space, q):
    spec = space.spec
    create = [mode_index(spec, x, s) for x, s in zip(q.x_sites, q.xi_spins)]
    annih = [mode_index(spec, y, s)
             for y, s in zip(reversed(q.y_sites), reversed(q.phi_spins))]
    O = operator_product_reference(space, create, annih)
    return O + O.conj().T.tocsr()


def test_mode_operators_match_state_loop():
    for n in range(2, 13):
        for op, ref in zip(fock._mode_operators(n), mode_operators_reference(n),
                           strict=True):
            op = to_csr(op)
            for arr, ref_arr in ((op.data, ref.data), (op.indices, ref.indices),
                                 (op.indptr, ref.indptr)):
                assert arr.dtype == ref_arr.dtype
                np.testing.assert_array_equal(arr, ref_arr)


def assemble_reference(n_modes, terms, dtype=complex):
    """Reference: the per-term loop that the one-pass assembler replaced.
    Each string acts on all basis states, its factors dropping the states
    they annihilate one factor at a time, and the triplets of all terms are
    summed by _canonical in term-major order."""
    dim = 2**n_modes
    jw = np.array([-1.0 if s.bit_count() % 2 else 1.0 for s in range(dim)])
    triplets = [(np.empty(0, dtype=int),) * 2 + (np.empty(0, dtype=dtype),)]
    for coeff, create, annihilate in terms:
        start = state = np.arange(dim)
        sign = np.full(dim, coeff, dtype=dtype)
        for m, occupied in ([(m, 1) for m in reversed(annihilate)] +
                            [(m, 0) for m in reversed(create)]):
            keep = (state >> m) & 1 == occupied
            start, state, sign = start[keep], state[keep], sign[keep]
            sign = sign * jw[state & ((1 << m) - 1)]
            state = state ^ (1 << m)
        triplets.append((state, start, sign))
    return fock._canonical(dim, *(np.concatenate(a) for a in zip(*triplets)))


@st.composite
def _term_groups(draw):
    """(n_modes, dtype, groups): up to four groups of up to five terms
    (coeff, create_modes, annihilate_modes), each string of up to six
    factors; modes may repeat, so that some strings vanish, and groups and
    strings may be empty."""
    n = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([complex, float]))
    coeff = (st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                allow_infinity=False)
             if dtype is complex else st.floats(-2.0, 2.0))
    modes = st.lists(st.integers(0, n - 1), max_size=3)
    groups = st.lists(st.lists(st.tuples(coeff, modes, modes), max_size=5),
                      max_size=4)
    return n, dtype, draw(groups)


@settings(max_examples=60)
@given(_term_groups())
@example((3, complex, [[]]))
# an exact cancellation, a repeated mode and a constant
@example((3, float, [[(0.5, [0], [1]), (-0.5, [0], [1]), (1.0, [2, 2], [])],
                     [], [(2.0, [], [])]]))
def test_assembler_matches_per_term_loop_bitwise(case):
    n, dtype, groups = case
    ours = fock._assemble(n, groups, dtype)
    assert len(ours) == len(groups)
    for op, terms in zip(ours, groups):
        ref = assemble_reference(n, terms, dtype)
        for f in ("rows", "cols", "vals"):
            a, b = getattr(op, f), getattr(ref, f)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the COO operator paths against the CSR code they replaced
# ---------------------------------------------------------------------------

def csr_sum_reference(dim, rows, cols, vals):
    """Reference: duplicates summed by the CSR constructor, then explicit
    zeros eliminated."""
    M = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    M.eliminate_zeros()
    return M


def sectors_reference(H):
    """Reference: the labelling read from the nonzero pattern of a CSR H."""
    dim = H.shape[0]
    basis = np.arange(dim)
    bits = (basis[:, None] >> np.arange(max(dim - 1, 1).bit_length())) & 1
    n_up, n_down = bits[:, 0::2].sum(axis=1), bits[:, 1::2].sum(axis=1)
    rows, cols = H.nonzero()
    for label in (n_up * dim + n_down, n_up + n_down, np.zeros(dim, dtype=int)):
        if np.array_equal(label[rows], label[cols]):
            break
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _assert_triplets_match(ours, ref):
    """Same (row, col) pattern in the same order, values within 1e-15."""
    ref = ref.tocoo()
    np.testing.assert_array_equal(ours.rows, ref.row)
    np.testing.assert_array_equal(ours.cols, ref.col)
    assert ours.vals.dtype == ref.data.dtype
    assert np.all(np.abs(ours.vals - ref.data) <= 1e-15)


def _recording_canonical(calls):
    real = fock._canonical

    def record(dim, rows, cols, vals):
        out = real(dim, rows, cols, vals)
        calls.append(((dim, rows, cols, vals), out))
        return out
    return record


def test_exact_cancellation_drops_entry_and_keeps_spin_sectors():
    # a transverse field flips spins at site 0; a lambda entry of opposite
    # sign cancels those entries exactly, so they are dropped and the
    # (N_up, N_down) labelling holds again
    spec = LatticeSpec(d=1, L=2)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    b = 0.6
    fld = spin_field_interaction({(0,): (b, 0.0, 0.0)})
    lam = {query(((0,),), ((0,),), (UP,), (DOWN,)): -0.5 * b}
    assert len(diagonalize(build_hamiltonian(space, p, fld)).layout.sectors) == 5
    H = build_hamiltonian(space, p, fld, lam)
    H0 = build_h0(space, p)
    for ours, ref in ((H.rows, H0.rows), (H.cols, H0.cols), (H.vals, H0.vals)):
        np.testing.assert_array_equal(ours, ref)
    H_ref = (to_csr(H0) + to_csr(fock.build_interaction(space, fld))) + \
        to_csr(lambda_term(space, lam))
    _assert_triplets_match(H, H_ref)
    assert len(diagonalize(H).layout.sectors) == (spec.n_sites + 1) ** 2
    for s, ref_s in zip(fock._blocks(H)[1].sectors, sectors_reference(H_ref),
                        strict=True):
        np.testing.assert_array_equal(s, ref_s)


@pytest.mark.parametrize("as_dense", [False, True])
@pytest.mark.parametrize("trace", [diagonalize,
                                   lambda H: fock.log_partition(H, 1.0)])
def test_exact_trace_refuses_non_hermitian(trace, as_dense):
    # psi*_{0 up} psi_{1 up} keeps N_up and N_down: its entries lie inside
    # the (N_up, N_down) blocks, and nothing stores their adjoint; as_dense
    # rebuilds the operator from its dense matrix, in row-major order
    space = FockSpace(LatticeSpec(d=1, L=2))
    [H] = fock._assemble(space.n_modes, [[(0.5, (0,), (2,)), (1.0, (1,), (1,))]])
    with pytest.raises(HermiticityError, match="not hermitian") as exc:
        trace(from_matrix(H.toarray()) if as_dense else H)
    assert isinstance(exc.value, ValueError)
    assert "defect 5.000e-01" in str(exc.value)


# ---------------------------------------------------------------------------
# the one model slot
# ---------------------------------------------------------------------------

def test_correlation_follows_the_interaction():
    # two models that differ in u alone, then u changed in place: each
    # correlation from the slot is that of its own H
    space = FockSpace(LatticeSpec(d=1, L=3))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    q = query(((0,), (0,)), ((1,), (1,)), (UP, DOWN), (UP, DOWN))

    def fresh(u):
        [O] = observable_pairs(space, [q])
        return diagonalize(build_hamiltonian(space, p, u)).expectation(O, p.beta)

    weak, strong = hubbard_interaction(0.1, d=1), hubbard_interaction(2.0, d=1)
    assert abs(fresh(weak) - fresh(strong)) > 1e-3
    for u in (weak, strong, weak):
        assert correlation(space, p, u, q) == fresh(u)
    before = fresh(weak)
    weak.add(1, (((0,),), (UP,), (UP,)), 0.5)
    assert abs(fresh(weak) - before) > 1e-3
    assert correlation(space, p, weak, q) == fresh(weak)


def test_slot_holds_one_model():
    space = FockSpace(LatticeSpec(d=1, L=2))
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.1, d=1)
    first = fock.model_system(space, p, u)
    assert fock.model_system(space, p, hubbard_interaction(0.1, d=1)) is first
    H, eig = fock.model_system(space, p, None)
    assert H is fock._free_hamiltonian(space, p) and len(fock._MODEL) == 1
    assert fock.model_system(space, p, u) is not first


@contextlib.contextmanager
def _counting_fock_calls():
    """Counters of the H_0 builds, diagonalizations and spectrum-only
    partition functions made inside the block, which starts with no model
    and no H_0 cached."""
    names = ("build_h0", "diagonalize", "log_partition")
    empty_model_caches()
    with contextlib.ExitStack() as stack:
        mocks = {n: stack.enter_context(mock.patch.object(
            fock, n, wraps=getattr(fock, n))) for n in names}
        yield lambda: {n: m.call_count for n, m in mocks.items()}


def test_one_diagonalize_per_model():
    # the envelope, the partition ratio and the lambda check share one H and
    # its Eigensystem; log Z(H_0) and the two H_lambda need spectra alone.
    # A second model on the lattice reuses H_0 and log Z(H_0), and the
    # free model is H_0 itself
    spec = LatticeSpec(d=1, L=4)
    space = FockSpace(spec)
    p = ModelParams(t=1.0, mu=0.2, beta=1.0)
    u = hubbard_interaction(0.5 * hubbard_threshold(p, 1), d=1)
    q = query(((0,),), ((1,),), (UP,), (UP,))
    with _counting_fock_calls() as counts:
        rows = bounds.verify_theorem_envelope(spec, p, u,
                                              cli._separation_queries(spec))
        ratio = partition_ratio(space, p, u)
        res = lambda_derivative_check(space, p, u, q, step=1e-4)
        assert counts() == {"build_h0": 1, "diagonalize": 1, "log_partition": 3}
        other = partition_ratio(space, p, hubbard_interaction(0.1, d=1))
        assert build_hamiltonian(space, p) is fock.model_system(space, p, None)[0]
        assert counts() == {"build_h0": 1, "diagonalize": 3, "log_partition": 3}
    assert all(r["passed"] for r in rows)
    H0 = build_h0(space, p)
    for v, value in ((u, ratio), (hubbard_interaction(0.1, d=1), other)):
        H = build_hamiltonian(space, p, v)
        assert value == pytest.approx(math.exp(fock.log_partition(H, p.beta) -
                                               fock.log_partition(H0, p.beta)),
                                      rel=1e-12)
    assert res["deviation"] <= 1e-6


def test_exact_trace_workload_builds_each_model_once(tmp_path):
    # six models on three lattices: one H_0 per lattice; five envelopes
    # through the slot and the free model's own diagonalize; log Z(H_0) once
    # on each of the two lattices with partition rows, and two pairs of
    # H_lambda spectra
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("exact_trace_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    timed = workloads.setup_exact_trace(1801, False, tmp_path)
    with _counting_fock_calls() as counts:
        assert timed() == 0
        assert counts() == {"build_h0": 3, "diagonalize": 6, "log_partition": 6}
