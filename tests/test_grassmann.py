import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermidecay import cli, fock, grassmann
from fermidecay.covariance import CovarianceSpec, covariance_matrix, covariance_value
from fermidecay.grassmann import (
    MAX_BEREZIN_GENERATORS,
    MAX_INSTANCES,
    GrassmannIndexSpace,
    GrassmannPolynomial,
    SchwingerEngine,
    berezin_gaussian,
    build_vertices,
    monomial,
    monomial_product,
    observable_monomials,
)
from fermidecay.grassmann import (
    _berezin_weight,
    _evaluate_plan,
    _series_value,
    _subset_plan,
)
from fermidecay.lattice import DOWN, UP, LatticeSpec, TimeGrid
from fermidecay.model import (
    GuardError,
    ModelParams,
    density_density_interaction,
    hubbard_interaction,
    lambda_terms,
    lattice_terms,
    spin_field_interaction,
    spin_spin_interaction,
)


def random_g(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3.0 * np.eye(n)


def _mask_bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def plan_expectation(barred, unbarred, G) -> complex:
    """Gaussian expectation of psibar_{b1}..psi_{uk} in the written order,
    evaluated as the engine evaluates every one: the plan of one seed and no
    vertices."""
    plan = _subset_plan([monomial(barred, unbarred)], [])
    return complex(_evaluate_plan(plan, G)[0])


def subset_products(seed, monomials):
    """(|S|, seed * prod_{v in S} monomial_v) over the subsets S whose product
    survives, in the order of the plan's recursion."""
    def recurse(state, start, depth):
        yield depth, state
        for i in range(start, len(monomials)):
            nxt = monomial_product(state, monomials[i])
            if nxt is not None:
                yield from recurse(nxt, i + 1, depth + 1)

    return recurse(seed, 0, 0)


def subset_scan_reference(seed, monomials, G):
    """Sum of Gaussian expectations of seed * prod_{v in S} monomial_v over all
    subsets S, graded by |S|: one Wick determinant per node of the subset
    recursion, (-1)^{k(k-1)/2} det G(barred, unbarred) for k barred and k
    unbarred generators, at the covariance G or at every covariance of a
    stack G at once.  The compiled plan must reproduce it."""
    out = np.zeros(G.shape[:-2] + (len(monomials) + 1,), dtype=complex)
    for depth, (bm, um, c) in subset_products(seed, monomials):
        k = bm.bit_count()
        if k == um.bit_count():
            sub = G[..., _mask_bits(bm), :][..., _mask_bits(um)]
            out[..., depth] += c * (-1) ** (k * (k - 1) // 2) * np.linalg.det(sub)
    return out


def plan_groups_reference(seeds, monomials):
    """The plan's (depth, rows, cols, coeffs) groups with the index rows built
    one mask at a time by _mask_bits."""
    groups = {}
    for seed in seeds:
        for depth, (bm, um, c) in subset_products(seed, monomials):
            k = bm.bit_count()
            if k == um.bit_count():
                rows, cols, coeffs = groups.setdefault((depth, k), ([], [], []))
                rows.append(_mask_bits(bm))
                cols.append(_mask_bits(um))
                coeffs.append(-c if (k * (k - 1) // 2) % 2 else c)
    return [(depth,
             np.array(rows, dtype=np.intp).reshape(len(coeffs), k),
             np.array(cols, dtype=np.intp).reshape(len(coeffs), k),
             np.array(coeffs, dtype=np.complex128))
            for (depth, k), (rows, cols, coeffs) in sorted(groups.items())]


def weight_polynomial(n, G):
    """exp(-<psi^t, G^{-1} psibar^t>) multiplied out monomial by monomial:
    exp_nilpotent of the bilinear form sum_{ij} (G^{-1})_{ij} psibar_j psi_i."""
    Ginv = np.linalg.inv(G)
    form = GrassmannPolynomial()
    for i in range(n):
        for j in range(n):
            form.add(1 << j, 1 << i, Ginv[i, j])
    return form.exp_nilpotent()


def berezin_product_reference(n, f, G):
    """Reference: the top coefficient of the whole product f * weight, which
    berezin_gaussian reads one term pair at a time."""
    G = np.ascontiguousarray(G, dtype=np.complex128)
    w, denom = _berezin_weight(n, G.tobytes())
    expw = GrassmannPolynomial()
    for b, u in zip(*np.nonzero(w)):
        expw.add(int(b), int(u), w[b, u])
    full = (1 << n) - 1
    return complex((f * expw).coefficient(full, full) / denom)


def one_plus(b, u, c):
    """The polynomial 1 + c psibar^b psi^u of canonical masks b, u."""
    p = GrassmannPolynomial.one()
    p.add(b, u, c)
    return p


def grid_correlations(spec, params, u, q, half_steps):
    """The engine's correlation of q at beta*h = 2 hs for each hs."""
    return [SchwingerEngine(spec, params, TimeGrid(params.beta, hs), u).correlation(q)
            for hs in half_steps]


def test_wick_expectation_contract(rng):
    # det G(barred, unbarred) times (-1)^{k(k-1)/2}; mismatched degrees
    # integrate to zero, and a repeated generator is no monomial at all
    G = random_g(rng, 6)
    assert plan_expectation([2], [3], G) == pytest.approx(G[2, 3])
    assert plan_expectation([0, 1], [2, 3], G) == pytest.approx(
        -np.linalg.det(G[np.ix_([0, 1], [2, 3])]))
    assert plan_expectation([1, 0], [2, 3], G) == -plan_expectation(
        [0, 1], [2, 3], G)
    assert plan_expectation([], [], G) == 1.0
    assert plan_expectation([1], [2, 3], G) == 0.0
    assert monomial([0, 1], [2, 2]) is None
    # a generator past n is refused, never integrated to zero
    with pytest.raises(IndexError, match="index 7 is out of bounds"):
        plan_expectation([7], [0], G)


def test_monomial_canonicalization_signs():
    # swapping two adjacent generators flips the sign exactly
    m1 = monomial([0, 1], [2, 3])
    m2 = monomial([1, 0], [2, 3])
    assert m1[2] == -m2[2] and m1[:2] == m2[:2]
    m3 = monomial([0, 1], [3, 2])
    assert m3[2] == -m1[2]
    assert monomial([0, 0], [1, 2]) is None


def test_monomial_product_nilpotent_and_sign():
    a = monomial([0], [1])
    b = monomial([2], [3])
    ab = monomial_product(a, b)
    ba = monomial_product(b, a)
    # even parity blocks: psibar_0 psi_1 psibar_2 psi_3 = + psibar_0 psibar_2 psi_1 psi_3
    assert ab == (0b101, 0b1010, -1.0)  # one swap merging psi_1 past psibar_2
    assert ab[2] == ba[2]
    assert monomial_product(a, a) is None


def test_berezin_normalization_and_antisymmetry(rng):
    n = 4
    G = random_g(rng, n)
    assert berezin_gaussian(n, GrassmannPolynomial.one(), G) == pytest.approx(1.0)
    v1 = berezin_gaussian(n, GrassmannPolynomial.from_monomial([0, 1], [2, 3]), G)
    v2 = berezin_gaussian(n, GrassmannPolynomial.from_monomial([1, 0], [2, 3]), G)
    assert v1 == pytest.approx(-v2)
    # degree-4 monomial against the 2x2 Wick determinant
    det = G[0, 2] * G[1, 3] - G[0, 3] * G[1, 2]
    assert v1 == pytest.approx(-det)  # (-1)^{k(k-1)/2} at k=2


def test_berezin_guard():
    with pytest.raises(ValueError):
        berezin_gaussian(11, GrassmannPolynomial.one(), np.eye(11))


@st.composite
def _berezin_case(draw):
    """A multi-term polynomial over n <= 6 generators and a random G."""
    n = draw(st.sampled_from([2, 4, 6]))
    masks = st.integers(0, (1 << n) - 1)
    f = GrassmannPolynomial()
    for _ in range(draw(st.integers(1, 12))):
        f.add(draw(masks), draw(masks),
              complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, f, random_g(rng, n)


@settings(max_examples=60)
@given(_berezin_case())
def test_berezin_top_coefficient_matches_product(case):
    n, f, G = case
    assert berezin_gaussian(n, f, G) == berezin_product_reference(n, f, G)


def test_berezin_rejects_mismatched_covariance_and_generators(rng):
    G = random_g(rng, 6)
    # a larger G must not be cut down to its top-left corner
    with pytest.raises(ValueError, match=r"shape \(6, 6\) for 4 generators"):
        berezin_gaussian(4, GrassmannPolynomial.from_monomial([0], [1]), G)
    # a generator past n must not integrate to zero; the plan refuses it as
    # well
    f = GrassmannPolynomial.from_monomial([4], [0])
    with pytest.raises(ValueError, match=r"generator index 4 outside 0\.\.3"):
        berezin_gaussian(4, f, G[:4, :4])
    with pytest.raises(IndexError, match="index 4 is out of bounds"):
        plan_expectation([4], [0], G[:4, :4])


@st.composite
def _weight_case(draw):
    """n in {2, 4, 6, 8} and a random G, block-diagonal up to a permutation
    when the drawn labels differ, so that G^{-1} has exact zeros."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = random_g(rng, n)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    G[labels[:, None] != labels] = 0.0
    return n, G


def assert_dense_weight_matches_polynomial(n, G):
    # both expansions form every coefficient from the same float operations
    # in the same order, so they agree exactly, not only to round-off
    w, top = _berezin_weight(n, G.tobytes())
    ref = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for (b, u), c in weight_polynomial(n, G).terms.items():
        ref[b, u] = c
    np.testing.assert_array_equal(w, ref)
    assert top == w[-1, -1]
    assert not w.flags.writeable


@settings(max_examples=16)
@given(_weight_case())
def test_dense_weight_matches_polynomial_expansion(case):
    assert_dense_weight_matches_polynomial(*case)


def test_dense_weight_at_eight_generators():
    # a full G^{-1}, and the spin-block structure of a lattice covariance,
    # whose G^{-1} has exact zeros
    rng = np.random.default_rng(8)
    spin_blocks = np.kron(np.eye(2), random_g(rng, 4))
    assert np.count_nonzero(np.linalg.inv(spin_blocks) == 0) == 32
    for G in (random_g(rng, 8), spin_blocks):
        assert_dense_weight_matches_polynomial(8, G)


def test_berezin_expansion_makes_no_det_call(rng, monkeypatch):
    n = 6
    G = random_g(rng, n)
    ref = plan_expectation([0, 1, 4], [2, 3, 5], G)

    def refuse(*args, **kwargs):
        raise AssertionError("determinant inside the Berezin engine")

    monkeypatch.setattr(np.linalg, "det", refuse)
    _berezin_weight.cache_clear()
    via = berezin_gaussian(
        n, GrassmannPolynomial.from_monomial([0, 1, 4], [2, 3, 5]), G)
    assert _berezin_weight.cache_info().misses == 1
    assert via == pytest.approx(ref, rel=1e-12)


def test_berezin_at_generator_cap(rng):
    # random monomials of degree <= 3 in each family, mismatched ones included
    n = MAX_BEREZIN_GENERATORS
    G = random_g(rng, n)
    worst = 0.0
    for _ in range(100):
        barred = [int(v) for v in rng.permutation(n)[:rng.integers(0, 4)]]
        unbarred = [int(v) for v in rng.permutation(n)[:rng.integers(0, 4)]]
        ref = plan_expectation(barred, unbarred, G)
        via = berezin_gaussian(n, GrassmannPolynomial.from_monomial(barred, unbarred), G)
        worst = max(worst, abs(ref - via))
    assert worst <= 1e-12


def test_berezin_weight_expanded_once_per_g():
    # criterion 02 integrates 200 monomials against one G
    _berezin_weight.cache_clear()
    cli.wick_vs_berezin(seed=2024, max_degree=4)
    info = _berezin_weight.cache_info()
    assert (info.hits, info.misses) == (199, 1)


def test_berezin_cache_follows_content_of_g(rng):
    n = 4
    G = random_g(rng, n)
    f = GrassmannPolynomial.from_monomial([0, 1], [2, 3])
    _berezin_weight.cache_clear()
    first = berezin_gaussian(n, f, G)
    cached = berezin_gaussian(n, f, G)
    assert _berezin_weight.cache_info().hits == 1
    _berezin_weight.cache_clear()
    assert cached == first == berezin_gaussian(n, f, G)
    # an in-place change of G must not be served the stale weight
    G[0, 2] += 0.5
    moved = berezin_gaussian(n, f, G)
    assert moved != first
    assert moved == pytest.approx(plan_expectation([0, 1], [2, 3], G), rel=1e-12)
    with pytest.raises(ValueError, match="limited to 10 generators"):
        berezin_gaussian(11, GrassmannPolynomial.one(), np.eye(11))


def test_index_space_size_and_order(atom):
    space = GrassmannIndexSpace(atom, TimeGrid(1.0, 2))
    assert space.n == 8
    assert space.index((0,), UP, 0) == 0
    assert space.index((0,), DOWN, 0) == 1
    assert space.index((0,), UP, 1) == 2
    with pytest.raises(ValueError):
        GrassmannIndexSpace(LatticeSpec(d=1, L=2), TimeGrid(1.0, 4))  # 32 > 24


def test_index_space_rejects_generator_count_off_four(atom):
    # one grid time gives N = 2, where the normalization sign is not +1
    with pytest.raises(ValueError, match="^2 generators"):
        GrassmannIndexSpace(atom, SimpleNamespace(n_points=1))


def transfer(spec, params, grid, u, lam=None):
    """fock.transfer_partition on the Fock space of the lattice spec."""
    return fock.transfer_partition(fock.FockSpace(spec), params, grid, u, lam)


def test_partition_free_is_one(atom, params):
    grid = TimeGrid(1.0, 1)
    assert transfer(atom, params, grid, None) == pytest.approx(1.0)
    assert SchwingerEngine(atom, params, grid, None).partition() == pytest.approx(1.0)
    eng = SchwingerEngine(atom, params, grid, hubbard_interaction(0.3, d=1))
    assert eng.partition(eta=0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("half_steps", [1, 2, 4])
def test_partition_equivalence(atom, params, half_steps):
    hub = hubbard_interaction(0.3, d=1)
    grid = TimeGrid(1.0, half_steps)
    tp = transfer(atom, params, grid, hub)
    pe = SchwingerEngine(atom, params, grid, hub).partition()
    assert abs(tp - pe) <= 1e-10


def test_partition_berezin_oracle(atom, params):
    # brute-force Berezin integration of exp(interaction) at N = 4
    hub = hubbard_interaction(0.2, d=1)
    grid = TimeGrid(1.0, 1)
    space = GrassmannIndexSpace(atom, grid)
    G = covariance_matrix(CovarianceSpec(atom, params), grid)
    poly = GrassmannPolynomial.one()
    for (b, u, c) in build_vertices(space, hub):
        poly = poly * one_plus(b, u, c)
    ber = berezin_gaussian(space.n, poly, G)
    tp = transfer(atom, params, grid, hub)
    assert ber == pytest.approx(tp, abs=1e-12)


def test_partition_h_convergence_to_trace(atom, params):
    hub = hubbard_interaction(0.2, d=1)
    space = fock.FockSpace(atom)
    exact = fock.partition_ratio(space, params, hub)
    errs = []
    for hs in (1, 2, 4):
        tp = transfer(atom, params, TimeGrid(1.0, hs), hub)
        errs.append(abs(tp - exact))
    assert errs[2] < errs[1] < errs[0]


def test_partition_instance_guard(params):
    # 8 generators, but 12 spin-spin terms per grid time on two grid times
    spin_spin = spin_spin_interaction({(1,): 0.2})
    with pytest.raises(GuardError, match="24 interaction instances exceed"):
        SchwingerEngine(LatticeSpec(d=1, L=2), params, TimeGrid(1.0, 1),
                        spin_spin)


def _lambda(pairs, coeff):
    """The coupling {query: coeff} of the query with one (x, y, xi, phi) per
    particle of pairs."""
    return {fock.query(*zip(*pairs)): coeff}


_SUBSET_LOOP_CASES = [
    (1, 1, None),
    (1, 2, None),
    (1, 4, None),                                              # V = 8
    (2, 2, None),                                              # V = 8
    (1, 2, _lambda([((0,), (0,), UP, DOWN)], 0.3)),            # degrees 2, 1
    (2, 1, _lambda([((0,), (1,), UP, UP), ((1,), (1,), DOWN, UP)], 0.2)),
    (1, 4, _lambda([((0,), (0,), UP, UP)], -0.25)),            # V = 16
]


def transfer_slice_reference(space, terms, h):
    """The slice operator summed over all 2^n subsets of the terms, one
    group per subset; a subset that repeats a mode assembles to zero."""
    subsets = itertools.chain.from_iterable(
        itertools.combinations(terms, k) for k in range(len(terms) + 1))
    return sum(op.toarray() for op in fock._normal_ordered(space, [
        [(*(sum((a[i] for a in A), ()) for i in range(4)),
          np.prod([-a[4] / h for a in A]))] for A in subsets]))


@pytest.mark.parametrize("L,half_steps,u,lam", [
    *[(L, half_steps, hubbard_interaction(0.3, d=1), lam) for L, half_steps, lam
      in _SUBSET_LOOP_CASES],
    (2, 1, spin_spin_interaction({(1,): 0.2}), None),         # 25 of 4096 live
    (3, 1, spin_field_interaction({(x,): (0.4, 0.0, 0.0) for x in range(3)}),
     None),
])
def test_transfer_slice_matches_all_subsets(L, half_steps, u, lam):
    space, grid = fock.FockSpace(LatticeSpec(d=1, L=L)), TimeGrid(1.0, half_steps)
    terms = lattice_terms(u, space.spec)
    terms += [] if lam is None else lambda_terms(lam)
    got = fock._transfer_slice(space, terms, grid.h)
    ref = transfer_slice_reference(space, terms, grid.h)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_transfer_slice_assembles_the_live_subsets(params, monkeypatch):
    # the two-site spin-spin chain has 12 terms per slice: of their 4096
    # subsets, 25 repeat no creation and no annihilation mode
    normal_ordered, strings = fock._normal_ordered, []

    def record(space, groups):
        strings.extend(map(len, groups))
        return normal_ordered(space, groups)

    monkeypatch.setattr(fock, "_normal_ordered", record)
    transfer(LatticeSpec(d=1, L=2), params, TimeGrid(1.0, 1),
             spin_spin_interaction({(1,): 0.2}))
    assert strings == [25]


def test_discrete_partition_shares_no_code_with_the_plan(atom, params,
                                                         monkeypatch):
    hub = hubbard_interaction(0.3, d=1)
    grid = TimeGrid(1.0, 2)
    expected = SchwingerEngine(atom, params, grid, hub).partition()

    def refuse(*args, **kwargs):
        raise AssertionError("the cross-check reached the plan's code")

    monkeypatch.setattr(grassmann, "_subset_plan", refuse)
    monkeypatch.setattr(grassmann, "monomial_product", refuse)
    monkeypatch.setattr(grassmann, "covariance_matrix", refuse)
    assert abs(transfer(atom, params, grid, hub) - expected) <= 1e-10


def test_lambda_vertices_differentiate_partition(atom, params):
    # finite difference of log (Tr ratio)_h in a lambda entry reproduces the
    # grid-level Schwinger correlation, tying the two formulations together
    hub = hubbard_interaction(0.2, d=1)
    grid = TimeGrid(1.0, 2)
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    eng = SchwingerEngine(atom, params, grid, hub)
    target = eng.correlation(q)
    eps = 1e-6
    vals = {}
    for s in (eps, -eps):
        vals[s] = transfer(atom, params, grid, hub, lam={q: s})
    fd = -(np.log(vals[eps]) - np.log(vals[-eps])) / (2 * eps * params.beta)
    assert fd == pytest.approx(target.real, abs=1e-7)


def test_b0_equals_covariance_block(chain4, params):
    hub = hubbard_interaction(0.1, d=1)
    grid = TimeGrid(1.0, 1)
    cs = CovarianceSpec(chain4, params)
    q = fock.query(((0,),), ((2,),), (UP,), (UP,))
    spec2 = LatticeSpec(d=1, L=2)
    eng = SchwingerEngine(spec2, params, grid, hub)
    ser = eng.schwinger_series(fock.query(((0,),), ((1,),), (UP,), (UP,)), 2)
    cs2 = CovarianceSpec(spec2, params)
    expected = covariance_value(cs2, ((0,), UP, 0.0), ((1,), UP, 0.0))
    assert ser[0] == pytest.approx(expected, abs=1e-12)
    # m_hat = 2: b_0 is the 2x2 determinant of the equal-time block
    q2 = fock.query(((0,), (1,)), ((1,), (0,)), (UP, DOWN), (UP, DOWN))
    ser2 = eng.schwinger_series(q2, 1)
    blk = np.array([
        [covariance_value(cs2, ((0,), UP, 0.0), ((1,), UP, 0.0)),
         covariance_value(cs2, ((0,), UP, 0.0), ((0,), DOWN, 0.0))],
        [covariance_value(cs2, ((1,), DOWN, 0.0), ((1,), UP, 0.0)),
         covariance_value(cs2, ((1,), DOWN, 0.0), ((0,), DOWN, 0.0))],
    ])
    assert ser2[0] == pytest.approx(complex(np.linalg.det(blk)), abs=1e-12)


def test_b0_bounded_by_four_power(rng, params):
    spec = LatticeSpec(d=1, L=2)
    grid = TimeGrid(1.0, 1)
    hub = hubbard_interaction(0.1, d=1)
    eng = SchwingerEngine(spec, params, grid, hub)
    for _ in range(20):
        m_hat = int(rng.integers(1, 3))
        xs = tuple((int(rng.integers(2)),) for _ in range(m_hat))
        ys = tuple((int(rng.integers(2)),) for _ in range(m_hat))
        xi = tuple(int(rng.integers(2)) for _ in range(m_hat))
        phi = tuple(int(rng.integers(2)) for _ in range(m_hat))
        ser = eng.schwinger_series(fock.query(xs, ys, xi, phi), 0)
        assert abs(ser[0]) <= 4.0**m_hat + 1e-12


def test_free_interaction_taylor_vanishes(params):
    spec = LatticeSpec(d=1, L=2)
    eng = SchwingerEngine(spec, params, TimeGrid(1.0, 1), None)
    ser = eng.schwinger_series(fock.query(((0,),), ((1,),), (UP,), (UP,)), 3)
    assert abs(ser[0]) > 0
    assert all(abs(c) == 0 for c in ser[1:])


def test_correlation_free_equals_covariance(atom, params):
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    cs = CovarianceSpec(atom, params)
    free = 2 * covariance_value(cs, ((0,), UP, 0.0), ((0,), UP, 0.0)).real
    for value in grid_correlations(atom, params, None, q, (1, 2, 4)):
        assert value.real == pytest.approx(free, abs=1e-12)
        assert abs(value.imag) <= 1e-10


def test_correlation_h_convergence(atom):
    p = ModelParams(t=0.5, t_prime=0.0, mu=0.2, beta=1.0)
    hub = hubbard_interaction(0.3, d=1)
    space = fock.FockSpace(atom)
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    exact = fock.correlation(space, p, hub, q).real
    conv = grid_correlations(atom, p, hub, q, (1, 2, 4))
    errs = [abs(value.real - exact) for value in conv]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-2
    for value in conv:
        assert abs(value.imag) <= 1e-10


def test_schwinger_denominator_zero_detected(atom, params):
    # evaluate at a root of the denominator polynomial in eta
    grid = TimeGrid(1.0, 1)
    eng = SchwingerEngine(atom, params, grid, hubbard_interaction(1.0, d=1))
    coeffs = eng.denominator()
    root = complex(np.roots(list(reversed(coeffs)))[0])
    with pytest.raises(GuardError):
        eng.schwinger_value(fock.query(((0,),), ((0,),), (UP,), (UP,)),
                            eta=root)


def test_eta_series_evaluation():
    s = np.array([1.0, 2.0, 3.0])
    assert _series_value(s, 1.0) == pytest.approx(6.0)
    assert _series_value(s, 0.0) == pytest.approx(1.0)
    assert _series_value(s, 2.0) == pytest.approx(17.0)
    # a stack of series gives one value per series
    stack = _series_value(np.stack([s, 2 * s]), 1.0)
    assert stack.shape == (2,) and stack[1] == pytest.approx(12.0)


@pytest.mark.parametrize("d,L", [(1, 2), (1, 3), (2, 2)])
@pytest.mark.parametrize("k", [1, -1])
def test_sites_outside_window_match_reduced_sites(d, L, k, params):
    # both oracles reduce a site mod L only through lattice.site_index
    spec = LatticeSpec(d=d, L=L)
    x, y, o = (L - 1,) + (0,) * (d - 1), (0,) * (d - 1) + (1,), (0,) * d
    out = lambda s, j: tuple(c + j * k * L for c in s)
    inside = ((x, y), (y, o), (UP, DOWN), (DOWN, DOWN))
    outside = ((out(x, 1), out(y, -1)), (out(y, -1), out(o, 1))) + inside[2:]
    fspace = fock.FockSpace(spec)
    gspace = GrassmannIndexSpace(spec, TimeGrid(1.0, 1))
    results = []
    for X, Y, Xi, Phi in (inside, outside):
        q = fock.query(X, Y, Xi, Phi)
        lam = {q: 0.3}
        results.append((
            [(op.rows, op.cols, op.vals) for op in (
                *fock.observable_pairs(fspace, [q]),
                fock.build_hamiltonian(fspace, ModelParams(), lam=lam))],
            observable_monomials(gspace, q),
            sorted(map(repr, build_vertices(gspace, None, lam)))))
    (ref_ops, *ref), (ops, *got) = results
    assert len(ref[0]) == 2 and len(ref[1]) == 4
    assert got == ref
    for op, ref_op in zip(ops, ref_ops, strict=True):
        for arr, ref_arr in zip(op, ref_op, strict=True):
            np.testing.assert_array_equal(arr, ref_arr)


def test_pinned_interaction_sites(params):
    spec = LatticeSpec(d=1, L=2)
    grid = TimeGrid(1.0, 1)
    hub = hubbard_interaction(0.4, d=1)
    q = fock.query(((0,), (0,)), ((0,), (0,)), (UP, DOWN), (UP, DOWN))
    full = SchwingerEngine(spec, params, grid, hub).schwinger_series(q, 2)
    pinned = SchwingerEngine(spec, params, grid, hub,
                             interaction_sites={(0,)}).schwinger_series(q, 2)
    assert full[0] == pytest.approx(pinned[0])
    assert abs(full[1]) != pytest.approx(abs(pinned[1]))


def test_partition_equivalence_two_sites(params):
    spec = LatticeSpec(d=1, L=2)
    hub = hubbard_interaction(0.25, d=1)
    grid = TimeGrid(1.0, 1)
    tp = transfer(spec, params, grid, hub)
    pe = SchwingerEngine(spec, params, grid, hub).partition()
    assert abs(tp - pe) <= 1e-10
    space = fock.FockSpace(spec)
    exact = fock.partition_ratio(space, params, hub)
    assert abs(tp - exact) < 0.05


@pytest.mark.parametrize("U,half_steps", [(0.1, 1), (0.3, 2)])
def test_transfer_partition_on_two_sites(params, U, half_steps):
    # two Hubbard terms per grid time: S holds their product, which the
    # atom's one-term slices never reach
    spec = LatticeSpec(d=1, L=2)
    hub = hubbard_interaction(U, d=1)
    grid = TimeGrid(1.0, half_steps)
    pe = SchwingerEngine(spec, params, grid, hub).partition()
    assert abs(transfer(spec, params, grid, hub) - pe) <= 1e-12 * abs(pe)


@st.composite
def _grid_model(draw):
    """A lattice, a grid, an interaction and a lambda coupling or None within
    the engine's guards: the atom at beta*h <= 8, the two-site chain at
    beta*h <= 4 or the 2x2 square at beta*h = 2, with a Hubbard, sigma-field
    or density-density term, and a coupling of one m_hat <= 2 query when its
    two strings fit the guard on every grid time."""
    spec, half_steps = draw(st.sampled_from([
        (LatticeSpec(d=1, L=1), 1), (LatticeSpec(d=1, L=1), 2),
        (LatticeSpec(d=1, L=1), 4), (LatticeSpec(d=1, L=2), 1),
        (LatticeSpec(d=1, L=2), 2), (LatticeSpec(d=2, L=2), 1)]))
    per_slice = MAX_INSTANCES // (2 * half_steps)   # terms per grid time
    coupling = st.builds(float.__mul__, st.sampled_from((-1.0, 1.0)),
                         st.floats(0.05, 1.0))
    site = st.tuples(*[st.integers(0, spec.L - 1)] * spec.d)
    spin = st.sampled_from((UP, DOWN))
    kind = draw(st.sampled_from(["hubbard", "sigma", "density"]))
    if kind == "hubbard":
        u = hubbard_interaction(draw(coupling), d=spec.d)
    elif kind == "sigma":
        # four order-1 terms per site, two when the field is along z alone
        sites = draw(st.lists(site, min_size=1, unique=True, max_size=min(
            spec.n_sites, max(per_slice // 4, 1))))
        xy = coupling if per_slice >= 4 else st.just(0.0)
        u = spin_field_interaction({x: [draw(xy), draw(xy), draw(coupling)]
                                    for x in sites})
    else:
        # one order-2 entry on every site and one order-1 entry
        origin = (0,) * spec.d
        x, xi = draw(site), draw(spin)
        eta = 1 - xi if x == origin else draw(spin)
        u = density_density_interaction({
            2: {((x, origin), (xi, eta)): draw(coupling)},
            1: {((draw(site),), (draw(spin),)): draw(coupling)}})
    grid = TimeGrid(1.0, half_steps)
    lam = None
    room = MAX_INSTANCES - len(build_vertices(GrassmannIndexSpace(spec, grid), u))
    if room >= 2 * grid.n_points and draw(st.booleans()):
        m_hat = draw(st.integers(1, 2))
        lam = {fock.query(*[[draw(f) for _ in range(m_hat)]
                            for f in (site, site, spin, spin)]):
               draw(st.floats(0.05, 0.5))}
    return spec, grid, u, lam


def engine_partition(spec, params, grid, u, lam=None):
    """The engine's partition; with a lambda coupling, which the engine does
    not take, the plan of its vertices with lam at the covariance."""
    if lam is None:
        return SchwingerEngine(spec, params, grid, u).partition()
    plan = _subset_plan([(0, 0, 1.0 + 0.0j)], build_vertices(
        GrassmannIndexSpace(spec, grid), u, lam))
    G = covariance_matrix(CovarianceSpec(spec, params), grid)
    return _series_value(_evaluate_plan(plan, G), 1.0)


@pytest.mark.parametrize("L,half_steps,lam", _SUBSET_LOOP_CASES)
def test_discrete_partition_matches_subset_loop(params, L, half_steps, lam):
    # the on-site chain at U = 0.3, with and without the lambda couplings
    spec = LatticeSpec(d=1, L=L)
    grid = TimeGrid(1.0, half_steps)
    hub = hubbard_interaction(0.3, d=1)
    pe = engine_partition(spec, params, grid, hub, lam)
    assert abs(transfer(spec, params, grid, hub, lam) - pe) <= 1e-12 * abs(pe)


@settings(max_examples=25)
@given(_grid_model())
def test_transfer_partition_matches_engine(case):
    spec, grid, u, lam = case
    params = ModelParams()
    pe = engine_partition(spec, params, grid, u, lam)
    assert abs(transfer(spec, params, grid, u, lam) - pe) <= 1e-12 * abs(pe)


def test_exp_nilpotent_rejects_odd_terms():
    p = GrassmannPolynomial.from_monomial([0], [])
    with pytest.raises(ValueError):
        p.exp_nilpotent()


def test_correlation_h_convergence_offdiagonal(params):
    # two-site chain, site 0 -> site 1 with interaction on
    spec = LatticeSpec(d=1, L=2)
    hub = hubbard_interaction(0.4, d=1)
    space = fock.FockSpace(spec)
    q = fock.query(((0,),), ((1,),), (UP,), (UP,))
    exact = fock.correlation(space, params, hub, q).real
    conv = grid_correlations(spec, params, hub, q, (1, 2))
    errs = [abs(value.real - exact) for value in conv]
    assert errs[1] < errs[0]


def test_four_point_correlation_converges(atom):
    # the pair observable of the on-site decay theorem at m_hat = 2
    p = ModelParams(t=0.5, t_prime=0.0, mu=0.2, beta=1.0)
    hub = hubbard_interaction(0.3, d=1)
    space = fock.FockSpace(atom)
    q = fock.query(((0,), (0,)), ((0,), (0,)), (UP, DOWN), (UP, DOWN))
    exact = fock.correlation(space, p, hub, q).real
    conv = grid_correlations(atom, p, hub, q, (1, 2, 4))
    errs = [abs(value.real - exact) for value in conv]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-2


def test_taylor_coefficient_against_berezin_derivative(atom, params):
    # independent oracle for b_1: central differences in eta of the Schwinger
    # value computed entirely through the Berezin engine at N = 4
    hub = hubbard_interaction(0.2, d=1)
    grid = TimeGrid(1.0, 1)
    space = GrassmannIndexSpace(atom, grid)
    G = covariance_matrix(CovarianceSpec(atom, params), grid)
    vertices = build_vertices(space, hub)
    obs = observable_monomials(space,
                               fock.query(((0,),), ((0,),), (UP,), (UP,)))

    def schwinger_berezin(eta):
        expw = GrassmannPolynomial.one()
        for (b, u, c) in vertices:
            expw = expw * one_plus(b, u, c * eta)
        den = berezin_gaussian(space.n, expw, G)
        num = 0.0 + 0.0j
        for (b, u, c) in obs:
            mono = GrassmannPolynomial()
            mono.add(b, u, c)
            num += berezin_gaussian(space.n, mono * expw, G)
        return -num / (params.beta * den)

    ser = SchwingerEngine(atom, params, grid, hub).schwinger_series(
        fock.query(((0,),), ((0,),), (UP,), (UP,)), 2)
    eps = 1e-3
    b0 = schwinger_berezin(0.0)
    b1_fd = (schwinger_berezin(eps) - schwinger_berezin(-eps)) / (2 * eps)
    assert abs(b0 - ser[0]) <= 1e-12
    assert abs(b1_fd - ser[1]) <= 1e-7


def test_unnormalized_gaussian_sign_at_n4(rng):
    # int exp(-<psi^t, G^{-1} psibar^t>) = (-1)^{N(N-1)/2} (det G)^{-1}, which
    # is +(det G)^{-1} on every lattice-backed index set (N = 0 mod 4)
    n = 4
    G = random_g(rng, n)
    top = weight_polynomial(n, G).coefficient((1 << n) - 1, (1 << n) - 1)
    assert top == pytest.approx(1.0 / complex(np.linalg.det(G)), rel=1e-12)


@st.composite
def _vertex_case(draw):
    """Vertices, seeds and a stack of random covariances for the plan test."""
    L, half_steps = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    spec = LatticeSpec(d=1, L=L)
    space = GrassmannIndexSpace(spec, TimeGrid(1.0, half_steps))
    site = st.integers(0, L - 1).map(lambda x: (x,))
    spin = st.sampled_from((UP, DOWN))
    lam = None
    if draw(st.booleans()):
        m_hat = draw(st.integers(1, 2))
        lam = {fock.query(*[[draw(f) for _ in range(m_hat)]
                            for f in (site, site, spin, spin)]):
               draw(st.floats(0.05, 0.5))}
    hub = hubbard_interaction(draw(st.floats(0.05, 1.0)), d=1)
    monomials = build_vertices(space, hub, lam)
    # a vanishing vertex, as build_vertices emits for repeated generators
    monomials.insert(draw(st.integers(0, len(monomials))), (0, 0, 0.0))
    m = draw(st.integers(1, 2))
    obs = observable_monomials(space, fock.query(*[[draw(f) for _ in range(m)]
                                                   for f in (site, site, spin, spin)]))
    a, b, c = draw(st.permutations(range(space.n)))[:3]
    mismatched = monomial([a], [b, c], 0.7)
    seeds = [(0, 0, 1.0 + 0.0j)] + obs + [mismatched]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([random_g(rng, space.n)
                      for _ in range(draw(st.integers(1, 5)))])
    return seeds, monomials, stack


@settings(max_examples=30)
@given(_vertex_case())
def test_plan_matches_subset_recursion(case):
    # one compiled plan: its index groups bit for bit against those built
    # one mask at a time, its series against one Wick determinant per node
    # of the subset recursion
    seeds, monomials, stack = case
    plan = _subset_plan(seeds, monomials)
    groups = plan_groups_reference(seeds, monomials)
    assert [group[0] for group in plan.groups] == [group[0] for group in groups]
    for group, ref_group in zip(plan.groups, groups, strict=True):
        for arr, ref_arr in zip(group[1:], ref_group[1:], strict=True):
            assert arr.dtype == ref_arr.dtype and arr.shape == ref_arr.shape
            assert arr.tobytes() == ref_arr.tobytes()
    ref = np.sum([subset_scan_reference(s, monomials, stack) for s in seeds],
                 axis=0)
    scale = max(1.0, float(np.abs(ref).max()))
    batched = _evaluate_plan(plan, stack)
    assert batched.shape == ref.shape
    assert np.abs(batched - ref).max() <= 1e-12 * scale
    for G, row in zip(stack, ref):
        assert np.abs(_evaluate_plan(plan, G) - row).max() <= 1e-12 * scale


def test_engine_denominator_computed_once(atom, params):
    eng = SchwingerEngine(atom, params, TimeGrid(1.0, 2),
                          hubbard_interaction(0.3, d=1))
    den = eng.denominator()
    assert eng.denominator() is den
    assert not den.flags.writeable
    ref = subset_scan_reference((0, 0, 1.0 + 0.0j), eng.vertices,
                                eng.G)
    assert np.abs(den - ref).max() <= 1e-12
    # a stack of one covariance gives the same series as the engine's own
    stacked = eng.denominator(eng.G[None])
    assert stacked.shape == (1, len(den))
    assert np.abs(stacked[0] - den).max() <= 1e-15
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    for series in (stacked, eng.numerator(q), eng.schwinger_series(q, 2)):
        assert not series.flags.writeable


def test_self_adjoint_correlation_evaluates_its_plan_once(monkeypatch):
    # criterion 03's query is its own adjoint: per grid the denominator and
    # one numerator, each read from the engine's cache after its first use
    plans = []
    evaluate = grassmann._evaluate_plan
    monkeypatch.setattr(grassmann, "_evaluate_plan",
                        lambda plan, G: plans.append(plan) or evaluate(plan, G))
    q = fock.query(((0,),), ((0,),), (UP,), (UP,))
    assert q.swapped() == q
    atom, p = LatticeSpec(d=1, L=1), ModelParams(t=0.5, mu=0.2, beta=1.0)
    hub = hubbard_interaction(0.3, d=1)
    checks = cli.partition_and_h_convergence(atom, p, hub, (1, 2, 4))
    assert all(c.passed for c in checks)
    assert len(plans) == 6
    eng = SchwingerEngine(atom, p, TimeGrid(1.0, 2), hub)
    num = eng.numerator(q)
    assert eng.numerator(q) is num and not num.flags.writeable
    value = -_series_value(evaluate(eng._plan(q), eng.G), 1.0) / \
        (p.beta * eng.partition())
    assert eng.correlation(q) == value + value


def test_suite_grassmann_builds_one_engine_per_grid(monkeypatch):
    # three grids for criterion 03 share their engine between the partition
    # and the correlation; the b0 series needs a fourth
    builds = []
    init = SchwingerEngine.__init__

    def counting(self, *args, **kwargs):
        builds.append(args[2].half_steps)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SchwingerEngine, "__init__", counting)
    calls = cli.suite_grassmann(None, None, None,
                                SimpleNamespace(seed=0, m_max=3))
    checks = [c for call in calls for c in call()]
    assert all(c.passed for c in checks)
    assert builds == [1, 2, 4, 1]
