import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermidecay.cli import _random_order2_table
from fermidecay.lattice import (
    DOWN,
    UP,
    LatticeSpec,
    enumerate_sites,
    mode_index,
    momentum_grid,
    site_index,
)
from fermidecay.model import (
    GuardError,
    HermiticityError,
    InteractionCoefficients,
    LambdaCoefficients,
    ModelFileError,
    ModelParams,
    antisymmetrize,
    check_fourier_consistency,
    check_smallness,
    decay_base,
    density_density_interaction,
    dispersion_grid,
    geometric_sum_factor,
    hubbard_interaction,
    interaction_norms,
    lattice_terms,
    load_model,
    model_from_dict,
    model_to_dict,
    restrict_interaction,
    save_model,
    site_hopping_matrix,
    spin_field_interaction,
    spin_spin_interaction,
    theorem_decay_base,
)


def hopping_reference(spec, params):
    """The hopping matrix on sites from the delta-function formula, one site
    pair at a time, so coincidences at L <= 2 (x+e_j = x-e_j) accumulate; the
    slow reference of model.site_hopping_matrix."""
    n = spec.n_sites
    T = np.zeros((n, n))
    sites = enumerate_sites(spec)
    d, L = spec.d, spec.L

    def delta(x, y) -> bool:
        return all((a - b) % L == 0 for a, b in zip(x, y))

    for x in sites:
        for y in sites:
            val = 0.0
            for j in range(d):
                ym = tuple(c - (1 if a == j else 0) for a, c in enumerate(y))
                yp = tuple(c + (1 if a == j else 0) for a, c in enumerate(y))
                val += -params.t * (delta(x, ym) + delta(x, yp))
            if d >= 2 and params.t_prime != 0.0:
                for j in range(d):
                    for k in range(j + 1, d):
                        for sj, sk in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                            yy = tuple(
                                c + (sj if a == j else 0) + (sk if a == k else 0)
                                for a, c in enumerate(y))
                            val += -params.t_prime * delta(x, yy)
            if delta(x, y):
                val += -params.mu
            if val != 0.0:
                T[site_index(spec, x), site_index(spec, y)] = val
    return T


_COUPLING = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@settings(max_examples=80)
@given(st.sampled_from([(d, L) for d in (1, 2, 3)
                        for L in range(1, 6 if d < 3 else 5)]),
       _COUPLING, _COUPLING, _COUPLING)
def test_hopping_matrix_matches_delta_loop(shape, t, t_prime, mu):
    # the sum of lattice shifts adds the terms of each entry in the order of
    # the delta loop, so the two agree bit for bit, signed zeros included
    d, L = shape
    spec = LatticeSpec(d=d, L=L)
    p = ModelParams(t=t, t_prime=t_prime, mu=mu)
    T, ref = site_hopping_matrix(spec, p), hopping_reference(spec, p)
    assert T.dtype == ref.dtype == np.float64
    assert np.array_equal(T, ref) and T.tobytes() == ref.tobytes()


def test_hopping_matrix_entries():
    spec = LatticeSpec(d=1, L=4)
    T = site_hopping_matrix(spec, ModelParams(t=1.0, mu=0.0))
    assert T[site_index(spec, (0,)), site_index(spec, (1,))] == -1.0
    assert T[site_index(spec, (0,)), site_index(spec, (2,))] == 0.0
    s2 = LatticeSpec(d=2, L=4)
    T2 = site_hopping_matrix(s2, ModelParams(t=0.0, t_prime=0.5, mu=0.0))
    assert T2[site_index(s2, (0, 0)), site_index(s2, (1, 1))] == -0.5


def test_hopping_matrix_hermitian_and_guard():
    spec = LatticeSpec(d=2, L=3)
    T = site_hopping_matrix(spec, ModelParams(t=0.7, t_prime=-0.3, mu=0.1))
    np.testing.assert_allclose(T, T.T)
    # t' alone gives no hopping in d = 1
    p = ModelParams(t=0.0, t_prime=1.0, mu=0.2)
    T = site_hopping_matrix(LatticeSpec(d=1, L=4), p)
    np.testing.assert_array_equal(T, -0.2 * np.eye(4))


@pytest.mark.parametrize("kwargs", [
    {"beta": math.nan}, {"beta": math.inf}, {"beta": 0.0}, {"t": math.inf},
    {"t_prime": math.nan}, {"mu": -math.inf},
], ids=["beta_nan", "beta_inf", "beta_zero", "t_inf", "t_prime_nan",
        "mu_minus_inf"])
def test_model_params_refuse_non_finite(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ModelParams(**kwargs)


def dispersion_reference(k, params: ModelParams, d: int, shifts=()) -> complex:
    """Scalar E at one momentum k, with complex shifts z*e_p added in, by
    cmath: the independent reference for model.dispersion_grid.

    shifts is a sequence of (z, axis) pairs; several shifts on the same axis
    accumulate, which the iterated contour formula requires.
    """
    k = list(float(c) for c in k)
    if len(k) != d:
        raise ValueError(f"momentum has {len(k)} components, expected {d}")
    args = [complex(c) for c in k]
    for z, p in shifts:
        if not 0 <= p < d:
            raise ValueError(f"shift axis {p} outside 0..{d - 1}")
        args[p] += complex(z)
    E = -2.0 * params.t * sum(cmath.cos(a) for a in args)
    if d >= 2 and params.t_prime != 0.0:
        E += -4.0 * params.t_prime * sum(
            cmath.cos(args[j]) * cmath.cos(args[l])
            for j in range(d) for l in range(j + 1, d))
    E -= params.mu
    if not shifts and abs(E.imag) == 0.0:
        return complex(E.real)
    return E


def test_dispersion_values():
    p = ModelParams(t=1.0, mu=0.0)
    assert dispersion_reference((0.0,), p, 1) == -2.0
    v = dispersion_reference((np.pi, np.pi), ModelParams(t=1.0, t_prime=0.5, mu=0.2), 2)
    assert abs(v - 1.8) < 1e-14
    v = dispersion_reference((0.0,), p, 1, shifts=((0.3j, 0),))
    assert abs(v - (-2.0 * math.cosh(0.3))) < 1e-14
    assert abs(v.imag) == 0.0
    with pytest.raises(ValueError):
        dispersion_reference((0.0,), p, 1, shifts=((0.1j, 1),))


_SHIFT = st.builds(complex, st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0))


@settings(max_examples=60)
@given(st.sampled_from([(1, 1), (1, 2), (1, 5), (1, 6), (2, 2), (2, 3),
                        (3, 2)]),
       st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.data())
def test_dispersion_grid_matches_scalar_reference(shape, t, t_prime, mu, data):
    # the vectorized dispersion behind every covariance, strip guard and
    # contour node against the scalar cmath reference, unshifted, with
    # several shifts summed on one axis and with a stack of shifts on it
    d, L = shape
    spec = LatticeSpec(d=d, L=L)
    p = ModelParams(t=t, t_prime=t_prime, mu=mu,
                    beta=data.draw(st.floats(0.3, 3.0)))
    axis = data.draw(st.integers(0, d - 1))
    shifts = ([(z, axis) for z in data.draw(st.lists(_SHIFT, max_size=2))]
              + data.draw(st.lists(st.tuples(_SHIFT, st.integers(0, d - 1)),
                                   max_size=2)))
    shift = np.zeros(d, dtype=complex)
    for z, p_ax in shifts:
        shift[p_ax] += z
    w = data.draw(st.lists(_SHIFT, min_size=1, max_size=3))
    ks = momentum_grid(spec)
    for z, s in ((None, ()), (shift, shifts)):
        np.testing.assert_allclose(
            dispersion_grid(spec, p, z),
            [dispersion_reference(k, p, d, s) for k in ks], rtol=1e-14,
            atol=1e-14)
    stacked = dispersion_grid(spec, p, shift + np.outer(w, np.eye(d)[axis]))
    assert stacked.shape == (len(w), len(ks))
    for j, wj in enumerate(w):
        np.testing.assert_allclose(
            stacked[j],
            [dispersion_reference(k, p, d, shifts + [(wj, axis)]) for k in ks],
            rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("d,L", [(1, 4), (1, 5), (1, 6), (1, 8), (2, 4),
                                 (2, 6), (2, 8), (3, 4), (3, 5), (3, 8)])
def test_strip_edge_of_the_decay_base(d, L):
    # the shift i log F along axis p moves E_k by i sinh(log F) sin k_p
    # (2t + 4t' sum_{l != p} cos k_l), and sinh(log F) = (pi/(2 beta))/(2A)
    # with A = |t| + 2(d-1)|t'|: |Im E| reaches pi/(2 beta) where sin k_p = 1,
    # on the grid when L = 0 mod 4, and stays below it elsewhere
    spec = LatticeSpec(d=d, L=L)
    for t_prime in (0.0, 0.3, 0.5):
        for beta in (0.5, 1.0, 4.0):
            p = ModelParams(t_prime=t_prime, beta=beta)
            edge = math.pi / (2 * beta)
            log_F = math.log(theorem_decay_base(p, d))
            for axis in range(d):
                E = dispersion_grid(spec, p, 1j * log_F * np.eye(d)[axis])
                worst = np.abs(E.imag).max()
                if L % 4 == 0:
                    assert worst == pytest.approx(edge, rel=1e-12, abs=0.0)
                else:
                    assert worst <= edge


@pytest.mark.parametrize("d,L,t,tp,mu", [
    (1, 4, 1.0, 0.0, 0.3),
    (2, 2, 1.0, 0.4, 0.0),
    (1, 1, 1.0, 0.0, 0.0),
    (2, 3, 0.8, -0.2, 0.5),
    (3, 8, 1.0, 0.3, 0.2),  # the largest lattice CI verifies, under the guard
])
def test_fourier_consistency(d, L, t, tp, mu):
    dev = check_fourier_consistency(LatticeSpec(d=d, L=L),
                                    ModelParams(t=t, t_prime=tp, mu=mu))
    assert dev <= 1e-10


def test_fourier_consistency_single_mode():
    # L = 1: E_0 = -2t - mu is the whole 1x1 matrix
    spec = LatticeSpec(d=1, L=1)
    p = ModelParams(t=0.7, mu=0.4)
    T = site_hopping_matrix(spec, p)
    assert abs(T[0, 0] - (-2 * 0.7 - 0.4)) < 1e-14


@pytest.mark.parametrize("X,Y,Xi,Phi", [
    (((0,),), ((0,), (1,)), (UP,), (UP, DOWN)),
    (((0,),), ((0,),), (UP, DOWN), (UP,)),
    (((0,),), ((0,),), (UP,), ()),
    (((0,), (1,)), ((0,),), (UP,), (UP,)),
])
def test_lambda_entry_refuses_lists_of_other_lengths(X, Y, Xi, Phi):
    # every list must carry m_hat entries, as fock.query demands of the same
    # lists, or the lambda term would be built from zipped, truncated lists
    lam = LambdaCoefficients(m_hat=1)
    with pytest.raises(ValueError, match="m_hat = 1"):
        lam.add(X, Y, Xi, Phi, 0.1)
    assert lam.entries == {}


def test_hermiticity_validation():
    u = InteractionCoefficients()
    u.add(2, ((((0,), (0,))), (UP, DOWN), (UP, DOWN)), 0.5 + 0.2j)
    with pytest.raises(HermiticityError):
        u.validate_hermiticity()
    u.add(2, ((((0,), (0,))), (UP, DOWN), (UP, DOWN)), -0.2j)  # now real
    u.validate_hermiticity()


def test_restrict_interaction_reduces_and_rejects_aliases():
    u = InteractionCoefficients()
    u.add(1, (((3,),), (UP,), (UP,)), 1.0)
    r = restrict_interaction(u, LatticeSpec(d=1, L=4))
    assert (((-1,),), (UP,), (UP,)) in r.orders[1]
    u2 = InteractionCoefficients()
    u2.add(2, (((5,), (0,)), (UP, UP), (UP, UP)), 1.0)
    r2 = restrict_interaction(u2, LatticeSpec(d=1, L=4))
    assert (((1,), (0,)), (UP, UP), (UP, UP)) in r2.orders[2]
    u3 = InteractionCoefficients()
    u3.add(1, (((1,),), (UP,), (UP,)), 1.0)
    u3.add(1, (((5,),), (UP,), (UP,)), 1.0)
    with pytest.raises(ValueError):
        restrict_interaction(u3, LatticeSpec(d=1, L=4))


def test_restrict_hubbard_is_L_independent():
    u = hubbard_interaction(0.7, d=1)
    for L in (1, 2, 4, 8):
        r = restrict_interaction(u, LatticeSpec(d=1, L=L))
        assert r.orders == u.orders


def test_interaction_norms():
    chain4 = LatticeSpec(d=1, L=4)
    # single order-1 term: norm is |c|
    u = InteractionCoefficients()
    u.add(1, (((0,),), (UP,), (UP,)), -2.5)
    assert interaction_norms(u, chain4) == {1: 2.5}
    assert interaction_norms(InteractionCoefficients(), chain4) == {}
    # hubbard: pinned spin up on slot 1 collects the single entry
    hub = hubbard_interaction(0.3, d=1)
    assert interaction_norms(hub, chain4) == {2: pytest.approx(0.3)}
    # site 4 is site 0 of the L = 4 chain: the finite-lattice norm sums both
    u.add(1, (((4,),), (UP,), (DOWN,)), 0.5)
    u.add(1, (((4,),), (DOWN,), (UP,)), 0.5)
    assert interaction_norms(u, chain4) == {1: 3.0}


def test_spin_field_interaction():
    b = 0.8
    u = spin_field_interaction({(0,): (0.0, 0.0, b)})
    table = u.orders[1]
    assert table[(((0,),), (UP,), (UP,))] == pytest.approx(b / 2)
    assert table[(((0,),), (DOWN,), (DOWN,))] == pytest.approx(-b / 2)
    assert (((0,),), (UP,), (DOWN,)) not in table
    u.validate_hermiticity()
    ux = spin_field_interaction({(0,): (0.3, 0.4, 0.0)})
    ux.validate_hermiticity()
    with pytest.raises(ValueError):
        spin_field_interaction({(0,): (0.1 + 0.2j, 0, 0)})


def test_spin_spin_interaction_structure():
    w0 = 0.4
    u = spin_spin_interaction({(0,): w0}, d=1, L=4)
    # quadratic correction: (w0/4) sum_a (P^a P^a) = (3 w0/4) Id in spin
    # space, one entry per window site since it is site-independent
    for site in ((0,), (1,), (-1,), (-2,)):
        assert u.orders[1][((site,), (UP,), (UP,))] == pytest.approx(3 * w0 / 4)
        assert u.orders[1][((site,), (DOWN,), (DOWN,))] == pytest.approx(3 * w0 / 4)
    with pytest.raises(ValueError):
        spin_spin_interaction({(0,): w0}, d=1)
    # quartic term present with both diagonal and spin-flip components
    assert u.orders[2][(((0,), (0,)), (UP, UP), (UP, UP))] == pytest.approx(w0 / 4)
    assert u.orders[2][(((0,), (0,)), (UP, DOWN), (DOWN, UP))] == pytest.approx(w0 / 2)
    u.validate_hermiticity()


# --- anti-symmetrization -----------------------------------------------------

def test_antisymmetrize_order1_is_diagonal():
    spec = LatticeSpec(d=1, L=2)
    g = {(((1,),), (UP,), (DOWN,)): 0.7 + 0.1j}
    f = antisymmetrize(g, spec, 1)
    a = mode_index(spec, (1,), UP)
    b = mode_index(spec, (1,), DOWN)
    assert f[a, b] == pytest.approx(0.7 + 0.1j)
    assert np.count_nonzero(f) == 1


def test_antisymmetrize_sign_equivariance(rng):
    spec = LatticeSpec(d=1, L=2)
    g = _random_order2_table(spec, rng)
    f = antisymmetrize(g, spec, 2)
    n = spec.n_modes
    idx = rng.integers(0, n, size=(100, 4))
    for a, b, c, d in idx:
        assert f[a, b, c, d] == pytest.approx(-f[b, a, c, d], abs=1e-12)
        assert f[a, b, c, d] == pytest.approx(-f[a, b, d, c], abs=1e-12)


def test_antisymmetrize_rejects_large_order():
    with pytest.raises(ValueError):
        antisymmetrize({}, LatticeSpec(d=1, L=1), 3)


# --- smallness ---------------------------------------------------------------

def test_decay_base_values(params):
    assert decay_base(params, 1, 0.0) == pytest.approx(1.0)
    # frozen from a 40-digit evaluation of the closed form
    assert decay_base(ModelParams(t=1.0), 1, math.pi / 2) == pytest.approx(
        2.056952438710966, rel=1e-12)
    rs = np.linspace(0.1, 3.0, 15)
    vals = [decay_base(params, 1, r) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(GuardError):
        decay_base(ModelParams(t=0.0), 1, 1.0)
    # r/(2A) past 1e154 squares to inf: F would read inf
    with pytest.raises(GuardError, match="decay base overflows"):
        decay_base(ModelParams(t=1e-300), 1, 1.0)
    # F(pi/(2 beta)) = 1 + 1e-300 rounds to 1: K has no floating value
    with pytest.raises(GuardError, match="rounds to 1.0"):
        geometric_sum_factor(ModelParams(t=1e300), 1)


def test_check_smallness_zero_interaction(params, chain4):
    u = InteractionCoefficients()
    for R in (0.1, 0.5, 0.9):
        rep = check_smallness(u, params, chain4, R=R)
        assert rep.satisfied and rep.lhs == 0.0


def test_check_smallness_general_lhs(params, chain4):
    # l = 1 and l = 2 terms: lhs collects 1*16*||U_1|| + 2*256*||U_2||
    u = spin_field_interaction({(0,): (0.0, 0.0, 4e-4)})
    u.add(2, (((0,), (0,)), (UP, DOWN), (UP, DOWN)), 5e-6)
    rep = check_smallness(u, params, chain4)
    assert rep.variant == "general" and rep.R == 0.5
    assert rep.lhs == pytest.approx(16 * 2e-4 + 512 * 5e-6, rel=1e-12)
    # asked for explicitly, the on-site hypothesis refuses it
    with pytest.raises(GuardError, match="pure on-site"):
        check_smallness(u, params, chain4, variant="hubbard")


def test_check_smallness_hubbard_rhs(params, chain4):
    hub = hubbard_interaction(1e-5, d=1)
    rep = check_smallness(hub, params, chain4)
    assert rep.variant == "hubbard"
    # asked for explicitly, the general sum reads 2 * 16^2 * |U|
    general = check_smallness(hub, params, chain4, variant="general")
    assert general.lhs == pytest.approx(512 * 1e-5, rel=1e-12)
    # frozen from a 40-digit evaluation of (108 beta)^-1 ((F^a+1)/(F^a-1))^-1
    assert rep.rhs == pytest.approx(1.9546924557624060e-04, rel=1e-12)
    assert rep.satisfied


def test_smallness_threshold_beta_scaling():
    # rhs * beta^{d+1} stays within a bounded ratio over beta in [1, 8]
    vals = []
    for beta in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
        p = ModelParams(t=1.0, mu=0.0, beta=beta)
        rep = check_smallness(hubbard_interaction(1e-9), p,
                              LatticeSpec(d=1, L=4))
        vals.append(rep.rhs * beta**2)
    assert max(vals) / min(vals) < 10.0


# --- model files -------------------------------------------------------------

@pytest.mark.parametrize("u", [
    hubbard_interaction(0.25, d=1),
    # order 1 at a non-origin and at a negative site
    spin_field_interaction({(1,): (0.3, -0.2, 0.5), (-1,): (0.0, 0.4, -0.1)}),
    density_density_interaction({1: {(((2,),), (UP,)): -0.3},
                                 2: {(((1,), (0,)), (UP, DOWN)): 0.4}}),
    spin_spin_interaction({(0,): 0.3, (1,): -0.2}, d=1, L=4),
], ids=["hubbard", "spin_field", "density_density", "spin_spin_w0"])
def test_model_roundtrip(u, tmp_path, params, chain4):
    path = tmp_path / "model.json"
    save_model(path, chain4, params, u)
    spec2, params2, u2 = load_model(path)
    assert spec2 == chain4 and params2 == params
    assert u2.orders == u.orders


def test_model_file_resave_is_byte_identical(tmp_path):
    src = Path(__file__).resolve().parent.parent / "models" / "hubbard_chain_L4.json"
    out = tmp_path / "resaved.json"
    save_model(out, *load_model(src))
    assert out.read_bytes() == src.read_bytes()


def test_model_file_rejects_hermiticity_violation(tmp_path, params, chain4):
    data = model_to_dict(chain4, params, hubbard_interaction(0.25, d=1))
    data["interaction"][0]["entries"][0]["im"] = 0.3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(HermiticityError) as err:
        load_model(path)
    assert "order 2 entry" in str(err.value)


def test_model_file_rejects_order1_entry_with_two_sites(params, chain4):
    # an order-1 entry carries one site and one spin pair, like any order l
    # carries l; extra sites are refused, not dropped
    data = model_to_dict(chain4, params,
                         spin_field_interaction({(1,): (0.0, 0.0, 0.4)}))
    entry = data["interaction"][0]["entries"][0]
    entry["X"].append([2])
    with pytest.raises(ModelFileError, match="order 1 entry must carry"):
        model_from_dict(data)


def test_model_file_errors(tmp_path):
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFileError):
        load_model(bad)
    with pytest.raises(ModelFileError):
        model_from_dict({"d": 1})


def test_lattice_terms_translate_anchored_entries():
    spec = LatticeSpec(d=1, L=4)
    terms = lattice_terms(hubbard_interaction(0.3, d=1), spec)
    assert len(terms) == 4
    sites = sorted(t[1][0] for t in terms)
    assert sites == [(0,), (1,), (2,), (3,)]
    # an entry written at site 5 is read at site 1 of the L = 4 chain
    u, u5 = InteractionCoefficients(), InteractionCoefficients()
    u.add(1, (((1,),), (UP,), (DOWN,)), 0.2)
    u5.add(1, (((5,),), (UP,), (DOWN,)), 0.2)
    assert lattice_terms(u5, spec) == lattice_terms(u, spec)


@settings(max_examples=30)
@given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
def test_example_interactions_hermitian(u_val, b_val):
    hub = hubbard_interaction(u_val, d=1)
    hub.validate_hermiticity()
    fld = spin_field_interaction({(0,): (b_val, 0.5 * b_val, -b_val)})
    fld.validate_hermiticity()
    ss = spin_spin_interaction({(0,): u_val, (1,): b_val}, d=1, L=4)
    ss.validate_hermiticity()


def test_restrict_pointwise_convergence():
    # finite support: once the window contains it, restriction is the identity
    u = InteractionCoefficients()
    u.add(2, (((2,), (0,)), (UP, DOWN), (UP, DOWN)), 0.4)
    u.add(1, (((-1,),), (UP,), (UP,)), 0.7)
    for L in (6, 8, 12):
        r = restrict_interaction(u, LatticeSpec(d=1, L=L))
        assert r.orders == u.orders


def test_cancelling_entries_prune_order():
    u = InteractionCoefficients()
    u.add(2, ((((0,), (0,))), (UP, DOWN), (UP, DOWN)), 1.0)
    u.add(2, ((((0,), (0,))), (UP, DOWN), (UP, DOWN)), -1.0)
    assert u.orders == {}
    assert u.hubbard_coupling() is None
