"""Model parameters, hopping matrix, dispersion, interactions and their norms.

Interactions are stored as sparse maps keyed by (X, Xi, Phi) at every order l,
with X a tuple of l sites.  An order-l coefficient (l >= 2) is anchored: the
last site of X is pinned at the origin, so translation invariance is structural
rather than validated.  Order-1 coefficients keep their absolute site (they
need not be translation invariant).  On the finite lattice an interaction is
restrict_interaction(u, spec); lattice_terms, interaction_norms, onsite_coupling
and check_smallness read u through it, so their callers pass u as stored.
lambda_terms gives the strings of a lambda coupling {query: real value}.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    DOWN,
    SPINS,
    UP,
    LatticeSpec,
    enumerate_sites,
    mode_index,
    momentum_grid,
    periodic_reduce,
    site_grid,
    site_ranks,
)

_SPIN_NAMES = {UP: "up", DOWN: "down"}
_SPIN_FROM_NAME = {"up": UP, "down": DOWN}

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class ModelParams:
    """Hopping amplitudes t, t', chemical potential mu, inverse temperature beta."""

    t: float = 1.0
    t_prime: float = 0.0
    mu: float = 0.2
    beta: float = 1.0

    def __post_init__(self):
        for name, value in (("t", self.t), ("t_prime", self.t_prime),
                            ("mu", self.mu)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


class HermiticityError(ValueError):
    """An interaction entry violates conj(U(X,Xi,Phi)) = U(X,Phi,Xi), or a
    matrix handed to the exact trace is not hermitian."""


class GuardError(ValueError):
    """An input a check cannot run on: past a size cap, outside a theorem's
    hypothesis, or past the precision of a closed form."""


def _entry_name(l: int, key) -> str:
    X, Xi, Phi = key
    return (f"order {l} entry at X={X}, "
            f"Xi={tuple(_SPIN_NAMES[s] for s in Xi)}, "
            f"Phi={tuple(_SPIN_NAMES[s] for s in Phi)}")


class InteractionCoefficients:
    """Sparse multi-body coefficients U_l, hermitian and translation anchored.

    orders maps l -> {(X, Xi, Phi): complex} with X a tuple of l integer site
    tuples and Xi, Phi tuples of l spins; for l >= 2 the last site of X is
    the origin.
    """

    def __init__(self):
        self.orders: dict[int, dict] = {}

    def add(self, l: int, key, value):
        value = complex(value)
        if value == 0:
            return
        if l < 1:
            raise ValueError(f"interaction order must be >= 1, got {l}")
        X, Xi, Phi = key
        X = tuple(tuple(int(c) for c in x) for x in X)
        if len(X) != l or len(Xi) != l or len(Phi) != l:
            raise ValueError(f"order {l} entry must carry l sites and spins")
        if l >= 2 and any(c != 0 for c in X[-1]):
            raise ValueError(
                f"order {l} entries must be anchored: last site of X is "
                f"{X[-1]}, expected the origin")
        key = (X, tuple(int(s) for s in Xi), tuple(int(s) for s in Phi))
        table = self.orders.setdefault(l, {})
        table[key] = table.get(key, 0.0 + 0.0j) + value
        if table[key] == 0:
            del table[key]
        if not table:
            del self.orders[l]

    def validate_hermiticity(self):
        """Check conj(U_l(X,Xi,Phi)) == U_l(X,Phi,Xi) entry by entry."""
        for l, table in self.orders.items():
            for (X, Xi, Phi), value in table.items():
                pv = table.get((X, Phi, Xi), 0.0 + 0.0j)
                if value.conjugate() != pv:
                    raise HermiticityError(
                        f"{_entry_name(l, (X, Xi, Phi))}: conjugate value "
                        f"{value.conjugate()} does not match the swapped-spin "
                        f"entry value {pv}")


def restrict_interaction(u: InteractionCoefficients,
                         spec: LatticeSpec) -> InteractionCoefficients:
    """Reduce every stored coordinate into the centered window mod L.

    Two distinct stored entries that alias onto the same reduced key would make
    the finite-lattice coefficient ambiguous, so that case is rejected.
    """
    out = InteractionCoefficients()
    for l, table in u.orders.items():
        seen = {}
        for key, value in table.items():
            X, Xi, Phi = key
            red = (tuple(periodic_reduce(x, spec.L) for x in X), Xi, Phi)
            if red in seen and seen[red] != key:
                raise ValueError(
                    f"{_entry_name(l, key)} aliases {_entry_name(l, seen[red])} "
                    f"after reduction mod L={spec.L}")
            seen[red] = key
            out.add(l, red, value)
    return out


def onsite_coupling(u: InteractionCoefficients,
                    spec: LatticeSpec) -> float | None:
    """U when the finite-lattice interaction restrict_interaction(u, spec) is
    exactly the on-site Hubbard term, else None: the one reading of whether
    the on-site results apply."""
    orders = restrict_interaction(u, spec).orders
    if set(orders) != {2} or len(orders[2]) != 1:
        return None
    (X, Xi, Phi), value = next(iter(orders[2].items()))
    if (X != ((0,) * len(X[0]),) * 2 or Xi != (UP, DOWN) or Phi != (UP, DOWN)
            or abs(value.imag) > 0):
        return None
    return value.real


def lattice_terms(u: InteractionCoefficients, spec: LatticeSpec):
    """Expand the finite-lattice interaction restrict_interaction(u, spec)
    into per-lattice-site terms.

    Returns (X, X, Xi, Phi, coeff), the string shape of
    fock.CorrelationQuery.pair_terms, with X in canonical Gamma coordinates;
    order >= 2 anchors are translated over the whole lattice, order-1
    entries stay at their site.
    """
    terms = []
    for l, table in sorted(restrict_interaction(u, spec).orders.items()):
        shifts = enumerate_sites(spec) if l >= 2 else [(0,) * spec.d]
        for (X, Xi, Phi), value in sorted(table.items()):
            for y in shifts:
                shifted = tuple(
                    tuple((c + yc) % spec.L for c, yc in zip(x, y)) for x in X)
                terms.append((shifted, shifted, Xi, Phi, value))
    return terms


def lambda_terms(lam: dict) -> list:
    """The strings of Lambda = sum over a coupling {fock.CorrelationQuery:
    real value} of value (O + O^dagger): the union of their pair_terms."""
    return [term for q, value in lam.items() for term in q.pair_terms(value)]


def interaction_norms(u: InteractionCoefficients,
                      spec: LatticeSpec) -> dict[int, float]:
    """{l: ||U_l||} of the finite-lattice interaction restrict_interaction(u,
    spec), where order-1 entries at sites equal mod L share one site."""
    finite = restrict_interaction(u, spec)
    return {l: _interaction_norm(finite, l) for l in finite.orders}


def _interaction_norm(u: InteractionCoefficients, l: int) -> float:
    """The paper-style norm of one table: max over the pinned index j and its
    spin, sum of absolute values over everything else (sites summed with the
    anchor fixed); an order-1 entry pins its site as well."""
    sums: dict[tuple, float] = {}
    for (X, Xi, _Phi), value in u.orders.get(l, {}).items():
        for pin in [(X[0], Xi[0])] if l == 1 else enumerate(Xi):
            sums[pin] = sums.get(pin, 0.0) + abs(value)
    return max(sums.values(), default=0.0)


# ---------------------------------------------------------------------------
# hopping matrix and dispersion relation
# ---------------------------------------------------------------------------

# the Fourier check builds dense n x n hopping and phase matrices: a peak of
# about 160 MiB over the import at the cap, which admits the d = 3, L = 8
# lattice (512 sites) and the d = 1, L = 2048 one
MAX_FOURIER_SITES = 2048


def site_hopping_matrix(spec: LatticeSpec, params: ModelParams) -> np.ndarray:
    """The hopping on sites as a sum of lattice shifts S_v, (S_v)[x, y] = 1
    when x = y + v mod L: -t (S_{-e_j} + S_{+e_j}) for each axis j, -t' S_v
    for each of the four v = +-e_j +-e_k of each axis pair j < k, then -mu 1.

    Shifts that coincide on small lattices (L <= 2, where x+e_j = x-e_j)
    add up.
    """
    sites = site_grid(spec)
    n = len(sites)

    def shift(v) -> np.ndarray:
        S = np.zeros((n, n))
        S[site_ranks(spec, sites + v), np.arange(n)] = 1.0
        return S

    steps = np.eye(spec.d, dtype=int)
    H = np.zeros((n, n))
    for e in steps:
        H += -params.t * (shift(-e) + shift(e))
    for ej, ek in itertools.combinations(steps, 2):
        for sj, sk in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            H += -params.t_prime * shift(sj * ej + sk * ek)
    H += -params.mu * np.eye(n)
    return H


def dispersion_grid(spec: LatticeSpec, params: ModelParams,
                    shift=None) -> np.ndarray:
    """The dispersion E_{k+z} over the full momentum grid, the one used
    everywhere.

    shift is a complex array z of shape (..., d), zero when None; the result
    has shape (..., L^d), one grid of E per leading index of z.
    """
    z = np.zeros(spec.d) if shift is None else np.asarray(shift)
    cos = np.cos(momentum_grid(spec) + z.astype(complex)[..., None, :])
    E = -2.0 * params.t * cos.sum(axis=-1)
    if spec.d >= 2 and params.t_prime != 0.0:
        cross = np.zeros_like(E)
        for j in range(spec.d):
            for l in range(j + 1, spec.d):
                cross = cross + cos[..., j] * cos[..., l]
        E = E - 4.0 * params.t_prime * cross
    return E - params.mu


def check_fourier_consistency(spec: LatticeSpec, params: ModelParams) -> float:
    """Max over k of |E_k - sum_x T(x, 0) e^{-i<k,x>}|, T the site hopping.

    E_k must be the Fourier symbol of the hopping matrix; this ties the two
    independent implementations together.  Refuses more than
    MAX_FOURIER_SITES sites before allocating.
    """
    if spec.n_sites > MAX_FOURIER_SITES:
        raise GuardError(f"{spec.n_sites} sites exceed the "
                         f"{MAX_FOURIER_SITES}-site guard of the Fourier check")
    col = site_hopping_matrix(spec, params)[:, 0]  # the origin has rank 0
    xs = site_grid(spec).astype(float)
    phases = np.exp(-1j * (momentum_grid(spec) @ xs.T))  # (n_k, n_x)
    synth = phases @ col
    return float(np.max(np.abs(dispersion_grid(spec, params) - synth)))


# ---------------------------------------------------------------------------
# example interactions
# ---------------------------------------------------------------------------

def hubbard_interaction(U: float, d: int = 1) -> InteractionCoefficients:
    """On-site Hubbard term U sum_x n_up n_down in the order-2 normal form."""
    origin = (0,) * d
    u = InteractionCoefficients()
    u.add(2, ((origin, origin), (UP, DOWN), (UP, DOWN)), float(U))
    return u


def spin_field_interaction(B: dict) -> InteractionCoefficients:
    """Local magnetic field coupled to the spin operator: order-1 coefficients
    (1/2) sum_a B_x^(a) P^(a)_{xi,phi}.  B maps site tuples to real 3-vectors.
    """
    u = InteractionCoefficients()
    for x, vec in B.items():
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (3,) or np.any(np.abs(vec.imag) > 0):
            raise ValueError(f"field at {x} must be a real 3-vector, got {vec}")
        mat = 0.5 * sum(vec.real[a] * PAULI[a] for a in range(3))
        for xi in SPINS:
            for phi in SPINS:
                u.add(1, ((tuple(x),), (xi,), (phi,)), mat[xi, phi])
    return u


def spin_spin_interaction(w: dict, d: int = 1,
                          L: int | None = None) -> InteractionCoefficients:
    """Spin-spin interaction sum_{x,y} w(x-y) <S_x, S_y>.

    Produces the quadratic on-site correction (w(0)/4) sum_a (P^a P^a)_{xi,phi}
    and the quartic term (w(x1-x2)/4) sum_a P^a_{xi1,phi1} P^a_{xi2,phi2}.
    The quadratic coefficient is site-independent, so a nonzero w(0) needs the
    lattice size L to place one entry on every site of the reduction window.
    """
    u = InteractionCoefficients()
    w = {tuple(int(c) for c in x): v for x, v in w.items()}
    for x, val in w.items():
        if isinstance(val, complex) and val.imag != 0:
            raise ValueError(f"spin-spin coefficient at {x} must be real")
    origin = (0,) * d
    w0 = float(w.get(origin, 0.0))
    if w0:
        if L is None:
            raise ValueError("w(0) != 0 adds a site-independent quadratic "
                             "correction; pass the lattice size L")
        quad = 0.25 * w0 * sum(p @ p for p in PAULI)
        for site in site_grid(LatticeSpec(d, L)) - L // 2:
            for xi in SPINS:
                for phi in SPINS:
                    u.add(1, ((site,), (xi,), (phi,)), quad[xi, phi])
    # quartic part, anchored at x2 = 0; displacement x1 - x2 runs over supp(w)
    for disp, val in w.items():
        val = float(val)
        if val == 0.0:
            continue
        for xi1 in SPINS:
            for xi2 in SPINS:
                for phi1 in SPINS:
                    for phi2 in SPINS:
                        c = 0.25 * val * sum(
                            PAULI[a][xi1, phi1] * PAULI[a][xi2, phi2]
                            for a in range(3))
                        if c != 0:
                            u.add(2, ((disp, origin), (xi1, xi2), (phi1, phi2)), c)
    return u


def density_density_interaction(tables: dict[int, dict]) -> InteractionCoefficients:
    """Density-density interaction from real tables U^dd_l keyed by (X, Xi).

    X is a tuple of l sites, anchored at the origin in its last slot when
    l >= 2.  The normal form inserts prod_j delta_{xi_j,phi_j}.

    No check of the package calls it; it is kept as API because it is the
    builder of the density-density example interaction, which reaches the
    command line only as a model file written by save_model.
    """
    u = InteractionCoefficients()
    for l, table in tables.items():
        for (X, Xi), value in table.items():
            value = complex(value)
            if value.imag != 0:
                raise ValueError("density-density coefficients must be real")
            if any((tuple(X[j]), Xi[j]) == (tuple(X[k]), Xi[k])
                   for j in range(l) for k in range(j + 1, l)):
                raise ValueError(
                    "density-density tables must vanish on coinciding "
                    f"(site, spin) pairs, got X={X}, Xi={Xi}")
            u.add(l, (X, Xi, Xi), value.real)
    return u


# ---------------------------------------------------------------------------
# anti-symmetrization (unique sign-equivariant coefficient tensor)
# ---------------------------------------------------------------------------

def antisymmetrize(g: dict, spec: LatticeSpec, l: int) -> np.ndarray:
    """Anti-symmetrize an order-l lattice table g[(X, Xi, Phi)] into the dense
    tensor f over mode indices, shape (2L^d,)*2l.

    f(pi(X_Xi), tau(Y_Phi)) = sgn(pi) sgn(tau) f(X_Xi, Y_Phi), and contracting f
    against psi*_{x1 xi1}..psi*_{xl xil} psi_{y1 phi1}..psi_{yl phil} reproduces
    the operator written with g.
    """
    if l > spec.n_modes:
        raise ValueError(f"order {l} exceeds the {spec.n_modes} available modes")
    n = spec.n_modes
    f = np.zeros((n,) * (2 * l), dtype=complex)
    base_sign = (-1) ** (l * (l - 1) // 2)
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(l))]
    norm = 1.0 / math.factorial(l) ** 2
    for (X, Xi, Phi), value in g.items():
        modes_x = [mode_index(spec, x, xi) for x, xi in zip(X, Xi)]
        modes_y = [mode_index(spec, x, phi) for x, phi in zip(X, Phi)]
        amp = base_sign * norm * complex(value)
        for p, sp in perms:
            rows = tuple(modes_x[p[i]] for i in range(l))
            for q, sq in perms:
                cols = tuple(modes_y[q[i]] for i in range(l))
                f[rows + cols] += sp * sq * amp
    return f


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def antisym_pinned_norm(f: np.ndarray, l: int) -> float:
    """Left side of the anti-symmetrization norm inequality: max over the first
    creation (resp. annihilation) slot of the l1 mass of f over the rest."""
    n = f.shape[0]
    flat = f.reshape(n, -1)
    first = float(np.max(np.sum(np.abs(flat), axis=1)))
    moved = np.moveaxis(f, l, 0).reshape(n, -1)
    second = float(np.max(np.sum(np.abs(moved), axis=1)))
    return max(first, second)


def table_pinned_norm(g: dict, l: int) -> float:
    """Right side of the norm inequality: max over pinned (x_j, xi_j) or
    (x_j, phi_j) of the summed absolute values of g."""
    best = 0.0
    sums: dict[tuple, float] = {}
    for (X, Xi, Phi), value in g.items():
        for j in range(l):
            sums[(0, j, X[j], Xi[j])] = sums.get((0, j, X[j], Xi[j]), 0.0) + abs(value)
            sums[(1, j, X[j], Phi[j])] = sums.get((1, j, X[j], Phi[j]), 0.0) + abs(value)
    for total in sums.values():
        best = max(best, total)
    return best


def hubbard_antisymmetric_tensor(U: float, spec: LatticeSpec) -> np.ndarray:
    """The explicit -U/4 tensor equivalent to the on-site Hubbard interaction."""
    n = spec.n_modes
    f = np.zeros((n,) * 4, dtype=complex)
    for x in enumerate_sites(spec):
        up, down = mode_index(spec, x, UP), mode_index(spec, x, DOWN)
        for (a, b), s1 in (((up, down), 1), ((down, up), -1)):
            for (c, e), s2 in (((up, down), 1), ((down, up), -1)):
                f[a, b, c, e] = -0.25 * U * s1 * s2
    return f


# ---------------------------------------------------------------------------
# smallness conditions of the two decay theorems
# ---------------------------------------------------------------------------

def decay_base(params: ModelParams, d: int, r: float) -> float:
    """F_{t,t',d}(r) = r/(2A) + sqrt(r^2/(4A^2) + 1), A = |t| + 2(d-1)|t'|."""
    A = abs(params.t) + 2.0 * (d - 1) * abs(params.t_prime)
    if A == 0.0:
        raise GuardError("decay base undefined: |t| + 2(d-1)|t'| == 0")
    x = r / (2.0 * A)
    F = x + math.sqrt(x * x + 1.0)
    if F == math.inf:
        raise GuardError(f"decay base overflows: r/(2A) = {x:.6g} with "
                         f"A = |t| + 2(d-1)|t'| = {A:.6g}")
    return F


def theorem_decay_base(params: ModelParams, d: int) -> float:
    """F = F_{t,t',d}(pi/(2 beta)), the base of every decay envelope."""
    return decay_base(params, d, math.pi / (2.0 * params.beta))


def geometric_sum_factor(params: ModelParams, d: int) -> float:
    """((F^{1/(2 e pi d)} + 1)/(F^{1/(2 e pi d)} - 1))^d at F = F(pi/(2 beta))."""
    g = theorem_decay_base(params, d) ** (1.0 / (2.0 * math.e * math.pi * d))
    if g == 1.0:
        raise GuardError("geometric sum factor undefined: g = F(pi/(2 beta))"
                         f"^(1/(2 e pi d)) rounds to {g}")
    return ((g + 1.0) / (g - 1.0)) ** d


@dataclass(frozen=True)
class SmallnessReport:
    variant: str
    lhs: float
    rhs: float
    satisfied: bool
    R: float | None = None

    def envelope_prefactor(self, m_hat: int) -> float:
        """The envelope at zero distance: 324 on-site, else
        4^(m_hat+1) - m_hat 4^(2 m_hat+1) log(1 - R)."""
        if self.variant == "hubbard":
            return 324.0
        return 4.0**(m_hat + 1) - m_hat * 4.0**(2 * m_hat + 1) * math.log(1.0 - self.R)


def check_smallness(u: InteractionCoefficients, params: ModelParams,
                    spec: LatticeSpec, variant: str | None = None,
                    R: float | None = 0.5) -> SmallnessReport:
    """The smallness hypothesis of the decay theorem that covers the
    finite-lattice interaction restrict_interaction(u, spec): the on-site
    one for the pure on-site Hubbard term, else the general one.  variant
    and R override (model-validate and the benchmark name theirs).

    general: sum_l l 16^l ||U_l||_l < beta^{-1} K^{-d} R with R in (0,1);
    hubbard: |U| <= (108 beta)^{-1} K^{-d}.
    """
    U = onsite_coupling(u, spec)
    if variant is None:
        variant = "general" if U is None else "hubbard"
    if variant == "general":
        K = geometric_sum_factor(params, spec.d)
        if R is None or not 0.0 < R < 1.0:
            raise ValueError("general variant needs R in (0, 1)")
        lhs = sum(l * 16.0**l * norm
                  for l, norm in interaction_norms(u, spec).items())
        rhs = R / (params.beta * K)
        return SmallnessReport("general", lhs, rhs, lhs < rhs, R)
    if variant == "hubbard":
        rhs = hubbard_threshold(params, spec.d)
        if U is None:
            raise GuardError("hubbard variant requires a pure on-site interaction")
        return SmallnessReport("hubbard", abs(U), rhs, abs(U) <= rhs)
    raise ValueError(f"unknown smallness variant {variant!r}")


def hubbard_threshold(params: ModelParams, d: int) -> float:
    """The |U| threshold (108 beta)^{-1} K^{-d} of the on-site decay theorem."""
    return 1.0 / (108.0 * params.beta *
                  geometric_sum_factor(params, d))


# ---------------------------------------------------------------------------
# model description files
# ---------------------------------------------------------------------------

class ModelFileError(ValueError):
    pass


def model_to_dict(spec: LatticeSpec, params: ModelParams,
                  u: InteractionCoefficients) -> dict:
    interaction = []
    for l, table in sorted(u.orders.items()):
        entries = []
        for (X, Xi, Phi), value in sorted(table.items()):
            entries.append({
                "X": [list(x) for x in X],
                "Xi": [_SPIN_NAMES[s] for s in Xi],
                "Phi": [_SPIN_NAMES[s] for s in Phi],
                "re": value.real,
                "im": value.imag,
            })
        interaction.append({"order": l, "entries": entries})
    return {
        "d": spec.d, "L": spec.L,
        "t": params.t, "t_prime": params.t_prime,
        "mu": params.mu, "beta": params.beta,
        "interaction": interaction,
    }


def save_model(path, spec, params, u):
    with open(path, "w") as fh:
        json.dump(model_to_dict(spec, params, u), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(value) -> float:
    """float(value), refusing the NaN and Infinity that json.load accepts, the
    integers past the float range, and the bools and numeric strings float()
    would read as numbers."""
    try:
        number = math.nan if isinstance(value, (bool, str)) else float(value)
    except OverflowError:  # an integer such as 10**400
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"non-finite or non-numeric value {value!r}")
    return number


def _integer(value) -> int:
    """int(value), refusing the bools, numeric strings and non-integral
    numbers int() would read or truncate."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"non-integral or non-numeric value {value!r}")
    return int(value)


def model_from_dict(data: dict):
    try:
        spec = LatticeSpec(d=_integer(data["d"]), L=_integer(data["L"]))
        params = ModelParams(t=_finite(data["t"]),
                             t_prime=_finite(data.get("t_prime", 0.0)),
                             mu=_finite(data["mu"]), beta=_finite(data["beta"]))
        u = InteractionCoefficients()
        for block in data.get("interaction", []):
            l = _integer(block["order"])
            for i, entry in enumerate(block.get("entries", [])):
                X = tuple(tuple(_integer(c) for c in x) for x in entry["X"])
                for x in X:
                    if len(x) != spec.d:
                        raise ValueError(
                            f"order {l} entry {i} (X={X}): site {x} has "
                            f"{len(x)} coordinates, expected d = {spec.d}")
                Xi = tuple(_SPIN_FROM_NAME[s] for s in entry["Xi"])
                Phi = tuple(_SPIN_FROM_NAME[s] for s in entry["Phi"])
                value = complex(_finite(entry["re"]),
                                _finite(entry.get("im", 0.0)))
                u.add(l, (X, Xi, Phi), value)
        restrict_interaction(u, spec)  # refuses entries that alias mod L
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ModelFileError(f"malformed model description: {exc}") from exc
    u.validate_hermiticity()
    return spec, params, u


def load_model(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, or an integer past int()'s digit limit
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data)
