"""Finite-dimensional Grassmann calculus over the space-time index set.

Monomials live in a canonical normal form: all barred generators first, then
all unbarred, each block in ascending global index order, with the sign of the
reordering tracked explicitly.  Gaussian expectations of canonical monomials
are determinants of the covariance sampled at the barred/unbarred indices.
The compiled subset plans below are the one routine that evaluates them; a
single monomial is the plan of one seed and no vertices.  The Berezin engine
instead expands the Gaussian weight literally and serves as the independent
cross-check of the plan's sign and index conventions.  The expanded weight is
a dense array indexed by (barred mask, unbarred mask): each binomial of the
exponential is one array update whose signs come from a popcount-parity
table, and G^{-1} is the engine's only linear algebra.  The weight of a
covariance is cached by the content of G, so repeated integrals against one G
expand it once.  `GrassmannPolynomial` keeps the monomial-by-monomial product
that the dense expansion reproduces.

The Schwinger engine sums Gaussian expectations over all vertex subsets.  The
combinatorics (which subsets survive, with which sign) do not depend on G, so
they are compiled once into a plan: per (subset size, degree) a row index
array, a column index array and signed coefficients.  A plan is evaluated with
one stacked determinant per group, at one covariance or at a stack of them.
The plan's partition sum is cross-checked by fock.transfer_partition, the
same grid integral as an exact trace of transfer matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, covariance_matrix
from .lattice import LatticeSpec, TimeGrid, spacetime_index
from .model import (
    GuardError,
    InteractionCoefficients,
    ModelParams,
    lambda_terms,
    lattice_terms,
)

MAX_WICK_GENERATORS = 24
# the dense Berezin weight holds 4^n complex entries: 16 MiB at the cap, where
# the nonzero ones are the C(20, 10) = 184756 terms of the polynomial
MAX_BEREZIN_GENERATORS = 10
MAX_INSTANCES = 16


@dataclass(frozen=True)
class GrassmannIndexSpace:
    """The N = 2 L^d beta*h generator triples (site, spin, grid time), doubled
    into barred and unbarred families, in the global space-time order."""

    spec: LatticeSpec
    grid: TimeGrid

    def __post_init__(self):
        if self.n > MAX_WICK_GENERATORS:
            raise GuardError(f"{self.n} generators exceed the "
                             f"{MAX_WICK_GENERATORS}-generator guard")
        # beta*h even and 2L^d even make N = 0 mod 4, so the Gaussian
        # normalization sign (-1)^{N(N-1)/2} is +1.
        if self.n % 4:
            raise GuardError(f"{self.n} generators: the index space needs a "
                             "multiple of 4 (even beta*h)")

    @property
    def n(self) -> int:
        return self.spec.n_modes * self.grid.n_points

    def index(self, site, spin: int, time_idx: int) -> int:
        return spacetime_index(self.spec, self.grid, site, spin, time_idx)


# ---------------------------------------------------------------------------
# canonical monomials as (barred mask, unbarred mask, coefficient)
# ---------------------------------------------------------------------------

def _seq_to_mask(seq) -> tuple[int, int] | None:
    """Mask and reordering sign of a generator sequence; None on repeats."""
    mask = 0
    sign = 1
    for i in seq:
        i = int(i)
        bit = 1 << i
        if mask & bit:
            return None
        # generators already placed with larger index must jump over this one
        above = (mask >> (i + 1)).bit_count()
        if above % 2:
            sign = -sign
        mask |= bit
    return mask, sign


def _merge_sign(m1: int, m2: int) -> int:
    """Parity of interleaving block m2 after block m1 into ascending order."""
    sign = 1
    m = m2
    while m:
        i = (m & -m).bit_length() - 1
        if (m1 >> (i + 1)).bit_count() % 2:
            sign = -sign
        m &= m - 1
    return sign


def monomial(barred, unbarred, coeff=1.0):
    """Canonical (bmask, umask, coeff) of coeff * psibar_{b1}..psi_{u_k} in the
    written order; returns None when a generator repeats."""
    b = _seq_to_mask(barred)
    u = _seq_to_mask(unbarred)
    if b is None or u is None:
        return None
    (bm, bs), (um, us) = b, u
    c = complex(coeff) * bs * us
    return (bm, um, c)


def monomial_product(t1, t2):
    """Product of two canonical monomials, or None when it vanishes."""
    b1, u1, c1 = t1
    b2, u2, c2 = t2
    if (b1 & b2) or (u1 & u2):
        return None
    sign = 1
    # barred block of t2 moves left past the unbarred block of t1
    if (b2.bit_count() * u1.bit_count()) % 2:
        sign = -sign
    sign *= _merge_sign(b1, b2) * _merge_sign(u1, u2)
    return (b1 | b2, u1 | u2, c1 * c2 * sign)


# ---------------------------------------------------------------------------
# brute-force Berezin engine
# ---------------------------------------------------------------------------

class GrassmannPolynomial:
    """Sparse polynomial over canonical monomials, keyed by mask pairs."""

    def __init__(self):
        self.terms: dict[tuple[int, int], complex] = {}

    def add(self, bmask: int, umask: int, coeff):
        coeff = complex(coeff)
        if coeff == 0:
            return
        key = (bmask, umask)
        new = self.terms.get(key, 0.0 + 0.0j) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def one(cls):
        p = cls()
        p.add(0, 0, 1.0)
        return p

    @classmethod
    def from_monomial(cls, barred, unbarred, coeff=1.0):
        p = cls()
        t = monomial(barred, unbarred, coeff)
        if t is not None:
            p.add(t[0], t[1], t[2])
        return p

    def __mul__(self, other):
        out = GrassmannPolynomial()
        for (b1, u1), c1 in self.terms.items():
            for (b2, u2), c2 in other.terms.items():
                t = monomial_product((b1, u1, c1), (b2, u2, c2))
                if t is not None:
                    out.add(t[0], t[1], t[2])
        return out

    def exp_nilpotent(self):
        """exp of an even polynomial: product over terms of (1 + term)."""
        out = GrassmannPolynomial.one()
        for (b, u), c in sorted(self.terms.items()):
            if (b.bit_count() + u.bit_count()) % 2:
                raise ValueError("exp needs even-degree terms (they commute)")
            binomial = GrassmannPolynomial.one()
            binomial.add(b, u, c)
            out = out * binomial
        return out

    def coefficient(self, bmask: int, umask: int) -> complex:
        return self.terms.get((bmask, umask), 0.0 + 0.0j)


def berezin_gaussian(n: int, f: GrassmannPolynomial, G: np.ndarray) -> complex:
    """Normalized Gaussian integral of f over n generators by literal
    nilpotent expansion of the weight exp(-<psi^t, G^{-1} psibar^t>), G of
    shape (n, n).

    Deliberately independent of Wick determinants: the weight is multiplied
    out binomial by binomial, and the top coefficient of f times it is read
    off.  Only the weight term at the complement (full^b, full^u) of a term
    (b, u) of f reaches the top, so each term of f meets that one term.
    """
    if n > MAX_BEREZIN_GENERATORS:
        raise GuardError(f"Berezin engine limited to {MAX_BEREZIN_GENERATORS} "
                         f"generators, got {n}")
    G = np.ascontiguousarray(G, dtype=np.complex128)
    if G.shape != (n, n):
        raise ValueError(f"covariance of shape {G.shape} for {n} generators")
    full = (1 << n) - 1
    for b, u in f.terms:
        if (b | u) & ~full:
            raise ValueError(f"generator index {(b | u).bit_length() - 1} "
                             f"outside 0..{n - 1}")
    expw, denom = _berezin_weight(n, G.tobytes())
    if denom == 0:
        raise GuardError("singular Gaussian weight")
    num = sum((monomial_product((b, u, c), (full ^ b, full ^ u,
                                            complex(expw[full ^ b, full ^ u])))[2]
               for (b, u), c in f.terms.items()), 0.0 + 0.0j)
    return complex(num / denom)


# keyed by the bytes of G, so a G changed in place gets a fresh expansion; one
# weight takes 16 * 4^n bytes (64 KiB at n = 6, 16 MiB at the 10-generator
# cap), hence the small size
@functools.lru_cache(maxsize=4)
def _berezin_weight(n: int, data: bytes):
    """The expanded weight exp(-<psi^t, G^{-1} psibar^t>) as a read-only
    array w[bmask, umask] of shape (2^n, 2^n), and its top coefficient."""
    Ginv = np.linalg.inv(np.frombuffer(data, dtype=np.complex128).reshape(n, n))
    masks = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        parity ^= (masks >> bit) & 1
    sign = 1.0 - 2.0 * parity   # (-1)^popcount(mask)
    w = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    w[0, 0] = 1.0
    # -<psi^t, G^{-1} psibar^t> = sum_{ij} (G^{-1})_{ij} psibar_j psi_i; the
    # weight is the product of the commuting binomials 1 + (G^{-1})_{ij}
    # psibar_j psi_i, taken in the order of GrassmannPolynomial.exp_nilpotent
    for j in range(n):
        for i in range(n):
            # no barred bit above j is set yet, so the rows b < 2^(j+1) split
            # at bit j hold the whole weight, and the columns split at bit i;
            # the term moves past the unbarred bits below i
            v = w[:2 << j].reshape(2, 1 << j, 1 << (n - 1 - i), 2, 1 << i)
            src, dst = v[0, :, :, 0], v[1, :, :, 1]
            c = Ginv[i, j] * sign[:1 << i]
            # the complex product in real arithmetic, as Python's complex
            # multiply forms it (numpy's may fuse it into FMAs)
            dst.real += src.real * c.real - src.imag * c.imag
            dst.imag += src.real * c.imag + src.imag * c.real
    w.flags.writeable = False
    return w, complex(w[-1, -1])


# ---------------------------------------------------------------------------
# interaction vertices on the time grid
# ---------------------------------------------------------------------------

def _time_slices(space: GrassmannIndexSpace, X, Y, Xi, Phi, coeff):
    """For each grid time t the canonical monomial of -(coeff/h)
    psibar_{x1 xi1 t}..psibar_{xl xil t} psi_{yl phil t}..psi_{y1 phi1 t},
    None when a generator repeats."""
    for t in range(space.grid.n_points):
        yield monomial([space.index(x, s, t) for x, s in zip(X, Xi)],
                       [space.index(y, s, t) for y, s in zip(Y, Phi)][::-1],
                       -coeff / space.grid.h)


def build_vertices(space: GrassmannIndexSpace,
                   u: InteractionCoefficients | None,
                   lam: dict | None = None,
                   interaction_sites=None) -> list:
    """The canonical vertex monomials, one per interaction or lambda term
    (X, Y, Xi, Phi, c) and grid time: the time slices of c * V, V = -(1/h)
    sum_t psibar_{x1 xi1 t}..psibar_{xl xil t} psi_{yl phil t}..psi_{y1 phi1 t}.
    lam is a coupling {query: real value}, its terms model.lambda_terms."""
    terms = []
    if u is not None:
        terms = [term for term in lattice_terms(u, space.spec)
                 if interaction_sites is None
                 or all(x in interaction_sites for x in term[0])]
    if lam is not None:
        terms += lambda_terms(lam)
    # a repeated generator makes the vertex vanish: a zero monomial
    vertices = [(0, 0, 0.0) if mono is None else mono
                for term in terms for mono in _time_slices(space, *term)]
    if len(vertices) > MAX_INSTANCES:
        raise GuardError(
            f"{len(vertices)} interaction instances exceed the subset-sum "
            f"guard of {MAX_INSTANCES}; shrink the grid or the support")
    return vertices


def observable_monomials(space: GrassmannIndexSpace, q) -> list:
    """The canonical monomials of V^{m}_{h, X, Y, Xi, Phi} of the query q: one
    per grid time, each weighted by -1/h."""
    return [mono for mono in _time_slices(
        space, q.x_sites, q.y_sites, q.xi_spins, q.phi_spins, 1.0)
        if mono is not None]


@dataclass(frozen=True)
class _SubsetPlan:
    """The subset sums of a seed set, compiled: each group holds the surviving
    subsets of one size `depth` whose monomials have degree k, as row and
    column index arrays (count, k) and signed coefficients (count,)."""

    depths: int     # V + 1 coefficients per series
    groups: tuple   # (depth, rows, cols, coeffs)


def _subset_plan(seeds, monomials) -> _SubsetPlan:
    """Walk seed * prod_{v in S} monomial_v over all subsets S once.

    Each surviving product contributes its coefficient times (-1)^{k(k-1)/2},
    the sign of the written-order barred block of a canonical monomial
    relative to the determinant convention; products of mismatched barred and
    unbarred degree integrate to zero and are dropped here.  The masks of a
    group become its index arrays at the end, in one array operation each.
    """
    V = len(monomials)
    groups = {}

    def recurse(state, start, depth):
        bm, um, c = state
        k = bm.bit_count()
        if k == um.bit_count():
            bms, ums, coeffs = groups.setdefault((depth, k), ([], [], []))
            bms.append(bm)
            ums.append(um)
            coeffs.append(-c if (k * (k - 1) // 2) % 2 else c)
        for i in range(start, V):
            nxt = monomial_product(state, monomials[i])
            if nxt is not None:
                recurse(nxt, i + 1, depth + 1)

    for seed in seeds:
        recurse(seed, 0, 0)
    return _SubsetPlan(V + 1, tuple(
        (depth, _mask_indices(bms, k), _mask_indices(ums, k),
         np.array(coeffs, dtype=np.complex128))
        for (depth, k), (bms, ums, coeffs) in sorted(groups.items())))


def _mask_indices(masks: list, k: int) -> np.ndarray:
    """(len(masks), k) array of the set bits of each k-bit mask, ascending."""
    masks = np.array(masks, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(int(masks.max()).bit_length())) & 1
    return np.nonzero(bits)[1].reshape(len(masks), k)


def _evaluate_plan(plan: _SubsetPlan, G: np.ndarray) -> np.ndarray:
    """coefficients[..., m]: the planned subset sums of size m at G of shape
    (n, n), or at each covariance of a stack of shape (B, n, n); read-only."""
    out = np.zeros(G.shape[:-2] + (plan.depths,), dtype=np.complex128)
    for depth, rows, cols, coeffs in plan.groups:
        sub = G[..., rows[:, :, None], cols[:, None, :]]
        out[..., depth] += np.linalg.det(sub) @ coeffs
    out.flags.writeable = False
    return out


def _series_value(c: np.ndarray, eta: complex):
    """The power series in eta with coefficients c on the last axis, at eta:
    a complex, or one value per series of a stack."""
    value = c @ np.power(complex(eta), np.arange(c.shape[-1]))
    return complex(value) if c.ndim == 1 else value


class SchwingerEngine:
    """Numerator/denominator of the Schwinger function as exact polynomials in
    eta; one engine serves the partition checks, the Taylor coefficients and
    the correlation values.  Every series is a read-only array whose last
    axis holds the coefficients of eta^0, eta^1, ...

    The subset structure of the vertices is compiled into plans once per
    engine (one for the denominator, one per observable) and evaluated at the
    engine's covariance, or at a stack G of shape (B, n, n) of covariances on
    the same index space, such as the shifted ones of a contour quadrature.
    """

    def __init__(self, spec: LatticeSpec, params: ModelParams, grid: TimeGrid,
                 u: InteractionCoefficients | None, interaction_sites=None):
        self.spec, self.params, self.grid = spec, params, grid
        self.space = GrassmannIndexSpace(spec, grid)
        self.G = covariance_matrix(CovarianceSpec(spec, params), grid)
        self.G.flags.writeable = False  # the cached series read it
        self.vertices = build_vertices(self.space, u,
                                       interaction_sites=interaction_sites)
        self._plans = {}
        self._series = {}

    def _plan(self, q=None):
        """The compiled plan of the denominator, or of the query q."""
        if q not in self._plans:
            seeds = ([(0, 0, 1.0 + 0.0j)] if q is None
                     else observable_monomials(self.space, q))
            self._plans[q] = _subset_plan(seeds, self.vertices)
        return self._plans[q]

    def _evaluate(self, q, G):
        """The series of the plan of q (None: the partition function) at the
        engine's covariance, read-only and computed once per plan, or one
        series per covariance of a stack G."""
        if G is not None:
            return _evaluate_plan(self._plan(q), G)
        if q not in self._series:
            self._series[q] = _evaluate_plan(self._plan(q), self.G)
        return self._series[q]

    def denominator(self, G: np.ndarray | None = None) -> np.ndarray:
        """The partition-function series at the engine's covariance (computed
        once), or one series per covariance of a stack G."""
        return self._evaluate(None, G)

    def partition(self, eta: complex = 1.0, G: np.ndarray | None = None):
        """The discretized partition-function ratio at eta: the denominator
        series evaluated, a complex, or one value per covariance of a stack G."""
        return _series_value(self.denominator(G), eta)

    def numerator(self, q, G: np.ndarray | None = None) -> np.ndarray:
        """The series of the query q at the engine's covariance (computed
        once per query), or one series per covariance of a stack G; all
        observable seeds of q share one plan."""
        return self._evaluate(q, G)

    def schwinger_series(self, q, m_max: int) -> np.ndarray:
        """Taylor coefficients b_0..b_{m_max} of the Schwinger function of the
        query q around eta = 0 (sites of the interaction may be pinned through
        the engine's interaction_sites), by exact power-series division of
        the numerator by the denominator."""
        quot = _series_divide(self.numerator(q), self.denominator(), m_max)
        series = np.array([-c / self.params.beta for c in quot])
        series.flags.writeable = False
        return series

    def schwinger_value(self, q, eta: complex = 1.0,
                        G: np.ndarray | None = None):
        """The Schwinger function of the query q at eta: a complex, or one
        value per covariance of a stack G.  Every covariance must keep its
        denominator away from zero."""
        num = self.numerator(q, G)
        d = self.partition(eta, G)
        small = np.abs(d) < 1e-12
        if np.any(small):
            bad = d if G is None else d[np.argmax(small)]
            raise GuardError(
                f"Schwinger denominator {bad} too small at eta={eta}; "
                "the grid is too coarse for the positivity lemma")
        return -_series_value(num, eta) / (self.params.beta * d)

    def correlation(self, q) -> complex:
        """The symmetrized correlation S_{X,Y,Xi,Phi} + S_{Y,X,Phi,Xi} at
        eta = 1 (the -1/beta prefactor lives inside the Schwinger function);
        a self-adjoint query, q.swapped() == q, reads its cached numerator
        twice."""
        return self.schwinger_value(q) + self.schwinger_value(q.swapped())


def _series_divide(num, den, m_max: int) -> list:
    if den[0] == 0:
        raise GuardError("denominator series starts at zero")
    out = []
    for m in range(m_max + 1):
        acc = num[m] if m < len(num) else 0.0 + 0.0j
        for j in range(1, m + 1):
            dj = den[j] if j < len(den) else 0.0 + 0.0j
            acc -= dj * out[m - j]
        out.append(acc / den[0])
    return out
