"""Exact Fock-space oracle on numpy alone: Hamiltonians as COO triplets,
thermal traces.

Every operator -- the mode operators, the pieces of H and the observables --
is a FockOperator of canonical COO triplets, made by one assembler that
applies the normal-ordered operator strings of any number of operators to
all basis states in one pass, with the Jordan-Wigner sign in the global mode
order, so every sign is reproducible.  Thermal averages go through the
eigendecomposition of H one conserved-number sector at a time: (N_up,
N_down) when H keeps both counts, else the total N, else the whole space.
One _Layout defines the flat format of the sector blocks, stored row-major
one after another.  Each block of H is filled densely through it, real when
H has no imaginary entry, and diagonalized by its own eigh (eigvalsh for a
spectrum alone).  Given the lattice, diagonalize splits a sector of more
than MOMENTUM_MIN_STATES = 25 states into lattice-momentum blocks when H
commutes with the one-site translation along axis 0 (checked once per H on
its triplets); smaller sectors stay whole.  The momentum eigenvectors are
mapped back into the sector basis, real on a real H, so the rest of the
oracle does not see the split.  Per beta the Eigensystem keeps the thermal
state e^{-beta H} in the same layout, so an expectation is one gather of it
at the in-sector entries of the observable; correlations assembles the
observables of a batch of queries together and takes one gather per query.
A CorrelationQuery is the one m_hat-body observable: its pair_terms are the
strings of O + O^dagger, and a lambda coupling {query: real value} adds
value (O + O^dagger) per query to H.
transfer_partition writes the grid partition ratio of the Grassmann
integral as an exact trace of transfer matrices, Tr[(e^{-H_0/h}
S)^{beta h}]: the slice operator S of one grid time is one _normal_ordered
group of the subsets of its terms that repeat no mode, e^{-H_0/h} is the
thermal state of H_0 at 1/h.  It is the cross-check of the Schwinger
engine's partition series.
Sizes are desk scale by design, and FockSpace, which refuses more than
MAX_MODES modes, is the one size guard.

One BLAS thread per dense Fock call; results do not depend on the core
count.  The eigensolves, the spectra and the thermal products run in
_serial_blas, which sets one thread for the call and restores the earlier
count after it.  The cost falls on the largest blocks: the sigma_x-field
chain at L=6, with N-sectors of up to 924 states, is diagonalized with
one thermal state on the sector path in 0.51-0.58 s against 0.31-0.36 s
on two threads (2-vCPU machine).

What depends on the lattice alone is computed once per lattice, in bounded
caches of read-only values: the occupation counts per mode count, the
sector layouts per dimension, the orbit tables of the translation, and H_0
with its log Tr e^{-beta H_0} per (space, params), which every model on
that lattice shares.  One model slot,
model_system(space, params, u), holds H = H_0 + V and the Eigensystem of
H for the last model asked for.  Its key is the content of the model:
the space, the parameters and a snapshot of u's entries, so a u changed in
place is a new model.  It holds one model at a time and is cleared before
the next is built, so the envelope, the partition ratio, the lambda check
and the CLI rows of one model build and diagonalize H once.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from .lattice import SPINS, LatticeSpec, TimeGrid, mode_index
from .model import (
    GuardError,
    HermiticityError,
    InteractionCoefficients,
    ModelParams,
    lambda_terms,
    lattice_terms,
    site_hopping_matrix,
)

MAX_MODES = 12  # dimension 4096: the one guard on every dense Fock trace
# Sectors of more states are diagonalized by momentum blocks when H commutes
# with the lattice translation.  The split costs gathers and a DFT product
# per sector and pays once the eigh it saves is large: diagonalize plus one
# thermal state of the U = 0.5 Hubbard chain, on one BLAS thread, fastest of
# 7 runs (3 at L=6; 2-vCPU machine), takes 1.3 ms by momentum blocks against
# 1.0 ms by sectors at L=4 (one 36-state sector split), 5.4 against 6.9 ms
# at L=5 and 53 against 91 ms at L=6.  The split was introduced at 25 when a
# larger eigh woke OpenBLAS's worker thread, which the one-thread scope now
# prevents; the value stays there so that the reports keep their bytes.
MOMENTUM_MIN_STATES = 25
# Relative defect up to which H counts as translation invariant: rounding
# in the sums of its entries, far below what the momentum blocks resolve.
TRANSLATION_TOL = 1e-13


@dataclass(frozen=True)
class FockSpace:
    spec: LatticeSpec

    def __post_init__(self):
        if self.spec.n_modes > MAX_MODES:
            raise GuardError(
                f"{self.spec.n_modes} modes exceed the {MAX_MODES}-mode guard")

    @property
    def n_modes(self) -> int:
        return self.spec.n_modes

    @property
    def dimension(self) -> int:
        return 2**self.spec.n_modes


@dataclass(frozen=True)
class CorrelationQuery:
    """Sites/spins of the symmetrized m_hat-body observable O + O^dagger,
    kept as tuples of Python ints whatever sequences built them, so that
    equal queries hash alike and key caches and lambda couplings."""

    x_sites: tuple
    y_sites: tuple
    xi_spins: tuple
    phi_spins: tuple

    def __post_init__(self):
        for f in ("x_sites", "y_sites", "xi_spins", "phi_spins"):
            norm = (lambda x: tuple(map(int, x))) if f.endswith("sites") else int
            object.__setattr__(self, f, tuple(map(norm, getattr(self, f))))
        m = len(self.x_sites)
        if not (len(self.y_sites) == len(self.xi_spins) == len(self.phi_spins) == m):
            raise ValueError("query lists must all have length m_hat")

    @property
    def m_hat(self) -> int:
        return len(self.x_sites)

    def swapped(self) -> "CorrelationQuery":
        return CorrelationQuery(self.y_sites, self.x_sites,
                                self.phi_spins, self.xi_spins)

    def pair_terms(self, c: float = 1.0) -> list:
        """The normal-ordered strings (X, Y, Xi, Phi, c) of c (O + O^dagger),
        O^dagger the string of the swapped query, c real; one string of
        weight 2c when the two coincide."""
        adjoint = self.swapped()
        pair = (self,) if adjoint == self else (self, adjoint)
        return [(q.x_sites, q.y_sites, q.xi_spins, q.phi_spins,
                 float(c) * 2 / len(pair)) for q in pair]


query = CorrelationQuery


@dataclass(frozen=True)
class FockOperator:
    """A dim x dim matrix as canonical COO triplets: each (row, col) pair at
    most once, in row-major order, and no stored zero.  The arrays are
    read-only, so cached operators can be shared."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out


def _canonical(dim: int, rows, cols, vals) -> FockOperator:
    """Sum the entries sharing a (row, col) pair in input order, then drop the
    zeros, so an entry that cancels exactly joins no two states."""
    keys, slot = np.unique(rows * dim + cols, return_inverse=True)
    if np.iscomplexobj(vals):
        summed = np.empty(len(keys), dtype=vals.dtype)
        summed.real = np.bincount(slot, vals.real, len(keys))
        summed.imag = np.bincount(slot, vals.imag, len(keys))
    else:
        summed = np.bincount(slot, vals, len(keys))
    keep = summed != 0
    arrays = (keys[keep] // dim, keys[keep] % dim, summed[keep])
    for arr in arrays:
        arr.flags.writeable = False
    return FockOperator(*arrays, dim)


@functools.lru_cache(maxsize=8)
def _occupations(n_modes: int) -> np.ndarray:
    """The number of occupied modes of every basis state 0 .. 2^n_modes - 1,
    read-only, computed once per mode count."""
    count = np.zeros(1, dtype=int)
    for _ in range(n_modes):
        count = np.concatenate([count, count + 1])
    count.flags.writeable = False
    return count


def _assemble(n_modes: int, groups, dtype=complex) -> list[FockOperator]:
    """For each group of terms (coeff, create_modes, annihilate_modes) the
    operator sum of coeff * psi*_{c1}..psi*_{ck} psi_{a1}..psi_{al}.  The
    strings of all groups act on all basis states in one pass over a (terms
    x states) array, rightmost factor first: psi_m (psi*_m) keeps the states
    with mode m occupied (empty), applies the Jordan-Wigner sign
    (-1)^(occupied modes below m) and flips bit m.  A string shorter than
    the longest is padded with identity factors, which keep every state,
    multiply by 1.0 and flip nothing.  Each group's triplets are summed in
    term-major order, the states of a term in ascending order."""
    dim = 2**n_modes
    terms = [term for group in groups for term in group]
    strings = [[(1 << m, 1 << m) for m in reversed(annihilate)] +
               [(1 << m, 0) for m in reversed(create)]
               for _, create, annihilate in terms]
    width = max(map(len, strings), default=0)
    # per term and factor: the bit of its mode and the value that bit needs;
    # a pad is (0, 0), and its mask of lower modes, max(bit - 1, 0), is 0,
    # so it multiplies by jw[0] = 1.0
    bit, need = np.array([s + [(0, 0)] * (width - len(s)) for s in strings],
                         dtype=int).reshape(len(terms), width, 2).T[:, :, :, None]
    jw = 1.0 - 2.0 * (_occupations(n_modes) & 1)  # (-1)^(occupied modes in s)
    state = np.tile(np.arange(dim), (len(terms), 1))
    sign = np.repeat(np.array([coeff for coeff, *_ in terms], dtype=dtype),
                     dim).reshape(len(terms), dim)
    alive = np.ones(state.shape, dtype=bool)
    for b, n in zip(bit, need):
        alive &= state & b == n
        sign *= jw[state & np.maximum(b - 1, 0)]
        state ^= b
    flat = np.flatnonzero(alive)
    term, start = np.divmod(flat, dim)
    rows, vals = state.ravel()[flat], sign.ravel()[flat]
    ends = np.searchsorted(term, np.cumsum([len(g) for g in groups], dtype=int))
    return [_canonical(dim, rows[a:b], start[a:b], vals[a:b])
            for a, b in zip([0, *ends[:-1]], ends)]


@functools.lru_cache(maxsize=8)
def _mode_operators(n_modes: int):
    """All annihilation operators psi_q as read-only float operators.  The
    package does not call it: the benchmark reads its cache_info()."""
    return tuple(_assemble(n_modes, [[(1.0, (), (q,))] for q in range(n_modes)],
                           dtype=float))


def _normal_ordered(space: FockSpace, groups) -> list[FockOperator]:
    """For each group of entries (X, Y, Xi, Phi, coeff) the sum of coeff
    psi*_{x1 xi1}..psi*_{xl xil} psi_{yl phil}..psi_{y1 phi1}; sites are
    reduced mod L."""
    mode = functools.partial(mode_index, space.spec)
    return _assemble(space.n_modes, [[
        (coeff, [mode(x, s) for x, s in zip(X, Xi)],
         [mode(y, s) for y, s in zip(reversed(Y), reversed(Phi))])
        for X, Y, Xi, Phi, coeff in entries] for entries in groups])


def build_h0(space: FockSpace, params: ModelParams) -> FockOperator:
    """sum of h[x, y] psi*_{x s} psi_{y s} over sites x, y and spins s, h the
    site_hopping_matrix, in row-major order of the modes 2 * site + spin."""
    h = site_hopping_matrix(space.spec, params)
    return _assemble(space.n_modes, [[(h[x, y], (2 * x + s,), (2 * y + s,))
                                      for x in range(len(h)) for s in SPINS
                                      for y in np.flatnonzero(h[x])]])[0]


@functools.lru_cache(maxsize=8)
def _free_hamiltonian(space: FockSpace, params: ModelParams) -> FockOperator:
    """build_h0, once per (space, params): the models on one lattice and
    build_hamiltonian share this H_0, whose arrays are read-only."""
    return build_h0(space, params)


def build_interaction(space: FockSpace, u: InteractionCoefficients) -> FockOperator:
    """V = sum over orders and lattice sites of
    U_{L,l} psi*_{x1 xi1}..psi*_{xl xil} psi_{xl phil}..psi_{x1 phi1}."""
    return _normal_ordered(space, [lattice_terms(u, space.spec)])[0]


def _add_terms(space: FockSpace, H, u: InteractionCoefficients | None = None,
               lam: dict | None = None) -> FockOperator:
    """H + V + Lambda, their triplets summed once in that order, so that a
    Hamiltonian assembled from a shared H_0 or H_0 + V is bitwise the one
    build_hamiltonian makes.  lam is a coupling {CorrelationQuery: real}."""
    ops = [H] + ([] if u is None else [build_interaction(space, u)])
    ops += [] if lam is None else _normal_ordered(space, [lambda_terms(lam)])
    if len(ops) == 1:
        return H
    return _canonical(H.dim, *(np.concatenate([getattr(op, f) for op in ops])
                               for f in ("rows", "cols", "vals")))


def build_hamiltonian(space: FockSpace, params: ModelParams,
                      u: InteractionCoefficients | None = None,
                      lam: dict | None = None) -> FockOperator:
    return _add_terms(space, _free_hamiltonian(space, params), u, lam)


def observable_pairs(space: FockSpace, queries) -> list[FockOperator]:
    """The self-adjoint pairs O + O^dagger of the correlation observables of
    the queries, their pair_terms assembled together."""
    return _normal_ordered(space, [q.pair_terms() for q in queries])


@functools.cache
def _blas_handle():
    """(get, set) of the thread count of the OpenBLAS that numpy ships in
    numpy.libs, or None when there is none: libscipy_openblas* with the
    scipy_openblas_*_num_threads64_ calls (numpy 2), else libopenblas64_p*
    with openblas_*_num_threads64_ (numpy 1).  Looked up once, on first
    use."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for stem, prefix in (("libscipy_openblas", "scipy_openblas"),
                         ("libopenblas64_p", "openblas")):
        for name in (n for n in names if n.startswith(stem)):
            try:
                lib = ctypes.CDLL(os.path.join(libs, name))
                get = getattr(lib, f"{prefix}_get_num_threads64_")
                put = getattr(lib, f"{prefix}_set_num_threads64_")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _serial_blas():
    """One BLAS thread for the dense calls inside the scope, the earlier
    thread count restored on leaving, also when a call raises; a no-op when
    numpy's OpenBLAS is not found.  The count is a process-wide setting:
    while the scope is open, BLAS calls from other threads run on one
    thread too."""
    handle = _blas_handle()
    if handle is None:
        yield
        return
    get, put = handle
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class _Layout(collections.namedtuple(
        "_Layout", "sectors sector local sizes offsets")):
    """The flat sector-block format (see _labellings): sectors[i], the basis
    states of sector i in ascending order; sector[s] and local[s], the sector
    of state s and its index in it; the blocks, sizes[i] states square, stored
    row-major one after another from offsets[i].  Read-only."""

    __slots__ = ()

    def at(self, rows, cols):
        """The flat positions of the (row, col) entries that lie inside a
        block, and the mask of those entries."""
        which = self.sector[rows]
        inside = which == self.sector[cols]
        pos = (self.offsets[which] + self.local[rows] * self.sizes[which]
               + self.local[cols])
        return pos[inside], inside

    def blocks(self, flat):
        """The square views of the blocks of a flat array in this layout."""
        return [flat[o:o + n * n].reshape(n, n)
                for o, n in zip(self.offsets, self.sizes)]


@functools.lru_cache(maxsize=8)
def _labellings(dim: int) -> tuple[_Layout, ...]:
    """The _Layouts of the conserved-number labellings of the basis states,
    finest first: (N_up, N_down), the total N and a single block; computed
    once per dimension.  Mode 2*site + spin is spin up when even."""
    basis = np.arange(dim)
    bits = (basis[:, None] >> np.arange(max(dim - 1, 1).bit_length())) & 1
    n_up, n_down = bits[:, 0::2].sum(axis=1), bits[:, 1::2].sum(axis=1)
    out = []
    for label in (n_up * dim + n_down, n_up + n_down, np.zeros(dim, dtype=int)):
        order = np.argsort(label, kind="stable")
        sectors = tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))
        sector, local = np.empty(dim, dtype=int), np.empty(dim, dtype=int)
        for i, states in enumerate(sectors):
            sector[states] = i
            local[states] = np.arange(len(states))
        sizes = np.array([len(s) for s in sectors])
        offsets = np.concatenate([[0], np.cumsum(sizes**2)])
        for arr in (*sectors, sector, local, sizes, offsets):
            arr.flags.writeable = False
        out.append(_Layout(sectors, sector, local, sizes, offsets))
    return tuple(out)


def _blocks(H: FockOperator):
    """The dense blocks of H on the finest layout it keeps, where each
    stored entry joins two states of one sector, and that layout; one
    scatter fills them, real when no entry has an imaginary part.  A block
    that is not hermitian is refused: each stored entry is compared with the
    adjoint of the block entry at its transposed place, 0 when unstored."""
    layout = next(kept for kept in _labellings(H.dim)
                  if np.array_equal(kept.sector[H.rows], kept.sector[H.cols]))
    is_complex = np.iscomplexobj(H.vals) and bool(np.any(H.vals.imag))
    flat = np.zeros(layout.offsets[-1], dtype=complex if is_complex else float)
    flat[layout.at(H.rows, H.cols)[0]] = H.vals if is_complex else H.vals.real
    transposed = flat[layout.at(H.cols, H.rows)[0]]
    herm_defect = np.abs(H.vals - transposed.conj()).max(initial=0.0)
    if herm_defect > 1e-10:
        raise HermiticityError(
            f"matrix is not hermitian (defect {herm_defect:.3e})")
    return layout.blocks(flat), layout


def _translation(spec: LatticeSpec):
    """The one-site shift T along axis 0 on the basis states, as (step,
    sign) with T|s> = sign[s] |step[s]>.  The shift adds L^(d-1) to every
    site rank mod L^d, so it moves mode m to m + b mod n_modes, b = 2
    L^(d-1): a rotation of the bits of s.  The sign is the parity of the
    permutation that sorts the moved occupied modes (the Jordan-Wigner
    sign): the p of them that wrap around to the lowest modes pass the k - p
    others, (-1)^(p (k - p))."""
    n, b = spec.n_modes, 2 * spec.L ** (spec.d - 1)
    s = np.arange(2**n)
    count = _occupations(n)
    wrapped = count[s >> (n - b)]
    return (((s << b) | (s >> (n - b))) & (2**n - 1),
            1 - 2 * ((wrapped * (count - wrapped)) & 1))


class _Orbits(collections.namedtuple(
        "_Orbits", "walk phase rep period carried wave dft")):
    """The orbits of the basis states under the translation T of a lattice,
    T of order L; read-only tables indexed by the state s (see _orbits):

    walk[j, s] = T^j s, j = 0 .. L, and T^j |s> = phase[j, s] |walk[j, s]>;
    rep[s], the orbit minimum, its representative; period[s], the least
    R > 0 with T^R s = s; carried[s, m], whether the orbit has a state at
    momentum m, and wave[s, m] the amplitude of s in it;
    dft[j, m] = e^{-2 pi i j m / L}."""

    __slots__ = ()


@functools.lru_cache(maxsize=8)
def _orbits(spec: LatticeSpec) -> _Orbits:
    """The orbit tables of the lattice's translation T on every basis state.

    The orbit of a representative r has the momentum state |r, k> = R^{-1/2}
    sum_{j<R} e^{-ikj} T^j |r> at k = 2 pi m / L.  As T^R |r> = sigma |r>
    with sigma = +-1, the sum survives only where e^{-ikR} sigma = 1, that
    is 2 m R = 0 mod 2L for sigma = 1 and L mod 2L for sigma = -1.  The
    amplitude of s = T^j r in it is e^{-ikj} phase / sqrt(R), 0 where the
    orbit carries no momentum state."""
    L = spec.L
    step, sign = _translation(spec)
    walk, phase = [np.arange(len(step))], [np.ones(len(step), dtype=int)]
    for _ in range(L):
        phase.append(phase[-1] * sign[walk[-1]])
        walk.append(step[walk[-1]])
    walk, phase = np.array(walk), np.array(phase)
    states, m = walk[0], np.arange(L)
    period = np.argmax(walk[1:] == states, axis=0) + 1
    sigma = phase[period, states]
    carried = (2 * m * period[:, None]) % (2 * L) == \
        np.where(sigma < 0, L, 0)[:, None]
    rep = walk[:L].min(axis=0)
    offset = (period - np.argmax(walk[:L] == rep, axis=0)) % period
    dft = np.exp(-2j * np.pi * (np.outer(m, m) % L) / L)
    wave = np.where(carried, (phase[offset, rep] / np.sqrt(period))[:, None]
                    * dft[offset], 0)
    tables = _Orbits(walk, phase, rep, period, carried, wave, dft)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _commutes(H: FockOperator, orbits: _Orbits) -> bool:
    """Whether H commutes with the translation T, on its triplets: every
    stored entry v at (r, c) must be stored again at (T r, T c) as
    sign_r sign_c v, up to rounding.  T maps the stored entries one to one
    into themselves, so no other entry needs a look."""
    if len(H.vals) == 0:
        return True
    step, sign = orbits.walk[1], orbits.phase[1]
    keys = H.rows * H.dim + H.cols
    moved = step[H.rows] * H.dim + step[H.cols]
    at = np.minimum(np.searchsorted(keys, moved), len(keys) - 1)
    if not np.array_equal(keys[at], moved):
        return False
    defect = np.abs(H.vals[at] - sign[H.rows] * sign[H.cols] * H.vals).max()
    return bool(defect <= TRANSLATION_TOL * np.abs(H.vals).max())


def _momentum_pairs(B: np.ndarray, states: np.ndarray, local: np.ndarray,
                    orbits: _Orbits):
    """The eigenpairs of the sector block B of a translation-invariant H, one
    eigh per momentum block, the eigenvectors mapped back into the sector
    basis.  The pairs come by block size, then by m, so that the columns,
    and the sums over them, keep one order.

    The block at k = 2 pi m / L between the orbits of the representatives
    a and b is <a, k|H|b, k> = sqrt(R_a) <a|H|b, k>, a gather of the row of
    a over the orbit of b, summed against e^{-ikj}: for all k at once one
    product with the dft table.  An eigenvector y of that block is the
    sector vector wave[s, m] y[orbit of s].  The pairs are real on a real
    block B, as on the sector path."""
    walk, L = orbits.walk, len(orbits.dft)
    reps = states[orbits.rep[states] == states]
    R = orbits.period[reps]
    rows = B[local[reps]][:, local[walk[:L, reps].T]] * \
        (orbits.phase[:L, reps].T * (np.arange(L) < R[:, None]))
    Hk = (rows.reshape(-1, L) @ orbits.dft).reshape(len(reps), len(reps), L) * \
        np.sqrt(R[:, None] / R)[:, :, None]
    carried = orbits.carried[reps]
    orbit = np.searchsorted(reps, orbits.rep[states])
    wave = orbits.wave[states]
    # on a real H the blocks at m and L - m are complex conjugates: m stands
    # for both and only m <= L/2 is diagonalized; those at 2m = 0 mod L are
    # real
    real = not np.iscomplexobj(B)
    ms = np.arange(L // 2 + 1 if real else L)
    paired = real & (2 * ms % L != 0)
    sizes = carried[:, ms].sum(axis=0)
    values, vectors = [], []
    for size, pair in sorted(set(zip(sizes.tolist(), paired.tolist()))):
        if size == 0:
            continue
        w, V = [], []
        for m in ms[(sizes == size) & (paired == pair)]:
            at = np.flatnonzero(carried[:, m])
            block = Hk[at[:, None], at, m]
            w_m, Y = np.linalg.eigh(block.real if real and not pair else block)
            on_orbits = np.zeros((len(reps), size), dtype=Y.dtype)
            on_orbits[at] = Y
            w.append(w_m)
            V.append(wave[:, m, None] * on_orbits[orbit])
        if pair:
            # V at m and conj(V) at L - m: sqrt(2) times their real and
            # imaginary parts are real orthonormal eigenvectors of both
            w += w
            V = [np.sqrt(2) * v.real for v in V] + [np.sqrt(2) * v.imag for v in V]
        values += w
        vectors += [v.real if real else v for v in V]
    return np.concatenate(values), np.hstack(vectors)


class Eigensystem:
    """The eigenpairs of H by conserved-number sector: pairs[i] holds the
    (eigenvalues, eigenvectors) of the block of layout.sectors[i], the
    eigenvectors in the sector's basis.  It keeps the _Layout and, per
    beta, the thermal state of H in it.  The pairs and the thermal states
    are read-only."""

    def __init__(self, pairs, layout: _Layout):
        for arr in [a for pair in pairs for a in pair]:
            arr.flags.writeable = False
        self.pairs, self.layout = pairs, layout
        self._thermal_states = {}

    def _thermal(self, beta: float) -> tuple[np.ndarray, float]:
        """The blocks rho_s = V_s diag(e^{-beta (w - w_min)}) V_s^dagger in
        the flat layout, read-only, and their trace sum Z, the sum of the
        weights; computed once per beta."""
        if beta not in self._thermal_states:
            w_min = min(w.min() for w, _ in self.pairs)
            weights = [np.exp(-beta * (w - w_min)) for w, _ in self.pairs]
            with _serial_blas():
                rho = np.concatenate([((V * wt) @ V.conj().T).ravel()
                                      for (_, V), wt in zip(self.pairs, weights)])
            rho.flags.writeable = False
            self._thermal_states[beta] = rho, float(sum(map(np.sum, weights)))
        return self._thermal_states[beta]

    def expectation(self, O: FockOperator, beta: float) -> complex:
        """Tr(e^{-beta H} O) / Tr e^{-beta H}, one gather: sum_e o_e
        rho[c_e, r_e] / Z over the entries o_e of O at (r_e, c_e) inside a
        sector.  e^{-beta H} is block diagonal, so the entries of O between
        sectors add nothing."""
        rho, Z = self._thermal(beta)
        at, inside = self.layout.at(O.cols, O.rows)
        return complex(O.vals[inside] @ rho[at] / Z)

    def log_partition(self, beta: float) -> float:
        """log Tr e^{-beta H} from the eigenvalues of the pairs."""
        return _log_sum_exp(np.concatenate([w for w, _ in self.pairs]), beta)


def diagonalize(H: FockOperator, spec: LatticeSpec | None = None) -> Eigensystem:
    """Eigenpairs of H by sector blocks, real on real blocks, one eigh per
    block.  Given the lattice of H, a sector of more than MOMENTUM_MIN_STATES
    states is diagonalized by momentum blocks instead (_momentum_pairs) when
    H commutes with the lattice translation."""
    if spec is not None and 2**spec.n_modes != H.dim:
        raise ValueError(f"{spec} has {spec.n_modes} modes, H dimension {H.dim}")
    blocks, layout = _blocks(H)
    orbits = None
    if spec is not None and layout.sizes.max() > MOMENTUM_MIN_STATES:
        orbits = _orbits(spec)
        if not _commutes(H, orbits):
            orbits = None
    with _serial_blas():
        pairs = [_momentum_pairs(B, states, layout.local, orbits)
                 if orbits is not None and len(states) > MOMENTUM_MIN_STATES
                 else np.linalg.eigh(B) for states, B in zip(layout.sectors, blocks)]
    return Eigensystem(pairs, layout)


def _log_sum_exp(w: np.ndarray, beta: float) -> float:
    """log sum_i e^{-beta w_i}, shifted by the smallest w_i."""
    m = w.min()
    return float(-beta * m + np.log(np.sum(np.exp(-beta * (w - m)))))


def log_partition(H: FockOperator, beta: float) -> float:
    """log Tr e^{-beta H} from the sector spectra alone, apart from
    diagonalize: its callers want no eigenvectors, and eigvalsh skips them.
    One eigvalsh per block; the spectra are joined in sector order."""
    blocks, _ = _blocks(H)
    with _serial_blas():
        w = np.concatenate([np.linalg.eigvalsh(B) for B in blocks])
    return _log_sum_exp(w, beta)


@functools.lru_cache(maxsize=8)
def _free_log_partition(space: FockSpace, params: ModelParams) -> float:
    """log Tr e^{-beta H_0} of the shared H_0, once per (space, params)."""
    return log_partition(_free_hamiltonian(space, params), params.beta)


_MODEL: dict = {}  # the model slot: at most one key -> (H, Eigensystem)


def _interaction_key(u: InteractionCoefficients | None):
    """A hashable snapshot of u: its (order, key, value) entries sorted by
    order and key, or None."""
    if u is None:
        return None
    return tuple(sorted((l, key, value) for l, table in u.orders.items()
                        for key, value in table.items()))


def model_system(space: FockSpace, params: ModelParams,
                 u: InteractionCoefficients | None):
    """(H_0 + V, diagonalize(H_0 + V)) of the model, from the one-model
    slot; a model of other content clears the slot before it is built."""
    key = (space, params, _interaction_key(u))
    if key not in _MODEL:
        _MODEL.clear()
        H = _add_terms(space, _free_hamiltonian(space, params), u)
        _MODEL[key] = H, diagonalize(H, space.spec)
    return _MODEL[key]


def partition_ratio(space: FockSpace, params: ModelParams,
                    u: InteractionCoefficients | None) -> float:
    """Tr e^{-beta (H_0 + V)} / Tr e^{-beta H_0}; log Z of H from the
    model's Eigensystem, that of H_0 from its spectrum, taken once per
    lattice and parameters."""
    eig = model_system(space, params, u)[1]
    return float(np.exp(eig.log_partition(params.beta) -
                        _free_log_partition(space, params)))


def _transfer_slice(space: FockSpace, terms, h: float) -> np.ndarray:
    """The slice operator S = 1 + sum over the nonempty subsets A of the
    terms m_a = (X, Y, Xi, Phi, c_a) of prod_{a in A} (-c_a/h) :prod_{a in A}
    m_a:, dense.  Only the live subsets, which repeat no creation and no
    annihilation mode, are formed, in the order of itertools.combinations,
    each from a smaller one and a later term; they are assembled as one group."""
    mode = functools.partial(mode_index, space.spec)
    grow = []  # per live term: (X, Y, Xi, Phi), -c/h and its two mode masks
    for X, Y, Xi, Phi, c in terms:
        masks = [sum(1 << mode(*p) for p in zip(*ps))
                 for ps in ((X, Xi), (Y, Phi))]
        if masks[0].bit_count() == masks[1].bit_count() == len(X):
            grow.append(((X, Y, Xi, Phi), -c / h, *masks))
    live = [(((), (), (), ()), 1.0, 0, 0, 0)]  # the empty subset: the identity
    for parts, c, cm, am, start in live:  # also visits the subsets appended
        live += [(tuple(map(tuple.__add__, parts, more)), c * cn,
                  cm | cmn, am | amn, j + 1)
                 for j, (more, cn, cmn, amn) in enumerate(grow[start:], start)
                 if not (cm & cmn or am & amn)]
    S = _normal_ordered(space, [[(*parts, c) for parts, c, *_ in live]])[0]
    return S.toarray()


def transfer_partition(space: FockSpace, params: ModelParams, grid: TimeGrid,
                       u: InteractionCoefficients | None,
                       lam: dict | None = None) -> complex:
    """The grid partition ratio Z_h / Z_0 of the Grassmann integral as a
    trace of transfer matrices, Tr[(e^{-H_0/h} S)^{beta h}] / Tr e^{-beta
    H_0}, S the _transfer_slice of one time slice's terms.  e^{-H_0/h} and
    Tr e^{-beta H_0} come from one Eigensystem of H_0, their shifts by its
    lowest eigenvalue cancel in the ratio."""
    terms = [] if u is None else lattice_terms(u, space.spec)
    terms += [] if lam is None else lambda_terms(lam)
    S = _transfer_slice(space, terms, grid.h)
    eig = diagonalize(_free_hamiltonian(space, params), space.spec)
    rho = eig._thermal(1 / grid.h)[0]
    step = np.zeros(S.shape, dtype=rho.dtype)
    for states, block in zip(eig.layout.sectors, eig.layout.blocks(rho)):
        step[np.ix_(states, states)] = block
    with _serial_blas():
        power = np.linalg.matrix_power(step @ S, grid.n_points)
    return complex(np.trace(power) / eig._thermal(params.beta)[1])


def correlations(space: FockSpace, params: ModelParams,
                 u: InteractionCoefficients | None, queries,
                 eig=None) -> list[complex]:
    """Thermal averages of the symmetrized correlation observables of the
    queries, their observables assembled in one pass and each averaged by
    one gather; in the model's Eigensystem from the slot unless eig carries
    diagonalize(H) of the model's H."""
    if eig is None:
        eig = model_system(space, params, u)[1]
    return [eig.expectation(O, params.beta)
            for O in observable_pairs(space, queries)]


def correlation(space: FockSpace, params: ModelParams,
                u: InteractionCoefficients | None, q: CorrelationQuery,
                eig=None) -> complex:
    """correlations of the one query q."""
    return correlations(space, params, u, [q], eig)[0]


def lambda_derivative_check(space: FockSpace, params: ModelParams,
                            u: InteractionCoefficients | None,
                            q: CorrelationQuery, step: float = 1e-4) -> dict:
    """Central finite difference of -(1/beta) log(Tr e^{-beta H_lambda} / Tr
    e^{-beta H_0}) in the coupling lambda = {q: +-step}, H_lambda = H +-
    step (O + O^dagger), against the direct correlation.
    H_0 carries no lambda, so log Tr e^{-beta H_0} cancels exactly in the
    difference and only log Tr e^{-beta H_lambda} is computed.  Its
    rounding_floor, eps max|E| / step, is the error that rounding of the
    eigenvalues E of H puts into the difference quotient."""
    if step <= 0:
        raise ValueError("step must be positive")
    HV, eig = model_system(space, params, u)
    direct = correlation(space, params, u, q)
    up, down = (log_partition(_add_terms(space, HV, lam={q: eps}), params.beta)
                for eps in (step, -step))
    fd = -(up - down) / (2.0 * step * params.beta)
    e_max = max(np.abs(w).max() for w, _ in eig.pairs)
    return {"direct": direct, "deviation": abs(fd - direct),
            "rounding_floor": float(np.finfo(float).eps * e_max / step)}
