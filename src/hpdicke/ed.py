"""Exact diagonalization of the Dicke model at finite N, and the one ED
path that both models share.

Works in the maximal-spin sector j = N/2 (the collective coupling never
leaves it), with basis states |n, m> indexed n*(N+1) + (m+j).  The
Hamiltonian

    H = omega a^dag a + omega0 Jz + (coupling/sqrt(N)) (a + a^dag)(J+ + J-)

is real symmetric with at most five nonzeros per row and commutes exactly
with the parity (-1)^(n + m + j), which is diagonal in this basis.
_offset_csr writes it, and the real two-chain matrix of double_ed, on
a basis's support straight into canonical float64 CSR with no stored
zeros, in one pass from the diagonal and the couplings toward more
photons: it adds each coupling's transpose from the same values, into
a table of one row per support state, so no array of a build spans the
box around the support times its entries.

Both models are this Fock ladder times one or two maximal-j spins, a
C-order grid whose parity is its checkerboard, and share one path.  The
basis describes the model (_Basis): grid, support, parity, gauge,
entropy floor, HP form and walk start.  _solve finds the lowest
eigenpair of each parity sector on the basis's support (Emary & Brandes,
PRE 67, 066203 (2003)), on scipy's restriction H[idx][:, idx] of H to
the sector idx: for a grid of up to _DENSE_DIM states densely; above it
with ARPACK, from a seeded draw, so a row depends only on its params,
N, n_max and seed.  The ground state is the lower of the two, a parity
eigenstate, so the superradiant cat pair needs no separate resolution;
it is returned on the support it was solved on (EDResult.shell names
it), and _photon_rows, the one place where a state meets a box, places
it into photon rows: _moments and _entropy reduce the box of the
state's own support, and the probe gets its whole grid.  A row's
dense eigensolves and its rho = W W^dag run on scipy's OpenBLAS, the
one ARPACK uses (_entropy): numpy bundles its own, whose thread pool
wakes on large operands and then competes with scipy's for the
cores.  _solve_at solves at one cutoff: a large grid at a normal or
critical point on the Holstein-Primakoff shell n + sum of k <= K
(k = m + j per chain), the finite-N form of Emary & Brandes' picture,
from the shell that the HP Gaussian predicts (_gaussian_shell), at most
30, grown until its top two levels are empty; any other grid, a
superradiant one included, whole.  The budget charges each support
just before its Hamiltonian is built (_Basis.max_nnz counts the
support), so a row whose shells fit runs on a grid too large to build,
and the walk charges its probe's whole grid.  A sparse solve stops on
a residual of about SOLVE_TOL at every N (_sector_minimum).
_walk_cutoff searches for a cutoff on the halving grid below n0: from its
highest dense point at most n0/2 it walks down while cutoffs are
accepted, or up until one is.  A cutoff is confirmed at a larger probe
cutoff by one ARPACK solve of the probe's parity sector started from
its own solve placed on the probe's grid (_probe_hp), for both models
and at every dimension.  _row is one ED row: the solve at an explicit
cutoff, or the one the model's walk accepted, with the entropy and
moments of its state; sweeps, the figure insets, scaling_at_critical
and double_ed read it.  Each reaches the model's public functions
through basis._api() when called.
scipy loads at the first ED call or ED config (_scipy): thermo needs
numpy only.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .dicke import DickeParams, Phase, classify_phase, dicke_quadratic_form
from .errors import (BudgetExceeded, ConvergenceError, CutoffError,
                     CutoffWarning, DegenerateFit, DomainError,
                     InstabilityError)
from .fits import ExponentFit, _ols
from .gaussian import (FluctuationReport, QuadraticForm, heisenberg_product,
                       symplectic_diagonalize)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "EDBasis",
    "EDResult",
    "ScalingReport",
    "build_hamiltonian",
    "parity_diagonal",
    "ground_state",
    "photon_moments_ed",
    "photon_entropy_ed",
    "converge_cutoff",
    "scaling_at_critical",
]

# Top-Fock-row weight above which moments are flagged unreliable.
TOP_ROW_TOL = 1e-8
# ARPACK's residual target (taken over |E|, see _sector_minimum), and the
# odd sector's relative margin to be the ground state.
SOLVE_TOL = 1e-12
DEFAULT_BUDGET_NNZ = int(5e7)
DEFAULT_SEED = 7

# Dense diagonalization of each parity sector when the full dimension is
# at most this; ARPACK above.
_DENSE_DIM = 1200


def _levels(shape: tuple[int, ...]) -> np.ndarray:
    """The sum of the grid indices over a C-order grid of this shape."""
    return functools.reduce(np.add.outer, [np.arange(k) for k in shape])


class _Basis:
    """A model at one cutoff as the shared ED path reads it: the C-order
    grid of a subclass's shape, (n_max + 1, N + 1) or (n_max + 1,
    N_C + 1, N_I + 1), whose fields (chain sizes, then n_max) are
    positive integers, not booleans.  The photon number is the outer
    index, so the top Fock slab is the last prod(shape[1:]) states.  The
    last field, shell, is None for the whole grid, or a level K: H is
    then written and solved on the support, the grid states whose HP
    level n + sum of k (each chain's spin index k = m + j) is at most K,
    and so is the solved state (see _solve_at).  The basis is the one
    owner of that layout: the support is found on its box, bound, over
    which the builders write their values, and levels, parity and gauge
    are given on the support.  Subclasses give shape;
    _entropy_floor, below which reduced-density eigenvalues carry no
    entropy; _hp_form(p), the HP form at a normal or critical
    point of the params p (else None); _n0(p), the walk's start; and
    _api, the model's public (build, solve, moments, entropy, walk),
    looked up when it is called; the walk takes (p, tol=, budget_nnz=,
    seed=)."""

    def __post_init__(self):
        for f in fields(self):
            k = getattr(self, f.name)
            if f.name == "shell" and k is None:
                continue
            if not (isinstance(k, (int, np.integer))
                    and not isinstance(k, bool) and k >= 1):
                raise (CutoffError if f.name == "n_max" else DomainError)(
                    f"{f.name} must be a positive integer, got {k!r}")

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    @property
    def max_nnz(self) -> int:
        """Upper bound on the stored entries of the Hamiltonian on the
        support: the diagonal and four corners per chain's coupling, per
        support state.  The whole grid is counted as dim, with no
        grid-sized array."""
        size = (self.dim if self.shell is None
                else int(np.count_nonzero(self._inside)))
        return (4 * (len(self.shape) - 1) + 1) * size

    @property
    def parity(self) -> np.ndarray:
        """(-1)^(sum of the grid indices) on each state of the support."""
        return (-1.0) ** self.levels

    @property
    def levels(self) -> np.ndarray:
        """The HP level, the sum of the grid indices, of each state of the
        support."""
        return _levels(self.bound)[self._inside]

    @property
    def bound(self) -> tuple[int, ...]:
        """The extent of the smallest box at the grid's origin that holds
        the support: the grid when shell is None."""
        return tuple(min(k, (self.shell or math.inf) + 1) for k in self.shape)

    @property
    def _inside(self) -> np.ndarray:
        """Which states of the box lie in the support: those of HP level
        at most shell (a positive integer), all of them when shell is
        None."""
        return _levels(self.bound) <= (self.shell or math.inf)

    @property
    def support(self) -> np.ndarray:
        """The sorted flat grid indices that H is written and solved on."""
        return np.ravel_multi_index(np.nonzero(self._inside), self.shape)

    @property
    def gauge(self) -> np.ndarray:
        """D on each state of the support; 1 for one chain."""
        return np.ones(self.support.size)

    def index(self, *state) -> int:
        """Flat index of the grid point state, one index per axis."""
        if not (len(state) == len(self.shape) and all(
                0 <= k < top and float(k).is_integer()
                for k, top in zip(state, self.shape))):
            raise DomainError(f"state {state} outside the {self.shape} grid")
        return int(np.ravel_multi_index(tuple(map(int, state)), self.shape))


@dataclass(frozen=True)
class EDBasis(_Basis):
    """Photon Fock ladder times the maximal-spin multiplet."""

    n_spins: int
    n_max: int
    shell: int | None = None
    _entropy_floor = 1e-16

    @property
    def j(self) -> float:
        return 0.5 * self.n_spins

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_max + 1, self.n_spins + 1)

    def index(self, n: int, m: float) -> int:
        """Flat index of |n, m>, m in {-j .. j} in integer steps."""
        return super().index(n, m + self.j)

    def _hp_form(self, p: DickeParams) -> QuadraticForm | None:
        """HP boson k = m + j, the grid's own spin index; at lambda_cr the
        form is gapless, and its row is still solved on a shell."""
        info = classify_phase(p)
        return (dicke_quadratic_form(p)
                if info.phase is Phase.NORMAL or info.critical else None)

    def _n0(self, p: DickeParams) -> int:
        return _coherent_n0(self.n_spins, p.coupling, p.omega)

    def _api(self) -> tuple[Callable, ...]:
        return (build_hamiltonian, ground_state, photon_moments_ed,
                photon_entropy_ed,
                functools.partial(converge_cutoff, n_spins=self.n_spins))


@dataclass(frozen=True)
class EDResult:
    """A ground state and the basis it was solved on: state holds its
    amplitudes on the support of that basis, whose cutoff is n_max_used
    and whose shell is shell (None for the whole grid), in the order of
    basis.support.  The photon reductions read it at a basis of the
    model whose grid holds that support, such as EDBasis(N,
    n_max_used)."""

    ground_energy: float
    gap01: float
    state: np.ndarray
    parity: float
    cutoff_converged: bool
    n_max_used: int
    shell: int | None = None


@dataclass(frozen=True)
class ScalingReport:
    """hp against system size at fixed couplings, with the power-law fit
    taken over the largest decade of N."""

    sizes: tuple[int, ...]
    hp_values: tuple[float, ...]
    cutoffs: tuple[int, ...]
    fit: ExponentFit
    fit_sizes: tuple[int, ...]


def _scipy():
    """scipy, its solvers loaded; callers look eigsh up at each call."""
    import scipy.linalg
    import scipy.sparse.linalg
    return scipy


def _coherent_n0(n_spins: int, coupling: float, omega: float) -> int:
    """The coherent-shift cutoff ceil(4 (N lambda^2/omega^2 + sqrt(N)))."""
    return math.ceil(
        4.0 * (n_spins * coupling ** 2 / omega ** 2 + math.sqrt(n_spins)))


def _spin_diagonals(n_spins: int,
                    size: int) -> tuple[np.ndarray, np.ndarray]:
    """The box's part of the maximal sector j = n_spins/2: its first size
    values m = -j, -j + 1, .., and <m+1|J+|m> = sqrt((j - m)(j + m + 1))
    between them, clipped for roundoff."""
    j = n_spins / 2.0
    m = np.arange(size) - j
    return m, np.sqrt(np.clip((j - m[:-1]) * (j + m[:-1] + 1.0), 0.0, None))


def _offset_csr(basis: _Basis, diag, up) -> sp.csr_matrix:
    """Real symmetric canonical CSR matrix, with no stored zeros, on the
    support of the basis in its own indices, from the diagonal and the
    (shift, values) couplings toward more photons, in column order, each
    given over the box basis.bound that holds the support.  A coupling
    joins each box state to the one shifted by the given index on each
    axis, with values that broadcast over the box states whose shifted
    state is in the box, indexed by the pair's lower corner: its
    transpose is (-shift, values), so H is symmetric by construction.
    It is written where both states lie in the support, and only the box
    is visited, so a shell's matrix costs about its own size, not the
    grid's.  One pass fills a table with one row per support state, in
    support order, of its support-local column (-1 outside the support)
    and value per entry, about 13 bytes per support state per entry:
    each entry is placed on the box once, in temporaries that live for
    that entry alone, and its support states are copied into the
    table's column.  The table's nonzeros are kept row by row.  The
    index dtype is int32 unless the support's entries could overflow
    it.
    """
    entries = ([(tuple(-k for k in s), v) for s, v in reversed(up)]
               + [((0,) * len(basis.shape), diag)] + up)
    inside = basis._inside
    size = np.count_nonzero(inside)
    itype = np.int32 if len(entries) * size < 2 ** 31 else np.int64
    # each box state's index in the support, -1 outside it
    rows = np.full(basis.bound, -1, dtype=itype)
    rows[inside] = np.arange(size, dtype=itype)
    cols = np.empty((size, len(entries)), dtype=itype)
    vals = np.empty(cols.shape)
    for e, (shift, v) in enumerate(entries):
        at = tuple(slice(max(0, -k), b - max(0, k))
                   for k, b in zip(shift, basis.bound))
        to = tuple(slice(max(0, k), b - max(0, -k))
                   for k, b in zip(shift, basis.bound))
        col, val = np.full(basis.bound, -1, itype), np.zeros(basis.bound)
        col[at], val[at] = rows[to], v
        cols[:, e], vals[:, e] = col[inside], val[inside]
    keep = (vals != 0) & (cols >= 0)
    indptr = np.zeros(size + 1, dtype=itype)
    np.cumsum(keep.sum(axis=-1), out=indptr[1:])
    return _scipy().sparse.csr_matrix((vals[keep], cols[keep], indptr),
                                      (size, size))


def build_hamiltonian(p: DickeParams, basis: EDBasis) -> sp.csr_matrix:
    """Sparse real symmetric Hamiltonian on the basis's support, in
    canonical CSR with no stored zeros.  The diagonal and the couplings
    span the box basis.bound, not the grid.  Both couplings toward n + 1
    (m - 1 and m + 1) read one array, indexed by the lower n and the
    lower m of the pair they join, and _offset_csr writes each one's
    transpose from it."""
    m, lad = _spin_diagonals(basis.n_spins, basis.bound[1])
    levels = np.arange(basis.bound[0])
    g = p.coupling / math.sqrt(basis.n_spins)
    amp = g * np.sqrt(levels[1:])[:, None] * lad
    diag = p.omega * levels[:, None] + p.omega0 * m
    return _offset_csr(basis, diag, [((1, -1), amp), ((1, 1), amp)])


def parity_diagonal(basis: EDBasis) -> np.ndarray:
    """Diagonal of the parity operator, entries (-1)^(n + m + j), on the
    basis's support, where build_hamiltonian writes H: the whole grid
    when shell is None.  This is basis.parity."""
    return basis.parity


def _dense_minimum(block: sp.csr_matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a sector block H[idx][:, idx], densified into
    an empty array, which toarray zeroes by writing it: its own
    zero-filled array is read before it is written, so each fresh page
    faults twice (1,303 faults against 669 for a block of 585 states)."""
    w, v = _scipy().linalg.eigh(
        block.toarray(out=np.empty(block.shape, block.dtype)),
        subset_by_index=[0, 0])
    return float(w[0]), v[:, 0]


def _sector_minimum(block: sp.csr_matrix,
                    v0: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a sector block H[idx][:, idx], by ARPACK from
    v0, with any duplicate entries summed first: the block is scipy's
    copy, so the caller's H is left as it was.  ARPACK's tol is relative
    to the Ritz value, so it is SOLVE_TOL over the block's lowest
    diagonal entry (about -N omega0/2): the residual target stays near
    SOLVE_TOL at every N."""
    block.sum_duplicates()
    tol = SOLVE_TOL / max(1.0, abs(float(block.diagonal().min())))
    try:
        w, v = _scipy().sparse.linalg.eigsh(block, k=1, which="SA", v0=v0,
                                            tol=tol)
    except _scipy().sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver stalled on a sector of dim {block.shape[0]}",
            iterations=getattr(exc, "iterations", None)) from exc
    return float(w[0]), v[:, 0]


def _pair_matrix(form: QuadraticForm) -> np.ndarray | None:
    """The pair matrix Z = -X^-1 Y of the vacuum exp(a^dag Z a^dag / 2)|0>
    of a stable form with polariton rows (X, Y); None when the form is
    unstable or gapless."""
    try:
        T = symplectic_diagonalize(form).transform
    except InstabilityError:
        return None
    n = form.n_modes
    return -np.linalg.solve(T[:n, :n], T[:n, n:])


def _gaussian_shell(form: QuadraticForm, top: int) -> float:
    """K*, the smallest K for which the form's Gaussian ground state puts
    less than machine epsilon on the HP levels >= K - 1, the test that
    _solve_at applies to a solved state; inf when the form is unstable or
    gapless, or no K up to top + 1 passes.  The singular values z of Z
    (its Takagi factors) make the level, the total boson number, a sum of
    independent squeezed vacua, P(2m) = sqrt(1 - z^2) C(2m, m) (z/2)^(2m),
    convolved up to level top."""
    Z = _pair_matrix(form)
    if Z is None:
        return math.inf
    level, m = np.eye(1, top + 1)[0], np.arange(1, top // 2 + 1)
    for z in np.linalg.svd(Z, compute_uv=False):
        mode = np.zeros(top + 1)
        mode[::2] = math.sqrt(1.0 - z * z) * np.cumprod(
            np.r_[1.0, (m - 0.5) / m * z * z])
        level = np.convolve(level, mode)[:top + 1]
    tail = np.cumsum(level[::-1])[::-1]  # the weight on levels >= L
    below = np.flatnonzero(tail < np.finfo(float).eps)
    return int(below[0]) + 1 if below.size else math.inf


def _solve(H: sp.spmatrix, basis: _Basis, seed: int) -> EDResult:
    """Ground state of the real symmetric H on the support of this basis
    from the lowest eigenpair of each parity sector idx there (basis.parity
    is given on the support), on the block H[idx][:, idx]: dense when the
    grid has at most _DENSE_DIM states, one block densified at a time,
    else by ARPACK starting from each sector's part of a draw seeded by
    seed.  H itself is not modified.  The state is given on the support,
    as parity and gauge are, and the result names the basis's n_max and
    shell.

    The odd minimum is the ground state only when it lies lower by more
    than SOLVE_TOL*max(1, |E|); a cat pair degenerate to that accuracy
    reports its even member.  gap01 is |E_odd - E_even|.  A ground state
    whose top Fock slab holds TOP_ROW_TOL or more of the weight is not
    cutoff_converged and warns CutoffWarning.  The state carries the
    gauge D, put on the support's states after the sign fix and the
    top-slab test, which both read the real sector vector; the top slab
    is the support's states with n = n_max, and an empty one weighs 0.
    An H whose shape is not (support size)^2, one built on another
    basis, raises DomainError naming both sizes.
    """
    H = H.tocsr()
    support, gauge, parity = basis.support, basis.gauge, basis.parity
    if H.shape != (support.size,) * 2:
        raise DomainError(f"H of shape {H.shape} is not on the basis's "
                          f"support of {support.size} states")
    sectors = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    blocks = (H[idx][:, idx] for idx in sectors)
    if basis.dim <= _DENSE_DIM:
        minima = [_dense_minimum(block) for block in blocks]
    else:
        v0 = np.random.default_rng(seed).standard_normal(support.size)
        minima = [_sector_minimum(b, v0[i]) for b, i in zip(blocks, sectors)]
    (e_even, v_even), (e_odd, v_odd) = minima
    sign = (-1.0 if e_odd < e_even - SOLVE_TOL * max(1.0, abs(e_even))
            else 1.0)
    e0, v = (e_odd, v_odd) if sign < 0 else (e_even, v_even)
    # the norm and the top-slab weight on scipy's BLAS, as _entropy
    psi, ddot = np.zeros(support.size), _scipy().linalg.blas.ddot
    psi[parity == sign] = v / math.sqrt(ddot(v, v))
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    slab = psi[support >= basis.dim - math.prod(basis.shape[1:])]
    # a shell below n_max has no slab, and ddot rejects an empty vector
    top = ddot(slab, slab) if slab.size else 0.0
    converged = top < TOP_ROW_TOL
    if not converged:
        warnings.warn(f"top Fock level holds {top:.2e} of the weight; "
                      "moments may be truncated", CutoffWarning, stacklevel=3)
    return EDResult(ground_energy=e0, gap01=abs(e_odd - e_even),
                    state=psi * gauge, parity=sign, cutoff_converged=converged,
                    n_max_used=basis.n_max, shell=basis.shell)


def ground_state(H: sp.spmatrix, basis: EDBasis,
                 seed: int = DEFAULT_SEED) -> EDResult:
    """Lowest state of each parity sector of H, the Hamiltonian on the
    basis's support, deterministic for a fixed seed; the ground state is
    a parity eigenstate, given on that support (see _solve).  H is not
    modified; an H of another support size raises DomainError."""
    return _solve(H, basis, seed)


def _photon_rows(result: EDResult, basis: _Basis) -> np.ndarray:
    """The state as a matrix on the box basis.bound (the grid when
    basis.shell is None), one row per photon number: its amplitudes,
    given on the support of the basis it was solved on (the basis with
    the result's n_max_used and shell), put at their box states and
    zeros elsewhere.  A state that does not lie in this box, one of
    another chain size or of more photon rows than it holds, raises
    DomainError."""
    at = replace(basis, n_max=result.n_max_used, shell=result.shell)
    inside = at._inside
    if (result.state.size != np.count_nonzero(inside)
            or at.bound[0] > basis.bound[0]):
        raise DomainError("the state does not lie on the basis's grid")
    W = np.zeros(basis.bound, result.state.dtype)
    W[tuple(map(slice, at.bound))][inside] = result.state
    return W.reshape(basis.bound[0], -1)


def _moments(result: EDResult, basis: _Basis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, reduced over the
    chains on the box of the state's own support (_photon_rows at the
    result's shell), and fed to the generic uncertainty-product reducer.
    A complex (two-chain) state takes <a^dag a> from |w|^2 and the rest
    from conj(w) w, a real one from w w: one arithmetic would move
    either model's last bits."""
    W = _photon_rows(result, replace(basis, shell=result.shell))
    levels = np.arange(len(W))
    if np.iscomplexobj(W):
        occ = float(np.sum(levels[:, None] * np.abs(W) ** 2))
        left, kind = W.conj(), complex
    else:
        occ = float(np.sum(levels[:, None] * W * W))
        left, kind = W, float
    root1 = np.sqrt(levels[1:])
    mean_a = kind(np.sum(root1[:, None] * left[:-1] * W[1:]))
    root2 = np.sqrt(levels[1:-1] * levels[2:])
    a_sq = kind(np.sum(root2[:, None] * left[:-2] * W[2:]))
    return heisenberg_product(mean_a=mean_a, a_sq=a_sq, occupation=occ)


def _entropy(result: EDResult, basis: _Basis) -> float:
    """Entanglement entropy (bits) between the photon and the chains,
    from the spectrum of rho = W W^dag over the nonzero rows and columns
    of the state on the box of its own support (_photon_rows at the
    result's shell), formed and diagonalized on scipy's BLAS and LAPACK:
    numpy's own OpenBLAS pool stays asleep beside ARPACK's.  dsyrk
    (real) and zgemm (complex, as conj(W) W^T transposed) give numpy's
    W @ W^dag, and eigh's evd driver its eigvalsh, bit for bit on nearly
    every state; both read rho's lower triangle."""
    W = _photon_rows(result, replace(basis, shell=result.shell))
    # rows and columns that are zero, in the box or beyond a cutoff,
    # carry no weight; dropping them keeps the bits of the grid's rho
    nz = W != 0
    W = W[nz.any(axis=1)][:, nz.any(axis=0)]
    linalg = _scipy().linalg
    rho = (linalg.blas.zgemm(1.0, W.conj(), W, trans_b=1).T
           if np.iscomplexobj(W) else linalg.blas.dsyrk(1.0, W, lower=1))
    w = linalg.eigh(rho, eigvals_only=True, driver="evd")
    w = w[w > basis._entropy_floor]
    return float(-np.sum(w * np.log2(w)))


def photon_moments_ed(result: EDResult, basis: EDBasis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, centered and fed
    to the generic uncertainty-product reducer."""
    return _moments(result, basis)


def photon_entropy_ed(result: EDResult, basis: EDBasis) -> float:
    """Entanglement entropy (bits) of the photon reduced density matrix."""
    return _entropy(result, basis)


def _check_budget(basis: _Basis, budget_nnz: int) -> None:
    """Raise BudgetExceeded when the Hamiltonian on the basis's support
    may store more than budget_nnz entries (max_nnz, which it carries as
    needed): "cutoff n, shell K needs ..." for a shell, "cutoff n needs
    ..." for a whole grid.  Every matrix that a solve at a cutoff or the
    cutoff walk builds, a probe's included, is charged just before it is
    built."""
    need = basis.max_nnz
    if need > budget_nnz:
        shell = "" if basis.shell is None else f", shell {basis.shell}"
        raise BudgetExceeded(
            f"cutoff {basis.n_max}{shell} needs ~{need} nonzeros, over the "
            f"budget of {budget_nnz}", needed=need, budget=budget_nnz)


def _solve_at(p, basis: _Basis, budget_nnz: int, seed: int) -> EDResult:
    """The ground state of the params on this basis, a whole grid,
    through the model's public builder and solve, on the supports of one
    loop: the HP shells where they apply, then the whole grid.  Each
    support is charged against the budget (_check_budget) just before
    its Hamiltonian is built, so a shell over budget raises
    BudgetExceeded, and a row whose shells fit runs on a grid that
    would not.

    A grid of more than _DENSE_DIM states at a point with an HP form
    (the normal phase, lambda_cr included) is solved by ARPACK on the
    shells n + sum of k <= K (_Basis), each next K ceil(1.5 K), until
    the shell's top two levels, K - 1 and K, hold less of the weight
    than machine epsilon: a parity sector occupies every other level
    only, so one level alone can read 0, and a tail of SOLVE_TOL's
    weight still moves s_vn by up to about 200 times as much.  That
    weight is read off the shell's state, which lives on the support, at
    those two levels' states alone, a few hundred where the grid beyond
    the shell holds thousands of zeros (about 15,300 at N = 384, n_max =
    40), short of numpy's threaded dot.  The grid's top level is
    sum(shape) - len(shape).  The first K is min(K*, 30), K* the
    smallest K on which the form's Gaussian passes that same test
    (_gaussian_shell).  The Gaussian's tail was measured above the
    solved state's on every ed-fixed benchmark point, so a normal row
    with K* <= 30 is one solve there, but that is not proven, and the
    loop still tests the solved state.
    K* is infinite where the form is gapless, and near lambda_cr the
    thermodynamic gap underestimates the finite-N one, so K* overshoots
    (170 where 68 passes at N = 128, lambda = 0.495): the cap keeps
    such rows on the shells that pass.  A shell that would reach the
    whole grid is the grid.  Any other basis, a superradiant one
    included, is solved on its whole grid: there the state sits away
    from the shell's corner.
    """
    build, solve, *_ = basis._api()
    form = basis._hp_form(p) if basis.dim > _DENSE_DIM else None
    top = sum(basis.shape) - len(basis.shape)
    shell = top if form is None else min(_gaussian_shell(form, top), 30)
    while True:
        at = replace(basis, shell=shell if shell < top else None)
        _check_budget(at, budget_nnz)
        res = solve(build(p, at), at, seed=seed)
        # the whole grid, the last support, is taken as it is
        edge = res.state[at.levels >= shell - 1] if at.shell else 0.0
        if np.vdot(edge, edge).real < np.finfo(float).eps:
            return res
        shell = math.ceil(1.5 * shell)


def _probe_hp(p, res: EDResult, probe: _Basis) -> float:
    """hp of the ground state on the larger basis probe, a whole grid, by
    one ARPACK solve (_sector_minimum) of the probe's H on the parity
    sector of res, a converged solve at a lower cutoff, started from
    res's state.

    The basis is photon-number-major, so res's state placed on the
    probe's grid (_photon_rows) is a state of the probe basis (taken out
    of the gauge D), and H at cutoff n is the leading block of H at the
    probe: the start is close to the probe's ground state, and exact
    where res's state is an eigenvector of the probe's H, as at lambda =
    0.  A stalled solve raises ConvergenceError.  H is built, and hp
    taken with the gauge put back, through the model's public
    functions."""
    build, _, moments, *_ = probe._api()
    idx = np.flatnonzero(probe.parity == res.parity)
    psi = (probe.gauge.conj() * _photon_rows(res, probe).ravel()).real
    psi[idx] = _sector_minimum(build(p, probe)[idx][:, idx], psi[idx])[1]
    return moments(replace(res, state=probe.gauge * psi,
                           n_max_used=probe.n_max, shell=None), probe).hp


def _walk_cutoff(p, basis: _Basis, tol: float, budget_nnz: int,
                 seed: int) -> EDResult:
    """The solve at the accepted cutoff of the halving grid n0 / 2^k
    below n0 = basis._n0(p) over bases like this one, walked from a dense
    start: the highest grid point n with 2 n <= n0 whose basis is dense
    (dim <= _DENSE_DIM), else the lowest one.  When the start is
    accepted the walk goes down the grid until a cutoff fails and takes
    the lowest accepted one; when it fails the walk goes up the rest of
    the grid, then doubles n0, until a cutoff is accepted.

    A cutoff n is accepted when its own solve (_solve_at, on HP shells
    where they apply) is cutoff_converged and the probe ceil(1.25 n)
    confirms it: |hp(n) - hp(probe)| < tol.  The probe is taken only
    when n's own solve is converged, by one sector solve of its whole
    grid started from that solve (_probe_hp).  The budget is checked at
    the probe before n is solved.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")

    def accepted(n: int) -> EDResult | None:
        at = replace(basis, n_max=n)
        probe = replace(basis, n_max=max(n + 1, math.ceil(1.25 * n)))
        _check_budget(probe, budget_nnz)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffWarning)
            res = _solve_at(p, at, budget_nnz, seed)
            if not res.cutoff_converged:
                return None
            _, _, moments, *_ = at._api()
            hp = _probe_hp(p, res, probe)
        return res if abs(moments(res, at).hp - hp) < tol else None

    n0 = basis._n0(p)
    grid = [n0]
    while grid[-1] > 1:
        grid.append(grid[-1] // 2)
    grid.reverse()
    start = max((k for k, n in enumerate(grid) if 2 * n <= n0
                 and replace(basis, n_max=n).dim <= _DENSE_DIM), default=0)
    res = accepted(grid[start])
    if res is not None:
        for n in reversed(grid[:start]):
            lower = accepted(n)
            if lower is None:
                break
            res = lower
        return res
    above = (n0 * 2 ** k for k in itertools.count(1))
    for n in itertools.chain(grid[start + 1:], above):
        res = accepted(n)
        if res is not None:
            return res


def converge_cutoff(p: DickeParams, n_spins: int, tol: float = 1e-8,
                    budget_nnz: int = DEFAULT_BUDGET_NNZ,
                    seed: int = DEFAULT_SEED) -> EDResult:
    """Ground state at an accepted Fock cutoff; its n_max_used is the
    cutoff.

    A cutoff n is accepted when the top Fock level holds less than
    TOP_ROW_TOL of the weight and |hp(n) - hp(ceil(1.25 n))| < tol.  The
    probe is taken only once n passes the first test: one ARPACK solve
    of the probe's H on the parity sector of n's state, started from
    that state padded with zeros, gives the probe's ground state.  A
    stalled probe solve raises ConvergenceError.  The budget is checked
    at the probe before n is solved.

    The search walks the halving grid n0 / 2^k below the coherent-shift
    estimate n0 = ceil(4 (N lambda^2/omega^2 + sqrt(N))).  It starts at
    the highest grid point n with 2 n <= n0 whose basis is dense (dim
    <= _DENSE_DIM), else at the lowest one.  An accepted start is
    followed down the grid until a cutoff fails, and the lowest accepted
    one is returned; a failed start is followed up the grid, then by
    doubling n0, until a cutoff is accepted.  Each call walks afresh.
    """
    return _walk_cutoff(p, EDBasis(n_spins, 1), tol, budget_nnz, seed)


def _row(p, basis: _Basis, n_max: int | None = None, tol: float = 1e-8,
         budget_nnz: int = DEFAULT_BUDGET_NNZ, seed: int = DEFAULT_SEED
         ) -> tuple[EDResult, float, FluctuationReport]:
    """One ED row of the params p on bases like this one: the solve at an
    explicit n_max (_solve_at), else the solve that the model's public
    walk accepted, with the photon entropy (bits) and fluctuation report
    of its state at its n_max_used.  Every step goes through the model's
    public functions (basis._api())."""
    res = (basis._api()[4](p, tol=tol, budget_nnz=budget_nnz, seed=seed)
           if n_max is None
           else _solve_at(p, replace(basis, n_max=n_max), budget_nnz, seed))
    at = replace(basis, n_max=res.n_max_used)
    _, _, moments, entropy, _ = at._api()
    return res, entropy(res, at), moments(res, at)


def scaling_at_critical(p: DickeParams, n_list: tuple[int, ...] | list[int],
                        tol: float = 1e-8,
                        budget_nnz: int = DEFAULT_BUDGET_NNZ,
                        seed: int = DEFAULT_SEED) -> ScalingReport:
    """hp(N) with converged cutoffs and its power-law fit; each size's hp
    and cutoff are those of its ED row (_row), the walk's accepted solve.

    The N list must span at least 1.5 decades; the exponent is fitted over
    the largest decade only, where subleading corrections are smallest.
    Every size must be a positive integer (EDBasis), else DomainError
    before any solve.
    """
    sizes = sorted(int(EDBasis(n, 1).n_spins) for n in n_list)
    if len(sizes) < 3:
        raise DomainError("need at least three sizes")
    if math.log10(sizes[-1] / sizes[0]) < 1.5:
        raise DomainError("size list must span at least 1.5 decades")

    rows = [_row(p, EDBasis(n, 1), tol=tol, budget_nnz=budget_nnz, seed=seed)
            for n in sizes]
    hps = [rep.hp for _, _, rep in rows]

    lo = sizes[-1] / 10.0
    window = [(n, h) for n, h in zip(sizes, hps) if n >= lo]
    if len(window) < 3:
        raise DegenerateFit("largest decade of N holds fewer than 3 sizes")
    wn = np.array([n for n, _ in window], dtype=float)
    wh = np.array([h for _, h in window])
    fit = _ols(np.log(wn), np.log(wh))
    return ScalingReport(sizes=tuple(sizes), hp_values=tuple(hps),
                         cutoffs=tuple(res.n_max_used for res, _, _ in rows),
                         fit=fit, fit_sizes=tuple(int(n) for n in wn))
