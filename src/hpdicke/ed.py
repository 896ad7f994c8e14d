"""Exact diagonalization of the Dicke model at finite N.

Works in the maximal-spin sector j = N/2 (the collective coupling never
leaves it), with basis states |n, m> indexed n*(N+1) + (m+j).  The
Hamiltonian

    H = omega a^dag a + omega0 Jz + (coupling/sqrt(N)) (a + a^dag)(J+ + J-)

is real symmetric with at most five nonzeros per row and commutes exactly
with the parity (-1)^(n + m + j), which is diagonal in this basis.
_offset_csr writes it, and the real two-chain matrix of double_ed,
straight into canonical float64 CSR with no stored zeros.

The solver works per parity sector (Emary & Brandes, PRE 67, 066203
(2003)): H splits into an even and an odd block of about half the
dimension, and the lowest eigenpair of each is found, densely below
_DENSE_DIM and with ARPACK above, from a seeded draw or, at a normal
point whose params the caller passes, from its Holstein-Primakoff ground
state (_hp_starts).  The ground state is the lower of the two and a
parity eigenstate by construction, so the superradiant cat pair needs no
separate resolution; gap01 is the splitting of the two minima.  Both
models share this core; double_ed writes its Hamiltonian in a real
diagonal gauge.  The solve warns CutoffWarning when the top Fock level
of the ground state holds TOP_ROW_TOL or more of its weight.  scipy
loads at the first ED call or ED config (_scipy): thermo needs numpy only.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
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
# ARPACK tolerance, and the odd sector's relative margin to be the ground
# state; reduced-density eigenvalues <= _ENTROPY_FLOOR carry no entropy.
SOLVE_TOL = 1e-12
_ENTROPY_FLOOR = 1e-16
DEFAULT_BUDGET_NNZ = int(5e7)
DEFAULT_SEED = 7

# Dense diagonalization of each parity sector when the full dimension is
# at most this; ARPACK above.
_DENSE_DIM = 1200


def _whole(k, top) -> bool:
    """k is an integer value in 0 .. top."""
    return 0 <= k <= top and float(k).is_integer()


@dataclass(frozen=True)
class EDBasis:
    """Photon Fock ladder times the maximal-spin multiplet."""

    n_spins: int
    n_max: int

    def __post_init__(self):
        if not (isinstance(self.n_spins, (int, np.integer)) and self.n_spins >= 1):
            raise DomainError(f"n_spins must be a positive integer, got {self.n_spins!r}")
        if not (isinstance(self.n_max, (int, np.integer)) and self.n_max >= 1):
            raise CutoffError(f"n_max must be >= 1, got {self.n_max!r}")

    @property
    def j(self) -> float:
        return 0.5 * self.n_spins

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.n_spins + 1)

    @property
    def max_nnz(self) -> int:
        """Upper bound on the stored entries of the Hamiltonian."""
        return 5 * self.dim

    def index(self, n: int, m: float) -> int:
        """Flat index of |n, m>, m in {-j .. j} in integer steps."""
        col = m + self.j
        if not (_whole(n, self.n_max) and _whole(col, self.n_spins)):
            raise DomainError(f"state (n={n}, m={m}) outside the basis")
        return int(n) * (self.n_spins + 1) + int(col)


@dataclass(frozen=True)
class EDResult:
    ground_energy: float
    gap01: float
    state: np.ndarray
    parity: float
    cutoff_converged: bool
    n_max_used: int


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


def _spin_diagonals(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """m = -j .. j and <m+1|J+|m> = sqrt((j - m)(j + m + 1)) for m < j in
    the maximal sector j = n_spins/2, clipped for roundoff."""
    j = n_spins / 2.0
    m = np.arange(n_spins + 1) - j
    return m, np.sqrt(np.clip((j - m[:-1]) * (j + m[:-1] + 1.0), 0.0, None))


def _offset_csr(shape: tuple[int, ...], entries) -> sp.csr_matrix:
    """Real canonical CSR matrix, with no stored zeros, over a basis grid of
    this shape (C order) from (column offset, row box, values) entries in
    column order; values broadcast over the box.  One loop counts each
    row's nonzeros and a second writes them in place, so no temporary
    outgrows one entry.
    """
    dim = math.prod(shape)
    itype = np.int32 if len(entries) * dim < 2 ** 31 else np.int64
    rows = np.arange(dim, dtype=itype).reshape(shape)
    count = np.zeros_like(rows)
    nonzero = []
    for _, box, v in entries:
        nz = np.broadcast_to(v, rows[box].shape) != 0
        count[box] += nz
        nonzero.append(nz)
    indptr = np.zeros(dim + 1, dtype=itype)
    np.cumsum(count, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=itype)
    pos = indptr[:-1].reshape(shape).copy()
    for (offset, box, v), nz in zip(entries, nonzero):
        at = pos[box][nz]
        data[at] = np.broadcast_to(v, nz.shape)[nz]
        indices[at] = rows[box][nz] + offset
        pos[box] += nz
    return _scipy().sparse.csr_matrix((data, indices, indptr), (dim, dim))


def build_hamiltonian(p: DickeParams, basis: EDBasis) -> sp.csr_matrix:
    """Sparse real symmetric Hamiltonian in canonical CSR with no stored
    zeros.  All four couplings read one array, indexed by the lower n and
    the lower m of the pair they join, so H is symmetric exactly."""
    nm = basis.n_spins + 1
    m, lad = _spin_diagonals(basis.n_spins)
    levels = np.arange(basis.n_max + 1)
    g = p.coupling / math.sqrt(basis.n_spins)
    amp = g * np.sqrt(levels[1:])[:, None] * lad
    diag = p.omega * levels[:, None] + p.omega0 * m
    # to n - 1 (m - 1, m + 1), diagonal, to n + 1 (m - 1, m + 1)
    lo, hi, every = slice(1, None), slice(None, -1), slice(None)
    return _offset_csr((basis.n_max + 1, nm),
                       [(-nm - 1, (lo, lo), amp), (-nm + 1, (lo, hi), amp),
                        (0, (every, every), diag),
                        (nm - 1, (hi, lo), amp), (nm + 1, (hi, hi), amp)])


def parity_diagonal(basis: EDBasis) -> np.ndarray:
    """Diagonal of the parity operator, entries (-1)^(n + m + j)."""
    n_par = (-1.0) ** np.arange(basis.n_max + 1)
    m_par = (-1.0) ** np.arange(basis.n_spins + 1)
    return np.kron(n_par, m_par)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def _sector_minimum(H: sp.csr_matrix, idx: np.ndarray,
                    v0: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H restricted to the basis states idx."""
    block = H[idx][:, idx]
    if H.shape[0] <= _DENSE_DIM:
        w, v = _scipy().linalg.eigh(block.toarray(), subset_by_index=[0, 0])
        return float(w[0]), v[:, 0]
    try:
        w, v = _scipy().sparse.linalg.eigsh(block, k=1, which="SA",
                                            v0=v0, tol=SOLVE_TOL)
    except _scipy().sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver stalled at dim {idx.size} of {H.shape[0]}",
            iterations=getattr(exc, "iterations", None)) from exc
    return float(w[0]), v[:, 0]


def _add_created(out: np.ndarray, coef, psi: np.ndarray, axis: int):
    """out += coef a^dag psi, a^dag raising the mode on axis of psi."""
    src, dst = np.moveaxis(psi, axis, -1), np.moveaxis(out, axis, -1)
    dst[..., 1:] += (coef * np.sqrt(np.arange(1, src.shape[-1]))
                     * src[..., :-1])


def _pair_state(Z: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """<n|exp(a^dag Z a^dag / 2)|0> on the Fock box of this shape, slice by
    slice of mode 0: G(n + e_0) = sum_j Z_0j (a_j^dag G)(n) / sqrt(n_0 + 1)."""
    psi = np.zeros(shape, dtype=complex)
    psi[0] = _pair_state(Z[1:, 1:], shape[1:]) if len(shape) > 1 else 1.0
    for n in range(shape[0] - 1):
        nxt = Z[0, 0] * math.sqrt(n) * psi[max(n - 1, 0)]
        for j in range(1, len(shape)):
            _add_created(nxt, Z[0, j], psi[n], j - 1)
        psi[n + 1] = nxt / math.sqrt(n + 1)
    return psi


def _hp_starts(form: QuadraticForm, shape: tuple[int, ...], gauge, sectors,
               draws: list[np.ndarray]) -> list[np.ndarray]:
    """Sector starts from the polariton rows (X, Y) of a normal-phase form
    over the basis axes: G = exp(a^dag Z a^dag / 2)|0>, Z = -X^-1 Y, and
    b_soft^dag G, each on its sector idx times gauge(idx), phase-fixed and
    real, plus 1e-6 of its unit draw; the draws when the form is unstable."""
    try:
        T = symplectic_diagonalize(form).transform
    except InstabilityError:
        return draws
    n = form.n_modes
    X, Y = T[:n, :n], T[:n, n:]
    Z = -np.linalg.solve(X, Y)
    even = _pair_state(Z, shape)
    w = X[0].conj() + Y[0].conj() @ Z
    odd = np.zeros_like(even)
    for j in range(n):
        _add_created(odd, w[j], even, j)
    starts = []
    for psi, idx, r in zip((even, odd), sectors, draws):
        v = psi.ravel()[idx] * (1.0 if gauge is None else gauge(idx))
        v = (v * v[np.argmax(np.abs(v))].conjugate()).real
        starts.append(v / np.linalg.norm(v) + 1e-6 * r / np.linalg.norm(r))
    return starts


def _sector_ground_state(H_real: sp.csr_matrix, parity: np.ndarray,
                         basis_top_slab: int, seed: int,
                         hp_start=None) -> EDResult:
    """Ground state of a real symmetric H that commutes with the diagonal
    parity (entries +-1), from the lowest eigenpair of each sector.

    ARPACK starts from each sector's part of a seeded draw, or from
    hp_start(sectors, those parts) when given (_hp_starts).  The odd
    minimum is the ground state only when it lies lower by more than
    SOLVE_TOL*max(1, |E|); a cat pair degenerate to that accuracy reports
    its even member.  gap01 is |E_odd - E_even|.  A ground state whose top
    Fock slab holds TOP_ROW_TOL or more of the weight is not
    cutoff_converged and warns CutoffWarning.
    """
    dim = H_real.shape[0]
    v0 = np.random.default_rng(seed).standard_normal(dim)
    sectors = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    starts = [v0[idx] for idx in sectors]
    del v0
    if hp_start is not None:
        starts = hp_start(sectors, starts)
    (e_even, v_even), (e_odd, v_odd) = (
        _sector_minimum(H_real, idx, s) for idx, s in zip(sectors, starts))
    sign = (-1.0 if e_odd < e_even - SOLVE_TOL * max(1.0, abs(e_even))
            else 1.0)
    e0, v = (e_odd, v_odd) if sign < 0 else (e_even, v_even)
    psi = np.zeros(dim)
    psi[parity == sign] = v / np.linalg.norm(v)
    psi = _fix_sign(psi)
    # the photon number is the outermost index of both basis layouts
    top = float(np.vdot(psi[-basis_top_slab:], psi[-basis_top_slab:]))
    converged = top < TOP_ROW_TOL
    if not converged:
        warnings.warn(f"top Fock level holds {top:.2e} of the weight; "
                      "moments may be truncated", CutoffWarning, stacklevel=3)
    return EDResult(ground_energy=e0, gap01=abs(e_odd - e_even), state=psi,
                    parity=sign, cutoff_converged=converged,
                    n_max_used=dim // basis_top_slab - 1)


def ground_state(H: sp.spmatrix, basis: EDBasis, seed: int = DEFAULT_SEED,
                 *, params: DickeParams | None = None) -> EDResult:
    """Lowest state of each parity sector, deterministic for a fixed seed;
    the ground state is a parity eigenstate (see _sector_ground_state).
    Given the params of H, ARPACK starts at a normal point from the HP
    state of dicke_quadratic_form, HP boson k = m + j (_hp_starts)."""
    hp_start = None
    if (params is not None and basis.dim > _DENSE_DIM
            and classify_phase(params).phase is Phase.NORMAL):
        hp_start = functools.partial(
            _hp_starts, dicke_quadratic_form(params),
            (basis.n_max + 1, basis.n_spins + 1), None)
    return _sector_ground_state(H.tocsr(), parity_diagonal(basis),
                                basis.n_spins + 1, seed, hp_start)


def _state_matrix(result: EDResult, basis: EDBasis) -> np.ndarray:
    if result.state.size != basis.dim:
        raise DomainError("state length does not match the basis dimension")
    return result.state.reshape(basis.n_max + 1, basis.n_spins + 1)


def photon_moments_ed(result: EDResult, basis: EDBasis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, centered and fed
    to the generic uncertainty-product reducer."""
    W = _state_matrix(result, basis)
    root1 = np.sqrt(np.arange(1, basis.n_max + 1))
    mean_a = float(np.sum(root1[:, None] * W[:-1] * W[1:]))
    root2 = np.sqrt(np.arange(1, basis.n_max)
                    * np.arange(2, basis.n_max + 1))
    a_sq = float(np.sum(root2[:, None] * W[:-2] * W[2:]))
    occ = float(np.sum(np.arange(basis.n_max + 1)[:, None] * W * W))
    return heisenberg_product(mean_a=mean_a, a_sq=a_sq, occupation=occ)


def photon_entropy_ed(result: EDResult, basis: EDBasis) -> float:
    """Entanglement entropy (bits) of the photon reduced density matrix."""
    W = _state_matrix(result, basis)
    rho = W @ W.T
    w = np.linalg.eigvalsh(rho)
    w = w[w > _ENTROPY_FLOOR]
    return float(-np.sum(w * np.log2(w)))


def _check_budget(basis, budget_nnz: int) -> None:
    """Raise BudgetExceeded when the basis's Hamiltonian may store more
    than budget_nnz entries."""
    need = basis.max_nnz
    if need > budget_nnz:
        raise BudgetExceeded(
            f"cutoff {basis.n_max} needs ~{need} nonzeros, over the budget "
            f"of {budget_nnz}", needed=need, budget=budget_nnz)


def _walk_cutoff(n0: int, basis_at, solve, moments, tol: float,
                 budget_nnz: int) -> EDResult:
    """The solve at the first accepted cutoff of the halving grid below
    n0, walked cheapest-first; above n0 the walk doubles until a cutoff
    is accepted.

    A cutoff n is accepted when its own solve is cutoff_converged and one
    larger solve confirms it: |hp(n) - hp(ceil(1.25 n))| < tol.  The
    probe ceil(1.25 n) is solved only when n's own solve is converged,
    and the budget is checked at the probe before n is solved.
    solve(basis) gives the EDResult at basis_at(n) and
    moments(result, basis).hp its hp.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")

    def solved(n: int) -> tuple[EDResult, float]:
        basis = basis_at(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffWarning)
            res = solve(basis)
            return res, moments(res, basis).hp

    grid = [n0]
    while grid[-1] > 1:
        grid.append(grid[-1] // 2)
    above = (n0 * 2 ** k for k in itertools.count(1))
    for n in itertools.chain(reversed(grid), above):
        probe = max(n + 1, math.ceil(1.25 * n))
        _check_budget(basis_at(probe), budget_nnz)
        res, hp = solved(n)
        if res.cutoff_converged and abs(hp - solved(probe)[1]) < tol:
            return res


def converge_cutoff(p: DickeParams, n_spins: int, tol: float = 1e-8,
                    budget_nnz: int = DEFAULT_BUDGET_NNZ,
                    seed: int = DEFAULT_SEED) -> EDResult:
    """Ground state at the first accepted Fock cutoff; its n_max_used is
    the cutoff.

    A cutoff n is accepted when the top Fock level holds less than
    TOP_ROW_TOL of the weight and |hp(n) - hp(ceil(1.25 n))| < tol; the
    larger probe is solved only once n passes the first test.  From the
    coherent-shift estimate n0 = ceil(4 (N lambda^2/omega^2 + sqrt(N)))
    the search tries the halving grid n0 / 2^k cheapest-first, takes the
    first accepted cutoff, and doubles n0 if none is.  Each call walks
    afresh.
    """
    n0 = math.ceil(
        4.0 * (n_spins * p.coupling ** 2 / p.omega ** 2 + math.sqrt(n_spins)))
    return _walk_cutoff(
        n0, lambda n: EDBasis(n_spins, n),
        lambda basis: ground_state(build_hamiltonian(p, basis), basis,
                                   seed=seed, params=p),
        photon_moments_ed, tol, budget_nnz)


def scaling_at_critical(p: DickeParams, n_list: tuple[int, ...] | list[int],
                        tol: float = 1e-8,
                        budget_nnz: int = DEFAULT_BUDGET_NNZ,
                        seed: int = DEFAULT_SEED) -> ScalingReport:
    """hp(N) with converged cutoffs and its power-law fit.

    The N list must span at least 1.5 decades; the exponent is fitted over
    the largest decade only, where subleading corrections are smallest.
    """
    sizes = sorted(int(n) for n in n_list)
    if len(sizes) < 3:
        raise DomainError("need at least three sizes")
    if math.log10(sizes[-1] / sizes[0]) < 1.5:
        raise DomainError("size list must span at least 1.5 decades")

    hps, cuts = [], []
    for n_spins in sizes:
        res = converge_cutoff(p, n_spins, tol=tol, budget_nnz=budget_nnz,
                              seed=seed)
        basis = EDBasis(n_spins, res.n_max_used)
        hps.append(photon_moments_ed(res, basis).hp)
        cuts.append(basis.n_max)

    lo = sizes[-1] / 10.0
    window = [(n, h) for n, h in zip(sizes, hps) if n >= lo]
    if len(window) < 3:
        raise DegenerateFit("largest decade of N holds fewer than 3 sizes")
    wn = np.array([n for n, _ in window], dtype=float)
    wh = np.array([h for _, h in window])
    fit = _ols(np.log(wn), np.log(wh))
    return ScalingReport(sizes=tuple(sizes), hp_values=tuple(hps),
                         cutoffs=tuple(cuts), fit=fit,
                         fit_sizes=tuple(int(n) for n in wn))
