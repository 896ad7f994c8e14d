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
_DENSE_DIM and with ARPACK above.  The ground state is the lower of the
two and is a parity eigenstate by construction, so the superradiant cat
pair needs no separate resolution; gap01 is the splitting between the
two sector minima.  The same core serves the two-chain model of
double_ed, whose builder writes that Hamiltonian in a real diagonal
gauge.  The solve warns CutoffWarning when the top Fock level of the
ground state holds TOP_ROW_TOL or more of its weight.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dicke import DickeParams
from .errors import (BudgetExceeded, ConvergenceError, CutoffError,
                     CutoffWarning, DegenerateFit, DomainError)
from .fits import ExponentFit, _ols
from .gaussian import FluctuationReport, heisenberg_product

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
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


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
        w, v = sla.eigh(block.toarray(), subset_by_index=[0, 0])
        return float(w[0]), v[:, 0]
    try:
        w, v = spla.eigsh(block, k=1, which="SA", v0=v0[idx],
                         tol=SOLVE_TOL)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver stalled at dim {idx.size} of {H.shape[0]}",
            iterations=getattr(exc, "iterations", None)) from exc
    return float(w[0]), v[:, 0]


def _sector_ground_state(H_real: sp.csr_matrix, parity: np.ndarray,
                         basis_top_slab: int, seed: int) -> EDResult:
    """Ground state of a real symmetric H that commutes with the diagonal
    parity (entries +-1), from the lowest eigenpair of each sector.

    The odd minimum is the ground state only when it lies lower by more
    than SOLVE_TOL*max(1, |E|); a cat pair degenerate to that accuracy
    reports its even member.  gap01 is |E_odd - E_even|.  A ground state
    whose top Fock slab holds TOP_ROW_TOL or more of the weight is not
    cutoff_converged and warns CutoffWarning.
    """
    dim = H_real.shape[0]
    v0 = np.random.default_rng(seed).standard_normal(dim)
    e_even, v_even = _sector_minimum(H_real, np.flatnonzero(parity > 0), v0)
    e_odd, v_odd = _sector_minimum(H_real, np.flatnonzero(parity < 0), v0)
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


def ground_state(H: sp.spmatrix, basis: EDBasis,
                 seed: int = DEFAULT_SEED) -> EDResult:
    """Lowest state of each parity sector, deterministic for a fixed seed;
    the ground state is a parity eigenstate (see _sector_ground_state)."""
    return _sector_ground_state(H.tocsr(), parity_diagonal(basis),
                                basis.n_spins + 1, seed)


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
                                   seed=seed),
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
