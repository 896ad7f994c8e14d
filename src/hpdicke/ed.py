"""Exact diagonalization of the Dicke model at finite N.

Works in the maximal-spin sector j = N/2 (the collective coupling never
leaves it), with basis states |n, m> indexed n*(N+1) + (m+j).  The
Hamiltonian

    H = omega a^dag a + omega0 Jz + (coupling/sqrt(N)) (a + a^dag)(J+ + J-)

is real symmetric with at most five nonzeros per row and commutes exactly
with the parity (-1)^(n + m + j), which is diagonal in this basis.

The solver works per parity sector (Emary & Brandes, PRE 67, 066203
(2003)): H splits into an even and an odd block of about half the
dimension, and the lowest eigenpair of each is found, densely below
_DENSE_DIM and with ARPACK above.  The ground state is the lower of the
two and is a parity eigenstate by construction, so the superradiant cat
pair needs no separate resolution; gap01 is the splitting between the
two sector minima.  The same core serves the two-chain model in
double_ed after a diagonal gauge makes that Hamiltonian real.
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
DEFAULT_BUDGET_NNZ = int(5e7)
DEFAULT_SEED = 7

# Dense diagonalization of each parity sector when the full dimension is
# at most this; ARPACK above.
_DENSE_DIM = 1200


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
        col = int(round(m + self.j))
        if not (0 <= n <= self.n_max and 0 <= col <= self.n_spins):
            raise DomainError(f"state (n={n}, m={m}) outside the basis")
        return n * (self.n_spins + 1) + col


@dataclass(frozen=True)
class EDResult:
    ground_energy: float
    gap01: float
    state: np.ndarray
    parity: float
    cutoff_converged: bool
    n_max_used: int
    # parities of the ground state and of the other sector's minimum
    pair_parities: tuple[float, float] = (math.nan, math.nan)


@dataclass(frozen=True)
class ScalingReport:
    """hp against system size at fixed couplings, with the power-law fit
    taken over the largest decade of N."""

    sizes: tuple[int, ...]
    hp_values: tuple[float, ...]
    cutoffs: tuple[int, ...]
    fit: ExponentFit
    fit_sizes: tuple[int, ...]


def _ladder_coeffs(basis: EDBasis) -> tuple[np.ndarray, np.ndarray]:
    j = basis.j
    m = -j + np.arange(basis.n_spins + 1)
    jp = np.sqrt(np.maximum(j * (j + 1) - m * (m + 1), 0.0))
    jm = np.sqrt(np.maximum(j * (j + 1) - m * (m - 1), 0.0))
    return jp, jm


def build_hamiltonian(p: DickeParams, basis: EDBasis) -> sp.csr_matrix:
    """Assemble the sparse Hamiltonian; real symmetric, <= 5 nonzeros/row."""
    nm = basis.n_spins + 1
    nn = basis.n_max + 1
    j = basis.j
    g = p.coupling / math.sqrt(basis.n_spins)

    levels = np.arange(nn)
    m_vals = -j + np.arange(nm)
    jp, jm = _ladder_coeffs(basis)

    diag = (p.omega * levels[:, None] + p.omega0 * m_vals[None, :]).ravel()

    # Transition blocks; each pair of mutually transposed operators is
    # generated from identical float products, so H is symmetric exactly.
    rows, cols, vals = [np.arange(basis.dim)], [np.arange(basis.dim)], [diag]
    root_n = np.sqrt(levels[1:])  # sqrt(n) for n = 1..n_max

    def add(dn: int, dm: int, amp: np.ndarray):
        # amp indexed by (n, m) of the source state
        n_src = levels[:-1] if dn > 0 else levels[1:]
        m_src = np.arange(nm - 1) if dm > 0 else np.arange(1, nm)
        nv, mv = np.meshgrid(n_src, m_src, indexing="ij")
        src = (nv * nm + mv).ravel()
        dst = ((nv + dn) * nm + (mv + dm)).ravel()
        rows.append(dst)
        cols.append(src)
        vals.append(amp.ravel())

    if g != 0.0:
        up = root_n  # photon raising amplitude from level n: sqrt(n+1)
        add(+1, +1, g * up[:, None] * jp[None, :-1])
        add(+1, -1, g * up[:, None] * jm[None, 1:])
        add(-1, +1, g * up[:, None] * jp[None, :-1])
        add(-1, -1, g * up[:, None] * jm[None, 1:])

    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim))
    return H.tocsr()


def parity_diagonal(basis: EDBasis) -> np.ndarray:
    """Diagonal of the parity operator, entries (-1)^(n + m + j)."""
    n_par = (-1.0) ** np.arange(basis.n_max + 1)
    m_par = (-1.0) ** np.arange(basis.n_spins + 1)
    return np.kron(n_par, m_par)


def _top_slab_weight(state: np.ndarray, slab: int) -> float:
    """Weight of the last slab entries: the top Fock level, since the
    photon number is the outermost index of both basis layouts."""
    top = state[-slab:]
    return float(np.vdot(top, top).real)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def _sector_minimum(H: sp.csr_matrix, idx: np.ndarray, v0: np.ndarray,
                    tol: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H restricted to the basis states idx."""
    block = H[idx][:, idx]
    if H.shape[0] <= _DENSE_DIM:
        w, v = sla.eigh(block.toarray(), subset_by_index=[0, 0])
        return float(w[0]), v[:, 0]
    try:
        w, v = spla.eigsh(block, k=1, which="SA", v0=v0[idx], tol=tol)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver stalled at dim {idx.size} of {H.shape[0]}",
            iterations=getattr(exc, "iterations", None)) from exc
    return float(w[0]), v[:, 0]


def _sector_ground_state(H_real: sp.csr_matrix, parity: np.ndarray,
                         basis_top_slab: int, seed: int,
                         tol: float) -> EDResult:
    """Ground state of a real symmetric H that commutes with the diagonal
    parity (entries +-1), from the lowest eigenpair of each sector.

    The odd minimum is the ground state only when it lies lower by more
    than tol*max(1, |E|); a cat pair degenerate to that accuracy reports
    its even member.  gap01 is |E_odd - E_even|.
    """
    dim = H_real.shape[0]
    v0 = np.random.default_rng(seed).standard_normal(dim)
    e_even, v_even = _sector_minimum(H_real, np.flatnonzero(parity > 0),
                                     v0, tol)
    e_odd, v_odd = _sector_minimum(H_real, np.flatnonzero(parity < 0),
                                   v0, tol)
    sign = -1.0 if e_odd < e_even - tol * max(1.0, abs(e_even)) else 1.0
    e0, v = (e_odd, v_odd) if sign < 0 else (e_even, v_even)
    psi = np.zeros(dim)
    psi[parity == sign] = v / np.linalg.norm(v)
    psi = _fix_sign(psi)
    converged = _top_slab_weight(psi, basis_top_slab) < TOP_ROW_TOL
    return EDResult(ground_energy=e0, gap01=abs(e_odd - e_even), state=psi,
                    parity=sign, cutoff_converged=converged,
                    n_max_used=dim // basis_top_slab - 1,
                    pair_parities=(sign, -sign))


def ground_state(H: sp.spmatrix, basis: EDBasis, seed: int = DEFAULT_SEED,
                 tol: float = 1e-12) -> EDResult:
    """Lowest state of each parity sector, deterministic for a fixed seed;
    the ground state is a parity eigenstate (see _sector_ground_state)."""
    return _sector_ground_state(H.tocsr(), parity_diagonal(basis),
                                basis.n_spins + 1, seed, tol)


def _state_matrix(result: EDResult, basis: EDBasis) -> np.ndarray:
    if result.state.size != basis.dim:
        raise DomainError("state length does not match the basis dimension")
    return result.state.reshape(basis.n_max + 1, basis.n_spins + 1)


def _warn_if_truncated(result: EDResult, basis: EDBasis):
    w = _top_slab_weight(result.state, basis.n_spins + 1)
    if w > TOP_ROW_TOL:
        warnings.warn(f"top Fock level holds {w:.2e} of the weight; "
                      "moments may be truncated", CutoffWarning, stacklevel=3)


def photon_moments_ed(result: EDResult, basis: EDBasis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, centered and fed
    to the generic uncertainty-product reducer."""
    _warn_if_truncated(result, basis)
    W = _state_matrix(result, basis)
    root1 = np.sqrt(np.arange(1, basis.n_max + 1))
    mean_a = float(np.sum(root1[:, None] * W[:-1] * W[1:]))
    root2 = np.sqrt(np.arange(1, basis.n_max)
                    * np.arange(2, basis.n_max + 1))
    a_sq = float(np.sum(root2[:, None] * W[:-2] * W[2:]))
    occ = float(np.sum(np.arange(basis.n_max + 1)[:, None] * W * W))
    return heisenberg_product(mean_a=mean_a, a_sq=a_sq, occupation=occ)


def photon_entropy_ed(result: EDResult, basis: EDBasis,
                      floor: float = 1e-16) -> float:
    """Entanglement entropy (bits) of the photon reduced density matrix."""
    _warn_if_truncated(result, basis)
    W = _state_matrix(result, basis)
    rho = W @ W.T
    w = np.linalg.eigvalsh(rho)
    w = w[w > floor]
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
                    start: int | None = None,
                    seed: int = DEFAULT_SEED) -> EDResult:
    """Ground state at the first accepted Fock cutoff; its n_max_used is
    the cutoff.

    A cutoff n is accepted when the top Fock level holds less than
    TOP_ROW_TOL of the weight and |hp(n) - hp(ceil(1.25 n))| < tol; the
    larger probe is solved only once n passes the first test.  From the
    coherent-shift estimate n0 = ceil(4 (N lambda^2/omega^2 + sqrt(N)))
    (or an explicit start) the search tries the halving grid n0 / 2^k
    cheapest-first, takes the first accepted cutoff, and doubles n0 if
    none is.  Each call walks afresh.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    n0 = start if start is not None else math.ceil(
        4.0 * (n_spins * p.coupling ** 2 / p.omega ** 2 + math.sqrt(n_spins)))
    return _walk_cutoff(
        max(int(n0), 1), lambda n: EDBasis(n_spins, n),
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
