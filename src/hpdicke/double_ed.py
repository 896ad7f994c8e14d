"""Finite-size diagonalization of the double-quadrature Dicke model.

One photon mode and two collective spins, each in its maximal-j sector.
The chain-I coupling enters through i(a - a^dag), so the Hamiltonian is
complex Hermitian in the product basis; build_double_hamiltonian returns
that matrix, on which symmetry_residuals checks the two antiunitary
chain symmetries.  It is written straight into CSR form: each row has
the diagonal and at most eight couplings, at fixed flat-index offsets.

The solver uses a real gauge.  With D = 1 where U_C = +1 and D = i where
U_C = -1, every chain-C term connects equal U_C and stays real, while
every chain-I term flips U_C and picks up a factor +-i that makes it
real too, so D^dag H D is exactly real symmetric.  It commutes with the
total parity U_C U_I and goes to the parity-sector core of ed; the
phases D are applied back to the ground state before any moment is
taken.

Basis layout: flat index n*(n_c+1)*(n_i+1) + mc_idx*(n_i+1) + mi_idx with
mc_idx = m_C + N_C/2, mi_idx = m_I + N_I/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .double import DoubleDickeParams
from .ed import (DEFAULT_BUDGET_NNZ, DEFAULT_SEED, EDResult, _check_budget,
                 _sector_ground_state, _top_slab_weight, _walk_cutoff)
from .errors import CutoffError, CutoffWarning, DomainError
from .gaussian import FluctuationReport, heisenberg_product

__all__ = [
    "DoubleEDBasis",
    "build_double_hamiltonian",
    "double_parities",
    "symmetry_residuals",
    "double_ground_state",
    "photon_moments_double",
    "photon_entropy_double",
    "converge_cutoff_double",
    "double_ed",
]

@dataclass(frozen=True)
class DoubleEDBasis:
    """Photon Fock space times two maximal-j spin sectors."""

    n_c: int
    n_i: int
    n_max: int

    def __post_init__(self):
        for n in (self.n_c, self.n_i):
            if not (isinstance(n, (int, np.integer)) and n >= 1):
                raise DomainError(
                    f"chain sizes must be positive integers, got {n!r}")
        if not (isinstance(self.n_max, (int, np.integer)) and self.n_max >= 1):
            raise CutoffError(f"n_max must be >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.n_c + 1) * (self.n_i + 1)

    @property
    def max_nnz(self) -> int:
        """Upper bound on the stored entries of the Hamiltonian: the
        diagonal and four corners per coupling."""
        return 9 * self.dim

    def index(self, n: int, mc_idx: int, mi_idx: int) -> int:
        return (n * (self.n_c + 1) + mc_idx) * (self.n_i + 1) + mi_idx


def _spin_diagonals(n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """m = -j .. j and <m+1|J+|m> = sqrt((j - m)(j + m + 1)) for m < j in
    the maximal sector j = n_spins/2, clipped for roundoff."""
    j = n_spins / 2.0
    m = np.arange(n_spins + 1) - j
    return m, np.sqrt(np.clip((j - m[:-1]) * (j + m[:-1] + 1.0), 0.0, None))


def build_double_hamiltonian(p: DoubleDickeParams,
                             basis: DoubleEDBasis) -> sp.csr_matrix:
    """Sparse complex Hermitian matrix of the two-chain Hamiltonian with
    couplings scaled by the respective 1/sqrt(N_k), in canonical CSR with
    no stored zeros.

    One loop over the nine offsets counts each row's nonzeros and a
    second writes them in place, so no temporary outgrows one offset.
    """
    nn, nc, ni = basis.n_max + 1, basis.n_c + 1, basis.n_i + 1
    m_c, lad_c = _spin_diagonals(basis.n_c)
    m_i, lad_i = _spin_diagonals(basis.n_i)
    levels = np.arange(nn, dtype=float)
    root = np.sqrt(levels[1:])[:, None, None]  # between n and n + 1
    amp_c = p.lambda_c / math.sqrt(basis.n_c) * (root * lad_c[:, None])
    amp_i = p.lambda_i / math.sqrt(basis.n_i) * (root * lad_i)
    diag = ((p.omega_cav * levels[:, None, None] + p.omega0_c * m_c[:, None])
            + p.omega0_i * m_i)
    # (column offset, rows holding the entry, its value there) in column
    # order: to n - 1 (mc - 1, mi - 1, mi + 1, mc + 1), diagonal, to n + 1;
    # i(a - a^dag) is -i on the row with more photons
    lo, hi, every = slice(1, None), slice(None, -1), slice(None)
    sn = nc * ni
    itype = np.int32 if basis.max_nnz < 2 ** 31 else np.int64
    rows = np.arange(basis.dim, dtype=itype).reshape(nn, nc, ni)
    count = np.zeros_like(rows)
    entries = []
    for offset, box, v in [(-sn - ni, (lo, lo, every), amp_c),
                           (-sn - 1, (lo, every, lo), -1j * amp_i),
                           (-sn + 1, (lo, every, hi), -1j * amp_i),
                           (-sn + ni, (lo, hi, every), amp_c),
                           (0, (every, every, every), diag),
                           (sn - ni, (hi, lo, every), amp_c),
                           (sn - 1, (hi, every, lo), 1j * amp_i),
                           (sn + 1, (hi, every, hi), 1j * amp_i),
                           (sn + ni, (hi, hi, every), amp_c)]:
        v = np.broadcast_to(v, rows[box].shape)
        nz = v != 0
        count[box] += nz
        entries.append((offset, box, v, nz))
    indptr = np.zeros(basis.dim + 1, dtype=itype)
    np.cumsum(count, out=indptr[1:])
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=itype)
    pos = indptr[:-1].reshape(nn, nc, ni).copy()
    for offset, box, v, nz in entries:
        at = pos[box][nz]
        data[at], indices[at] = v[nz], rows[box][nz] + offset
        pos[box] += nz
    return sp.csr_matrix((data, indices, indptr),
                         shape=(basis.dim, basis.dim))


def double_parities(basis: DoubleEDBasis) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the unitary halves of the two antiunitary symmetries:
    U_C = (-1)^(n + mc_idx) and U_I = (-1)^mi_idx.

    T_k = U_k composed with complex conjugation leaves the Hamiltonian
    invariant exactly; the product U_C U_I is the unitary total parity.
    """
    sn = (-1.0) ** np.arange(basis.n_max + 1)
    sc = (-1.0) ** np.arange(basis.n_c + 1)
    si = (-1.0) ** np.arange(basis.n_i + 1)
    ones_c = np.ones(basis.n_c + 1)
    ones_i = np.ones(basis.n_i + 1)
    u_c = np.kron(np.kron(sn, sc), ones_i)
    u_i = np.kron(np.kron(np.ones(basis.n_max + 1), ones_c), si)
    return u_c, u_i


def symmetry_residuals(H: sp.csr_matrix,
                       basis: DoubleEDBasis) -> tuple[float, float, float]:
    """Max-abs residuals of the two antiunitary invariances
    U_k conj(H) - H U_k and of total-parity commutation; all exactly zero
    for a correctly assembled matrix."""
    u_c, u_i = double_parities(basis)
    res = []
    for u in (u_c, u_i):
        U = sp.diags(u)
        D = U @ H.conj() - H @ U
        res.append(0.0 if D.nnz == 0 else float(np.abs(D.data).max()))
    P = sp.diags(u_c * u_i)
    D = P @ H - H @ P
    res.append(0.0 if D.nnz == 0 else float(np.abs(D.data).max()))
    return tuple(res)


def _real_gauge(H: sp.csr_matrix,
                u_c: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """D^dag H D as a real matrix, and the phases D (1 where U_C = +1,
    i where U_C = -1), for the U_C diagonal u_c.

    Entries within one U_C sector are real and keep their value; entries
    across sectors are imaginary and become -Im H (row U_C = +1) or
    +Im H (row U_C = -1), so the imaginary part dropped is exactly zero.
    The result shares its index arrays with H.
    """
    H = H.tocsr()
    row_u = np.repeat(u_c, np.diff(H.indptr))
    data = H.data.real + 0.5 * (u_c[H.indices] - row_u) * H.data.imag
    d = np.where(u_c > 0, 1.0 + 0j, 1j)
    return sp.csr_matrix((data, H.indices, H.indptr), shape=H.shape), d


def double_ground_state(H: sp.csr_matrix, basis: DoubleEDBasis,
                        seed: int = DEFAULT_SEED,
                        tol: float = 1e-12) -> EDResult:
    """Lowest state of each total-parity sector of the complex Hermitian
    matrix, solved in the real gauge; the ground state is the lower one,
    a total-parity eigenstate."""
    u_c, u_i = double_parities(basis)
    H_real, d = _real_gauge(H, u_c)
    slab = (basis.n_c + 1) * (basis.n_i + 1)
    res = _sector_ground_state(H_real, u_c * u_i, slab, seed, tol)
    res = replace(res, state=d * res.state)
    if not res.cutoff_converged:
        top = _top_slab_weight(res.state, slab)
        warnings.warn(
            f"top Fock slab holds weight {top:.3e}; increase the cutoff",
            CutoffWarning, stacklevel=2)
    return res


def photon_moments_double(result: EDResult,
                          basis: DoubleEDBasis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, reduced over both
    chains and fed to the generic uncertainty-product reducer."""
    w = result.state.reshape(basis.n_max + 1, -1)
    levels = np.arange(basis.n_max + 1)
    root1 = np.sqrt(levels[1:].astype(float))
    occ = float(np.sum(levels[:, None] * np.abs(w) ** 2))
    mean = complex(np.sum(root1[:, None] * w[:-1].conj() * w[1:]))
    if basis.n_max >= 2:
        root2 = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
        a_sq = complex(np.sum(root2[:, None] * w[:-2].conj() * w[2:]))
    else:
        a_sq = 0.0j
    return heisenberg_product(mean_a=mean, a_sq=a_sq, occupation=occ)


def photon_entropy_double(result: EDResult, basis: DoubleEDBasis,
                          floor: float = 1e-14) -> float:
    """Entanglement entropy (bits) between the photon and both chains."""
    w = result.state.reshape(basis.n_max + 1, -1)
    rho = w @ w.conj().T
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > floor]
    return float(-np.sum(vals * np.log2(vals)))


def converge_cutoff_double(p: DoubleDickeParams, tol: float = 1e-8,
                           budget_nnz: int = DEFAULT_BUDGET_NNZ,
                           start: int | None = None,
                           seed: int = DEFAULT_SEED) -> EDResult:
    """Ground state at the smallest accepted Fock cutoff; its n_max_used
    is the cutoff.

    Same walk and acceptance rule as ed.converge_cutoff (top Fock slab
    below TOP_ROW_TOL and hp stable to tol against ceil(1.25 n)), from
    n0 = max(8, ceil(4 (N lambda^2/omega^2 + sqrt(N)))) with the larger
    chain size and coupling, or an explicit start.
    """
    if p.n_c is None or p.n_i is None:
        raise DomainError("chain sizes n_c and n_i are required for ED")
    lam = max(p.lambda_c, p.lambda_i)
    nbar = max(p.n_c, p.n_i)
    n0 = start if start is not None else max(
        8, math.ceil(4.0 * (nbar * lam ** 2 / p.omega_cav ** 2
                            + math.sqrt(nbar))))
    return _walk_cutoff(
        n0, lambda n: DoubleEDBasis(n_c=p.n_c, n_i=p.n_i, n_max=n),
        lambda basis: double_ground_state(
            build_double_hamiltonian(p, basis), basis, seed=seed),
        photon_moments_double, tol, budget_nnz)


def double_ed(p: DoubleDickeParams, n_max: int, seed: int = DEFAULT_SEED,
              budget_nnz: int = DEFAULT_BUDGET_NNZ,
              tol: float = 1e-12) -> tuple[EDResult, float, FluctuationReport]:
    """Ground state, photon entanglement entropy (bits), and photon
    fluctuation report at the given cutoff.  Requires n_c and n_i on the
    params."""
    if p.n_c is None or p.n_i is None:
        raise DomainError("chain sizes n_c and n_i are required for ED")
    basis = DoubleEDBasis(n_c=p.n_c, n_i=p.n_i, n_max=n_max)
    _check_budget(basis, budget_nnz)
    H = build_double_hamiltonian(p, basis)
    res = double_ground_state(H, basis, seed=seed, tol=tol)
    s_bits = photon_entropy_double(res, basis)
    rep = photon_moments_double(res, basis)
    return res, s_bits, rep
