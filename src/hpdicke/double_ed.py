"""Finite-size diagonalization of the double-quadrature Dicke model.

One photon mode and two collective spins, each in its maximal-j sector.
The chain-I coupling enters through i(a - a^dag), so the Hamiltonian H is
complex Hermitian in the product basis.  With D = 1 where U_C = +1 and
D = i where U_C = -1, every chain-C term connects equal U_C and stays
real, while every chain-I term flips U_C and picks up a factor +-i that
makes it real too, so D^dag H D is exactly real symmetric.
build_double_hamiltonian writes that matrix, the diagonal and at most
eight couplings per row, through ed._offset_csr as the single-chain one;
it commutes with the total parity U_C U_I and goes to the parity-sector
core of ed (its ARPACK start at a normal point is D^dag times the HP
ground state), and the phases D are put back on the ground state before
any moment is taken.  symmetry_residuals checks the physical D H_r D^dag.

Basis layout: flat index n*(n_c+1)*(n_i+1) + mc_idx*(n_i+1) + mi_idx with
mc_idx = m_C + N_C/2, mi_idx = m_I + N_I/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .double import (DoubleDickeParams, DoublePhase,
                     build_double_quadratic_form, classify_double_phase)
from .ed import (_DENSE_DIM, DEFAULT_BUDGET_NNZ, DEFAULT_SEED, EDResult,
                 _check_budget, _hp_starts, _offset_csr, _scipy,
                 _sector_ground_state, _spin_diagonals, _walk_cutoff, _whole)
from .errors import CutoffError, DomainError
from .gaussian import FluctuationReport, heisenberg_product

if TYPE_CHECKING:
    import scipy.sparse as sp

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

_ENTROPY_FLOOR = 1e-14  # reduced-density eigenvalues it drops


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
        """Flat index of |n, mc_idx, mi_idx>."""
        if not (_whole(n, self.n_max) and _whole(mc_idx, self.n_c)
                and _whole(mi_idx, self.n_i)):
            raise DomainError(f"state (n={n}, mc_idx={mc_idx}, "
                              f"mi_idx={mi_idx}) outside the basis")
        return ((int(n) * (self.n_c + 1) + int(mc_idx)) * (self.n_i + 1)
                + int(mi_idx))


def build_double_hamiltonian(p: DoubleDickeParams,
                             basis: DoubleEDBasis) -> sp.csr_matrix:
    """The two-chain Hamiltonian, couplings scaled by the respective
    1/sqrt(N_k), as D^dag H D: real symmetric float64 in canonical CSR with
    no stored zeros.  The physical matrix is D H_r D^dag, with D = 1 where
    U_C = double_parities(basis)[0] is +1 and i where it is -1."""
    nn, nc, ni = basis.n_max + 1, basis.n_c + 1, basis.n_i + 1
    m_c, lad_c = _spin_diagonals(basis.n_c)
    m_i, lad_i = _spin_diagonals(basis.n_i)
    levels = np.arange(nn, dtype=float)
    root = np.sqrt(levels[1:])[:, None, None]  # between n and n + 1
    amp_c = p.lambda_c / math.sqrt(basis.n_c) * (root * lad_c[:, None])
    amp_i = p.lambda_i / math.sqrt(basis.n_i) * (root * lad_i)
    diag = ((p.omega_cav * levels[:, None, None] + p.omega0_c * m_c[:, None])
            + p.omega0_i * m_i)
    # i(a - a^dag) is -i on the row with more photons; the gauge makes it
    # U_C(row) toward n - 1 and -U_C(row) toward n + 1
    u_c = ((-1.0) ** (np.arange(nn)[:, None] + np.arange(nc)))[:, :, None]
    down_i, up_i = u_c[1:] * amp_i, -u_c[:-1] * amp_i
    # to n - 1 (mc - 1, mi - 1, mi + 1, mc + 1), diagonal, to n + 1
    lo, hi, every = slice(1, None), slice(None, -1), slice(None)
    sn = nc * ni
    return _offset_csr((nn, nc, ni),
                       [(-sn - ni, (lo, lo, every), amp_c),
                        (-sn - 1, (lo, every, lo), down_i),
                        (-sn + 1, (lo, every, hi), down_i),
                        (-sn + ni, (lo, hi, every), amp_c),
                        (0, (every, every, every), diag),
                        (sn - ni, (hi, lo, every), amp_c),
                        (sn - 1, (hi, every, lo), up_i),
                        (sn + 1, (hi, every, hi), up_i),
                        (sn + ni, (hi, hi, every), amp_c)])


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


def _phases(u_c: np.ndarray) -> np.ndarray:
    """The gauge D: 1 where U_C = +1 and i where U_C = -1, for the U_C
    diagonal u_c."""
    return np.where(u_c > 0, 1.0 + 0j, 1j)


def symmetry_residuals(H: sp.csr_matrix,
                       basis: DoubleEDBasis) -> tuple[float, float, float]:
    """Max-abs residuals of the two antiunitary invariances
    U_k conj(H) - H U_k and of total-parity commutation of the physical
    matrix D H D^dag, for H as build_double_hamiltonian writes it; all
    exactly zero for a correctly assembled matrix."""
    sp = _scipy().sparse
    u_c, u_i = double_parities(basis)
    D = sp.diags(_phases(u_c))
    H = D @ H @ D.conj()
    res = [U @ H.conj() - H @ U for U in (sp.diags(u_c), sp.diags(u_i))]
    P = sp.diags(u_c * u_i)
    res.append(P @ H - H @ P)
    return tuple(0.0 if R.nnz == 0 else float(np.abs(R.data).max())
                 for R in res)


def double_ground_state(H: sp.csr_matrix, basis: DoubleEDBasis,
                        seed: int = DEFAULT_SEED, *,
                        params: DoubleDickeParams | None = None) -> EDResult:
    """Lowest state of each total-parity sector of H as
    build_double_hamiltonian writes it, with the phases D put back on
    the state; the ground state is the lower one, a total-parity
    eigenstate of the physical Hamiltonian.  Given the params of H, ARPACK
    starts at a normal point from D^dag times the HP state (a, b_C, b_I)
    of build_double_quadratic_form (ed._hp_starts)."""
    u_c, u_i = double_parities(basis)
    hp_start = None
    if (params is not None and basis.dim > _DENSE_DIM
            and classify_double_phase(params).phase is DoublePhase.NORMAL):
        hp_start = functools.partial(
            _hp_starts, build_double_quadratic_form(params),
            (basis.n_max + 1, basis.n_c + 1, basis.n_i + 1),
            lambda idx: _phases(u_c[idx]).conj())
    res = _sector_ground_state(H.tocsr(), u_c * u_i,
                               (basis.n_c + 1) * (basis.n_i + 1), seed,
                               hp_start)
    return replace(res, state=_phases(u_c) * res.state)


def photon_moments_double(result: EDResult,
                          basis: DoubleEDBasis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, reduced over both
    chains and fed to the generic uncertainty-product reducer."""
    w = result.state.reshape(basis.n_max + 1, -1)
    levels = np.arange(basis.n_max + 1)
    root1 = np.sqrt(levels[1:].astype(float))
    occ = float(np.sum(levels[:, None] * np.abs(w) ** 2))
    mean = complex(np.sum(root1[:, None] * w[:-1].conj() * w[1:]))
    root2 = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
    a_sq = complex(np.sum(root2[:, None] * w[:-2].conj() * w[2:]))
    return heisenberg_product(mean_a=mean, a_sq=a_sq, occupation=occ)


def photon_entropy_double(result: EDResult, basis: DoubleEDBasis) -> float:
    """Entanglement entropy (bits) between the photon and both chains."""
    w = result.state.reshape(basis.n_max + 1, -1)
    rho = w @ w.conj().T
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > _ENTROPY_FLOOR]
    return float(-np.sum(vals * np.log2(vals)))


def converge_cutoff_double(p: DoubleDickeParams, tol: float = 1e-8,
                           budget_nnz: int = DEFAULT_BUDGET_NNZ,
                           seed: int = DEFAULT_SEED) -> EDResult:
    """Ground state at the smallest accepted Fock cutoff; its n_max_used
    is the cutoff.

    Same walk and acceptance rule as ed.converge_cutoff (top Fock slab
    below TOP_ROW_TOL and hp stable to tol against ceil(1.25 n)), from
    n0 = max(8, ceil(4 (N lambda^2/omega^2 + sqrt(N)))) with the larger
    chain size and coupling.
    """
    if p.n_c is None or p.n_i is None:
        raise DomainError("chain sizes n_c and n_i are required for ED")
    lam = max(p.lambda_c, p.lambda_i)
    nbar = max(p.n_c, p.n_i)
    n0 = max(
        8, math.ceil(4.0 * (nbar * lam ** 2 / p.omega_cav ** 2
                            + math.sqrt(nbar))))
    return _walk_cutoff(
        n0, lambda n: DoubleEDBasis(n_c=p.n_c, n_i=p.n_i, n_max=n),
        lambda basis: double_ground_state(
            build_double_hamiltonian(p, basis), basis, seed=seed, params=p),
        photon_moments_double, tol, budget_nnz)


def double_ed(p: DoubleDickeParams, n_max: int, seed: int = DEFAULT_SEED,
              budget_nnz: int = DEFAULT_BUDGET_NNZ
              ) -> tuple[EDResult, float, FluctuationReport]:
    """Ground state, photon entanglement entropy (bits), and photon
    fluctuation report at the given cutoff.  Requires n_c and n_i on the
    params."""
    if p.n_c is None or p.n_i is None:
        raise DomainError("chain sizes n_c and n_i are required for ED")
    basis = DoubleEDBasis(n_c=p.n_c, n_i=p.n_i, n_max=n_max)
    _check_budget(basis, budget_nnz)
    H = build_double_hamiltonian(p, basis)
    res = double_ground_state(H, basis, seed=seed)
    s_bits = photon_entropy_double(res, basis)
    rep = photon_moments_double(res, basis)
    return res, s_bits, rep
