"""Finite-size diagonalization of the double-quadrature Dicke model.

One photon mode and two collective spins, each in its maximal-j sector.
The chain-I coupling enters through i(a - a^dag), so the Hamiltonian H is
complex Hermitian in the product basis.  With D = 1 where U_C = +1 and
D = i where U_C = -1, every chain-C term connects equal U_C and stays
real, while every chain-I term flips U_C and picks up a factor +-i that
makes it real too, so D^dag H D is exactly real symmetric.
build_double_hamiltonian writes that matrix, the diagonal and at most
eight couplings per row, through ed._offset_csr as the single-chain one:
it passes the four couplings toward n + 1, and the writer adds their
transposes.  The matrix commutes with the total parity U_C U_I.  The
rest is the one ED path of ed, which DoubleEDBasis describes this model
to: a large grid at a normal or critical point is solved on the HP
shell n + k_C + k_I <= K (ed._solve_at), ARPACK starts from a seeded
draw, and the phases D are put back on the ground state, which is given
on the support it was solved on (EDResult.shell), before any moment is
taken.
symmetry_residuals checks the physical D H_r D^dag on the basis's
support.

Basis layout: flat index n*(n_c+1)*(n_i+1) + mc_idx*(n_i+1) + mi_idx with
mc_idx = m_C + N_C/2, mi_idx = m_I + N_I/2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .double import (DoubleDickeParams, _broken, build_double_quadratic_form,
                     classify_double_phase)
from .ed import (DEFAULT_BUDGET_NNZ, DEFAULT_SEED, EDResult, _Basis,
                 _coherent_n0, _entropy, _levels, _moments, _offset_csr,
                 _row, _scipy, _solve, _spin_diagonals, _walk_cutoff)
from .gaussian import FluctuationReport, QuadraticForm

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


@dataclass(frozen=True)
class DoubleEDBasis(_Basis):
    """Photon Fock space times two maximal-j spin sectors; index(n,
    mc_idx, mi_idx) is the flat index of |n, mc_idx, mi_idx>."""

    n_c: int
    n_i: int
    n_max: int
    shell: int | None = None
    _entropy_floor = 1e-14

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_max + 1, self.n_c + 1, self.n_i + 1)

    @property
    def gauge(self) -> np.ndarray:
        """D on each state of the support: 1 where U_C is +1, i where it
        is -1."""
        return np.where(double_parities(self)[0] > 0, 1.0 + 0j, 1j)

    def _hp_form(self, p: DoubleDickeParams) -> QuadraticForm | None:
        """HP modes (a, b_C, b_I), where each broken symmetry is critical;
        on a critical line the form is gapless, and its row is still
        solved on a shell."""
        info = classify_double_phase(p)
        broken_c, broken_i = _broken(info)
        normal = ((info.critical_c or not broken_c)
                  and (info.critical_i or not broken_i))
        return build_double_quadratic_form(p) if normal else None

    def _n0(self, p: DoubleDickeParams) -> int:
        """The larger chain and coupling's n0, at least 8."""
        return max(8, _coherent_n0(max(self.n_c, self.n_i),
                                   max(p.lambda_c, p.lambda_i), p.omega_cav))

    def _api(self) -> tuple[Callable, ...]:
        return (build_double_hamiltonian, double_ground_state,
                photon_moments_double, photon_entropy_double,
                converge_cutoff_double)


def build_double_hamiltonian(p: DoubleDickeParams,
                             basis: DoubleEDBasis) -> sp.csr_matrix:
    """The two-chain Hamiltonian on the basis's support, couplings scaled
    by the respective 1/sqrt(N_k), as D^dag H D: real symmetric float64 in
    canonical CSR with no stored zeros.  The physical matrix is
    D H_r D^dag, with D = basis.gauge.  The diagonal and the couplings
    span the box basis.bound, not the grid.  Each coupling toward n + 1
    is indexed by the lower n, mc and mi of the pair it joins, and
    _offset_csr writes its transpose from it."""
    nn, nc, ni = basis.bound
    m_c, lad_c = _spin_diagonals(basis.n_c, nc)
    m_i, lad_i = _spin_diagonals(basis.n_i, ni)
    levels = np.arange(nn, dtype=float)
    root = np.sqrt(levels[1:])[:, None, None]  # between n and n + 1
    amp_c = p.lambda_c / math.sqrt(basis.n_c) * (root * lad_c[:, None])
    amp_i = p.lambda_i / math.sqrt(basis.n_i) * (root * lad_i)
    diag = ((p.omega_cav * levels[:, None, None] + p.omega0_c * m_c[:, None])
            + p.omega0_i * m_i)
    # i(a - a^dag) is -i on the row with more photons; the gauge makes it
    # -U_C = -(-1)^(n + mc_idx) at the pair's lower n on both corners, as
    # U_C flips with n
    u_c = (-1.0) ** _levels((nn, nc, 1))
    up_i = -u_c[:-1] * amp_i
    # to n + 1: mc - 1, mi - 1, mi + 1, mc + 1
    return _offset_csr(basis, diag, [((1, -1, 0), amp_c), ((1, 0, -1), up_i),
                                     ((1, 0, 1), up_i), ((1, 1, 0), amp_c)])


def double_parities(basis: DoubleEDBasis) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the unitary halves of the two antiunitary symmetries:
    U_C = (-1)^(n + mc_idx) and U_I = (-1)^mi_idx, on the basis's
    support, where build_double_hamiltonian writes H: the whole grid when
    shell is None.  U_I is basis.parity U_C.

    T_k = U_k composed with complex conjugation leaves the Hamiltonian
    invariant exactly; the product U_C U_I is the unitary total parity.
    """
    n, mc, _ = np.unravel_index(basis.support, basis.shape)
    u_c = (-1.0) ** (n + mc)
    return u_c, basis.parity * u_c


def symmetry_residuals(H: sp.csr_matrix,
                       basis: DoubleEDBasis) -> tuple[float, float, float]:
    """Max-abs residuals of the two antiunitary invariances
    U_k conj(H) - H U_k and of total-parity commutation of the physical
    matrix D H D^dag, for H as build_double_hamiltonian writes it on the
    basis's support; all exactly zero for a correctly assembled matrix."""
    sp = _scipy().sparse
    u_c, u_i = double_parities(basis)
    D = sp.diags(basis.gauge)
    H = D @ H @ D.conj()
    res = [U @ H.conj() - H @ U for U in (sp.diags(u_c), sp.diags(u_i))]
    P = sp.diags(u_c * u_i)
    res.append(P @ H - H @ P)
    return tuple(0.0 if R.nnz == 0 else float(np.abs(R.data).max())
                 for R in res)


def double_ground_state(H: sp.csr_matrix, basis: DoubleEDBasis,
                        seed: int = DEFAULT_SEED) -> EDResult:
    """Lowest state of each total-parity sector of H as
    build_double_hamiltonian writes it, with the phases D put back on
    the state, deterministic for a fixed seed; the ground state is the
    lower one, a total-parity eigenstate of the physical Hamiltonian,
    given on the basis's support (see ed._solve).  H is not modified;
    an H of another support size raises DomainError."""
    return _solve(H, basis, seed)


def photon_moments_double(result: EDResult,
                          basis: DoubleEDBasis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, reduced over both
    chains and fed to the generic uncertainty-product reducer."""
    return _moments(result, basis)


def photon_entropy_double(result: EDResult, basis: DoubleEDBasis) -> float:
    """Entanglement entropy (bits) between the photon and both chains."""
    return _entropy(result, basis)


def converge_cutoff_double(p: DoubleDickeParams, tol: float = 1e-8,
                           budget_nnz: int = DEFAULT_BUDGET_NNZ,
                           seed: int = DEFAULT_SEED) -> EDResult:
    """Ground state at an accepted Fock cutoff; its n_max_used is the
    cutoff.

    Same walk and acceptance rule as ed.converge_cutoff (top Fock slab
    below TOP_ROW_TOL and hp stable to tol against ceil(1.25 n)) on the
    halving grid below n0 = max(8, ceil(4 (N lambda^2/omega^2 +
    sqrt(N)))) with the larger chain size and coupling: from the highest
    dense grid point at most n0/2 (else the lowest), down the grid while
    cutoffs are accepted, or up it and past n0 until one is.  The probe
    is one ARPACK solve of its parity sector started from n's solve
    padded with zeros, as for one chain, with the gauge D taken off and
    put back.  The budget is checked at the probe before n is solved.
    """
    return _walk_cutoff(p, DoubleEDBasis(p.n_c, p.n_i, 1), tol, budget_nnz,
                        seed)


def double_ed(p: DoubleDickeParams, n_max: int, seed: int = DEFAULT_SEED,
              budget_nnz: int = DEFAULT_BUDGET_NNZ
              ) -> tuple[EDResult, float, FluctuationReport]:
    """Ground state, photon entanglement entropy (bits), and photon
    fluctuation report at the given cutoff: the ED row (ed._row) that a
    sweep at this n_max computes.  Requires n_c and n_i on the params:
    DoubleEDBasis rejects None with DomainError."""
    return _row(p, DoubleEDBasis(p.n_c, p.n_i, n_max), n_max,
                budget_nnz=budget_nnz, seed=seed)
