"""Exact diagonalization of the Dicke model at finite N, and the one ED
path that both models share.

Works in the maximal-spin sector j = N/2 (the collective coupling never
leaves it), with basis states |n, m> indexed n*(N+1) + (m+j).  The
Hamiltonian

    H = omega a^dag a + omega0 Jz + (coupling/sqrt(N)) (a + a^dag)(J+ + J-)

is real symmetric with at most five nonzeros per row and commutes exactly
with the parity (-1)^(n + m + j), which is diagonal in this basis.
_offset_csr writes it, and the real two-chain matrix of double_ed,
straight into canonical float64 CSR with no stored zeros.

Both models are this Fock ladder times one or two maximal-j spins, a
C-order grid whose parity is its checkerboard, and share one path.  The
basis describes the model (_Basis): grid, parity, gauge, entropy floor,
HP form and walk start.  _solve finds the lowest eigenpair of each
parity sector (Emary & Brandes, PRE 67, 066203 (2003)): up to _DENSE_DIM
densely, on blocks scattered straight from the CSR arrays
(_dense_blocks); above it with ARPACK, from a seeded draw or, at a
normal point, from the params' Holstein-Primakoff ground state
(_hp_starts).  The ground state is the lower of the two, a parity
eigenstate, so the superradiant cat pair needs no separate resolution.
_moments and _entropy reduce it, _solve_at solves at one cutoff and
_walk_cutoff searches for one on the halving grid below n0: from its
highest dense point at most n0/2 it walks down while cutoffs are
accepted, or up until one is.  A cutoff is confirmed at a larger probe
cutoff by one step of inverse iteration from its own solve
(_probe_hp), a sparse LU solve that checks its own residual, not by a
second eigensolve.  Each reaches the model's public functions through
basis._api() when called.  scipy loads at the first ED call or ED
config (_scipy): thermo needs numpy only.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Callable, Iterator
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
# ARPACK tolerance, and the odd sector's relative margin to be the ground
# state.  ARPACK takes it relative to the Ritz value, about -N/2, so a
# sparse solve's state errs by about SOLVE_TOL |E| / gap, growing with N.
SOLVE_TOL = 1e-12
DEFAULT_BUDGET_NNZ = int(5e7)
DEFAULT_SEED = 7

# Dense diagonalization of each parity sector when the full dimension is
# at most this; ARPACK above.
_DENSE_DIM = 1200


def _checkerboard(shape: tuple[int, ...]) -> np.ndarray:
    """(-1)^(sum of the grid indices) over a C-order grid, flattened."""
    return functools.reduce(np.kron, [(-1.0) ** np.arange(k) for k in shape])


class _Basis:
    """A model at one cutoff as the shared ED path reads it: the C-order
    grid of a subclass's shape, (n_max + 1, N + 1) or (n_max + 1,
    N_C + 1, N_I + 1), whose fields (chain sizes, then n_max) are
    positive integers.  The photon number is the outer index, so the top
    Fock slab is the last prod(shape[1:]) states.  Subclasses give shape;
    _entropy_floor, below which reduced-density eigenvalues carry no
    entropy; _lu_dim, the largest probe dimension the walk confirms by
    a sparse LU (_probe_hp) rather than a solve; _hp_form(p), the HP form
    at a normal point of the params p (else None); _n0(p), the walk's
    start; and _api, the model's public (build, solve, moments,
    entropy), looked up when it is called."""

    def __post_init__(self):
        for f in fields(self):
            k = getattr(self, f.name)
            if not (isinstance(k, (int, np.integer)) and k >= 1):
                raise (CutoffError if f.name == "n_max" else DomainError)(
                    f"{f.name} must be a positive integer, got {k!r}")

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    @property
    def max_nnz(self) -> int:
        """Upper bound on the stored entries of the Hamiltonian: the
        diagonal and four corners per chain's coupling."""
        return (4 * (len(self.shape) - 1) + 1) * self.dim

    @property
    def parity(self) -> np.ndarray:
        return _checkerboard(self.shape)

    @property
    def gauge(self) -> np.ndarray:
        """D on each basis state; 1 for one chain."""
        if len(self.shape) == 2:
            return np.ones(self.dim)
        u_c = np.repeat(_checkerboard(self.shape[:2]), self.shape[2])
        return np.where(u_c > 0, 1.0 + 0j, 1j)

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
    _entropy_floor = 1e-16
    # H is a 2-D grid: the probe's LU step beat its solve at all 15 probes
    # of the figure 1 inset walks, 2-core Xeon (at N = 1000, dim 89,089:
    # 0.23 s against a 2.4 s ARPACK solve, L + U 3.8x the probe's max_nnz)
    _lu_dim = math.inf

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
        """HP boson k = m + j, the grid's own spin index."""
        return (dicke_quadratic_form(p)
                if classify_phase(p).phase is Phase.NORMAL else None)

    def _n0(self, p: DickeParams) -> int:
        return _coherent_n0(self.n_spins, p.coupling, p.omega)

    def _api(self) -> tuple[Callable, ...]:
        return (build_hamiltonian, ground_state, photon_moments_ed,
                photon_entropy_ed)


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


def _coherent_n0(n_spins: int, coupling: float, omega: float) -> int:
    """The coherent-shift cutoff ceil(4 (N lambda^2/omega^2 + sqrt(N)))."""
    return math.ceil(
        4.0 * (n_spins * coupling ** 2 / omega ** 2 + math.sqrt(n_spins)))


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
    return _checkerboard(basis.shape)


def _dense_blocks(H: sp.csr_matrix, parity: np.ndarray,
                  sectors) -> Iterator[np.ndarray]:
    """The dense block H[idx][:, idx] of each sector idx, made only when
    the previous one is taken, so a caller that is done with a block
    holds one at a time.  The entries of H that join two states of one
    sector are scattered into its block at their positions in it, one
    numpy scatter per block; with duplicate entries summed first, this is
    the block bitwise."""
    H.sum_duplicates()
    at = np.empty(parity.size, dtype=np.intp)
    for idx in sectors:
        at[idx] = np.arange(idx.size)
    per_row = np.diff(H.indptr)
    rows, cols = np.repeat(at, per_row), at[H.indices]
    row_even, col_even = np.repeat(parity > 0, per_row), parity[H.indices] > 0
    for idx, keep in zip(sectors, (row_even & col_even,
                                   ~(row_even | col_even))):
        block = np.zeros((idx.size, idx.size))
        block[rows[keep], cols[keep]] = H.data[keep]
        yield block


def _dense_minimum(block: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a dense sector block."""
    w, v = _scipy().linalg.eigh(block, subset_by_index=[0, 0])
    return float(w[0]), v[:, 0]


def _sector_minimum(H: sp.csr_matrix, idx: np.ndarray,
                    v0: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H restricted to the basis states idx, by ARPACK
    from v0."""
    try:
        w, v = _scipy().sparse.linalg.eigsh(H[idx][:, idx], k=1, which="SA",
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


def _hp_starts(form: QuadraticForm, shape: tuple[int, ...],
               gauge: np.ndarray, sectors,
               draws: list[np.ndarray]) -> list[np.ndarray]:
    """Sector starts from the polariton rows (X, Y) of a normal-phase form
    over the basis axes: G = exp(a^dag Z a^dag / 2)|0>, Z = -X^-1 Y, and
    b_soft^dag G, each on its sector idx taken into the gauge (D^dag),
    phase-fixed and real, plus 1e-6 of its unit draw; the draws when the
    form is unstable."""
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
        v = psi.ravel()[idx] * gauge[idx].conj()
        v = (v * v[np.argmax(np.abs(v))].conjugate()).real
        starts.append(v / np.linalg.norm(v) + 1e-6 * r / np.linalg.norm(r))
    return starts


def _solve(H: sp.spmatrix, basis: _Basis, seed: int, p=None) -> EDResult:
    """Ground state of the real symmetric H of the params p on this basis
    from the lowest eigenpair of each parity sector: dense up to
    _DENSE_DIM, else by ARPACK starting from each sector's part of a
    seeded draw or from the HP state of basis._hp_form(p).

    The odd minimum is the ground state only when it lies lower by more
    than SOLVE_TOL*max(1, |E|); a cat pair degenerate to that accuracy
    reports its even member.  gap01 is |E_odd - E_even|.  A ground state
    whose top Fock slab holds TOP_ROW_TOL or more of the weight is not
    cutoff_converged and warns CutoffWarning.  The state carries the
    gauge D.
    """
    H = H.tocsr()
    dim = H.shape[0]
    parity, gauge = basis.parity, basis.gauge
    sectors = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    if dim <= _DENSE_DIM:
        minima = [_dense_minimum(block)
                  for block in _dense_blocks(H, parity, sectors)]
    else:
        v0 = np.random.default_rng(seed).standard_normal(dim)
        starts = [v0[idx] for idx in sectors]
        del v0
        form = basis._hp_form(p) if p is not None else None
        if form is not None:
            starts = _hp_starts(form, basis.shape, gauge, sectors, starts)
        minima = [_sector_minimum(H, idx, s)
                  for idx, s in zip(sectors, starts)]
    (e_even, v_even), (e_odd, v_odd) = minima
    sign = (-1.0 if e_odd < e_even - SOLVE_TOL * max(1.0, abs(e_even))
            else 1.0)
    e0, v = (e_odd, v_odd) if sign < 0 else (e_even, v_even)
    psi = np.zeros(dim)
    psi[parity == sign] = v / np.linalg.norm(v)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    top_slab = math.prod(basis.shape[1:])
    top = float(np.vdot(psi[-top_slab:], psi[-top_slab:]))
    converged = top < TOP_ROW_TOL
    if not converged:
        warnings.warn(f"top Fock level holds {top:.2e} of the weight; "
                      "moments may be truncated", CutoffWarning, stacklevel=3)
    return EDResult(ground_energy=e0, gap01=abs(e_odd - e_even),
                    state=gauge * psi,
                    parity=sign, cutoff_converged=converged,
                    n_max_used=basis.n_max)


def ground_state(H: sp.spmatrix, basis: EDBasis, seed: int = DEFAULT_SEED,
                 *, params: DickeParams | None = None) -> EDResult:
    """Lowest state of each parity sector, deterministic for a fixed seed;
    the ground state is a parity eigenstate (see _solve).  Given the
    params of H, ARPACK starts at a normal point from the HP state of
    dicke_quadratic_form, HP boson k = m + j (_hp_starts)."""
    return _solve(H, basis, seed, params)


def _photon_rows(result: EDResult, basis: _Basis) -> np.ndarray:
    """The state as a matrix, one row per photon number."""
    if result.state.size != basis.dim:
        raise DomainError("state length does not match the basis dimension")
    return result.state.reshape(basis.shape[0], -1)


def _moments(result: EDResult, basis: _Basis) -> FluctuationReport:
    """Photon <a>, <a^2>, <a^dag a> of the ground state, reduced over the
    chains and fed to the generic uncertainty-product reducer.  A complex
    (two-chain) state takes <a^dag a> from |w|^2 and the rest from
    conj(w) w, a real one from w w: one arithmetic would move either
    model's last bits."""
    W = _photon_rows(result, basis)
    levels = np.arange(basis.shape[0])
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
    """Entanglement entropy (bits) between the photon and the chains."""
    W = _photon_rows(result, basis)
    w = np.linalg.eigvalsh(W @ W.conj().T)
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
    """Raise BudgetExceeded when the basis's Hamiltonian may store more
    than budget_nnz entries.  The budget bounds H only, not the L + U
    fill of a cutoff probe's LU step (_probe_hp): on the figure 1 inset's
    one-chain probes it grows from 1.1x max_nnz at dim 330 to 3.8x at
    N = 1000 (dim 89,089, 1.7e6 entries, +32 MB peak); two-chain LU steps
    stop at DoubleEDBasis._lu_dim, where it is under 3x."""
    need = basis.max_nnz
    if need > budget_nnz:
        raise BudgetExceeded(
            f"cutoff {basis.n_max} needs ~{need} nonzeros, over the budget "
            f"of {budget_nnz}", needed=need, budget=budget_nnz)


def _solve_at(p, basis: _Basis, budget_nnz: int, seed: int) -> EDResult:
    """The ground state of the params on this basis, after the budget
    check, through the model's public builder and solve."""
    _check_budget(basis, budget_nnz)
    build, solve, _, _ = basis._api()
    return solve(build(p, basis), basis, seed=seed, params=p)


def _observables(result: EDResult,
                 basis: _Basis) -> tuple[float, FluctuationReport]:
    """The photon entropy (bits) and fluctuation report of a solve on this
    basis, through the model's public reducers."""
    _, _, moments, entropy = basis._api()
    return entropy(result, basis), moments(result, basis)


def _probe_hp(p, res: EDResult, at: _Basis, probe: _Basis) -> float:
    """hp of the ground state on the larger basis probe, by one step of
    inverse iteration from the converged solve res on the basis at; nan
    when the step fails its self-check.

    The basis is photon-number-major, so res's state padded with zeros is
    a state of the probe basis (taken out of the gauge D), and H at
    cutoff n is the leading block of H at the probe.  One sparse LU
    solve with H_sec - sigma, H_sec the probe's H on the parity sector
    of res, turns it into the probe's ground state phi to rounding.  The
    shift sigma = E_n - SOLVE_TOL*max(1, |E_n|) lies just below E_n, not
    on it: at lambda = 0 H is diagonal and E_n an exact eigenvalue of
    H_sec.  phi counts only when its Rayleigh quotient rho is at most
    E_n + SOLVE_TOL*max(1, |E_n|) and ||(H_sec - rho) phi|| at most
    SOLVE_TOL*max(1, |E_n|), and when the factor is not singular.  H is
    built, and hp taken with the gauge put back, through the model's
    public functions."""
    build, _, moments, _ = probe._api()
    idx = np.flatnonzero(probe.parity == res.parity)
    psi = np.pad((at.gauge.conj() * res.state).real, (0, probe.dim - at.dim))
    H_sec = build(p, probe)[idx][:, idx]
    e, scale = res.ground_energy, SOLVE_TOL * max(1.0, abs(res.ground_energy))
    try:
        phi = _scipy().sparse.linalg.splu(
            (H_sec - (e - scale) * _scipy().sparse.identity(idx.size)).tocsc(),
            permc_spec="MMD_AT_PLUS_A").solve(psi[idx])
    except RuntimeError:
        return math.nan
    phi /= np.linalg.norm(phi)
    h_phi = H_sec @ phi
    rho = float(phi @ h_phi)
    if not (rho <= e + scale and np.linalg.norm(h_phi - rho * phi) <= scale):
        return math.nan
    psi[idx] = phi  # psi is zero off the sector
    return moments(replace(res, state=probe.gauge * psi,
                           n_max_used=probe.n_max), probe).hp


def _walk_cutoff(p, basis: _Basis, tol: float, budget_nnz: int,
                 seed: int) -> EDResult:
    """The solve at the accepted cutoff of the halving grid n0 / 2^k
    below n0 = basis._n0(p) over bases like this one, walked from a dense
    start: the highest grid point n with 2 n <= n0 whose basis is dense
    (dim <= _DENSE_DIM), else the lowest one.  When the start is
    accepted the walk goes down the grid until a cutoff fails and takes
    the lowest accepted one; when it fails the walk goes up the rest of
    the grid, then doubles n0, until a cutoff is accepted.

    A cutoff n is accepted when its own solve is cutoff_converged and
    the probe ceil(1.25 n) confirms it: |hp(n) - hp(probe)| < tol.  The
    probe is taken only when n's own solve is converged, by one
    inverse-iteration step from that solve (_probe_hp) when the probe's
    dimension is at most basis._lu_dim, else by a solve; a step that
    fails its self-check leaves n unaccepted.  The budget is checked at
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
            _, _, moments, _ = at._api()
            hp = (_probe_hp(p, res, at, probe) if probe.dim <= probe._lu_dim
                  else moments(_solve_at(p, probe, budget_nnz, seed),
                               probe).hp)
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
    probe is taken only once n passes the first test, and it is no
    second eigensolve: one sparse LU solve with H - sigma at the probe,
    sigma just below E_n, on the parity sector of n's state padded with
    zeros, gives the probe's ground state.  That step counts only when
    its Rayleigh quotient and residual are within SOLVE_TOL*max(1, |E_n|)
    of E_n and of zero; else n is not accepted.  The budget is checked
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
