"""Gaussian ground-state toolbox.

Quadratic boson Hamiltonians, their symplectic (Bogoliubov) diagonalization,
single-mode quadrature fluctuations, and the entropy formulas that depend on
the uncertainty product alone.

The diagonalization is one stacked step, _bogoliubov_stack: a batched
eigen-decomposition, then the gap pairing, the Krein-positive transform
and the vacuum moments as array steps over the stack.  The scalar API
(bogoliubov_gaps, symplectic_diagonalize, photon_moments_from_solution)
runs it on a stack of one, so every row of a stack is bitwise what the
scalar API gives for it.

Conventions: hbar = 1, dimensionless quadratures x = (a + a^dag)/sqrt(2) and
p = -i (a - a^dag)/sqrt(2), all entropies in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, GaplessError, HpDickeError,
                     InstabilityError, UncertaintyViolation)

LN2 = math.log(2.0)

# Roundoff band below the Heisenberg bound that is clamped to exactly 1/2
# rather than rejected.
HP_CLAMP_BAND = 1e-9
# Tolerances of the block symmetry checks, of the imaginary parts,
# pairing, sign and Krein norms of the mode energies, and the thermal
# occupancy below which thermal_weights truncates.
_FORM_TOL = 1e-9
_GAP_TOL = 1e-9
_WEIGHT_TAIL = 1e-16

__all__ = [
    "QuadraticForm",
    "BogoliubovSolution",
    "FluctuationReport",
    "EntropyReport",
    "form_from_xp",
    "form_matrix",
    "bogoliubov_gaps",
    "symplectic_diagonalize",
    "photon_moments_from_solution",
    "heisenberg_product",
    "quadratures",
    "entropy_from_hp",
    "renyi_entropy",
    "pseudo_energy",
    "thermal_weights",
]


@dataclass(frozen=True)
class QuadraticForm:
    """An n-mode quadratic boson Hamiltonian.

    H = sum_ij A[i,j] a_i^dag a_j
      + sum_ij (B[i,j] a_i a_j + conj(B[i,j]) a_i^dag a_j^dag)
      + sum_i (d[i] a_i + conj(d[i]) a_i^dag) + e0

    A must be Hermitian and B symmetric (within tolerance); d collects the
    linear displacement coefficients and e0 is a constant offset.
    """

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray
    e0: float = 0.0

    @property
    def n_modes(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class BogoliubovSolution:
    """Result of diagonalizing a QuadraticForm.

    gaps: mode energies, ascending.
    transform: 2n x 2n matrix T mapping (a, a^dag) column vectors to
        polariton (e, e^dag) vectors; each annihilator row satisfies
        |u|^2 - |v|^2 = 1.
    displacements: per-mode coherences <a_i> absorbed before diagonalizing.
    ground_energy: energy of the polariton vacuum.
    """

    gaps: np.ndarray
    transform: np.ndarray
    displacements: np.ndarray
    ground_energy: float

    @property
    def n_modes(self) -> int:
        return self.gaps.shape[0]


@dataclass(frozen=True)
class FluctuationReport:
    """First and centered second moments of one mode, plus the derived
    quadrature data.

    dx, dp and hp refer to the rotated mode a~ = a exp(-i phi) whose
    squeezing axis is aligned with the quadratures, so the entropy formula
    applies to hp directly.  zeta is the anisotropy invariant of the input
    moments, -(Im <a^2>_c)^2; it is 0 exactly when no rotation is needed.
    """

    mean_a: complex
    n_occ: float
    sq: complex
    dx: float
    dp: float
    hp: float
    zeta: float
    phi: float


@dataclass(frozen=True)
class EntropyReport:
    """Entropies of a single-mode Gaussian reduction, in bits.

    s_vn includes degeneracy_offset; the Renyi map does not.
    pseudo_energy is the effective thermal gap of the reduced state
    (infinite for a pure reduction).
    """

    s_vn: float
    s_renyi: dict[float, float] = field(default_factory=dict)
    pseudo_energy: float = math.inf
    degeneracy_offset: int = 0


def per_element(fn, *args) -> np.ndarray:
    """fn applied to each element as Python floats; scalar arguments are
    broadcast.  numpy's transcendental functions (cos, sin, power, log,
    exp, atan2) may round differently from the math library, and from
    one CPU to another through numpy's SIMD kernels, so array code that
    must reproduce scalar float code bitwise maps those calls with this.
    An element whose call overflows gives +inf, as numpy's power would:
    every mapped call that can overflow (x^2, s^3, mu^2.5) is
    nonnegative-valued."""
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    cols = [a.tolist() if isinstance(a, np.ndarray) else [a] * n
            for a in args]
    try:
        return np.array(list(map(fn, *cols)), dtype=float)
    except OverflowError:
        return np.array([_inf_on_overflow(fn, *a) for a in zip(*cols)],
                        dtype=float)


def _inf_on_overflow(fn, *args) -> float:
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _sigma_z(n: int) -> np.ndarray:
    s = np.ones(2 * n)
    s[n:] = -1.0
    return np.diag(s)


def _swap_blocks(n: int) -> np.ndarray:
    x = np.zeros((2 * n, 2 * n))
    x[:n, n:] = np.eye(n)
    x[n:, :n] = np.eye(n)
    return x


def _validated(form: QuadraticForm):
    A = np.atleast_2d(np.asarray(form.A, dtype=complex))
    B = np.atleast_2d(np.asarray(form.B, dtype=complex))
    d = np.atleast_1d(np.asarray(form.d, dtype=complex))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n) or d.shape != (n,):
        raise DomainError("inconsistent matrix shapes in quadratic form")
    scale = max(np.abs(A).max(), np.abs(B).max(), 1.0)
    if np.abs(A - A.conj().T).max() > _FORM_TOL * scale:
        raise DomainError("A block is not Hermitian")
    if np.abs(B - B.T).max() > _FORM_TOL * scale:
        raise DomainError("B block is not symmetric")
    return A, B, d, n


def _adjoint(X: np.ndarray) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def _nambu(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """M = [[A, 2 B*], [2 B, A*]] from the symmetrized blocks; A and B may
    be stacks of n x n blocks, giving a stack of 2n x 2n matrices."""
    A = 0.5 * (A + _adjoint(A))
    B = 0.5 * (B + B.swapaxes(-1, -2))
    return np.concatenate([np.concatenate([A, 2.0 * B.conj()], axis=-1),
                           np.concatenate([2.0 * B, A.conj()], axis=-1)],
                          axis=-2)


def form_matrix(form: QuadraticForm) -> np.ndarray:
    """2n x 2n Hermitian matrix M with H = (1/2) Psi^dag M Psi - tr(A)/2 + ...
    where Psi = (a_1..a_n, a_1^dag..a_n^dag)."""
    A, B, _, _ = _validated(form)
    return _nambu(A, B)


def _xp_blocks(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boson blocks (A, B) of the quadrature form (1/2) r^T G r; G may be
    a stack of 2n x 2n matrices, giving stacks of blocks."""
    n = G.shape[-1] // 2
    eye = np.eye(n)
    S = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
    M = _swap_blocks(n) @ (S.T @ G @ S)
    M = 0.5 * (M + _adjoint(M))
    A = M[..., :n, :n]
    B = 0.25 * (M[..., n:, :n] + _adjoint(M[..., :n, n:]))
    return A, 0.5 * (B + B.swapaxes(-1, -2))


@np.errstate(over="ignore", invalid="ignore")
def _nambu_stack(G: np.ndarray) -> np.ndarray:
    """Stack of the matrices form_matrix(form_from_xp(G[k])), bitwise
    equal to building each one alone, for a stack G of quadrature forms
    that form_from_xp accepts; a form that is not finite gives a matrix
    that is not finite."""
    return _nambu(*_xp_blocks(np.asarray(G, dtype=float)))


def form_from_xp(G: np.ndarray, linear: np.ndarray | None = None,
                 const: float = 0.0) -> QuadraticForm:
    """Convert a real quadratic form over (x_1..x_n, p_1..p_n) to boson form.

    Represents H = (1/2) r^T G r + linear^T r + const with r the quadrature
    column vector.  G must be real symmetric with zero same-mode x-p entries
    (no ordering ambiguity arises then).
    """
    G = np.asarray(G, dtype=float)
    m = G.shape[0]
    if m % 2 or G.shape != (m, m):
        raise DomainError("quadrature form must be 2n x 2n")
    n = m // 2
    if np.abs(G - G.T).max() > 1e-12 * max(1.0, np.abs(G).max()):
        raise DomainError("quadrature form must be symmetric")
    if np.abs(np.diag(G[:n, n:])).max() > 0:
        raise DomainError("same-mode x p cross terms are not supported")
    A, B = _xp_blocks(G)
    if linear is not None:
        g = np.asarray(linear, dtype=float)
        w = (g[:n] - 1j * g[n:]) / math.sqrt(2.0)
    else:
        w = np.zeros(n, dtype=complex)
    # (1/2) r^T G r carries tr(A)/2 of zero-point energy relative to the
    # normal-ordered boson form.
    return QuadraticForm(A=A, B=B, d=w, e0=const + 0.5 * np.trace(A).real)


def _norms(M: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a complex stack, bitwise: the
    BLAS dots of the real and of the imaginary parts that norm sums."""
    x = np.ascontiguousarray(M).reshape(len(M), -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x[k] for each vector of the stack x."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k] @ y[k] for each pair of vectors of the stacks x and y."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _paired_gaps(ev: np.ndarray, scale: np.ndarray
                 ) -> tuple[np.ndarray, list[HpDickeError | None]]:
    """Ascending mode energies from a stack of the 2n eigenvalues of
    Sigma_z M, and per row None or the InstabilityError of a row whose
    energies are complex or do not pair (its gaps are nan)."""
    n = ev.shape[-1] // 2
    thr = _GAP_TOL * scale
    # An exact zero mode is a Jordan pair whose numerical eigenvalues
    # scatter by ~sqrt(eps)*scale in any direction; collapse that dust
    # to zero before judging stability.
    ev = np.where(np.abs(ev) < (1e-7 * scale)[:, None], 0.0, ev)
    imag = np.abs(ev.imag).max(axis=-1)
    re = np.sort(ev.real, axis=-1)
    pos = re[:, n:]
    skew = np.abs(pos + re[:, n - 1::-1]).max(axis=-1)
    errors: list[HpDickeError | None] = [None] * len(ev)
    for k in np.flatnonzero((imag > thr) | (skew > thr)):
        errors[k] = InstabilityError(
            f"complex mode energies (max imag {imag[k]:.3e})"
            if imag[k] > thr[k] else "mode energies do not come in +/- pairs")
    gaps = np.clip(pos, 0.0, None)
    gaps[[e is not None for e in errors]] = math.nan
    return gaps, errors


def _krein_step(ev: np.ndarray, vec: np.ndarray, scale: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, list[HpDickeError | None]]:
    """Mode energies, polariton transforms T and per-row errors from a
    stack of eigenpairs of Sigma_z M: keeps the Krein-positive branch
    and normalizes each row of T to the bosonic commutator.

    The array steps loop over the n modes, never over the stack; each
    product is the one row-at-a-time code takes with @, so every row is
    bitwise what it would be alone.  A row that raises keeps its error
    and leaves the other rows as they are.
    """
    n = ev.shape[-1] // 2
    thr = _GAP_TOL * scale
    imag = np.abs(ev.imag).max(axis=-1)
    re = ev.real
    count = np.count_nonzero(re > thr[:, None], axis=-1)
    errors: list[HpDickeError | None] = [None] * len(ev)
    for k in np.flatnonzero((imag > thr) | (count != n)):
        if imag[k] > thr[k]:
            errors[k] = InstabilityError(
                f"complex mode energies (max imag {imag[k]:.3e}); "
                "expansion point is on the wrong side of a phase boundary")
        else:
            errors[k] = (GaplessError if count[k] == n - 1
                         else InstabilityError)(
                f"{count[k]} positive mode energies for {n} modes; "
                "form is gapless or unstable")
    # with n energies above thr, they are the top n of the ascending order
    pos = np.argsort(re, axis=-1)[:, n:]
    gaps = np.take_along_axis(re, pos, axis=-1)

    # Krein-orthonormalize inside near-degenerate groups so the transform
    # stays symplectic when gaps coincide.  A group runs from its first
    # gap while the gaps stay within group_tol of that one.
    group_tol = np.maximum(1e-8 * scale, 10 * _GAP_TOL * scale)
    first = np.zeros(gaps.shape, dtype=np.intp)
    for k in range(1, n):
        lead = first[:, k - 1]
        joins = gaps[:, k] - np.take_along_axis(
            gaps, lead[:, None], axis=-1)[:, 0] < group_tol
        first[:, k] = np.where(joins, lead, k)
    sz = _sigma_z(n)
    cols = np.take_along_axis(vec, pos[:, None, :], axis=-1)
    kept: list[np.ndarray] = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n):
            xi = cols[:, :, k].copy()
            for j, prev in enumerate(kept):
                proj = xi - prev * _dot(prev.conj(), _mv(sz, xi))[:, None]
                xi = np.where((first[:, k] <= j)[:, None], proj, xi)
            s = _dot(xi.conj(), _mv(sz, xi)).real
            for r in np.flatnonzero(s <= _GAP_TOL):
                if errors[r] is None:
                    errors[r] = InstabilityError(
                        f"non-positive Krein norm {s[r]:.3e} "
                        f"at gap {gaps[r, k]:.6g}")
            kept.append(xi / np.sqrt(s)[:, None])
        phased = []
        for xi in kept:
            w = np.matmul(xi.conj()[:, None, :], sz)[:, 0]
            # Deterministic row phase: largest entry real positive.  |a|
            # is hypot, as for a scalar; numpy's vectorized complex abs
            # can differ from it in the last bit.
            a = np.take_along_axis(w, np.argmax(np.abs(w), axis=-1)[:, None],
                                   axis=-1)
            phased.append(w * (np.hypot(a.real, a.imag) / a))
    rows = np.stack(phased, axis=1)
    return gaps, np.concatenate([rows, rows.conj() @ _swap_blocks(n)],
                                axis=1), errors


class _BogoliubovStack(NamedTuple):
    """_bogoliubov_stack over K matrices of n modes.

    gaps: (K, n) mode energies as bogoliubov_gaps gives them, nan in a
        row whose energies do not pair.
    modes, transform: (K, n) energies and (K, 2n, 2n) transforms as
        symplectic_diagonalize gives them, nan in a row not asked for or
        failed.
    errors: per row None or the error the row raised.
    """

    gaps: np.ndarray
    modes: np.ndarray
    transform: np.ndarray
    errors: list[HpDickeError | None]


def _bogoliubov_stack(M: np.ndarray, stable: np.ndarray) -> _BogoliubovStack:
    """Gaps of a stack of 2n x 2n matrices M (as form_matrix gives them),
    from one batched eigen-decomposition, and the polariton transforms
    of the rows where stable[k] is set, so rows on a phase boundary
    still get their gaps.  bogoliubov_gaps and symplectic_diagonalize
    are this step on a stack of one.  A row whose gaps do not pair
    skips the Krein step; its error, or the Krein step's, is errors[k].
    A row that is not finite stays out of the eigen-decomposition and
    fails with InstabilityError.
    """
    n = M.shape[-1] // 2
    finite = np.isfinite(M).all(axis=(-2, -1))
    ev = np.full(M.shape[:-1], math.nan, dtype=complex)
    vec = np.full(M.shape, math.nan, dtype=complex)
    ev[finite], vec[finite] = np.linalg.eig(_sigma_z(n) @ M[finite])
    scale = np.maximum(_norms(M), 1e-300)
    gaps, errors = _paired_gaps(ev, scale)
    for k in np.flatnonzero(~finite):
        errors[k] = InstabilityError("quadratic form is not finite")
    modes = np.full(gaps.shape, math.nan)
    transform = np.full(M.shape, math.nan, dtype=complex)
    rows = np.flatnonzero([s and e is None for s, e in zip(stable, errors)])
    if len(rows):
        modes[rows], transform[rows], late = _krein_step(
            ev[rows], vec[rows], scale[rows])
        for k, exc in zip(rows.tolist(), late):
            if exc is not None:
                errors[k] = exc
                modes[k] = transform[k] = math.nan
    return _BogoliubovStack(gaps=gaps, modes=modes, transform=transform,
                            errors=errors)


def bogoliubov_gaps(form: QuadraticForm) -> np.ndarray:
    """Mode energies only, ascending, without building the transform.

    Unlike symplectic_diagonalize this tolerates zero gaps, so it can be
    evaluated exactly on a phase boundary.
    """
    A, B, _, _ = _validated(form)
    stack = _bogoliubov_stack(_nambu(A, B)[None], np.zeros(1, bool))
    if stack.errors[0] is not None:
        raise stack.errors[0]
    return stack.gaps[0]


def symplectic_diagonalize(form: QuadraticForm) -> BogoliubovSolution:
    """Diagonalize a stable quadratic form into polaritons.

    Builds the dynamical matrix Sigma_z M, keeps the Krein-positive
    eigenvector branch, and normalizes each row to the bosonic commutator.
    Raises InstabilityError when the form is not strictly stable (complex,
    negative, or vanishing mode energies).
    """
    A, B, d, n = _validated(form)
    M = _nambu(A, B)

    # Absorb linear terms: Psi -> Psi + chi with M chi = -(conj d, d).
    if np.abs(d).max() > 0:
        f = np.concatenate([d.conj(), d])
        try:
            chi = np.linalg.solve(M, -f)
        except np.linalg.LinAlgError:
            raise InstabilityError(
                "singular quadratic form; displacements cannot be absorbed")
        c = chi[:n]
        e_shift = float(np.real(np.dot(d, c)))
    else:
        c = np.zeros(n, dtype=complex)
        e_shift = 0.0

    stack = _bogoliubov_stack(M[None], np.ones(1, bool))
    if stack.errors[0] is not None:
        raise stack.errors[0]
    gaps = stack.modes[0]
    ground = form.e0 + e_shift + 0.5 * (gaps.sum() - np.trace(A).real)
    return BogoliubovSolution(gaps=gaps, transform=stack.transform[0],
                              displacements=c, ground_energy=float(ground))


def _mode_moments(T: np.ndarray, mean: complex,
                  mode_index: int) -> list[tuple[complex, complex, float]]:
    """<a>, <a^2> and <a^dag a> of one mode in the polariton vacuum of
    each transform of the stack T, with <a> = mean."""
    n = T.shape[-1] // 2
    sz = _sigma_z(n)
    row = (sz @ _adjoint(T) @ sz)[:, mode_index]
    P, Q = row[:, :n], row[:, n:]
    sq = np.sum(P * Q, axis=-1) + mean * mean
    n_occ = np.sum(np.abs(Q) ** 2, axis=-1) + abs(mean) ** 2
    return list(zip([mean] * len(T), sq.tolist(), n_occ.tolist()))


def photon_moments_from_solution(sol: BogoliubovSolution,
                                 mode_index: int = 0) -> FluctuationReport:
    """Vacuum moments of one original mode, read off the inverse transform.

    Inverts a_i = sum_k (P_k e_k + Q_k e_k^dag) and evaluates expectations
    in the polariton vacuum.
    """
    n = sol.n_modes
    if not 0 <= mode_index < n:
        raise DomainError(f"mode_index {mode_index} out of range for {n} modes")
    (moments,) = _mode_moments(sol.transform[None],
                               complex(sol.displacements[mode_index]),
                               mode_index)
    return heisenberg_product(*moments)


def heisenberg_product(mean_a: complex = 0.0, a_sq: complex = 0.0,
                       occupation: float = 0.0) -> FluctuationReport:
    """Quadrature uncertainties of one mode from raw moments.

    Takes <a>, <a^2> and <a^dag a>, centers them, rotates the mode so its
    squeezing axis lines up with the quadratures (phi = arg<a^2>_c / 2, a
    half-turn choice that also minimizes dx*dp), and reports the rotated
    dx, dp and their product.  Inputs whose <a^2>_c is already real are
    reported unrotated, so a physically larger dp stays on dp.  This is
    the one-point case of _aligned and quadratures.
    """
    mean = complex(mean_a)
    sq_c = complex(a_sq) - mean * mean
    sq, zeta, phi = _aligned(np.array([sq_c]))
    n_occ, dx, dp, hp, (error,) = quadratures(
        np.array([float(occupation) - abs(mean) ** 2]), sq)
    if error is not None:
        raise error
    return FluctuationReport(mean_a=mean, n_occ=n_occ.item(), sq=sq_c,
                             dx=dx.item(), dp=dp.item(), hp=hp.item(),
                             zeta=zeta.item(), phi=phi.item())


def _aligned(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each mode's centered <a^2> = sq (a complex array) along its
    squeezing axis, with the zeta = -(Im sq)^2 and the phi = arg(sq)/2,
    taken in [0, pi), of the rotation that puts it there.  An sq that is
    real within 1e-12 of max(1, |sq|) is left unrotated, with zeta = phi
    = 0.  |sq| (Python's abs) and the angle (math.atan2, on the rotated
    entries only) go through per_element, so each entry is what scalar
    float code gives."""
    im, out = sq.imag, sq.real.copy()
    zeta, phi = np.zeros(len(sq)), np.zeros(len(sq))
    mod = per_element(abs, sq)
    rot = ~(np.abs(im) <= 1e-12 * np.fmax(1.0, mod))
    if rot.any():
        half = 0.5 * per_element(math.atan2, im[rot], out[rot])
        phi[rot] = np.where(half < 0.0, half + math.pi, half)
        out[rot], zeta[rot] = mod[rot], -(im[rot] * im[rot])
    return out, zeta, phi


def quadratures(n_c: np.ndarray, sq: np.ndarray):
    """n_occ, dx, dp, hp and errors over arrays of modes with centered
    occupation n_c and real centered <a^2> = sq, each point bitwise what
    scalar float code gives.  Values within HP_CLAMP_BAND below a bound
    are clamped onto it; a point further below gets nan and its
    UncertaintyViolation in errors, leaving the other points as they are;
    so does a point whose product is not a number.

    Both thermo grids reach the gaussian layer through this function,
    once per grid; it is public so that the benchmark's trace of the
    layer sees those calls.
    """
    n_occ = np.where(0.0 > n_c, 0.0, n_c)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        dx2 = 0.5 + n_occ + sq
        dp2 = 0.5 + n_occ - sq
        dx, dp = np.sqrt(dx2), np.sqrt(dp2)
        hp = dx * dp
        clamp = hp < 0.5
        hp_out = np.where(clamp, 0.5, hp)
        dp = np.where(clamp, 0.5 / dx, dp)
    # written so that a nan product fails too
    bad = ((n_c < -HP_CLAMP_BAND) | (dx2 <= 0.0) | (dp2 <= 0.0)
           | ~(hp >= 0.5 - HP_CLAMP_BAND))
    errors: list[UncertaintyViolation | None] = [None] * len(n_c)
    for k in np.flatnonzero(bad):
        errors[k] = UncertaintyViolation(
            f"moments break the Heisenberg bound: centered occupation "
            f"{n_c[k]:.3e}, dx^2 {dx2[k]:.3e}, dp^2 {dp2[k]:.3e}, "
            f"dx dp {hp[k]:.17g}")
        dx[k] = dp[k] = hp_out[k] = math.nan
    return n_occ, dx, dp, hp_out, errors


def _clamped_hp(hp: float) -> float:
    hp = float(hp)
    if hp < 0.5 - HP_CLAMP_BAND:
        raise DomainError(f"uncertainty product {hp!r} below 1/2")
    return max(hp, 0.5)


def entropy_from_hp(hp: float, degeneracy_offset: int = 0,
                    renyi_alphas: tuple[float, ...] = ()) -> EntropyReport:
    """Von Neumann entropy (bits) of a mode with aligned uncertainty
    product hp:

        S = (hp + 1/2) log2(hp + 1/2) - (hp - 1/2) log2(hp - 1/2)

    evaluated in a cancellation-free arrangement.  degeneracy_offset (0, 1
    or 2 bits) is added to s_vn for comparison against finite-size
    symmetric ground states of degenerate phases.  This is the one-point
    read of _entropy_columns, so an infinite hp gives infinite entropies.
    """
    cols = _entropy_columns([hp], [degeneracy_offset], renyi_alphas)
    return EntropyReport(s_vn=cols.s_vn[0],
                         s_renyi={a: c[0] for a, c in cols.s_renyi.items()},
                         pseudo_energy=pseudo_energy(hp),
                         degeneracy_offset=degeneracy_offset)


@dataclass(frozen=True)
class _EntropyColumns:
    """Entropies (bits) over a column of uncertainty products.

    s_vn includes each point's degeneracy offset, s_vn_bare is s_vn less
    it, and s_renyi maps each order to its column.
    """

    s_vn: list[float]
    s_vn_bare: list[float]
    s_renyi: dict[float, list[float]]


@np.errstate(divide="ignore", invalid="ignore")
def _entropy_columns(hp, degeneracy_offsets,
                     renyi_alphas: tuple[float, ...] = ()) -> _EntropyColumns:
    """The entropies of entropy_from_hp over a column of uncertainty
    products, as array steps whose logarithms go through per_element, so
    each cell is what scalar float code gives.  Every offset must be 0, 1
    or 2, and an hp more than HP_CLAMP_BAND below 1/2 raises DomainError.
    An infinite hp marks a divergence and gives inf in every entropy
    column; a nan hp (a failed point) gives nan."""
    bad = [o for o in degeneracy_offsets if o not in (0, 1, 2)]
    if bad:
        raise DomainError(f"degeneracy offset {bad[0]!r} not in (0, 1, 2)")
    offsets = np.asarray(degeneracy_offsets)
    h = np.asarray(hp, dtype=float)
    low = np.flatnonzero(h < 0.5 - HP_CLAMP_BAND)
    if len(low):
        raise DomainError(f"uncertainty product {h[low[0]].item()!r} "
                          "below 1/2")
    h = np.maximum(h, 0.5)
    finite = h < math.inf
    u = h - 0.5
    bits = np.where(u == 0.0, 0.0, per_element(math.log2, h + 0.5)
                    + u * per_element(math.log1p, 1.0 / u) / LN2)
    s_vn = np.where(finite, bits + offsets, h)
    renyi = {float(a): np.where(finite, per_element(renyi_entropy, h, a),
                                h).tolist() for a in renyi_alphas}
    return _EntropyColumns(s_vn=s_vn.tolist(),
                           s_vn_bare=np.where(finite, s_vn - offsets,
                                              h).tolist(),
                           s_renyi=renyi)


def renyi_entropy(hp: float, alpha: float) -> float:
    """Order-alpha Renyi entropy (bits) at aligned uncertainty product hp:

        S_alpha = (alpha - log2[(1 + 2 hp)^alpha - (2 hp - 1)^alpha]) / (1 - alpha)

    computed in log space so large hp and large alpha do not overflow.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(f"Renyi order must be positive, got {alpha!r}")
    if abs(alpha - 1.0) < 1e-9:
        raise DomainError("Renyi order 1 is the von Neumann limit; "
                          "use entropy_from_hp")
    hp = _clamped_hp(hp)
    x = 1.0 + 2.0 * hp
    y = 2.0 * hp - 1.0
    if y == 0.0:
        return 0.0
    t = alpha * math.log(x / y)
    rest = -math.expm1(-t)  # 1 - (y/x)^alpha, stable for tiny t
    log2_diff = alpha * math.log2(x) + math.log(rest) / LN2
    return (alpha - log2_diff) / (1.0 - alpha)


def pseudo_energy(hp: float, zeta: float = 0.0) -> float:
    """Effective thermal gap of the reduced mode,

        Delta = log[(2 s + 1) / (2 s - 1)],   s = sqrt(hp^2 + zeta).

    Returns +inf for a pure reduction (s = 1/2), and the limit 0.0 where
    s overflows to inf; natural-log units.
    """
    arg = float(hp) * float(hp) + float(zeta)
    if arg <= 0.0:
        raise DomainError(f"hp^2 + zeta = {arg!r} is not positive")
    s = math.sqrt(arg)
    if s < 0.5 - HP_CLAMP_BAND:
        raise DomainError(f"hp^2 + zeta = {arg!r} is below 1/4")
    if s <= 0.5:
        return math.inf
    if s == math.inf:
        return 0.0
    return math.log((2.0 * s + 1.0) / (2.0 * s - 1.0))


def thermal_weights(hp: float, zeta: float = 0.0) -> np.ndarray:
    """Occupancies p_k = (1 - q) q^k of the reduced thermal form,
    q = exp(-Delta), truncated once p_k < _WEIGHT_TAIL.  DomainError
    where q rounds to 1 (hp from about 1e16, or inf) or is nan."""
    delta = pseudo_energy(hp, zeta)
    if math.isinf(delta):
        return np.array([1.0])
    q = math.exp(-delta)
    p0 = 1.0 - q
    if not p0 > 0.0:
        raise DomainError(f"no thermal weights at hp = {hp!r}")
    kmax = max(1, int(math.ceil(math.log(_WEIGHT_TAIL / p0) / math.log(q)))
               + 1)
    return p0 * q ** np.arange(kmax)
