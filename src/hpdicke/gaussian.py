"""Gaussian ground-state toolbox.

Quadratic boson Hamiltonians, their symplectic (Bogoliubov) diagonalization,
single-mode quadrature fluctuations, and the entropy formulas that depend on
the uncertainty product alone.

Conventions: hbar = 1, dimensionless quadratures x = (a + a^dag)/sqrt(2) and
p = -i (a - a^dag)/sqrt(2), all entropies in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, GaplessError, HpDickeError,
                     InstabilityError, UncertaintyViolation)

LN2 = math.log(2.0)

# Roundoff band below the Heisenberg bound that is clamped to exactly 1/2
# rather than rejected.
HP_CLAMP_BAND = 1e-9

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
    "heisenberg_products",
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
    must reproduce scalar float code bitwise maps those calls with this."""
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    cols = [a.tolist() if isinstance(a, np.ndarray) else [a] * n
            for a in args]
    return np.array(list(map(fn, *cols)), dtype=float)


def _sigma_z(n: int) -> np.ndarray:
    s = np.ones(2 * n)
    s[n:] = -1.0
    return np.diag(s)


def _swap_blocks(n: int) -> np.ndarray:
    x = np.zeros((2 * n, 2 * n))
    x[:n, n:] = np.eye(n)
    x[n:, :n] = np.eye(n)
    return x


def _validated(form: QuadraticForm, tol: float = 1e-9):
    A = np.atleast_2d(np.asarray(form.A, dtype=complex))
    B = np.atleast_2d(np.asarray(form.B, dtype=complex))
    d = np.atleast_1d(np.asarray(form.d, dtype=complex))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n) or d.shape != (n,):
        raise DomainError("inconsistent matrix shapes in quadratic form")
    scale = max(np.abs(A).max(), np.abs(B).max(), 1.0)
    if np.abs(A - A.conj().T).max() > tol * scale:
        raise DomainError("A block is not Hermitian")
    if np.abs(B - B.T).max() > tol * scale:
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


def _nambu_stack(G: np.ndarray) -> np.ndarray:
    """Stack of the matrices form_matrix(form_from_xp(G[k])), bitwise
    equal to building each one alone, for a stack G of quadrature forms
    that form_from_xp accepts."""
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


def _paired_gaps(ev: np.ndarray, n: int, scale: float,
                 tol: float) -> np.ndarray:
    """Ascending mode energies from the 2n eigenvalues of Sigma_z M;
    overwrites ev."""
    # An exact zero mode is a Jordan pair whose numerical eigenvalues
    # scatter by ~sqrt(eps)*scale in any direction; collapse that dust
    # to zero before judging stability.
    ev[np.abs(ev) < 1e-7 * scale] = 0.0
    if np.abs(ev.imag).max() > tol * scale:
        raise InstabilityError(
            f"complex mode energies (max imag {np.abs(ev.imag).max():.3e})")
    re = np.sort(ev.real)
    pos = re[n:]
    if np.abs(pos + re[:n][::-1]).max() > tol * scale:
        raise InstabilityError("mode energies do not come in +/- pairs")
    return np.clip(pos, 0.0, None)


def bogoliubov_gaps(form: QuadraticForm, tol: float = 1e-9) -> np.ndarray:
    """Mode energies only, ascending, without building the transform.

    Unlike symplectic_diagonalize this tolerates zero gaps, so it can be
    evaluated exactly on a phase boundary.
    """
    A, B, _, n = _validated(form)
    M = _nambu(A, B)
    scale = max(np.linalg.norm(M), 1e-300)
    return _paired_gaps(np.linalg.eigvals(_sigma_z(n) @ M), n, scale, tol)


def _krein_transform(ev: np.ndarray, vec: np.ndarray, n: int, scale: float,
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaps and polariton transform T from the eigenpairs of Sigma_z M:
    keeps the Krein-positive branch and normalizes each row to the
    bosonic commutator."""
    if np.abs(ev.imag).max() > tol * scale:
        raise InstabilityError(
            f"complex mode energies (max imag {np.abs(ev.imag).max():.3e}); "
            "expansion point is on the wrong side of a phase boundary")
    ev = ev.real
    order = np.argsort(ev)
    pos = order[ev[order] > tol * scale]
    if pos.size != n:
        raise (GaplessError if pos.size == n - 1 else InstabilityError)(
            f"{pos.size} positive mode energies for {n} modes; "
            "form is gapless or unstable")

    sz = _sigma_z(n)
    gaps = ev[pos].copy()
    rows = np.empty((n, 2 * n), dtype=complex)
    # Krein-orthonormalize inside near-degenerate groups so the transform
    # stays symplectic when gaps coincide.
    group_tol = max(1e-8 * scale, 10 * tol * scale)
    i = 0
    kept: list[np.ndarray] = []
    while i < n:
        j = i
        while j + 1 < n and gaps[j + 1] - gaps[i] < group_tol:
            j += 1
        for k in range(i, j + 1):
            xi = vec[:, pos[k]].copy()
            for prev in kept[i:k]:
                xi -= prev * (prev.conj() @ (sz @ xi))
            s = float(np.real(xi.conj() @ (sz @ xi)))
            if s <= tol:
                raise InstabilityError(
                    f"non-positive Krein norm {s:.3e} at gap {gaps[k]:.6g}")
            kept.append(xi / math.sqrt(s))
        i = j + 1
    for k, xi in enumerate(kept):
        w = xi.conj() @ sz
        # Deterministic row phase: largest entry real positive.
        a = w[np.argmax(np.abs(w))]
        w = w * (abs(a) / a)
        rows[k] = w

    X = _swap_blocks(n)
    return gaps, np.vstack([rows, rows.conj() @ X])


def symplectic_diagonalize(form: QuadraticForm,
                           tol: float = 1e-9) -> BogoliubovSolution:
    """Diagonalize a stable quadratic form into polaritons.

    Builds the dynamical matrix Sigma_z M, keeps the Krein-positive
    eigenvector branch, and normalizes each row to the bosonic commutator.
    Raises InstabilityError when the form is not strictly stable (complex,
    negative, or vanishing mode energies).
    """
    A, B, d, n = _validated(form)
    M = _nambu(A, B)
    scale = max(np.linalg.norm(M), 1e-300)

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

    ev, vec = np.linalg.eig(_sigma_z(n) @ M)
    gaps, T = _krein_transform(ev, vec, n, scale, tol)
    ground = form.e0 + e_shift + 0.5 * (gaps.sum() - np.trace(A).real)
    return BogoliubovSolution(gaps=gaps, transform=T, displacements=c,
                              ground_energy=float(ground))


def _bogoliubov_stack(M: np.ndarray, stable: np.ndarray, tol: float = 1e-9
                      ) -> tuple[np.ndarray, list[tuple | None],
                                 list[HpDickeError | None]]:
    """Gaps and mode-0 vacuum moments of a stack of 2n x 2n matrices M
    (as form_matrix gives them), from one batched eigen-decomposition.

    Row k equals, bitwise, bogoliubov_gaps of a form with matrix M[k] and
    no linear terms, and heisenberg_products of its moments equals
    photon_moments_from_solution(symplectic_diagonalize(form)).  Moments,
    the (<a>, <a^2>, <a^dag a>) triple, are computed where stable[k] is
    set and are None elsewhere, so rows on a phase boundary still get
    their gaps.  A row whose gaps or Krein step raise gets its error in
    errors[k] (and nan gaps if they did not pair).
    """
    n = M.shape[-1] // 2
    ev, vec = np.linalg.eig(_sigma_z(n) @ M)
    gaps = np.full((len(M), n), math.nan)
    moments: list[tuple | None] = [None] * len(M)
    errors: list[HpDickeError | None] = [None] * len(M)
    for k, m in enumerate(M):
        scale = max(np.linalg.norm(m), 1e-300)
        try:
            gaps[k] = _paired_gaps(ev[k].copy(), n, scale, tol)
            if stable[k]:
                _, T = _krein_transform(ev[k], vec[k], n, scale, tol)
                moments[k] = _vacuum_moments(T, 0j, 0)
        except HpDickeError as exc:
            errors[k] = exc
    return gaps, moments, errors


def _vacuum_moments(T: np.ndarray, mean: complex,
                    mode_index: int) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <a^dag a> of one mode in the polariton vacuum."""
    n = T.shape[0] // 2
    sz = _sigma_z(n)
    t_inv = sz @ T.conj().T @ sz
    row = t_inv[mode_index]
    P, Q = row[:n], row[n:]
    n_occ = float(np.sum(np.abs(Q) ** 2))
    sq = complex(np.sum(P * Q))
    return mean, sq + mean * mean, n_occ + abs(mean) ** 2


def photon_moments_from_solution(sol: BogoliubovSolution,
                                 mode_index: int = 0) -> FluctuationReport:
    """Vacuum moments of one original mode, read off the inverse transform.

    Inverts a_i = sum_k (P_k e_k + Q_k e_k^dag) and evaluates expectations
    in the polariton vacuum.
    """
    n = sol.n_modes
    if not 0 <= mode_index < n:
        raise DomainError(f"mode_index {mode_index} out of range for {n} modes")
    return heisenberg_product(*_vacuum_moments(
        sol.transform, complex(sol.displacements[mode_index]), mode_index))


def heisenberg_product(mean_a: complex = 0.0, a_sq: complex = 0.0,
                       occupation: float = 0.0) -> FluctuationReport:
    """Quadrature uncertainties of one mode from raw moments.

    Takes <a>, <a^2> and <a^dag a>, centers them, rotates the mode so its
    squeezing axis lines up with the quadratures (phi = arg<a^2>_c / 2, a
    half-turn choice that also minimizes dx*dp), and reports the rotated
    dx, dp and their product.  Inputs whose <a^2>_c is already real are
    reported unrotated, so a physically larger dp stays on dp.
    """
    (report,), (error,) = heisenberg_products([(mean_a, a_sq, occupation)])
    if error is not None:
        raise error
    return report


def heisenberg_products(moments: list[tuple]) -> tuple[
        list[FluctuationReport | None], list[UncertaintyViolation | None]]:
    """heisenberg_product over (<a>, <a^2>, <a^dag a>) triples: each mode
    is rotated on its own, and the quadratures of all are one array step.
    A triple that breaks the bound gets None and its error."""
    aligned = [_aligned(*m) for m in moments]
    n_occ, dx, dp, hp, errors = quadratures(
        np.array([a[2] for a in aligned], dtype=float),
        np.array([a[3] for a in aligned], dtype=float))
    reports = [None if e is not None else
               FluctuationReport(mean_a=mean, n_occ=n, sq=sq_c, dx=x, dp=p,
                                 hp=h, zeta=zeta, phi=phi)
               for (mean, sq_c, _, _, zeta, phi), n, x, p, h, e
               in zip(aligned, n_occ.tolist(), dx.tolist(), dp.tolist(),
                      hp.tolist(), errors)]
    return reports, errors


def _aligned(mean_a: complex, a_sq: complex, occupation: float) -> tuple:
    """<a>, <a^2>_c and n_c of one mode, then <a^2>_c along the squeezing
    axis, zeta and phi of the rotation that puts it there."""
    mean = complex(mean_a)
    sq_c = complex(a_sq) - mean * mean
    n_c = float(occupation) - abs(mean) ** 2
    im, re = sq_c.imag, sq_c.real
    if abs(im) <= 1e-12 * max(1.0, abs(sq_c)):
        return mean, sq_c, n_c, re, 0.0, 0.0
    phi = 0.5 * math.atan2(im, re)
    if phi < 0.0:
        phi += math.pi
    return mean, sq_c, n_c, abs(sq_c), -(im * im), phi


def quadratures(n_c: np.ndarray, sq: np.ndarray):
    """n_occ, dx, dp, hp and errors over arrays of modes with centered
    occupation n_c and real centered <a^2> = sq, each point bitwise what
    scalar float code gives.  Values within HP_CLAMP_BAND below a bound
    are clamped onto it; a point further below gets nan and its
    UncertaintyViolation in errors, leaving the other points as they are.

    The thermo grids reach the gaussian layer through this function and
    heisenberg_products, once per grid; both are public so that the
    benchmark's trace of the layer sees those calls.
    """
    n_occ = np.where(0.0 > n_c, 0.0, n_c)
    dx2 = 0.5 + n_occ + sq
    dp2 = 0.5 + n_occ - sq
    with np.errstate(invalid="ignore", divide="ignore"):
        dx, dp = np.sqrt(dx2), np.sqrt(dp2)
        hp = dx * dp
        clamp = hp < 0.5
        hp_out = np.where(clamp, 0.5, hp)
        dp = np.where(clamp, 0.5 / dx, dp)
    bad = ((n_c < -HP_CLAMP_BAND) | (dx2 <= 0.0) | (dp2 <= 0.0)
           | (hp < 0.5 - HP_CLAMP_BAND))
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


def _s_vn_bits(hp: float) -> float:
    u = hp - 0.5
    if u == 0.0:
        return 0.0
    return math.log2(hp + 0.5) + u * math.log1p(1.0 / u) / LN2


def _check_offset(offset: int):
    if offset not in (0, 1, 2):
        raise DomainError(f"degeneracy offset {offset!r} not in (0, 1, 2)")


def entropy_from_hp(hp: float, degeneracy_offset: int = 0,
                    renyi_alphas: tuple[float, ...] = ()) -> EntropyReport:
    """Von Neumann entropy (bits) of a mode with aligned uncertainty
    product hp:

        S = (hp + 1/2) log2(hp + 1/2) - (hp - 1/2) log2(hp - 1/2)

    evaluated in a cancellation-free arrangement.  degeneracy_offset (0, 1
    or 2 bits) is added to s_vn for comparison against finite-size
    symmetric ground states of degenerate phases.
    """
    _check_offset(degeneracy_offset)
    hp = _clamped_hp(hp)
    alphas = {float(a): renyi_entropy(hp, a) for a in renyi_alphas}
    return EntropyReport(s_vn=_s_vn_bits(hp) + degeneracy_offset,
                         s_renyi=alphas,
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


def _entropy_columns(hp, degeneracy_offsets,
                     renyi_alphas: tuple[float, ...] = ()) -> _EntropyColumns:
    """entropy_from_hp over a column of uncertainty products, each value
    bitwise equal to the scalar one.  An infinite hp marks a divergence
    and gives inf in every entropy column; a nan hp (a failed point)
    gives nan."""
    s_vn, bare = [], []
    renyi: dict[float, list[float]] = {float(a): [] for a in renyi_alphas}
    for h, offset in zip(hp, degeneracy_offsets):
        if not h < math.inf:
            s = b = h
            for column in renyi.values():
                column.append(h)
        else:
            _check_offset(offset)
            h = _clamped_hp(h)
            s = _s_vn_bits(h) + offset
            b = s - offset
            for a, column in renyi.items():
                column.append(renyi_entropy(h, a))
        s_vn.append(s)
        bare.append(b)
    return _EntropyColumns(s_vn=s_vn, s_vn_bare=bare, s_renyi=renyi)


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

    Returns +inf for a pure reduction (s = 1/2); natural-log units.
    """
    arg = float(hp) * float(hp) + float(zeta)
    if arg <= 0.0:
        raise DomainError(f"hp^2 + zeta = {arg!r} is not positive")
    s = math.sqrt(arg)
    if s < 0.5 - HP_CLAMP_BAND:
        raise DomainError(f"hp^2 + zeta = {arg!r} is below 1/4")
    if s <= 0.5:
        return math.inf
    return math.log((2.0 * s + 1.0) / (2.0 * s - 1.0))


def thermal_weights(hp: float, zeta: float = 0.0,
                    tail: float = 1e-16) -> np.ndarray:
    """Occupancies p_k = (1 - q) q^k of the reduced thermal form,
    q = exp(-Delta), truncated once p_k < tail."""
    delta = pseudo_energy(hp, zeta)
    if math.isinf(delta):
        return np.array([1.0])
    q = math.exp(-delta)
    p0 = 1.0 - q
    kmax = max(1, int(math.ceil(math.log(tail / p0) / math.log(q))) + 1)
    return p0 * q ** np.arange(kmax)
