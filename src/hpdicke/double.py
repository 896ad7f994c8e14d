"""Thermodynamic limit of the double-quadrature Dicke model

    H = omega_cav a^dag a + omega0_C Jz_C + omega0_I Jz_I
        + (lambda_C/sqrt(N_C)) (a + a^dag)(J+_C + J-_C)
        + (lambda_I/sqrt(N_I)) i(a - a^dag)(J+_I + J-_I)

two spin chains coupled to conjugate photon quadratures, with independent
Z2 symmetries and a four-phase diagram.  Everything here is built from the
classical (coherent-state) energy surface: its minimum fixes the
displacements, its Hessian is the three-mode quadratic form handed to the
generic Bogoliubov machinery.  Both are evaluated over arrays of coupling
pairs (_double_thermo_grid); the scalar functions take one point of them.

Both chains enter symmetrically: x-quadrature displacement u couples to
chain C, p-quadrature displacement v to chain I, and swapping
(lambda_C, omega0_C) with (lambda_I, omega0_I) exchanges dx and dp while
preserving the uncertainty product and the entropy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dicke import _is_critical, _resolve_branch
from .errors import (CriticalPointDivergence, DomainError,
                     GaplessError, HpDickeError, MeanFieldError,
                     RegimeError)
from .gaussian import (EntropyReport, FluctuationReport, QuadraticForm,
                       _bogoliubov_stack, _EntropyColumns, _entropy_columns,
                       _mode_moments, _nambu_stack, bogoliubov_gaps,
                       entropy_from_hp, form_from_xp, heisenberg_product,
                       heisenberg_products, per_element,
                       symplectic_diagonalize)

__all__ = [
    "DoubleDickeParams",
    "DoublePhase",
    "DoublePhaseInfo",
    "MeanField",
    "DoubleThermoSolution",
    "classify_double_phase",
    "mean_field",
    "double_quadrature_matrix",
    "build_double_quadratic_form",
    "double_gaps",
    "soft_mode_count",
    "solve_double_thermo",
    "lower_polariton",
    "double_point_hp",
    "hp_double",
    "entropy_double",
]

GRADIENT_TOL = 1e-10
# Relative distance to both critical couplings, per unit of
# 1 + omega0_C/omega_cav, within which a zero soft gap is read as the
# double point.  The soft gap there is linear in the distance, and the
# Krein step reads it as zero below about 1e-9 of that unit (1.7e-6 at
# omega0_C/omega_cav = 1000); this allows a thousandfold margin.
DOUBLE_BAND_REL = 1e-6
SOFT_MODE_TOL = 1e-8  # stiffness relative to the largest that is soft


@dataclass(frozen=True)
class DoubleDickeParams:
    """Frequencies and the two couplings; optional chain sizes for ED."""

    omega_cav: float
    omega0_c: float
    omega0_i: float
    lambda_c: float
    lambda_i: float
    n_c: int | None = None
    n_i: int | None = None

    def __post_init__(self):
        if not (self.omega_cav > 0 and self.omega0_c > 0 and self.omega0_i > 0):
            raise DomainError("frequencies must be positive")
        if self.lambda_c < 0 or self.lambda_i < 0:
            raise DomainError("couplings must be nonnegative")
        for v in (self.omega_cav, self.omega0_c, self.omega0_i,
                  self.lambda_c, self.lambda_i):
            if not math.isfinite(v):
                raise DomainError("parameters must be finite")

    @property
    def lambda_c_cr(self) -> float:
        return math.sqrt(self.omega_cav * self.omega0_c) / 2.0

    @property
    def lambda_i_cr(self) -> float:
        return math.sqrt(self.omega_cav * self.omega0_i) / 2.0


class DoublePhase(enum.Enum):
    NORMAL = "Normal"
    SUPERRADIANT_REAL = "SuperradiantReal"
    SUPERRADIANT_IMAG = "SuperradiantImag"
    SUPERRADIANT_DOUBLE = "SuperradiantDouble"


_DEGENERACY = {
    DoublePhase.NORMAL: 1,
    DoublePhase.SUPERRADIANT_REAL: 2,
    DoublePhase.SUPERRADIANT_IMAG: 2,
    DoublePhase.SUPERRADIANT_DOUBLE: 4,
}
_OFFSET_BITS = {1: 0, 2: 1, 4: 2}


@dataclass(frozen=True)
class DoublePhaseInfo:
    phase: DoublePhase
    degeneracy: int
    lambda_c_cr: float
    lambda_i_cr: float
    critical_c: bool
    critical_i: bool


@dataclass(frozen=True)
class MeanField:
    """Classical minimum of the energy surface, all per sqrt(N)."""

    u: float
    v: float
    x_c: float
    x_i: float
    mu_c: float
    mu_i: float
    epsilon_c: int
    epsilon_i: int
    energy: float


@dataclass(frozen=True)
class DoubleThermoSolution:
    phase: DoublePhase
    mu_c: float
    mu_i: float
    # (photon complex shift u + iv, chain-C shift, chain-I shift)
    displacements: tuple[complex, float, float]
    gaps: tuple[float, float, float]
    # None exactly on a critical line, where a gap vanishes.
    polariton_transform: np.ndarray | None


def classify_double_phase(p: DoubleDickeParams) -> DoublePhaseInfo:
    """Phase from the two critical lines; a coupling exactly on its line
    counts as broken, with the matching critical flag set."""
    crit_c = _is_critical(p.lambda_c, p.lambda_c_cr)
    crit_i = _is_critical(p.lambda_i, p.lambda_i_cr)
    broken_c = crit_c or p.lambda_c > p.lambda_c_cr
    broken_i = crit_i or p.lambda_i > p.lambda_i_cr
    if broken_c and broken_i:
        phase = DoublePhase.SUPERRADIANT_DOUBLE
    elif broken_c:
        phase = DoublePhase.SUPERRADIANT_REAL
    elif broken_i:
        phase = DoublePhase.SUPERRADIANT_IMAG
    else:
        phase = DoublePhase.NORMAL
    return DoublePhaseInfo(phase=phase, degeneracy=_DEGENERACY[phase],
                           lambda_c_cr=p.lambda_c_cr,
                           lambda_i_cr=p.lambda_i_cr,
                           critical_c=crit_c, critical_i=crit_i)


def _broken(info: DoublePhaseInfo) -> tuple[bool, bool]:
    """Whether the C and the I symmetry are broken."""
    return (info.phase in (DoublePhase.SUPERRADIANT_REAL,
                           DoublePhase.SUPERRADIANT_DOUBLE),
            info.phase in (DoublePhase.SUPERRADIANT_IMAG,
                           DoublePhase.SUPERRADIANT_DOUBLE))


def _one_point(p: DoubleDickeParams, branch: tuple[int, int] | None):
    """The branch signs at p, p as the one-point arrays that
    _mean_field_grid takes, and the mean field there; raises the point's
    MeanFieldError."""
    broken_c, broken_i = _broken(classify_double_phase(p))
    eps_c, eps_i = branch if branch is not None else (None, None)
    eps_c = _resolve_branch(broken_c, eps_c, "direction C")
    eps_i = _resolve_branch(broken_i, eps_i, "direction I")
    args = (p.omega_cav, p.omega0_c, p.omega0_i, np.array([p.lambda_c]),
            np.array([p.lambda_i]), np.array([eps_c]), np.array([eps_i]))
    mf, (error,) = _mean_field_grid(*args)
    if error is not None:
        raise error
    return (eps_c, eps_i), args, mf


def mean_field(p: DoubleDickeParams,
               branch: tuple[int, int] | None = None) -> MeanField:
    """Closed-form minimizer of the classical energy per spin,

        f = w (u^2 + v^2) + sum_k w0_k (x_k^2 - 1/2)
            + 4 lC u x_C s_C - 4 lI v x_I s_I,   s_k = sqrt(1 - x_k^2).

    Each gradient component at the returned point is checked below
    1e-10 of the largest term summed into it.
    """
    (eps_c, eps_i), _, mf = _one_point(p, branch)
    return MeanField(**{k: a.item() for k, a in mf._asdict().items()},
                     epsilon_c=eps_c, epsilon_i=eps_i)


class _MeanFieldGrid(NamedTuple):
    u: np.ndarray
    v: np.ndarray
    x_c: np.ndarray
    x_i: np.ndarray
    mu_c: np.ndarray
    mu_i: np.ndarray
    energy: np.ndarray


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _mean_field_grid(om: float, om0_c: float, om0_i: float,
                     lam_c: np.ndarray, lam_i: np.ndarray,
                     eps_c: np.ndarray, eps_i: np.ndarray
                     ) -> tuple[_MeanFieldGrid, list[MeanFieldError | None]]:
    """mean_field over arrays of coupling pairs and branch signs (0 in an
    unbroken direction), plus per point None or the MeanFieldError of a
    point whose gradient fails the stationarity check, which a point
    whose arithmetic overflowed to inf or nan fails too.

    Elementwise numpy arithmetic and sqrt round exactly as Python floats
    do; powers go through per_element.
    """
    mu_c = om * om0_c / (4.0 * per_element(pow, lam_c, 2))
    mu_i = om * om0_i / (4.0 * per_element(pow, lam_i, 2))
    mu_c = np.where((eps_c != 0) & ~(1.0 < mu_c), mu_c, 1.0)
    mu_i = np.where((eps_i != 0) & ~(1.0 < mu_i), mu_i, 1.0)
    x_c = eps_c * np.sqrt((1.0 - mu_c) / 2.0)
    x_i = eps_i * np.sqrt((1.0 - mu_i) / 2.0)
    s_c = np.sqrt(1.0 - x_c * x_c)
    s_i = np.sqrt(1.0 - x_i * x_i)
    u = -(2.0 * lam_c / om) * x_c * s_c
    v = +(2.0 * lam_i / om) * x_i * s_i

    f = (om * (u * u + v * v)
         + om0_c * (x_c * x_c - 0.5) + om0_i * (x_i * x_i - 0.5)
         + 4.0 * lam_c * u * x_c * s_c - 4.0 * lam_i * v * x_i * s_i)

    # Each gradient component is lead + coupling * shape, where shape is
    # 1 in the u, v components and hprime = (1 - 2 x^2) / s in the x ones.
    # Stationarity is judged against the larger summand.  hprime's
    # 1 - 2 x^2 (at most 1) cancels at strong coupling, so its summand
    # counts at coupling / s.
    one = np.ones_like(s_c)
    lead = np.array([2.0 * om * u, 2.0 * om * v,
                     2.0 * om0_c * x_c, 2.0 * om0_i * x_i])
    coupling = np.array([4.0 * lam_c * x_c * s_c, -4.0 * lam_i * x_i * s_i,
                         4.0 * lam_c * u, -4.0 * lam_i * v])
    s = np.array([one, one, s_c, s_i])
    shape = np.array([one, one, 1.0 - 2.0 * x_c * x_c,
                      1.0 - 2.0 * x_i * x_i]) / s
    grad = lead + coupling * shape
    size = np.maximum(np.abs(lead), np.abs(coupling) / s)
    bad = ~(np.abs(grad) <= GRADIENT_TOL * size).all(axis=0)
    errors: list[MeanFieldError | None] = [None] * len(bad)
    for k in np.flatnonzero(bad):
        errors[k] = MeanFieldError("stationarity violated at the closed-form "
                                   f"minimum: {tuple(grad[:, k].tolist())}")
    return _MeanFieldGrid(u=u, v=v, x_c=x_c, x_i=x_i, mu_c=mu_c, mu_i=mu_i,
                          energy=f), errors


def double_quadrature_matrix(p: DoubleDickeParams,
                             branch: tuple[int, int] | None = None
                             ) -> tuple[np.ndarray, float]:
    """Hessian/2 of the quantum fluctuation Hamiltonian in quadratures
    ordered (q_a, q_C, q_I, p_a, p_C, p_I), plus the classical minimum
    energy per spin.

    Identical for all symmetry branches (the entries are even in the
    coherence signs)."""
    _, args, mf = _one_point(p, branch)
    return _hessian_grid(*args[:5], mf)[0], mf.energy.item()


@np.errstate(over="ignore", invalid="ignore")
def _hessian_grid(om: float, om0_c: float, om0_i: float,
                  lam_c: np.ndarray, lam_i: np.ndarray,
                  mf: _MeanFieldGrid) -> np.ndarray:
    """double_quadrature_matrix over arrays of coupling pairs, as a
    (k, 6, 6) stack, around the mean fields mf."""
    def hp_(x, s):
        return (1.0 - 2.0 * x * x) / s

    def hpp(x, s):
        return x * (2.0 * x * x - 3.0) / per_element(pow, s, 3)

    s_c = np.sqrt(1.0 - per_element(pow, mf.x_c, 2))
    s_i = np.sqrt(1.0 - per_element(pow, mf.x_i, 2))

    G = np.zeros((len(lam_c), 6, 6))
    G[:, 0, 0] = om
    G[:, 3, 3] = om
    G[:, 1, 1] = om0_c + 2.0 * lam_c * mf.u * hpp(mf.x_c, s_c)
    G[:, 4, 4] = om0_c - 2.0 * lam_c * mf.u * mf.x_c / s_c
    G[:, 2, 2] = om0_i - 2.0 * lam_i * mf.v * hpp(mf.x_i, s_i)
    G[:, 5, 5] = om0_i + 2.0 * lam_i * mf.v * mf.x_i / s_i
    G[:, 0, 1] = G[:, 1, 0] = 2.0 * lam_c * hp_(mf.x_c, s_c)
    G[:, 2, 3] = G[:, 3, 2] = -2.0 * lam_i * hp_(mf.x_i, s_i)
    return G


def build_double_quadratic_form(p: DoubleDickeParams,
                                branch: tuple[int, int] | None = None
                                ) -> QuadraticForm:
    """Three-mode quadratic form (modes a, b_C, b_I) expanded around the
    classical minimum; linear terms vanish there by the stationarity
    check inside mean_field."""
    G, f_min = double_quadrature_matrix(p, branch)
    return form_from_xp(G, const=f_min)


def double_gaps(p: DoubleDickeParams) -> tuple[float, float, float]:
    """The three polariton gaps, ascending.  Valid on the critical lines
    too, where the lowest one vanishes.

    At the double point the two soft directions are symplectically
    conjugate (they share the photon), so they merge into a single flat
    canonical pair: the ascending triple still holds exactly one zero,
    and the number of independent soft directions is what
    soft_mode_count reports."""
    form = build_double_quadratic_form(p)
    gaps = bogoliubov_gaps(form)
    return tuple(sorted(float(g) for g in gaps))


def soft_mode_count(p: DoubleDickeParams) -> int:
    """Number of independent zero-stiffness quadrature directions: 0 in a
    phase interior, 1 on a single critical line, 2 at the double point
    (one per simultaneously breaking symmetry)."""
    G, _ = double_quadrature_matrix(p)
    ev = np.linalg.eigvalsh(G)
    return int(np.sum(np.abs(ev)
                      < SOFT_MODE_TOL * max(1.0, np.abs(ev).max())))


def solve_double_thermo(p: DoubleDickeParams,
                        branch: tuple[int, int] | None = None
                        ) -> DoubleThermoSolution:
    """Mean field plus Bogoliubov data.  Exactly on a critical line the
    zero mode admits no symplectic normalization, so the transform is
    None there while the gaps remain available."""
    info = classify_double_phase(p)
    mf = mean_field(p, branch)
    form = build_double_quadratic_form(p, branch)
    on_line = info.critical_c or info.critical_i
    transform = None
    if on_line:
        gaps = tuple(sorted(float(g) for g in bogoliubov_gaps(form)))
    else:
        sol = symplectic_diagonalize(form)
        gaps = tuple(float(g) for g in sol.gaps)
        transform = sol.transform.copy()
    return DoubleThermoSolution(phase=info.phase, mu_c=mf.mu_c, mu_i=mf.mu_i,
                                displacements=(complex(mf.u, mf.v),
                                               mf.x_c, mf.x_i),
                                gaps=gaps, polariton_transform=transform)


def _require_matter_degenerate(p: DoubleDickeParams):
    if abs(p.omega0_c - p.omega0_i) > 1e-12 * max(p.omega0_c, p.omega0_i):
        raise CriticalPointDivergence(
            "finite double-point values hold for equal matter frequencies "
            "only; this double point has omega0_c != omega0_i",
            quantity="hp")


def lower_polariton(p: DoubleDickeParams) -> np.ndarray:
    """Coefficients of the lowest polariton over
    (a, b_C, b_I, a^dag, b_C^dag, b_I^dag).

    Defined in the normal phase; on a single critical line the mode is
    gapless and the row diverges, while at the double point the two
    divergences compensate and the finite limit row

        (1, -s, i s, 0, s, -i s),  s = sqrt(omega_cav / (4 omega0_C))

    is returned (symplectically normalized as it stands)."""
    info = classify_double_phase(p)
    if info.critical_c and info.critical_i:
        _require_matter_degenerate(p)
        s = math.sqrt(p.omega_cav / (4.0 * p.omega0_c))
        return np.array([1.0, -s, 1j * s, 0.0, s, -1j * s])
    if info.critical_c or info.critical_i:
        raise CriticalPointDivergence(
            "the lower polariton is gapless on a critical line",
            quantity="polariton")
    if info.phase is not DoublePhase.NORMAL:
        raise RegimeError(
            f"lower polariton row is defined in the normal phase, "
            f"not {info.phase.value}")
    sol = symplectic_diagonalize(build_double_quadratic_form(p))
    k = int(np.argmin(sol.gaps))
    return sol.transform[k].copy()


def double_point_hp(p: DoubleDickeParams) -> float:
    """Uncertainty product at the double symmetry-breaking point,

        dx dp = 1/2 + (1 + 4 (omega0_C/omega_cav)^2)^(-1/2)

    finite although both critical lines cross here."""
    _require_matter_degenerate(p)
    ratio = p.omega0_c / p.omega_cav
    return 0.5 + 1.0 / math.sqrt(1.0 + 4.0 * ratio * ratio)


def _double_point_report(p: DoubleDickeParams) -> FluctuationReport:
    """hp_double's report at the double point: dx = dp = sqrt(hp)."""
    return heisenberg_product(occupation=double_point_hp(p) - 0.5)


def _next_to_double_point(p: DoubleDickeParams) -> bool:
    """Whether both couplings are within the double-point band of their
    critical values."""
    band = DOUBLE_BAND_REL * (1.0 + p.omega0_c / p.omega_cav)
    return (abs(p.lambda_c / p.lambda_c_cr - 1.0) <= band
            and abs(p.lambda_i / p.lambda_i_cr - 1.0) <= band)


def hp_double(p: DoubleDickeParams) -> FluctuationReport:
    """Photon quadrature fluctuations.  Diverges on each critical line
    (exponent -1/4 in the distance), except at the double point where the
    two divergences compensate and dx = dp = sqrt(hp)."""
    return _double_point(p)[1]


def _double_point(p: DoubleDickeParams
                  ) -> tuple[DoublePhaseInfo, FluctuationReport]:
    """The phase and hp_double's report at p, from its one-point grid."""
    g = _double_thermo_grid(p.omega_cav, p.omega0_c, p.omega0_i,
                            [p.lambda_c], [p.lambda_i])
    (info,), (photon,), (error,) = g.info, g.photon, g.errors
    on_line = info.critical_c or info.critical_i
    if photon is None and on_line:
        if info.critical_c and info.critical_i:
            _require_matter_degenerate(p)
        raise CriticalPointDivergence(
            "photon fluctuations diverge on a critical line",
            quantity="hp", exponent=-0.25)
    if error is not None and not on_line:
        raise error
    return info, photon


def entropy_double(p: DoubleDickeParams, include_degeneracy: bool = True,
                   renyi_alphas: tuple[float, ...] = ()) -> EntropyReport:
    """Photon-matter entanglement entropy; the degeneracy offset maps the
    phase degeneracy {1, 2, 4} to {0, 1, 2} bits."""
    info, rep = _double_point(p)
    offset = _OFFSET_BITS[info.degeneracy] if include_degeneracy else 0
    return entropy_from_hp(rep.hp, degeneracy_offset=offset,
                           renyi_alphas=renyi_alphas)


@dataclass(frozen=True)
class _DoubleThermoGrid:
    """Thermodynamic-limit quantities over coupling pairs, one entry per
    point; entropies include the degeneracy bits.

    photon holds hp_double's report, None on a critical line away from a
    finite double point (one with omega0_C = omega0_I).  There dx and dp
    are nan, hp and the entropies inf, and the gaps still hold (the
    lowest is 0).  errors holds None or the error of a point that failed;
    its dx, dp, hp and entropies are nan.
    """

    info: list[DoublePhaseInfo]
    gaps: list[list[float]]
    photon: list[FluctuationReport | None]
    dx: list[float]
    dp: list[float]
    hp: list[float]
    errors: list[HpDickeError | None]
    entropy: _EntropyColumns


def _double_thermo_grid(omega_cav: float, omega0_c: float, omega0_i: float,
                        lambda_c, lambda_i,
                        renyi_alphas: tuple[float, ...] = ()
                        ) -> _DoubleThermoGrid:
    """The gaps, the photon fluctuations and the entropies at each coupling
    pair (lambda_c[k], lambda_i[k]) on the default branch.

    The quadrature forms are built as one stack and diagonalized by one
    batched eigen-decomposition, rows on a critical line left out.  A
    finite double point takes its closed form.  Next to one the soft gap
    is linear in the distance, so within about 1e-9 the Krein step finds
    it zero; those rows take the closed form too, good to that order.  A
    zero soft gap outside DOUBLE_BAND_REL of the double point leaves the
    row failed with GaplessError.
    """
    lam_c = np.asarray(lambda_c, dtype=float)
    lam_i = np.asarray(lambda_i, dtype=float)
    params = [DoubleDickeParams(omega_cav, omega0_c, omega0_i, c, i)
              for c, i in zip(lam_c.tolist(), lam_i.tolist())]
    info = [classify_double_phase(q) for q in params]
    on_line = np.array([i.critical_c or i.critical_i for i in info])
    # the default branch: +1 in a broken direction, else 0
    eps_c, eps_i = np.array([_broken(i) for i in info], dtype=float).T
    args = (omega_cav, omega0_c, omega0_i, lam_c, lam_i)
    mf, errors = _mean_field_grid(*args, eps_c, eps_i)
    G = _hessian_grid(*args, mf)
    stack = _bogoliubov_stack(_nambu_stack(G), ~on_line)
    errors = [e or e_late for e, e_late in zip(errors, stack.errors)]
    ok = [k for k, e in enumerate(errors) if e is None and not on_line[k]]
    photon: list[FluctuationReport | None] = [None] * len(params)
    for k, *report_and_error in zip(ok, *heisenberg_products(
            _mode_moments(stack.transform[ok], 0j, 0))):
        photon[k], errors[k] = report_and_error
    for k, (i, exc) in enumerate(zip(info, errors)):
        try:
            if i.critical_c and i.critical_i:
                photon[k] = _double_point_report(params[k])
            elif (isinstance(exc, GaplessError)
                  and _next_to_double_point(params[k])):
                photon[k], errors[k] = _double_point_report(params[k]), None
        except CriticalPointDivergence:
            pass
    hp = [math.nan if e is not None else math.inf if r is None else r.hp
          for r, e in zip(photon, errors)]
    offsets = [_OFFSET_BITS[i.degeneracy] for i in info]
    return _DoubleThermoGrid(
        info=info, gaps=stack.gaps.tolist(), photon=photon,
        dx=[math.nan if r is None else r.dx for r in photon],
        dp=[math.nan if r is None else r.dp for r in photon], hp=hp,
        errors=errors, entropy=_entropy_columns(hp, offsets, renyi_alphas))
