"""Closed-form thermodynamic-limit solution of the single-cavity Dicke model

    H = omega a^dag a + omega0 Jz + (coupling / sqrt(N)) (a + a^dag)(J+ + J-)

in the maximal-spin sector, for N -> infinity: phase classification, order
parameter, polariton gaps, mixing angle, coherences, photon quadrature
fluctuations, and entanglement entropy.  The closed forms are evaluated
over coupling arrays (_thermo_grid); the scalar functions take one point
of them.

Angular momentum convention: Jz eigenvalues m in {-N/2 .. N/2} with standard
ladder elements, omega0 the full two-level splitting.  The critical coupling
is sqrt(omega * omega0) / 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchError, CriticalPointDivergence, DomainError,
                     UncertaintyViolation)
from .gaussian import (EntropyReport, FluctuationReport, QuadraticForm,
                       _EntropyColumns, _entropy_columns, entropy_from_hp,
                       form_from_xp, heisenberg_product, per_element,
                       quadratures)

__all__ = [
    "DickeParams",
    "Phase",
    "PhaseInfo",
    "ThermoSolution",
    "lambda_critical",
    "classify_phase",
    "solve_thermo",
    "dicke_quadratic_form",
    "hp_thermo",
    "entropy_thermo",
]

# Relative half-width of the band around the critical coupling treated as
# exactly critical.
CRITICAL_REL_TOL = 1e-12


@dataclass(frozen=True)
class DickeParams:
    """Model frequencies and coupling, all in the same energy unit."""

    omega: float
    omega0: float
    coupling: float

    def __post_init__(self):
        if not (self.omega > 0 and self.omega0 > 0):
            raise DomainError("frequencies must be positive")
        if not self.coupling >= 0:
            raise DomainError("coupling must be nonnegative")
        for v in (self.omega, self.omega0, self.coupling):
            if not math.isfinite(v):
                raise DomainError("parameters must be finite")


class Phase(enum.Enum):
    NORMAL = "Normal"
    SUPERRADIANT = "Superradiant"


@dataclass(frozen=True)
class PhaseInfo:
    phase: Phase
    lambda_cr: float
    critical: bool


@dataclass(frozen=True)
class ThermoSolution:
    """Thermodynamic-limit ground-state data.

    mu: order parameter (1 in the normal phase).
    gamma: polariton mixing angle, in [0, pi/2].
    gap_minus <= gap_plus: polariton energies.
    alpha_coh, beta_coh: photonic and matter coherences per sqrt(N); the
        ground-state amplitudes are <a>/sqrt(N) = -alpha_coh and
        <b>/sqrt(N) = +beta_coh on the chosen branch.
    epsilon: symmetry-breaking branch, 0 in the normal phase else +-1.
    """

    phase: Phase
    mu: float
    gamma: float
    gap_minus: float
    gap_plus: float
    alpha_coh: float
    beta_coh: float
    epsilon: int


def lambda_critical(p: DickeParams) -> float:
    return math.sqrt(p.omega * p.omega0) / 2.0


def _is_critical(lam: float, lam_cr: float) -> bool:
    return abs(lam - lam_cr) <= CRITICAL_REL_TOL * max(1.0, lam_cr)


def classify_phase(p: DickeParams) -> PhaseInfo:
    """Phase label plus critical coupling.

    Normal strictly below the critical coupling; on the boundary the label
    is Superradiant with the critical flag set.
    """
    lam_cr = lambda_critical(p)
    critical = _is_critical(p.coupling, lam_cr)
    phase = Phase.NORMAL if (p.coupling < lam_cr and not critical) else Phase.SUPERRADIANT
    return PhaseInfo(phase=phase, lambda_cr=lam_cr, critical=critical)


def _resolve_branch(broken: bool, eps, label: str) -> int:
    """The branch sign of a symmetry: 0 when unbroken, else +1 or -1, the
    given eps or +1 when it is None."""
    if not broken:
        if eps in (None, 0):
            return 0
        raise BranchError(f"{label} is unbroken; branch must be 0, got {eps}")
    if eps is None:
        return 1
    if eps in (1, -1):
        return eps
    raise BranchError(f"broken {label} takes branch +1 or -1, got {eps}")


def solve_thermo(p: DickeParams, epsilon: int | None = None) -> ThermoSolution:
    """Order parameter, gaps, mixing angle and coherences.

    epsilon selects the symmetry-breaking branch in the superradiant phase
    (+1 or -1; None picks +1).  In the normal phase only 0 (or None) is
    meaningful.
    """
    info = classify_phase(p)
    om, lam = p.omega, p.coupling
    eps = _resolve_branch(info.phase is Phase.SUPERRADIANT, epsilon, "parity")
    mu, gap_minus, gap_plus, gamma = (
        a.item() for a in _polaritons(om, p.omega0, np.array([lam]),
                                      np.array([eps == 0])))
    alpha = eps * lam * math.sqrt(max(1.0 - mu * mu, 0.0)) / om
    beta = eps * math.sqrt(max(1.0 - mu, 0.0) / 2.0)
    return ThermoSolution(phase=info.phase, mu=mu, gamma=gamma,
                          gap_minus=gap_minus, gap_plus=gap_plus,
                          alpha_coh=alpha, beta_coh=beta, epsilon=eps)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _polaritons(om: float, om0: float, lam: np.ndarray, normal: np.ndarray
                ) -> tuple[np.ndarray, ...]:
    """mu, gap_minus, gap_plus and gamma over a coupling array, where
    normal marks the normal-phase points.

    Elementwise numpy arithmetic and sqrt round exactly as Python floats
    do; powers and atan2 go through per_element, which calls the math
    library as scalar code would.  A coupling so large that the
    arithmetic overflows gives inf or nan, which fails its point in
    quadratures.
    """
    # mu is discarded where the coupling is zero (always normal)
    mu = np.where(normal, 1.0, om * om0 / (4.0 * lam * lam))
    om0_eff = om0 / mu
    tr = om0_eff * om0_eff + om * om
    disc = np.sqrt(per_element(pow, om0_eff * om0_eff - om * om, 2)
                   + 16.0 * lam * lam * om * om0 * mu)
    gap_plus = np.sqrt(0.5 * (tr + disc))
    half = 0.5 * (tr - disc)
    gap_minus = np.sqrt(np.where(0.0 > half, 0.0, half))
    # the decoupled limit is gamma = 0; atan2(+0, negative) would jump
    # to pi
    gamma = np.where(lam == 0.0, 0.0, 0.5 * per_element(
        math.atan2,
        4.0 * lam * math.sqrt(om * om0) * per_element(pow, mu, 2.5),
        om0 * om0 - mu * mu * om * om))
    return mu, gap_minus, gap_plus, gamma


def dicke_quadratic_form(p: DickeParams,
                         epsilon: int | None = None) -> QuadraticForm:
    """Quadratic fluctuation Hamiltonian around the mean-field ground state,
    modes ordered (photon, matter).

    The matter mode is the Holstein-Primakoff boson expanded around the
    coherence of the chosen branch; one mu-parameterized set of
    coefficients covers both phases.
    """
    sol = solve_thermo(p, epsilon)
    om, om0, lam = p.omega, p.omega0, p.coupling
    mu = sol.mu
    g_qq = np.array([[om, 2.0 * lam * mu * math.sqrt(2.0 / (1.0 + mu))],
                     [2.0 * lam * mu * math.sqrt(2.0 / (1.0 + mu)),
                      2.0 * om0 / (mu * (1.0 + mu))]])
    g_pp = np.diag([om, om0 * (1.0 + mu) / (2.0 * mu)])
    G = np.zeros((4, 4))
    G[:2, :2] = g_qq
    G[2:, 2:] = g_pp
    return form_from_xp(G)


def hp_thermo(p: DickeParams) -> FluctuationReport:
    """Photon quadrature fluctuations of the thermodynamic ground state.

    Diverges at the critical coupling with exponent -1/4 in the distance
    to it; at that point CriticalPointDivergence is raised instead of
    returning a large float.  Both superradiant branches give the same
    fluctuations.
    """
    return _thermo_point(p)[1]


def _thermo_point(p: DickeParams) -> tuple[PhaseInfo, FluctuationReport]:
    """The phase and hp_thermo's report at p, from its one-point grid."""
    g = _thermo_grid(p.omega, p.omega0, [p.coupling])
    (info,) = g.info
    if info.critical:
        raise CriticalPointDivergence(
            "photon fluctuations diverge at the critical coupling",
            quantity="hp", exponent=-0.25)
    return info, heisenberg_product(mean_a=0.0, a_sq=g.sq[0].item(),
                                    occupation=g.n_c[0].item())


def entropy_thermo(p: DickeParams, include_degeneracy: bool = True,
                   renyi_alphas: tuple[float, ...] = ()) -> EntropyReport:
    """Photon-matter entanglement entropy of the thermodynamic ground state.

    With include_degeneracy, one bit is added in the superradiant phase so
    the value is comparable to finite-size symmetric (cat) ground states.
    """
    info, rep = _thermo_point(p)
    offset = 1 if (include_degeneracy and info.phase is Phase.SUPERRADIANT) else 0
    return entropy_from_hp(rep.hp, degeneracy_offset=offset,
                           renyi_alphas=renyi_alphas)


@dataclass(frozen=True)
class _ThermoGrid:
    """Thermodynamic-limit quantities over a coupling grid, one entry per
    point; entropies include the degeneracy bit.

    n_c and sq are the photon's centered occupation and <a^2>, 0 on the
    critical coupling.  There dx, hp and the entropies are inf, while dp
    and the gaps stay finite: only the soft polariton is weighted by
    1/gap, and that term belongs to dx.  errors holds None or a point's
    UncertaintyViolation; its dx, dp, hp and entropies are nan.
    """

    info: list[PhaseInfo]
    gap_minus: list[float]
    gap_plus: list[float]
    n_c: np.ndarray
    sq: np.ndarray
    dx: list[float]
    dp: list[float]
    hp: list[float]
    errors: list[UncertaintyViolation | None]
    entropy: _EntropyColumns


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _thermo_grid(omega: float, omega0: float, couplings,
                 renyi_alphas: tuple[float, ...] = ()) -> _ThermoGrid:
    """The default-branch solution, the photon fluctuations and the
    entropies at each coupling, each evaluated once per point.  A point
    whose arithmetic overflows to inf or nan fails in quadratures."""
    lam = np.asarray(couplings, dtype=float)
    info = [classify_phase(DickeParams(omega, omega0, c))
            for c in lam.tolist()]
    normal = np.array([i.phase is Phase.NORMAL for i in info])
    critical = np.array([i.critical for i in info])
    _, gap_minus, gap_plus, gamma = _polaritons(omega, omega0, lam, normal)
    c2 = per_element(pow, per_element(math.cos, gamma), 2)
    s2 = per_element(pow, per_element(math.sin, gamma), 2)
    # 1/gap_minus diverges on the critical coupling, whose cells are set
    # below
    dx2 = 0.5 * omega * (c2 / gap_minus + s2 / gap_plus)
    dp2 = 0.5 * (c2 * gap_minus + s2 * gap_plus) / omega
    n_c = np.where(critical, 0.0, 0.5 * (dx2 + dp2) - 0.5)
    sq = np.where(critical, 0.0, 0.5 * (dx2 - dp2))
    _, dx, dp, hp, errors = quadratures(n_c, sq)
    # on the critical coupling the sin^2 weight of dp is taken as 1 - c2
    dp_crit = np.sqrt(0.5 * (c2 * gap_minus + (1.0 - c2) * gap_plus)
                      / omega)
    hp = np.where(critical, math.inf, hp).tolist()
    offsets = [0 if i.phase is Phase.NORMAL else 1 for i in info]
    return _ThermoGrid(
        info=info, gap_minus=gap_minus.tolist(), gap_plus=gap_plus.tolist(),
        n_c=n_c, sq=sq, dx=np.where(critical, math.inf, dx).tolist(),
        dp=np.where(critical, dp_crit, dp).tolist(), hp=hp, errors=errors,
        entropy=_entropy_columns(hp, offsets, renyi_alphas))
