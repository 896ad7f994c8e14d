"""Uncertainty-product and entanglement diagnostics for Dicke-type models.

Closed-form thermodynamic-limit solutions and sparse exact
diagonalization for the single-chain model and its two-chain
(double-quadrature) extension, tied together by the exact map between
the photon uncertainty product and the photon-matter entanglement
entropy of Gaussian ground states.
"""

__version__ = "0.1.0"

from .errors import (BranchError, BudgetExceeded, ConfigError,
                     ConvergenceError, CriticalPointDivergence, CutoffError,
                     CutoffWarning, DegenerateFit, DomainError, GaplessError,
                     HpDickeError, InstabilityError, MeanFieldError,
                     RegimeError, UncertaintyViolation)
from .gaussian import (BogoliubovSolution, EntropyReport, FluctuationReport,
                       QuadraticForm, bogoliubov_gaps, entropy_from_hp,
                       form_from_xp, heisenberg_product,
                       photon_moments_from_solution, pseudo_energy,
                       renyi_entropy, symplectic_diagonalize, thermal_weights)
from .dicke import (DickeParams, Phase, PhaseInfo, ThermoSolution,
                    classify_phase, dicke_quadratic_form, entropy_thermo,
                    hp_thermo, lambda_critical, solve_thermo)
from .double import (DoubleDickeParams, DoublePhase, DoublePhaseInfo,
                     DoubleThermoSolution, MeanField, classify_double_phase,
                     double_gaps, double_point_hp, entropy_double, hp_double,
                     lower_polariton, mean_field, soft_mode_count,
                     solve_double_thermo)
from .fits import ExponentFit, fit_critical_exponent, fit_entropy_slope
from .ed import (EDBasis, EDResult, ScalingReport, build_hamiltonian,
                 converge_cutoff, ground_state, parity_diagonal,
                 photon_entropy_ed, photon_moments_ed, scaling_at_critical)
# the one-shot solver stays in its submodule: re-exporting a function
# named double_ed would shadow the hpdicke.double_ed module itself
from .double_ed import (DoubleEDBasis, build_double_hamiltonian,
                        converge_cutoff_double, double_ground_state,
                        double_parities, photon_entropy_double,
                        photon_moments_double, symmetry_residuals)
from .sweeps import SweepConfig, SweepRow, radial_sweep, run_sweep
from .figures import FigureReport, reproduce_figure

__all__ = [
    "__version__",
    "HpDickeError", "DomainError", "UncertaintyViolation", "BranchError",
    "RegimeError", "CutoffError", "DegenerateFit", "MeanFieldError",
    "InstabilityError", "GaplessError", "ConvergenceError", "BudgetExceeded",
    "CriticalPointDivergence", "ConfigError", "CutoffWarning",
    "QuadraticForm", "BogoliubovSolution", "FluctuationReport",
    "EntropyReport", "heisenberg_product", "entropy_from_hp",
    "renyi_entropy", "pseudo_energy", "thermal_weights", "form_from_xp",
    "bogoliubov_gaps", "symplectic_diagonalize",
    "photon_moments_from_solution",
    "DickeParams", "Phase", "PhaseInfo", "ThermoSolution",
    "lambda_critical", "classify_phase", "solve_thermo",
    "dicke_quadratic_form", "hp_thermo", "entropy_thermo",
    "DoubleDickeParams", "DoublePhase", "DoublePhaseInfo",
    "DoubleThermoSolution", "MeanField", "classify_double_phase",
    "mean_field", "double_gaps", "soft_mode_count", "solve_double_thermo",
    "lower_polariton", "double_point_hp", "hp_double", "entropy_double",
    "ExponentFit", "fit_critical_exponent", "fit_entropy_slope",
    "EDBasis", "EDResult", "ScalingReport", "build_hamiltonian",
    "parity_diagonal", "ground_state", "photon_moments_ed",
    "photon_entropy_ed", "converge_cutoff", "scaling_at_critical",
    "DoubleEDBasis", "build_double_hamiltonian", "double_parities",
    "double_ground_state", "photon_moments_double", "photon_entropy_double",
    "symmetry_residuals", "converge_cutoff_double",
    "SweepConfig", "SweepRow", "run_sweep", "radial_sweep",
    "FigureReport", "reproduce_figure",
]
