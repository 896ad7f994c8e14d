"""Exception hierarchy shared by all hpdicke modules."""

from __future__ import annotations


class HpDickeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HpDickeError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UncertaintyViolation(DomainError):
    """Input moments imply an uncertainty product below the Heisenberg bound."""


class BranchError(DomainError):
    """A symmetry-breaking branch label is inconsistent with the phase."""


class RegimeError(DomainError):
    """The requested quantity is only defined in a different parameter regime."""


class CutoffError(DomainError):
    """A Fock-space cutoff is invalid."""


class DegenerateFit(DomainError):
    """Fit input is too thin or too narrow to determine an exponent."""


class MeanFieldError(HpDickeError):
    """The classical displacement expansion point is not a stationary point."""


class InstabilityError(HpDickeError):
    """Symplectic diagonalization found complex or non-positive mode energies.

    Usually means the quadratic expansion was taken on the wrong side of a
    phase boundary, or exactly on one.
    """


class GaplessError(InstabilityError):
    """Exactly one mode energy is zero to working precision: the form lies
    on a critical line as far as the diagonalization can tell."""


class ConvergenceError(HpDickeError):
    """An iterative eigensolver failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class BudgetExceeded(HpDickeError):
    """A computation would exceed the configured size budget."""

    def __init__(self, message: str, needed: float | None = None,
                 budget: float | None = None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class CriticalPointDivergence(HpDickeError):
    """A requested quantity diverges at the given critical point.

    Carries the divergent value as a tagged infinity plus the power-law
    exponent governing the approach, so sweep layers can serialize the row
    instead of inventing a large float.
    """

    def __init__(self, message: str, quantity: str = "hp",
                 exponent: float | None = None, value: float = float("inf")):
        super().__init__(message)
        self.quantity = quantity
        self.exponent = exponent
        self.value = value


class ConfigError(HpDickeError, ValueError):
    """A sweep or CLI configuration does not validate."""


class CutoffWarning(UserWarning):
    """Observable evaluated on a state with weight near the Fock cutoff."""
