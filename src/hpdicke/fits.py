"""Least-squares extraction of critical exponents and entropy slopes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateFit, DomainError

__all__ = ["ExponentFit", "fit_critical_exponent", "fit_entropy_slope"]

MIN_SAMPLES = 5
MIN_DECADES = 1.0


@dataclass(frozen=True)
class ExponentFit:
    """OLS line through transformed samples.

    exponent: the slope (power-law exponent or bits per doubling).
    stderr: standard error of the slope; nan for n_points == 2.
    residual: root-mean-square of the fit residuals.
    """

    exponent: float
    intercept: float
    stderr: float
    residual: float
    n_points: int


def _as_columns(samples: Iterable[tuple[float, float]],
                minimum: int = MIN_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    """The abscissae and ordinates of at least minimum finite pairs;
    DegenerateFit for fewer pairs, DomainError for a nan or inf entry."""
    pairs = [(float(a), float(b)) for a, b in samples]
    if len(pairs) < minimum:
        raise DegenerateFit(f"need at least {minimum} samples, got {len(pairs)}")
    arr = np.asarray(pairs)
    if not np.all(np.isfinite(arr)):
        raise DomainError("samples must be finite")
    return arr[:, 0], arr[:, 1]


def _require_decade(x: np.ndarray, what: str) -> None:
    span = math.log10(float(np.max(x))) - math.log10(float(np.min(x)))
    if span < MIN_DECADES:
        raise DegenerateFit(f"{what} span {span:.3f} decades; "
                            f"at least {MIN_DECADES:g} required")


def _ols(xs: np.ndarray, ys: np.ndarray) -> ExponentFit:
    n = xs.size
    A = np.column_stack([xs, np.ones(n)])
    coef, _, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    res = ys - A @ coef
    rms = float(np.sqrt(np.mean(res * res)))
    if n > 2:
        sxx = float(np.sum((xs - xs.mean()) ** 2))
        stderr = math.sqrt(float(np.sum(res * res)) / (n - 2) / sxx)
    else:
        stderr = math.nan
    return ExponentFit(exponent=slope, intercept=intercept, stderr=stderr,
                       residual=rms, n_points=n)


def fit_critical_exponent(samples: Sequence[tuple[float, float]]) -> ExponentFit:
    """Power-law exponent from (distance, value) pairs by OLS on logs.

    Distances and values must be finite and positive, at least five
    samples, distances spanning at least one decade; DegenerateFit or
    DomainError otherwise.
    """
    d, v = _as_columns(samples)
    if np.any(d <= 0):
        raise DomainError("distances must be positive")
    if np.any(v <= 0):
        raise DomainError("values must be positive for a log-log fit")
    _require_decade(d, "distance")
    return _ols(np.log(d), np.log(v))


def fit_entropy_slope(samples: Sequence[tuple[float, float]]) -> ExponentFit:
    """Slope of entropy against log2 of size (or of distance-to-critical).

    The abscissa must be finite, positive and span at least three
    octaves, with at least three samples; entropies may be any finite
    reals.  DegenerateFit or DomainError otherwise.  exponent is
    the c of S = c*log2(x) + const.
    """
    x, s = _as_columns(samples, 3)
    if np.any(x <= 0):
        raise DomainError("sizes must be positive")
    octaves = math.log2(float(np.max(x))) - math.log2(float(np.min(x)))
    if octaves < 3.0:
        raise DegenerateFit(f"size span {octaves:.3f} octaves; "
                            "at least 3 required")
    return _ols(np.log2(x), s)
