import math

import numpy as np
import pytest

from hpdicke.errors import DegenerateFit, DomainError
from hpdicke.fits import fit_critical_exponent, fit_entropy_slope


def test_exact_power_law_recovery():
    xs = np.geomspace(1e-4, 1e-1, 9)
    samples = [(x, 3.0 * x ** -0.25) for x in xs]
    fit = fit_critical_exponent(samples)
    assert fit.exponent == pytest.approx(-0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.n_points == 9
    assert fit.stderr < 1e-12


def test_exact_entropy_slope_recovery():
    ns = [8, 16, 32, 64, 128, 256]
    samples = [(n, 0.3 * math.log2(n) + 1.0) for n in ns]
    fit = fit_entropy_slope(samples)
    assert fit.exponent == pytest.approx(0.3, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)


def test_power_law_guards():
    xs = np.geomspace(1e-3, 1e-1, 5)
    with pytest.raises(DegenerateFit):
        fit_critical_exponent([(x, x) for x in xs[:4]])
    with pytest.raises(DegenerateFit):
        # spans less than a decade
        fit_critical_exponent([(x, x) for x in np.geomspace(0.02, 0.1, 6)])
    with pytest.raises(DomainError):
        fit_critical_exponent([(x, -1.0) for x in xs])
    with pytest.raises(DomainError):
        fit_critical_exponent([(0.0, 1.0)] + [(x, 1.0) for x in xs])


def test_entropy_slope_guards():
    with pytest.raises(DegenerateFit):
        fit_entropy_slope([(8, 1.0), (16, 1.3)])
    with pytest.raises(DegenerateFit):
        # spans less than three octaves
        fit_entropy_slope([(8, 1.0), (16, 1.3), (32, 1.6)])
    with pytest.raises(DomainError):
        fit_entropy_slope([(-8, 1.0), (16, 1.3), (128, 1.6)])
    with pytest.raises(DomainError):
        fit_entropy_slope([(8, math.nan), (16, 1.3), (128, 1.6)])


def test_noisy_fit_reports_spread():
    rng = np.random.default_rng(5)
    xs = np.geomspace(1e-4, 1e-1, 24)
    samples = [(x, 2.0 * x ** 0.5 * math.exp(rng.normal(scale=0.01)))
               for x in xs]
    fit = fit_critical_exponent(samples)
    assert fit.exponent == pytest.approx(0.5, abs=0.02)
    assert 0.0 < fit.stderr < 0.02
    assert fit.residual > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_law_rejects_a_non_finite_sample(bad):
    xs = list(np.geomspace(1e-4, 1e-1, 6))
    for k in (0, 1):
        samples = [(x, 2.0 * x ** 0.5) for x in xs]
        samples[2] = (bad, samples[2][1]) if k == 0 else (samples[2][0], bad)
        with pytest.raises(DomainError, match="finite"):
            fit_critical_exponent(samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entropy_slope_rejects_a_non_finite_size(bad):
    with pytest.raises(DomainError, match="finite"):
        fit_entropy_slope([(8, 1.0), (16, 1.3), (bad, 1.6), (128, 1.9)])
