"""End-to-end checks of the package's headline guarantees.

Each numbered test prints one verdict line, so a verbose run reads as a
checklist.  Three of the literal statements are strict expected failures:
the sampling windows they mandate cannot reach the asymptotic numbers they
assert (the offsets are systematic, not noise), and each is paired with a
green companion test that pins the accessible behaviour on the same data.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import random_stable_form
import fock
from hpdicke.dicke import (DickeParams, entropy_thermo, hp_thermo,
                           lambda_critical, solve_thermo)
from hpdicke.double import (DoubleDickeParams, double_point_hp,
                            entropy_double, hp_double)
from hpdicke.double_ed import (DoubleEDBasis, build_double_hamiltonian,
                               converge_cutoff_double, double_ed,
                               double_ground_state, photon_entropy_double,
                               photon_moments_double, symmetry_residuals)
from hpdicke.ed import (EDBasis, build_hamiltonian, converge_cutoff,
                        ground_state, parity_diagonal, photon_entropy_ed,
                        photon_moments_ed, scaling_at_critical)
from hpdicke.errors import CutoffWarning
from hpdicke.fits import fit_critical_exponent, fit_entropy_slope
from hpdicke.gaussian import (entropy_from_hp, photon_moments_from_solution,
                              symplectic_diagonalize)

RESONANT = DickeParams(omega=1.0, omega0=1.0, coupling=0.5)


def _say(capsys, line):
    with capsys.disabled():
        print("\n" + line)


# --- 1: the entropy of a Gaussian ground state is a function of hp ------

def test_criterion_01_entropy_uncertainty_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240816)
    worst = 0.0
    for k in range(50):
        n_modes = 2 if k < 40 else 3
        cutoffs = (18, 18) if n_modes == 2 else (13, 13, 13)
        form = random_stable_form(rng, n_modes)
        sol = symplectic_diagonalize(form)
        s_hp = entropy_from_hp(photon_moments_from_solution(sol, 0).hp).s_vn
        _, psi = fock.fock_ground_state(form, cutoffs)
        worst = max(worst, abs(fock.reduced_entropy_bits(psi) - s_hp))
    dt = time.perf_counter() - t0
    _say(capsys, f"criterion 01: PASS - 50 random stable forms, max "
         f"|S_trace - S_hp| = {worst:.2e} ({dt:.1f} s)")
    assert worst < 1e-6
    assert dt < 60.0


# --- 2: entropy asymptote ------------------------------------------------

ASYMPTOTE_HPS = (10.0, 1e2, 1e4)


@pytest.mark.xfail(strict=True, reason="S - log2(hp) approaches the "
                   "constant log2(e), which the stated bound excludes; "
                   "the companion test carries the constant")
def test_criterion_02_entropy_asymptote(capsys):
    devs = [abs(entropy_from_hp(hp).s_vn - math.log2(hp))
            for hp in ASYMPTOTE_HPS]
    _say(capsys, f"criterion 02: FAIL - |S - log2 hp| = "
         f"{max(devs):.4f} vs bound {1/(math.log(2)*min(ASYMPTOTE_HPS)):.2e}"
         f" (offset -> log2 e = {math.log2(math.e):.4f}; companion passes)")
    for hp, dev in zip(ASYMPTOTE_HPS, devs):
        assert dev < 1.0 / (math.log(2) * hp)


def test_criterion_02_companion_asymptote_with_constant(capsys):
    worst = 0.0
    for hp in ASYMPTOTE_HPS:
        dev = abs(entropy_from_hp(hp).s_vn - math.log2(math.e * hp))
        worst = max(worst, dev * math.log(2) * hp)
        assert dev < 1.0 / (math.log(2) * hp)
    _say(capsys, f"criterion 02 companion: PASS - "
         f"|S - log2(e hp)| within {worst:.1e} of the 1/(ln2 hp) bound")


# --- 3: divergence exponents at the single-chain transition --------------

def _hp_exponent(window_lo, window_hi):
    ds = np.geomspace(window_lo, window_hi, 13)
    lam_cr = lambda_critical(RESONANT)
    samples = [(d, hp_thermo(DickeParams(1.0, 1.0, lam_cr * (1 - d))).hp)
               for d in ds]
    return fit_critical_exponent(samples).exponent


@pytest.mark.xfail(strict=True, reason="over the stated window the local "
                   "log-log slope is still drifting toward -1/4; the "
                   "companion fits the asymptotic window")
def test_criterion_03_hp_exponent(capsys):
    exp = _hp_exponent(1e-4, 1e-1)
    _say(capsys, f"criterion 03 (hp window): FAIL - fitted exponent "
         f"{exp:.5f}, outside -0.25 +/- 0.01 (companion passes)")
    assert abs(exp + 0.25) <= 0.01


def test_criterion_03_gap_exponent(capsys):
    ds = np.geomspace(1e-4, 1e-1, 13)
    lam_cr = lambda_critical(RESONANT)
    samples = [(d, solve_thermo(DickeParams(1.0, 1.0,
                                            lam_cr * (1 - d))).gap_minus)
               for d in ds]
    exp = fit_critical_exponent(samples).exponent
    _say(capsys, f"criterion 03 (gap): PASS - fitted exponent {exp:.5f} "
         f"within +0.50 +/- 0.01")
    assert abs(exp - 0.50) <= 0.01


def test_criterion_03_companion_asymptotic_window(capsys):
    exp = _hp_exponent(1e-8, 1e-5)
    _say(capsys, f"criterion 03 companion: PASS - exponent {exp:.5f} over "
         f"the asymptotic window, within -0.25 +/- 0.01")
    assert abs(exp + 0.25) <= 0.01


# --- 4: deep superradiant cat state ---------------------------------------

def test_criterion_04_cat_state_limit(capsys):
    t0 = time.perf_counter()
    p = DickeParams(omega=1.0, omega0=1.0, coupling=3.0)
    n_max = converge_cutoff(p, 8).n_max_used
    basis = EDBasis(8, n_max)
    res = ground_state(build_hamiltonian(p, basis), basis)
    rep = photon_moments_ed(res, basis)
    want = math.sqrt(8 * 9.0 + 0.25)
    rel = abs(rep.hp - want) / want
    dt = time.perf_counter() - t0
    _say(capsys, f"criterion 04: PASS - hp = {rep.hp:.6f} vs "
         f"sqrt(N lambda^2/omega^2 + 1/4) = {want} ({100*rel:.3f}%), "
         f"splitting {res.gap01:.1e}, parity {res.parity:+.3f} "
         f"({dt:.1f} s)")
    assert rel < 0.02
    assert res.gap01 < 1e-6 * p.omega
    assert res.parity > 0.999
    assert dt < 120.0


# --- 5: hp growth with system size at the transition ----------------------

SCALING_SIZES = (10, 20, 50, 100, 200, 500, 1000)


@pytest.fixture(scope="module")
def critical_scaling():
    t0 = time.perf_counter()
    report = scaling_at_critical(RESONANT, list(SCALING_SIZES))
    return report, time.perf_counter() - t0


@pytest.mark.xfail(strict=True, reason="finite-size corrections decay too "
                   "slowly for the plain top-decade fit to reach the "
                   "asymptotic slope by N = 1000; the companion fits the "
                   "corrected model on the same data")
def test_criterion_05_size_scaling_exponent(capsys, critical_scaling):
    report, dt = critical_scaling
    fit = report.fit
    _say(capsys, f"criterion 05: FAIL - top-decade (N >= "
         f"{min(report.fit_sizes)}) exponent {fit.exponent:.5f} "
         f"+/- {fit.stderr:.4f}, outside 0.167 +/- 0.02; companion passes "
         f"({dt:.0f} s)")
    assert dt < 1800.0
    assert abs(fit.exponent - 0.167) <= 0.02


def test_criterion_05_companion_corrected_fit(capsys, critical_scaling):
    report, _ = critical_scaling
    ns = np.array(report.sizes, dtype=float)
    keep = ns >= 50
    ns = ns[keep]
    ys = np.log(np.array(report.hp_values)[keep])
    A = np.vstack([np.log(ns), ns ** (-1 / 3), np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    e = float(coef[0])
    _say(capsys, f"criterion 05 companion: PASS - exponent {e:.5f} after "
         f"removing an N^(-1/3) correction, within 1/6 +/- 0.02")
    assert abs(e - 1 / 6) < 0.02
    # reproducibility of the plain fit this companion corrects
    assert report.fit.exponent == pytest.approx(0.13811, abs=5e-3)


# --- 6: entanglement entropy growth with system size ----------------------

def test_criterion_06_entropy_size_slope(capsys):
    t0 = time.perf_counter()
    samples = []
    for n in (8, 16, 32, 64, 128, 256, 512):
        n_max = converge_cutoff(RESONANT, n).n_max_used
        basis = EDBasis(n, n_max)
        res = ground_state(build_hamiltonian(RESONANT, basis), basis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffWarning)
            samples.append((n, photon_entropy_ed(res, basis)))
    fit = fit_entropy_slope(samples)
    dt = time.perf_counter() - t0
    _say(capsys, f"criterion 06: PASS - S vs log2 N slope "
         f"{fit.exponent:.5f} +/- {fit.stderr:.4f} within 0.167 +/- 0.03 "
         f"({dt:.0f} s)")
    assert abs(fit.exponent - 0.167) <= 0.03
    assert fit.exponent == pytest.approx(0.14076, abs=5e-3)
    assert dt < 900.0


# --- 7: closed forms at the double symmetry-breaking point ----------------

def test_criterion_07_double_point_values(capsys):
    p = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                          lambda_c=0.5, lambda_i=0.5)
    hp = double_point_hp(p)
    hp_ref = 0.5 + 1.0 / math.sqrt(5.0)
    rep = entropy_double(p, include_degeneracy=False)
    s_ref = ((1 + math.sqrt(5)) / math.sqrt(5)) * math.log2(1 + math.sqrt(5)) \
        - math.log2(math.sqrt(5))
    _say(capsys, f"criterion 07: PASS - hp = {hp:.12f} "
         f"(|diff| {abs(hp - hp_ref):.1e}), S = {rep.s_vn:.12f} "
         f"(|diff| {abs(rep.s_vn - s_ref):.1e})")
    assert abs(hp - hp_ref) < 1e-10
    assert abs(rep.s_vn - s_ref) < 1e-10
    assert abs(s_ref - 1.2910) < 1e-4


# --- 8: entropy divergence along an off-axis ray ---------------------------

def test_criterion_08_double_entropy_slopes(capsys):
    th = 5 * math.pi / 16
    slopes = []
    for r0 in (0.5 / math.sin(th), 0.5 / math.cos(th)):
        for side in (-1, +1):
            ds = np.geomspace(1e-8, 1e-5, 9)
            samples = []
            for d in ds:
                r = r0 * (1 + side * d)
                p = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0,
                                      omega0_i=1.0,
                                      lambda_c=r * math.cos(th),
                                      lambda_i=r * math.sin(th))
                samples.append((r0 * d,
                                entropy_double(p,
                                               include_degeneracy=False).s_vn))
            slopes.append(fit_entropy_slope(samples).exponent)
    _say(capsys, "criterion 08: PASS - S-vs-log2-distance slopes "
         + ", ".join(f"{s:.5f}" for s in slopes)
         + " all within -0.25 +/- 0.02")
    for s in slopes:
        assert abs(s + 0.25) <= 0.02


# --- 9: finite-size convergence at the double point ------------------------

DOUBLE_POINT_S = {2: 0.702997, 4: 0.833326, 8: 0.957072,
                  16: 1.065118, 32: 1.150557}


def test_criterion_09_double_point_convergence(capsys):
    t0 = time.perf_counter()
    table = {}
    for n in (2, 4, 8, 16, 32):
        p = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                              lambda_c=0.5, lambda_i=0.5, n_c=n, n_i=n)
        cut = converge_cutoff_double(p, tol=1e-8).n_max_used
        _, s, _ = double_ed(p, n_max=cut)
        table[n] = s
    dt = time.perf_counter() - t0

    vals = [table[n] for n in (2, 4, 8, 16, 32)]
    x = np.array([1 / n for n in (2, 4, 8, 16, 32)])
    y = np.array(vals)
    A = np.vstack([x, np.ones_like(x)]).T
    _, res_, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(res_[0]) if res_.size else 0.0
    r2 = 1.0 - ss_res / float(np.sum((y - y.mean()) ** 2))

    _say(capsys, f"criterion 09: PASS - S monotone over N = 2..32, "
         f"|S(32) - 1.291| = {abs(table[32] - 1.291):.4f} < 0.15, "
         f"1/N-trend R^2 = {r2:.4f} ({dt:.0f} s)")
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(table[32] - 1.291) < 0.15
    assert r2 >= 0.9
    assert dt < 1800.0
    for n, s in table.items():
        assert s == pytest.approx(DOUBLE_POINT_S[n], abs=1e-6)


# --- 10: reduction, duality, and exact symmetries --------------------------

def test_criterion_10_reduction_and_duality(capsys):
    # thermodynamic limit: decoupled I chain reproduces the single chain
    worst_thermo = 0.0
    for om, wc, lc in ((1.0, 1.0, 0.3), (1.0, 1.0, 0.45), (1.3, 0.6, 0.2),
                       (0.8, 1.7, 0.9)):
        for wi in (0.33, 1.0):
            pd = DoubleDickeParams(omega_cav=om, omega0_c=wc, omega0_i=wi,
                                   lambda_c=lc, lambda_i=0.0)
            ps = DickeParams(omega=om, omega0=wc, coupling=lc)
            rd, rs = hp_double(pd), hp_thermo(ps)
            worst_thermo = max(worst_thermo, abs(rd.hp - rs.hp),
                               abs(rd.dx - rs.dx), abs(rd.dp - rs.dp),
                               abs(entropy_double(pd).s_vn
                                   - entropy_thermo(ps).s_vn))
    assert worst_thermo < 1e-10

    # finite N: same reduction through the two diagonalizers
    worst_ed = 0.0
    for lam in (0.3, 0.45):
        pd = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                               lambda_c=lam, lambda_i=0.0, n_c=4, n_i=4)
        dbasis = DoubleEDBasis(4, 4, 30)
        resd = double_ground_state(build_double_hamiltonian(pd, dbasis),
                                   dbasis)
        sbasis = EDBasis(4, 30)
        ress = ground_state(build_hamiltonian(
            DickeParams(omega=1.0, omega0=1.0, coupling=lam), sbasis), sbasis)
        worst_ed = max(
            worst_ed,
            abs(resd.ground_energy - (ress.ground_energy - 2.0)),
            abs(photon_moments_double(resd, dbasis).hp
                - photon_moments_ed(ress, sbasis).hp),
            abs(photon_entropy_double(resd, dbasis)
                - photon_entropy_ed(ress, sbasis)))
    assert worst_ed < 1e-10

    # chain swap exchanges the quadratures and preserves hp and S
    pa = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                           lambda_c=0.35, lambda_i=0.52, n_c=5, n_i=5)
    pb = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                           lambda_c=0.52, lambda_i=0.35, n_c=5, n_i=5)
    _, sa, ra = double_ed(pa, n_max=24)
    _, sb, rb = double_ed(pb, n_max=24)
    worst_swap = max(abs(ra.dx - rb.dp), abs(ra.dp - rb.dx),
                     abs(ra.hp - rb.hp), abs(sa - sb))
    assert worst_swap < 1e-10

    # symmetry commutation on the assembled matrices is exact
    basis = EDBasis(4, 20)
    H = build_hamiltonian(DickeParams(1.0, 1.0, 0.5), basis)
    pi = parity_diagonal(basis)
    comm = H.multiply(pi[None, :]) - H.multiply(pi[:, None])
    assert abs(comm).max() == 0.0
    dbasis = DoubleEDBasis(5, 5, 7)
    Hd = build_double_hamiltonian(
        DoubleDickeParams(omega_cav=1.1, omega0_c=0.9, omega0_i=1.3,
                          lambda_c=0.37, lambda_i=0.52, n_c=5, n_i=5), dbasis)
    residuals = symmetry_residuals(Hd, dbasis)
    assert residuals == (0.0, 0.0, 0.0)

    _say(capsys, f"criterion 10: PASS - reduction {worst_thermo:.1e} "
         f"(thermo) / {worst_ed:.1e} (ED), swap {worst_swap:.1e}, "
         f"symmetry residuals exactly zero")
