import math

import numpy as np
import pytest

from hpdicke import dicke
from hpdicke.dicke import (DickeParams, Phase, classify_phase,
                           dicke_quadratic_form, entropy_thermo, hp_thermo,
                           lambda_critical, solve_thermo)
from hpdicke.errors import (BranchError, CriticalPointDivergence, DomainError,
                            UncertaintyViolation)
from hpdicke.gaussian import (entropy_from_hp, photon_moments_from_solution,
                              symplectic_diagonalize)


def test_critical_coupling():
    assert lambda_critical(DickeParams(1.0, 1.0, 0.1)) == 0.5
    assert lambda_critical(DickeParams(1.0, 4.0, 0.1)) == 1.0


def test_params_validation():
    with pytest.raises(DomainError):
        DickeParams(0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        DickeParams(1.0, 1.0, -0.1)


def test_resonant_normal_point_closed_forms():
    sol = solve_thermo(DickeParams(1.0, 1.0, 0.3))
    assert sol.gap_minus == pytest.approx(math.sqrt(0.4), abs=1e-14)
    assert sol.gap_plus == pytest.approx(math.sqrt(1.6), abs=1e-14)
    assert sol.gamma == pytest.approx(math.pi / 4, abs=1e-14)
    rep = hp_thermo(DickeParams(1.0, 1.0, 0.3))
    c2 = s2 = 0.5
    hp2 = 0.25 * (c2 / sol.gap_minus + s2 / sol.gap_plus) \
        * (c2 * sol.gap_minus + s2 * sol.gap_plus)
    assert rep.hp == pytest.approx(math.sqrt(hp2), abs=1e-14)


@pytest.mark.parametrize("lam", [0.3, 0.45, 1.0, 2.0])
def test_closed_form_matches_generic_pipeline(lam):
    p = DickeParams(1.0, 1.0, lam)
    bs = symplectic_diagonalize(dicke_quadratic_form(p))
    sol = solve_thermo(p)
    assert np.abs(np.sort(bs.gaps)
                  - [sol.gap_minus, sol.gap_plus]).max() < 1e-10
    mom = photon_moments_from_solution(bs)
    rep = hp_thermo(p)
    assert mom.hp == pytest.approx(rep.hp, abs=1e-10)
    assert mom.dx == pytest.approx(rep.dx, abs=1e-10)
    assert mom.dp == pytest.approx(rep.dp, abs=1e-10)


@pytest.mark.parametrize("trial", range(10))
def test_pipeline_agreement_off_resonance(trial):
    rng = np.random.default_rng(300 + trial)
    om = rng.uniform(0.5, 2.0)
    om0 = rng.uniform(0.5, 2.0)
    lam_cr = math.sqrt(om * om0) / 2
    lam = lam_cr * (rng.uniform(0.05, 0.95) if trial % 2 == 0
                    else rng.uniform(1.05, 3.0))
    p = DickeParams(om, om0, lam)
    bs = symplectic_diagonalize(dicke_quadratic_form(p))
    sol = solve_thermo(p)
    mom = photon_moments_from_solution(bs)
    rep = hp_thermo(p)
    assert np.sort(bs.gaps)[0] == pytest.approx(sol.gap_minus, abs=1e-9)
    assert np.sort(bs.gaps)[1] == pytest.approx(sol.gap_plus, abs=1e-9)
    assert mom.hp == pytest.approx(rep.hp, abs=1e-9)


def test_critical_point_raises_and_is_labeled():
    with pytest.raises(CriticalPointDivergence) as err:
        hp_thermo(DickeParams(1.0, 1.0, 0.5))
    assert err.value.exponent == -0.25
    info = classify_phase(DickeParams(1.0, 1.0, 0.5))
    assert info.phase is Phase.SUPERRADIANT and info.critical


def test_decoupled_limit():
    for om0 in (2.0, 0.5):
        p = DickeParams(1.0, om0, 0.0)
        sol = solve_thermo(p)
        assert sol.gamma == 0.0 and sol.mu == 1.0
        rep = hp_thermo(p)
        assert rep.hp == pytest.approx(0.5, abs=1e-14)


def test_quadrature_asymmetry_near_critical():
    # dx grows without bound approaching the transition; dp stays small
    rep = hp_thermo(DickeParams(1.0, 1.0, 0.5 * (1 - 1e-6)))
    assert rep.dx > 10.0
    dps = [hp_thermo(DickeParams(1.0, 1.0, lam)).dp
           for lam in np.linspace(0.0, 1.0, 41) if abs(lam - 0.5) > 1e-3]
    assert max(dps) < 2.0


def test_superradiant_entropy_offset():
    p = DickeParams(1.0, 1.0, 1.0)
    bare = entropy_thermo(p, include_degeneracy=False)
    full = entropy_thermo(p)
    assert full.s_vn - bare.s_vn == pytest.approx(1.0, abs=1e-14)
    assert bare.degeneracy_offset == 0 and full.degeneracy_offset == 1
    # normal phase carries no offset
    pn = DickeParams(1.0, 1.0, 0.2)
    assert entropy_thermo(pn).degeneracy_offset == 0


@pytest.mark.parametrize("include_degeneracy", [True, False])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.7, 2.0])
def test_entropy_thermo_classifies_its_point_once(monkeypatch, lam,
                                                   include_degeneracy):
    # the report of hp_thermo plus a separate classification, bitwise
    p, alphas = DickeParams(1.0, 1.0, lam), (0.5, 2.0)
    info = classify_phase(p)
    if not info.critical:
        offset = int(include_degeneracy
                     and info.phase is Phase.SUPERRADIANT)
        want = entropy_from_hp(hp_thermo(p).hp, degeneracy_offset=offset,
                               renyi_alphas=alphas)
    calls = []

    def counting(q):
        calls.append(q)
        return classify_phase(q)

    monkeypatch.setattr(dicke, "classify_phase", counting)
    if info.critical:
        with pytest.raises(CriticalPointDivergence):
            entropy_thermo(p, include_degeneracy, alphas)
    else:
        got = entropy_thermo(p, include_degeneracy, alphas)
        assert repr(got) == repr(want)
    assert calls == [p]


def test_renyi_passthrough():
    ent = entropy_thermo(DickeParams(1.0, 1.0, 0.3), renyi_alphas=(2.0, 3.0))
    assert set(ent.s_renyi) == {2.0, 3.0}
    assert 0.0 < ent.s_renyi[3.0] <= ent.s_renyi[2.0] <= ent.s_vn


def test_branch_bookkeeping():
    p = DickeParams(1.0, 1.0, 1.0)
    minus = solve_thermo(p, -1)
    plus = solve_thermo(p, +1)
    assert minus.alpha_coh == -plus.alpha_coh
    assert plus.alpha_coh == pytest.approx(math.sqrt(1 - 1 / 16.0), abs=1e-14)
    assert plus.beta_coh == pytest.approx(math.sqrt(3 / 8.0), abs=1e-14)
    with pytest.raises(BranchError):
        solve_thermo(DickeParams(1.0, 1.0, 0.2), 1)
    with pytest.raises(BranchError):
        solve_thermo(p, 2)


def test_mu_continuous_across_transition():
    below = solve_thermo(DickeParams(1.0, 1.0, 0.5 * (1 - 1e-9))).mu
    above = solve_thermo(DickeParams(1.0, 1.0, 0.5 * (1 + 1e-9))).mu
    assert below == pytest.approx(1.0, abs=1e-8)
    assert above == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam", [1e4, 1e8, 1e40])
def test_strong_coupling_overflow_raises(lam):
    # gap_minus^2 cancels to zero here, so the moments are inf and nan;
    # they once came back as a nan report
    with pytest.raises(UncertaintyViolation):
        hp_thermo(DickeParams(1.0, 1.0, lam))
