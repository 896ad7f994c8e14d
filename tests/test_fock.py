import numpy as np
import pytest

from conftest import random_stable_form
import fock
from hpdicke.errors import DomainError
from hpdicke.gaussian import (entropy_from_hp, heisenberg_product,
                              photon_moments_from_solution,
                              symplectic_diagonalize)


def test_cutoff_count_must_match_modes():
    rng = np.random.default_rng(1)
    form = random_stable_form(rng, 2)
    with pytest.raises(DomainError):
        fock.build_fock_hamiltonian(form, (10,))


def test_product_state_has_zero_entropy():
    psi = np.zeros((4, 4))
    psi[0, 0] = 1.0
    assert fock.reduced_entropy_bits(psi) == pytest.approx(0.0, abs=1e-12)


def test_bell_like_state_has_one_bit():
    psi = np.zeros((4, 4))
    psi[0, 0] = psi[1, 1] = 1.0 / np.sqrt(2.0)
    assert fock.reduced_entropy_bits(psi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("trial", range(4))
def test_ground_state_matches_symplectic_route(trial):
    rng = np.random.default_rng(50 + trial)
    form = random_stable_form(rng, 2, dscale=0.12)
    sol = symplectic_diagonalize(form)
    energy, psi = fock.fock_ground_state(form, (20, 20))
    assert energy == pytest.approx(sol.ground_energy, abs=1e-7)

    rep = photon_moments_from_solution(sol, 0)
    mean_a, a_sq, occ, top = fock.mode0_moments(psi)
    assert top < 1e-8
    rep_f = heisenberg_product(mean_a, a_sq, occ)
    assert rep_f.hp == pytest.approx(rep.hp, abs=1e-7)
    assert abs(mean_a - rep.mean_a) < 1e-6

    s_fock = fock.reduced_entropy_bits(psi)
    assert s_fock == pytest.approx(entropy_from_hp(rep.hp).s_vn, abs=1e-7)


def test_three_mode_entropy_agreement():
    rng = np.random.default_rng(77)
    form = random_stable_form(rng, 3)
    sol = symplectic_diagonalize(form)
    energy, psi = fock.fock_ground_state(form, (12, 12, 12))
    assert energy == pytest.approx(sol.ground_energy, abs=1e-6)
    rep = photon_moments_from_solution(sol, 0)
    s_fock = fock.reduced_entropy_bits(psi)
    assert s_fock == pytest.approx(entropy_from_hp(rep.hp).s_vn, abs=1e-6)
