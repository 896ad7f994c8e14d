"""The Holstein-Primakoff start of the sparse sector solves: its overlap
with the converged sector ground states, agreement of the started solve
with the random-start one, and the points that keep the random start
bit for bit."""

import functools
import math

import numpy as np
import pytest

from hpdicke import double_ed, ed
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import (DoubleEDBasis, build_double_hamiltonian,
                               converge_cutoff_double, double_ground_state,
                               photon_entropy_double, photon_moments_double)
from hpdicke.ed import (_DENSE_DIM, EDBasis, build_hamiltonian,
                        converge_cutoff, ground_state, photon_entropy_ed,
                        photon_moments_ed)
from hpdicke.gaussian import QuadraticForm
from hpdicke.sweeps import SweepConfig, render_csv, sweep_rows


def _ray(a: int, k: int) -> tuple[float, float]:
    """(lambda_C, lambda_I) at radial index k of the ray theta = a pi/32,
    where index 200 lies on the nearer critical line (omega's = 1)."""
    th = a * math.pi / 32
    r = k * 0.5 / max(math.cos(th), math.sin(th)) / 200
    return r * math.cos(th), r * math.sin(th)


def _single(n_spins, n_max, lam):
    p = DickeParams(1.0, 1.0, lam)
    basis = EDBasis(n_spins, n_max)
    return (build_hamiltonian(p, basis), basis, p, ground_state,
            photon_moments_ed, photon_entropy_ed)


def _double(n_spins, n_max, lam_c, lam_i):
    p = DoubleDickeParams(1.0, 1.0, 1.0, lam_c, lam_i, n_spins, n_spins)
    basis = DoubleEDBasis(n_spins, n_spins, n_max)
    return (build_double_hamiltonian(p, basis), basis, p,
            double_ground_state, photon_moments_double,
            photon_entropy_double)


def _solve_recording(monkeypatch, H, basis, p, solve):
    """The started solve, and per sector the start and the solved
    vector ARPACK returned."""
    seen = []
    minimum = ed._sector_minimum

    def recording(H_real, idx, v0):
        e, v = minimum(H_real, idx, v0)
        seen.append((v0, v))
        return e, v

    monkeypatch.setattr(ed, "_sector_minimum", recording)
    return solve(H, basis, params=p), seen


@pytest.mark.parametrize("point,floor", [
    (("single", 512, 40, 0.3), 0.999),
    (("double", 16, 40, *_ray(4, 110)), 0.999),
    (("double", 32, 120, *_ray(8, 140)), 0.999),
    (("single", 128, 100, 0.49), 0.95),
])
def test_start_overlaps_the_sector_ground_states(monkeypatch, point, floor):
    model, *args = point
    H, basis, p, solve, _, _ = (_single if model == "single"
                                else _double)(*args)
    assert basis.dim > _DENSE_DIM
    _, seen = _solve_recording(monkeypatch, H, basis, p, solve)
    assert len(seen) == 2
    for v0, v in seen:
        overlap = abs(v0 @ v) / (np.linalg.norm(v0) * np.linalg.norm(v))
        assert overlap >= floor


AGREEING = [
    ("single", 30, 44, 0.4),
    ("single", 128, 40, 0.3),
    ("double", 8, 30, *_ray(4, 150)),
    ("double", 16, 40, *_ray(12, 130)),
]


@pytest.mark.parametrize("point", AGREEING)
def test_started_solve_agrees_with_the_random_start(point):
    model, *args = point
    H, basis, p, solve, moments, entropy = (_single if model == "single"
                                            else _double)(*args)
    assert basis.dim > _DENSE_DIM
    got, ref = solve(H, basis, params=p), solve(H, basis)
    assert got.parity == ref.parity
    assert got.n_max_used == ref.n_max_used
    pairs = [(got.ground_energy, ref.ground_energy), (got.gap01, ref.gap01),
             (moments(got, basis).hp, moments(ref, basis).hp),
             (entropy(got, basis), entropy(ref, basis))]
    for a, b in pairs:
        assert a == pytest.approx(b, rel=1e-10, abs=0)
    assert abs(np.vdot(got.state, ref.state)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", ["single", "double"])
def test_started_solve_is_deterministic(model):
    H, basis, p, solve, _, _ = (_single(30, 44, 0.4) if model == "single"
                                else _double(8, 30, *_ray(4, 150)))
    a = solve(H, basis, params=p, seed=3)
    b = solve(H, basis, params=p, seed=3)
    assert np.array_equal(a.state, b.state)
    assert a.ground_energy == b.ground_energy and a.gap01 == b.gap01


@pytest.mark.parametrize("point", [
    ("single", 128, 100, 0.5),      # critical
    ("single", 128, 100, 0.505),    # superradiant, next to it
    ("single", 256, 160, 0.6),      # superradiant
    ("single", 8, 60, 0.3),         # dense
    ("double", 8, 30, *_ray(4, 200)),   # on the chain-C critical line
    ("double", 3, 20, *_ray(8, 150)),   # dense
])
def test_other_points_keep_the_random_start_bitwise(point):
    model, *args = point
    H, basis, p, solve, _, _ = (_single if model == "single"
                                else _double)(*args)
    got, ref = solve(H, basis, params=p), solve(H, basis)
    assert got.ground_energy == ref.ground_energy
    assert got.gap01 == ref.gap01 and got.parity == ref.parity
    assert np.array_equal(got.state, ref.state)


def test_unstable_form_gives_no_start():
    lam = 0.6  # the normal-phase expansion past lambda_cr = 1/2
    form = QuadraticForm(A=np.array([[1.0, lam], [lam, 1.0]]),
                         B=np.array([[0.0, lam / 2], [lam / 2, 0.0]]),
                         d=np.zeros(2))
    sectors = (np.arange(0, 10, 2), np.arange(1, 10, 2))
    draws = [np.ones(5), -np.ones(5)]
    sub = np.unravel_index(np.arange(10), (5, 2))
    assert ed._hp_starts(form, sub, None, sectors, draws) is draws


@pytest.mark.parametrize("model", ["single", "double"])
def test_cutoff_walk_starts_its_sparse_solves(monkeypatch, model):
    """The walk hands the row's params to its solves: a walk through
    sparse cutoffs accepts the cutoff of a walk from random starts, with
    the same parity and energies equal to 1e-10 relative."""
    if model == "single":
        module, name = ed, "ground_state"
        walk = functools.partial(converge_cutoff, DickeParams(1.0, 1.0, 0.45),
                                 64)
    else:
        module, name = double_ed, "double_ground_state"
        walk = functools.partial(converge_cutoff_double, DoubleDickeParams(
            1.0, 1.0, 1.0, *_ray(4, 170), 12, 12))
    got = walk()
    solve, dims = getattr(module, name), []

    def random_start(H, basis, seed, params=None):
        dims.append(basis.dim)
        return solve(H, basis, seed)

    monkeypatch.setattr(module, name, random_start)
    ref = walk()
    assert max(dims) > _DENSE_DIM
    assert got.n_max_used == ref.n_max_used and got.parity == ref.parity
    assert got.ground_energy == pytest.approx(ref.ground_energy, rel=1e-10,
                                              abs=0)


def test_sparse_sweep_is_independent_of_the_worker_count():
    raw = dict(model="double-dicke", mode="ed", theta=math.pi / 8,
               r_min=0.2, r_max=0.4, steps=3, n_spins=8, n_max=30)
    serial = SweepConfig.from_dict(raw)
    parallel = SweepConfig.from_dict(dict(raw, workers=2))
    assert (render_csv(serial, sweep_rows(serial))
            == render_csv(parallel, sweep_rows(parallel)))
