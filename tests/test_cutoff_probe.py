"""The cutoff walk's probe: one inverse-iteration step from the padded
solve at cutoff n against an exact eigensolve at the probe cutoff, and a
step that fails its self-check, which leaves n unaccepted."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hpdicke import double_ed, ed
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import DoubleEDBasis, converge_cutoff_double
from hpdicke.ed import EDBasis, converge_cutoff

pytestmark = pytest.mark.filterwarnings(
    "ignore::hpdicke.errors.CutoffWarning")


def _double(r, n_spins, theta=math.pi / 8):
    return DoubleDickeParams(1.0, 1.0, 1.0, r * math.cos(theta),
                             r * math.sin(theta), n_spins, n_spins)


def _walked(p, basis):
    """The accepted cutoff's basis, its solve and its probe's basis."""
    walk = (converge_cutoff(p, basis.n_spins) if isinstance(basis, EDBasis)
            else converge_cutoff_double(p))
    n = walk.n_max_used
    at = replace(basis, n_max=n)
    build, solve, _, _ = at._api()
    res = solve(build(p, at), at, params=p)
    assert res.cutoff_converged
    return at, res, replace(basis, n_max=max(n + 1, math.ceil(1.25 * n)))


@pytest.mark.parametrize("p,basis", [
    (DickeParams(1.0, 1.0, 0.0), EDBasis(4, 1)),
    (DickeParams(1.0, 1.0, 0.3), EDBasis(8, 1)),
    (DickeParams(1.0, 1.0, 0.5), EDBasis(16, 1)),
    (DickeParams(1.0, 1.0, 0.75), EDBasis(8, 1)),
    (_double(0.3, 2), DoubleEDBasis(2, 2, 1)),
    (_double(0.6, 3), DoubleEDBasis(3, 3, 1)),
    (_double(1.0, 2), DoubleEDBasis(2, 2, 1)),
], ids=["decoupled", "normal", "critical", "superradiant", "double-normal",
        "double-critical", "double-superradiant"])
def test_probe_matches_the_exact_probe_solve(p, basis):
    at, res, probe = _walked(p, basis)
    build, solve, moments, _ = probe._api()
    exact = solve(build(p, probe), probe, params=p)
    assert exact.parity == res.parity
    assert ed._probe_hp(p, res, at, probe) == pytest.approx(
        moments(exact, probe).hp, rel=1e-11, abs=0)


def test_sparse_probe_matches_the_exact_probe_solve():
    # the solve at 87 is an ARPACK one, and so is the exact probe at 109
    p = DickeParams(1.0, 1.0, 0.705)
    at, res, probe = _walked(p, EDBasis(32, 1))
    assert (at.n_max, probe.n_max, probe.dim) == (87, 109, 3630)
    assert at.dim > ed._DENSE_DIM
    exact = ed.ground_state(ed.build_hamiltonian(p, probe), probe, params=p)
    assert ed._probe_hp(p, res, at, probe) == pytest.approx(
        ed.photon_moments_ed(exact, probe).hp, rel=1e-11, abs=0)


def test_decoupled_probe_needs_the_shift():
    # at lambda = 0 H is diagonal, so E_n is an exact eigenvalue of the
    # probe's H and H - E_n is singular in the state's sector
    p = DickeParams(1.0, 1.0, 0.0)
    at, res, probe = _walked(p, EDBasis(4, 1))
    idx = np.flatnonzero(probe.parity == res.parity)
    H = ed.build_hamiltonian(p, probe)[idx][:, idx]
    with pytest.raises(RuntimeError, match="singular"):
        spla.splu((H - res.ground_energy * sp.identity(idx.size)).tocsc())
    assert not math.isnan(ed._probe_hp(p, res, at, probe))


class _FirstFactorFails:
    """splu whose first factor raises as a singular one does, or solves
    to a vector that is no eigenvector; later factors are scipy's."""

    def __init__(self, how):
        self.how, self.calls = how, 0

    def __call__(self, A, _splu=spla.splu, **kwargs):
        self.calls += 1
        if self.calls > 1:
            return _splu(A, **kwargs)
        if self.how == "singular":
            raise RuntimeError("Factor is exactly singular")
        return type("Factor", (), {"solve": lambda self, b: (
            np.random.default_rng(0).standard_normal(b.size))})()


@pytest.mark.parametrize("how", ["singular", "wrong-vector"])
def test_failed_self_check_leaves_the_cutoff_unaccepted(monkeypatch, how):
    # N = 16, lambda = 0.5 accepts its start 16 (probe 20); when that
    # probe fails its self-check 16 is not accepted, and the walk goes up
    # to the grid point 32, which its probe 40 confirms
    p = DickeParams(1.0, 1.0, 0.5)
    good = converge_cutoff(p, 16)
    assert good.n_max_used == 16
    at = EDBasis(16, 16)
    res = ed.ground_state(ed.build_hamiltonian(p, at), at, params=p)
    failing = _FirstFactorFails(how)
    monkeypatch.setattr(spla, "splu", failing)
    assert math.isnan(ed._probe_hp(p, res, at, EDBasis(16, 20)))
    failing.calls = 0
    got = converge_cutoff(p, 16)
    assert got.n_max_used == 32
    assert got.cutoff_converged
    hp_good = ed.photon_moments_ed(good, at).hp
    hp_got = ed.photon_moments_ed(got, EDBasis(16, 32)).hp
    assert abs(hp_got - hp_good) < 1e-8


def test_large_two_chain_probe_is_solved(monkeypatch):
    # N = 8, lambda = 0.5 on both chains accepts 20: its probe 25 has
    # dimension 2106 > DoubleEDBasis._lu_dim, past which the ARPACK solve
    # of the three-dimensional two-chain grid is no slower than an LU
    # step, so the probe is solved
    solved = []

    def solving(H, basis, *args, _solve=double_ed.double_ground_state,
                **kwargs):
        solved.append(basis.n_max)
        return _solve(H, basis, *args, **kwargs)

    monkeypatch.setattr(double_ed, "double_ground_state", solving)
    p = DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5, 8, 8)
    assert converge_cutoff_double(p).n_max_used == 20
    assert solved[-2:] == [20, 25]
    assert DoubleEDBasis(8, 8, 25).dim > DoubleEDBasis._lu_dim
