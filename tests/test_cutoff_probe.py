"""The cutoff walk's probe: one sector solve at the probe cutoff started
from the padded solve at cutoff n, against an exact eigensolve there, for
both models at every dimension; a stalled probe fails only its own row."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hpdicke import double_ed, ed
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import DoubleEDBasis, converge_cutoff_double
from hpdicke.ed import EDBasis, converge_cutoff
from hpdicke.errors import ConvergenceError
from hpdicke.sweeps import SweepConfig, sweep_rows

pytestmark = pytest.mark.filterwarnings(
    "ignore::hpdicke.errors.CutoffWarning")


def _double(r, n_spins, theta=math.pi / 8):
    return DoubleDickeParams(1.0, 1.0, 1.0, r * math.cos(theta),
                             r * math.sin(theta), n_spins, n_spins)


_DOUBLE_ABOVE_DENSE = DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5, 8, 8)


def _walked(p, basis):
    """The accepted cutoff's basis, its solve and its probe's basis."""
    walk = (converge_cutoff(p, basis.n_spins) if isinstance(basis, EDBasis)
            else converge_cutoff_double(p))
    n = walk.n_max_used
    at = replace(basis, n_max=n)
    build, solve, *_ = at._api()
    res = solve(build(p, at), at)
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
    (_DOUBLE_ABOVE_DENSE, DoubleEDBasis(8, 8, 1)),
], ids=["decoupled", "normal", "critical", "superradiant", "double-normal",
        "double-critical", "double-superradiant", "double-above-dense"])
def test_probe_matches_the_exact_probe_solve(p, basis):
    at, res, probe = _walked(p, basis)
    build, solve, moments, *_ = probe._api()
    exact = solve(build(p, probe), probe)
    assert exact.parity == res.parity
    assert ed._probe_hp(p, res, probe) == pytest.approx(
        moments(exact, probe).hp, rel=1e-11, abs=0)


def test_sparse_probe_matches_the_exact_probe_solve():
    # the solve at 87 is an ARPACK one, and so is the exact probe at 109
    p = DickeParams(1.0, 1.0, 0.705)
    at, res, probe = _walked(p, EDBasis(32, 1))
    assert (at.n_max, probe.n_max, probe.dim) == (87, 109, 3630)
    assert at.dim > ed._DENSE_DIM
    exact = ed.ground_state(ed.build_hamiltonian(p, probe), probe)
    assert ed._probe_hp(p, res, probe) == pytest.approx(
        ed.photon_moments_ed(exact, probe).hp, rel=1e-11, abs=0)


def test_decoupled_probe_needs_the_shift():
    # at lambda = 0 H is diagonal, so the padded state is an exact
    # eigenvector of the probe's H: the sector solve starts on its answer
    # and the probe reads the vacuum's hp = 1/2
    p = DickeParams(1.0, 1.0, 0.0)
    at, res, probe = _walked(p, EDBasis(4, 1))
    idx = np.flatnonzero(probe.parity == res.parity)
    psi = np.pad(res.state, (0, probe.dim - at.dim))[idx]
    H = ed.build_hamiltonian(p, probe)[idx][:, idx]
    assert np.array_equal(H @ psi, res.ground_energy * psi)
    assert ed._probe_hp(p, res, probe) == pytest.approx(0.5, abs=1e-15)


def test_two_chain_probe_above_the_dense_limit_is_not_solved(monkeypatch):
    # N = 8, lambda = 0.5 on both chains starts at 10, goes up to 20 and
    # accepts it; its probe 25 (dimension 2106, past the dense limit) is
    # the sector solve of _probe_hp, never a ground-state solve.  At the
    # double point the params have a gapless HP form, so 20 (dimension
    # 1701) is solved on the shell K = 30 (ed._solve_at) and then on its
    # whole grid, whose top level is 36
    solved = []

    def solving(H, basis, *args, _solve=double_ed.double_ground_state,
                **kwargs):
        solved.append((basis.n_max, basis.shell))
        return _solve(H, basis, *args, **kwargs)

    monkeypatch.setattr(double_ed, "double_ground_state", solving)
    assert converge_cutoff_double(_DOUBLE_ABOVE_DENSE).n_max_used == 20
    assert solved == [(10, None), (20, 30), (20, None)]
    assert DoubleEDBasis(8, 8, 25).dim == 2106 > ed._DENSE_DIM


def _stalling_once(sla):
    """eigsh that raises ArpackNoConvergence on its first call, then is
    scipy's; and the list of its calls."""
    calls, eigsh = [], sla.eigsh

    def eigsh_or_stall(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise sla.ArpackNoConvergence("forced stall", [], [])
        return eigsh(*args, **kwargs)
    return eigsh_or_stall, calls


def test_stalled_probe_raises_and_fails_only_its_row(monkeypatch, tmp_path):
    # N = 16 solves densely at every cutoff its walks take, so the probe
    # is the only eigsh call: at lambda = 0.5 the first one
    sla = ed._scipy().sparse.linalg
    cfg = SweepConfig.from_dict(dict(
        model="dicke", mode="ed", n_spins=16, coupling_min=0.5,
        coupling_max=0.6, steps=2, out=str(tmp_path / "s.csv")))
    clean = sweep_rows(cfg)
    stalling, calls = _stalling_once(sla)
    monkeypatch.setattr(sla, "eigsh", stalling)
    with pytest.raises(ConvergenceError):
        converge_cutoff(DickeParams(1.0, 1.0, 0.5), 16)
    assert len(calls) == 1
    monkeypatch.undo()
    stalling, calls = _stalling_once(sla)
    monkeypatch.setattr(sla, "eigsh", stalling)
    table = sweep_rows(cfg)
    assert table.failed == [True, False]
    assert table[0].values["reason"] == "solver: ConvergenceError"
    assert table[1].values == clean[1].values
