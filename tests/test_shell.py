"""Rows solved on Holstein-Primakoff shells (ed._solve_at): a grid of
more than _DENSE_DIM states at a normal or critical point is solved on
the shell n + sum of k <= K, grown until its top two levels are empty.
Such rows match a full-grid solve to machine precision, a shell's H is
the grid's H on the shell, and every other row is today's full-grid
row bit for bit."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hpdicke import double_ed, ed
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.errors import BudgetExceeded

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_digest  # noqa: E402


def _ray(a: int, k: int) -> tuple[float, float]:
    """(lambda_C, lambda_I) at radial index k of the ray theta = a pi/32,
    where index 200 lies on the nearer critical line (omega's = 1)."""
    th = a * math.pi / 32
    r = k * 0.5 / max(math.cos(th), math.sin(th)) / 200
    return r * math.cos(th), r * math.sin(th)


def _point(model, n_spins, n_max, *couplings):
    if model == "single":
        return DickeParams(1.0, 1.0, *couplings), ed.EDBasis(n_spins, n_max)
    return (DoubleDickeParams(1.0, 1.0, 1.0, *couplings, n_spins, n_spins),
            double_ed.DoubleEDBasis(n_spins, n_spins, n_max))


@pytest.fixture
def solved(monkeypatch):
    """The basis of each public ground-state solve, in order."""
    seen = []
    for module, name in ((ed, "ground_state"),
                         (double_ed, "double_ground_state")):
        def recording(H, basis, *args, _fn=getattr(module, name), **kwargs):
            seen.append(basis)
            return _fn(H, basis, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return seen


@pytest.mark.parametrize("point", [
    # a test on level K alone accepts K = 45 here, 1e-8 off in hp
    ("single", 128, 100, 0.495),
    ("single", 128, 100, 0.5),          # lambda_cr: no HP start
    # SOLVE_TOL as the boundary weight accepts K = 20, 2.4e-10 off in s_vn
    ("single", 512, 40, 0.34),
    ("double", 16, 40, *_ray(12, 170)),
    ("double", 8, 30, *_ray(4, 200)),   # on the chain-C critical line
], ids=["near-critical", "critical", "large-N", "double", "double-line"])
def test_shell_rows_match_a_full_grid_solve(solved, point):
    p, grid = _point(*point)
    res, s_vn, rep = ed._row(p, grid, grid.n_max)
    last = solved[-1]
    assert last.shell is not None and last.support.size < grid.dim
    assert res.n_max_used == grid.n_max and res.state.size == grid.dim
    hp, s_exact = output_digest._exact(p, grid)
    assert rep.hp == pytest.approx(hp, rel=1e-10, abs=0)
    assert s_vn == pytest.approx(s_exact, rel=1e-10, abs=0)


@pytest.mark.parametrize("point", [
    ("single", 64, 80, 0.7),
    ("double", 8, 30, *_ray(4, 300)),
], ids=["single", "double"])
def test_superradiant_rows_keep_the_full_grid_bitwise(solved, point):
    p, grid = _point(*point)
    res, s_vn, rep = ed._row(p, grid, grid.n_max)
    assert solved == [grid] and grid.dim > ed._DENSE_DIM
    build, solve, moments, entropy, _ = grid._api()
    ref = solve(build(p, grid), grid, params=p)
    assert np.array_equal(res.state, ref.state)
    assert (res.ground_energy, res.gap01, res.parity) == (
        ref.ground_energy, ref.gap01, ref.parity)
    assert (rep.hp, s_vn) == (moments(ref, grid).hp, entropy(ref, grid))


@pytest.mark.parametrize("point", [
    ("single", 30, 44, 0.4),
    ("double", 8, 12, *_ray(4, 150)),
], ids=["single", "double"])
def test_shell_hamiltonian_is_the_grid_hamiltonian_on_the_shell(point):
    p, grid = _point(*point)
    build = grid._api()[0]
    shell = replace(grid, shell=15)
    idx = shell.support
    assert np.array_equal(idx, np.flatnonzero(grid.levels <= 15))
    H, full = build(p, shell), build(p, grid)[idx][:, idx]
    full.sum_duplicates()
    assert H.has_canonical_format and not np.any(H.data == 0)
    assert H.shape == (idx.size, idx.size)
    assert np.array_equal(H.indptr, full.indptr)
    assert np.array_equal(H.indices, full.indices)
    assert np.array_equal(H.data, full.data)


def test_budget_charges_the_whole_grid():
    grid = ed.EDBasis(512, 40)
    with pytest.raises(BudgetExceeded):
        ed._row(DickeParams(1.0, 1.0, 0.3), grid, grid.n_max,
                budget_nnz=grid.max_nnz - 1)
