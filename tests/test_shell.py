"""Rows solved on Holstein-Primakoff shells (ed._solve_at): a grid of
more than _DENSE_DIM states at a normal or critical point is solved on
the shell n + sum of k <= K, from the shell that the row's HP Gaussian
predicts (at most 30), grown until its top two levels are empty.  Such
rows match a full-grid solve to machine precision, a normal row of the
ed-fixed lattice is one solve, an unstable form predicts no shell, a
shell's H is the grid's H on the shell, and every other row is the
full-grid row bit for bit."""

import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hpdicke import double_ed, ed, sweeps
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.errors import BudgetExceeded
from hpdicke.gaussian import QuadraticForm

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "tools"), str(_ROOT / "bench")]
import output_digest  # noqa: E402
import workloads  # noqa: E402


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
    ("single", 128, 100, 0.5),          # lambda_cr: gapless form
    # SOLVE_TOL as the boundary weight accepts K = 20, 2.4e-10 off in s_vn
    ("single", 512, 40, 0.34),
    # an ARPACK tol of SOLVE_TOL, not taken over |E|, is 1.1e-10 off in s_vn
    ("single", 384, 40, 0.33),
    ("double", 16, 40, *_ray(12, 170)),
    ("double", 8, 30, *_ray(4, 200)),   # on the chain-C critical line
], ids=["near-critical", "critical", "large-N", "tol", "double",
        "double-line"])
def test_shell_rows_match_a_full_grid_solve(solved, point):
    p, grid = _point(*point)
    res, s_vn, rep = ed._row(p, grid, grid.n_max)
    last = solved[-1]
    assert last.shell is not None and last.support.size < grid.dim
    assert res.n_max_used == grid.n_max and res.shell == last.shell
    assert res.state.size == last.support.size
    hp, s_exact = output_digest._exact(p, grid)
    assert rep.hp == pytest.approx(hp, rel=1e-11, abs=0)
    assert s_vn == pytest.approx(s_exact, rel=1e-11, abs=0)


def test_sparse_superradiant_row_matches_a_full_grid_solve(solved):
    # the ed-fixed point N = 128, lambda = 0.51: ARPACK from a seeded draw
    # on the whole 13,029-state grid
    p, grid = _point("single", 128, 100, 0.51)
    res, s_vn, rep = ed._row(p, grid, grid.n_max)
    assert solved == [grid] and grid.dim > ed._DENSE_DIM
    hp, s_exact = output_digest._exact(p, grid)
    assert rep.hp == pytest.approx(hp, rel=1e-11, abs=0)
    assert s_vn == pytest.approx(s_exact, rel=1e-11, abs=0)


def _gaussian_tail(form, top: int) -> np.ndarray:
    """The weight of the form's Gaussian on the HP levels >= L, L = 0 ..
    top, from the generating function of its total boson number,
    det(1 - Q)^(1/2) / det(1 - s^2 Q)^(1/2) with Q = Z^dag Z: the
    power series of exp(sum_k tr(Q^k) s^(2k) / 2k), no singular values."""
    Z = ed._pair_matrix(form)
    Q = Z.conj().T @ Z
    traces, power = [0.0], np.eye(len(Q))
    for _ in range(top // 2):
        power = power @ Q
        traces.append(np.trace(power).real)
    series = [1.0]
    for m in range(1, top // 2 + 1):
        series.append(sum(traces[k] / 2 * series[m - k]
                          for k in range(1, m + 1)) / m)
    level = np.zeros(top + 1)
    level[::2] = math.sqrt(np.linalg.det(np.eye(len(Q)) - Q).real) * np.array(
        series)
    return np.cumsum(level[::-1])[::-1]


@pytest.mark.parametrize("point", [
    ("single", 128, 40, 0.3),
    ("double", 16, 40, *_ray(4, 130)),
    ("double", 32, 120, *_ray(8, 120)),
], ids=["single", "double-16", "double-32"])
def test_first_shell_is_the_gaussian_prediction(solved, point):
    p, grid = _point(*point)
    top = int(grid.levels[-1])
    tail = _gaussian_tail(grid._hp_form(p), top)
    k0 = 1 + int(np.flatnonzero(tail < np.finfo(float).eps)[0])
    assert ed._gaussian_shell(grid._hp_form(p), top) == k0 < 30
    res, _, _ = ed._row(p, grid, grid.n_max)
    assert solved == [replace(grid, shell=k0)]
    edge = res.state[replace(grid, shell=k0).levels >= k0 - 1]
    assert np.vdot(edge, edge).real <= tail[k0 - 1]


@pytest.mark.parametrize("point", [
    ("single", 128, 100, 0.5),
    ("double", 8, 30, *_ray(4, 200)),
], ids=["lambda_cr", "critical-line"])
def test_gapless_rows_start_at_shell_30(solved, point):
    p, grid = _point(*point)
    assert ed._gaussian_shell(grid._hp_form(p), int(grid.levels[-1])) == (
        math.inf)
    ed._row(p, grid, grid.n_max)
    assert solved[0] == replace(grid, shell=30)


def test_unstable_form_has_no_gaussian_shell():
    lam = 0.6  # the normal-phase expansion past lambda_cr = 1/2
    form = QuadraticForm(A=np.array([[1.0, lam], [lam, 1.0]]),
                         B=np.array([[0.0, lam / 2], [lam / 2, 0.0]]),
                         d=np.zeros(2))
    assert ed._pair_matrix(form) is None
    assert ed._gaussian_shell(form, 60) == math.inf


def test_normal_single_chain_fixed_rows_are_one_solve(solved):
    points = workloads.lattice("ed-fixed")
    keys = [key for key in points if key.startswith("de:")
            and key.split(":")[2] == "40"]
    assert len(keys) == 124
    for key in keys:
        cfg = sweeps.SweepConfig.from_dict(points[key])
        solved.clear()
        sweeps.sweep_rows(cfg)
        assert len(solved) == 1 and solved[0].shell is not None, key


@pytest.mark.parametrize("point", [
    ("single", 64, 80, 0.7),
    ("double", 8, 30, *_ray(4, 300)),
], ids=["single", "double"])
def test_superradiant_rows_keep_the_full_grid_bitwise(solved, point):
    p, grid = _point(*point)
    res, s_vn, rep = ed._row(p, grid, grid.n_max)
    assert solved == [grid] and grid.dim > ed._DENSE_DIM
    build, solve, moments, entropy, _ = grid._api()
    ref = solve(build(p, grid), grid)
    assert np.array_equal(res.state, ref.state)
    assert (res.ground_energy, res.gap01, res.parity) == (
        ref.ground_energy, ref.gap01, ref.parity)
    assert (rep.hp, s_vn) == (moments(ref, grid).hp, entropy(ref, grid))


def _unequal(p):
    """p with frequencies unequal to each other and to 1."""
    if isinstance(p, DickeParams):
        return replace(p, omega=1.3, omega0=0.7)
    return replace(p, omega_cav=1.3, omega0_c=0.7, omega0_i=1.9)


_SINGLE, _DOUBLE = ("single", 30, 44, 0.4), ("double", 8, 12, *_ray(4, 150))
# shells whose box is far smaller than the grid
_SINGLE_BOX = ("single", 2000, 85, 0.45)
_DOUBLE_BOX = ("double", 32, 120, *_ray(4, 150))


# K = n_max + 2 reaches the n_max edge of the grid, not its top level
@pytest.mark.parametrize("point,K,unequal", [
    (_SINGLE, 15, False), (_DOUBLE, 15, False),
    (_SINGLE, 1, False), (_DOUBLE, 1, False),
    (_SINGLE, 46, False), (_DOUBLE, 14, False),
    (_SINGLE, 15, True), (_DOUBLE, 15, True),
    (_SINGLE, 46, True), (_DOUBLE, 14, True),
    (_SINGLE_BOX, 45, False), (_DOUBLE_BOX, 30, False),
], ids=["single", "double", "single-K1", "double-K1", "single-edge",
        "double-edge", "single-unequal", "double-unequal",
        "single-edge-unequal", "double-edge-unequal", "single-box",
        "double-box"])
def test_shell_hamiltonian_is_the_grid_hamiltonian_on_the_shell(point, K,
                                                                unequal):
    p, grid = _point(*point)
    p = _unequal(p) if unequal else p
    build = grid._api()[0]
    shell = replace(grid, shell=K)
    assert shell.bound[0] == min(K + 1, grid.shape[0])
    idx = shell.support
    assert 0 < idx.size < grid.dim
    assert np.array_equal(idx, np.flatnonzero(grid.levels <= K))
    H, full = build(p, shell), build(p, grid)[idx][:, idx]
    full.sum_duplicates()
    assert H.has_canonical_format and not np.any(H.data == 0)
    assert H.shape == (idx.size, idx.size)
    assert np.array_equal(H.indptr, full.indptr)
    assert np.array_equal(H.indices, full.indices)
    assert np.array_equal(H.data, full.data)


@pytest.mark.parametrize("point", [_SINGLE, _DOUBLE], ids=["single", "double"])
def test_parity_diagonals_multiply_the_shell_hamiltonian(point):
    """parity_diagonal and double_parities give the support's entries of
    the grid's diagonals, so they multiply a shell's H, which commutes
    with the (total) parity."""
    p, grid = _point(*point)
    shell = replace(grid, shell=15)
    H = grid._api()[0](p, shell)
    if isinstance(grid, ed.EDBasis):
        pi, full = ed.parity_diagonal(shell), ed.parity_diagonal(grid)
    else:
        (u_c, u_i), (g_c, g_i) = map(double_ed.double_parities, (shell, grid))
        pi, full = u_c * u_i, g_c * g_i
    assert full.size == grid.dim > shell.support.size
    assert np.array_equal(pi, full[shell.support])
    comm = H.multiply(pi[None, :]) - H.multiply(pi[:, None])
    assert comm.shape == H.shape and abs(comm).max() == 0.0


@pytest.mark.parametrize("point", [_SINGLE, _DOUBLE], ids=["single", "double"])
def test_basis_parity_and_gauge_are_given_on_the_support(point):
    """A shell basis's parity and gauge are the grid's entries on its
    support; on the whole grid they are grid-length, as the solve's
    state is."""
    _, grid = _point(*point)
    shell = replace(grid, shell=15)
    assert shell.parity.size == shell.gauge.size == shell.support.size
    assert grid.parity.size == grid.gauge.size == grid.dim
    assert np.array_equal(shell.parity, grid.parity[shell.support])
    assert np.array_equal(shell.gauge, grid.gauge[shell.support])
    assert set(np.unique(grid.parity)) == {-1.0, 1.0}


def test_shell_build_allocates_its_box_not_its_grid():
    """N = 10^4, n_max = 162, K = 68: a 69 x 69 box in a grid of 1.63
    million states, where one grid-length float array is 13 MB."""
    p, basis = DickeParams(1.0, 1.0, 0.5), ed.EDBasis(10_000, 162, shell=68)
    ed.build_hamiltonian(p, basis)  # scipy loaded before tracing
    tracemalloc.start()
    try:
        H = ed.build_hamiltonian(p, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.shape == (basis.support.size,) * 2
    assert peak < 4e6


def test_two_chain_shell_build_allocates_its_support_not_its_box():
    """N_C = N_I = 128, n_max = 100, K = 68: a 69^3 box of 328,509 states
    for a support of 57,155.  The writer's table has one row per support
    state, not per box state (51 MB when it spanned the box)."""
    p = DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5, 128, 128)
    basis = double_ed.DoubleEDBasis(128, 128, 100, shell=68)
    double_ed.build_double_hamiltonian(p, basis)  # scipy loaded first
    tracemalloc.start()
    try:
        H = double_ed.build_double_hamiltonian(p, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.prod(basis.bound) == 328_509
    assert H.shape == (basis.support.size,) * 2 == (57_155,) * 2
    assert peak < 30e6


def test_shell_solve_allocates_its_support_not_its_grid():
    """N = 10^4, n_max = 162, K = 68 at lambda_cr: the state is returned
    on the 2,415-state support, not embedded in the grid of 1.63 million
    states, where one grid-length float array is 13 MB."""
    p, basis = DickeParams(1.0, 1.0, 0.5), ed.EDBasis(10_000, 162, shell=68)
    H = ed.build_hamiltonian(p, basis)
    ed.ground_state(H, basis)  # scipy's solvers loaded before tracing
    tracemalloc.start()
    try:
        res = ed.ground_state(H, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.state.size == basis.support.size == 2415
    assert res.shell == 68 and res.n_max_used == 162
    assert peak < 4e6


@pytest.mark.parametrize("reduce", [ed.photon_moments_ed,
                                    ed.photon_entropy_ed],
                         ids=["moments", "entropy"])
def test_shell_reductions_allocate_its_box_not_its_grid(reduce):
    """The K = 68 state at N = 10^4, n_max = 162, read at the grid's
    basis, is reduced on its 69 x 69 box: neither reduction fills a
    photon-by-chain matrix of the grid's 1.63 million states (13 MB)."""
    p, basis = DickeParams(1.0, 1.0, 0.5), ed.EDBasis(10_000, 162, shell=68)
    res = ed.ground_state(ed.build_hamiltonian(p, basis), basis)
    grid = ed.EDBasis(10_000, 162)
    reduce(res, grid)  # scipy's BLAS loaded before tracing
    tracemalloc.start()
    try:
        reduce(res, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("point,K", [
    (("single", 128, 40, 0.2), 18),             # ed-fixed de:128:40:200
    (("double", 32, 120, *_ray(8, 130)), 28),   # ed-fixed te:32:120:8:130
], ids=["single", "double"])
def test_shelled_fixed_rows_keep_the_state_on_their_support(solved, point,
                                                            K):
    p, grid = _point(*point)
    res, _, _ = ed._row(p, grid, grid.n_max)
    assert solved == [replace(grid, shell=K)] and res.shell == K
    assert res.state.size == solved[0].support.size < grid.dim


@pytest.mark.parametrize("point,K", [
    (("single", 512, 40, 0.3), 24),
    (("double", 32, 120, *_ray(8, 130)), 28),   # ed-fixed te:32:120:8:130
], ids=["single", "double"])
def test_budget_charges_the_support(point, K):
    """A shelled row runs one entry below its grid's charge, and is
    refused one entry below its accepted shell's, which is the charge
    the refusal names: max_nnz counts the support's states."""
    p, grid = _point(*point)
    res, _, _ = ed._row(p, grid, grid.n_max, budget_nnz=grid.max_nnz - 1)
    shell = replace(grid, shell=K)
    assert res.shell == K and shell.max_nnz < grid.max_nnz
    assert shell.max_nnz == (4 * len(grid.shape) - 3) * shell.support.size
    need = shell.max_nnz
    with pytest.raises(BudgetExceeded) as exc:
        ed._row(p, grid, grid.n_max, budget_nnz=need - 1)
    assert (exc.value.needed, exc.value.budget) == (need, need - 1)
    assert str(exc.value) == (f"cutoff {grid.n_max}, shell {K} needs ~{need} "
                              f"nonzeros, over the budget of {need - 1}")


@pytest.mark.parametrize("point", [
    ("single", 8, 2000, 0.8), ("double", 8, 2000, *_ray(8, 300)),
], ids=["single", "double"])
def test_budget_names_a_whole_grid_without_a_shell(point):
    """A superradiant row is solved on its whole grid, and a budget below
    the grid's max_nnz refuses it with no shell in the message."""
    p, grid = _point(*point)
    with pytest.raises(BudgetExceeded) as exc:
        ed._row(p, grid, grid.n_max, budget_nnz=1000)
    assert exc.value.needed == grid.max_nnz == (4 * len(grid.shape) - 3) * (
        grid.dim)
    assert str(exc.value) == (f"cutoff 2000 needs ~{grid.max_nnz} nonzeros, "
                              "over the budget of 1000")


def test_two_chain_critical_line_runs_at_n_512():
    """N_C = N_I = 512, n_max = 40 on the chain-I critical line (theta =
    5 pi/16, lambda_I = 0.5): its grid would hold about 97 million
    nonzeros, but its accepted shell fits the default budget."""
    p, grid = _point("double", 512, 40, *_ray(10, 200))
    assert p.lambda_i == pytest.approx(0.5)
    assert grid.max_nnz > ed.DEFAULT_BUDGET_NNZ
    res, s_vn, rep = double_ed.double_ed(p, grid.n_max)
    shell = replace(grid, shell=102)  # after 30, 45 and 68
    assert res.shell == 102 and res.state.size == shell.support.size == 145796
    assert shell.max_nnz <= ed.DEFAULT_BUDGET_NNZ
    assert res.cutoff_converged and rep.hp > 0.5 and s_vn > 0
