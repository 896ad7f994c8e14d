"""The one ED path behind both models' public names: every sweep, the
figure-3 size insets and the one-shot double_ed reach the eleven public
ED functions through their module attributes, as often as the walk and
the fixed-cutoff solve need, double_ed gives the bits of the sweep row
at the same point, a seeded sparse solve repeats bit for bit, and a
solve leaves the matrix it is given as it was, summing its duplicate
entries.  No dense step of an ED row runs on numpy's own BLAS."""

import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from hpdicke import double_ed, ed, figures, sweeps
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.errors import DomainError

PUBLIC = {ed: ("build_hamiltonian", "ground_state", "photon_moments_ed",
               "photon_entropy_ed", "converge_cutoff"),
          double_ed: ("build_double_hamiltonian", "double_ground_state",
                      "photon_moments_double", "photon_entropy_double",
                      "converge_cutoff_double", "double_ed")}
SITES = (ed, double_ed, sweeps)


@pytest.fixture
def calls(monkeypatch):
    """Per-name call counts of the public ED functions, counted at every
    attribute of the ed, double_ed and sweeps modules bound to them."""
    seen = collections.Counter()
    for module, names in PUBLIC.items():
        for name in names:
            fn = getattr(module, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                seen[_name] += 1
                return _fn(*args, **kwargs)

            for site in SITES:
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        monkeypatch.setattr(site, attr, counting)
    return seen


def _walk(model, n_spins):
    """Three auto-cutoff points; all dense solves."""
    if model == "dicke":
        return dict(model=model, mode="ed", n_spins=n_spins,
                    coupling_min=0.2, coupling_max=0.6, steps=3)
    return dict(model=model, mode="ed", n_spins=n_spins, theta=math.pi / 8,
                r_min=0.2, r_max=0.6, steps=3)


def _fixed(model, n_spins, n_max):
    """Two explicit-cutoff points; dimensions above ed._DENSE_DIM."""
    if model == "dicke":
        return dict(model=model, mode="ed", n_spins=n_spins, n_max=n_max,
                    coupling_min=0.2, coupling_max=0.4, steps=2)
    return dict(model=model, mode="ed", n_spins=n_spins, n_max=n_max,
                theta=math.pi / 8, r_min=0.2, r_max=0.4, steps=2)


# a walk of 3 points from its dense start makes 9 builds, 3 of them for
# probes that one sector solve each confirms (ed._probe_hp, which these
# public-name counts do not see), 6 solves, 3 of them not
# cutoff_converged, and 9 moment reductions (one per converged solve,
# per probe and per row)
WALK_SINGLE = {"converge_cutoff": 3, "build_hamiltonian": 9,
               "ground_state": 6, "photon_moments_ed": 9,
               "photon_entropy_ed": 3}
WALK_DOUBLE = {"converge_cutoff_double": 3, "build_double_hamiltonian": 9,
               "double_ground_state": 6, "photon_moments_double": 9,
               "photon_entropy_double": 3}
# two normal points at an explicit cutoff are each solved on the one
# shell that their HP Gaussian predicts (ed._solve_at), one build and
# solve each, and each row takes its moments and entropy once
FIXED_SINGLE = {"build_hamiltonian": 2, "ground_state": 2,
                "photon_moments_ed": 2, "photon_entropy_ed": 2}
FIXED_DOUBLE = {"build_double_hamiltonian": 2, "double_ground_state": 2,
                "photon_moments_double": 2, "photon_entropy_double": 2}


@pytest.mark.parametrize("raw,expected", [
    (_walk("dicke", 4), WALK_SINGLE),
    (_fixed("dicke", 30, 44), FIXED_SINGLE),
    (_walk("double-dicke", 2), WALK_DOUBLE),
    (_fixed("double-dicke", 8, 30), FIXED_DOUBLE),
], ids=["single-auto", "single-fixed", "double-auto", "double-fixed"])
def test_sweeps_call_each_public_name(calls, raw, expected):
    cfg = sweeps.SweepConfig.from_dict(raw)
    if cfg.n_max is not None:
        n = cfg.n_spins
        basis = (ed.EDBasis(n, cfg.n_max) if cfg.model == "dicke"
                 else double_ed.DoubleEDBasis(n, n, cfg.n_max))
        assert basis.dim > ed._DENSE_DIM
    sweeps.sweep_rows(cfg)
    assert dict(calls) == expected


# the figure-3 inset at sizes 4 and 8, or 1 and 2 for two chains: each
# walk turns down cutoffs that are not cutoff_converged (one build and
# solve each; one for each single-chain size, two for the two-chain
# N = 2) and accepts the next (two builds, one solve, two moment
# reductions); each row then takes its moments and entropy once
INSET_SINGLE = {"converge_cutoff": 2, "build_hamiltonian": 6,
                "ground_state": 4, "photon_moments_ed": 6,
                "photon_entropy_ed": 2}
INSET_DOUBLE = {"converge_cutoff_double": 2, "build_double_hamiltonian": 7,
                "double_ground_state": 5, "photon_moments_double": 6,
                "photon_entropy_double": 2}


@pytest.mark.parametrize("model,sizes,expected", [
    ("dicke", [4, 8], INSET_SINGLE),
    ("double-dicke", [1, 2], INSET_DOUBLE),
], ids=["single", "double"])
def test_figure_inset_calls_each_public_name(calls, tmp_path, model, sizes,
                                             expected):
    run = sweeps.SweepConfig.from_dict({})
    write = figures._size_inset(run, {"figure": 3}, model, sizes, "inset")
    assert write(str(tmp_path / "inset.csv")) == ["inset"]
    assert dict(calls) == expected


def test_double_ed_calls_each_public_name(calls):
    double_ed.double_ed(DoubleDickeParams(1.0, 1.0, 1.0, 0.3, 0.1, 8, 8),
                        n_max=30)
    assert dict(calls) == {"double_ed": 1, "build_double_hamiltonian": 1,
                           "double_ground_state": 1,
                           "photon_moments_double": 1,
                           "photon_entropy_double": 1}


def test_double_ed_is_the_sweep_row():
    """At a sparse normal point double_ed solves from the seeded draw as
    the sweep does, so every cell agrees bitwise."""
    cfg = sweeps.SweepConfig.from_dict(dict(
        model="double-dicke", mode="ed", n_spins=16, n_max=40,
        theta=math.atan2(0.2, 0.3), r_min=math.hypot(0.3, 0.2),
        r_max=math.hypot(0.3, 0.2), steps=1))
    row = sweeps.sweep_rows(cfg)[0].values
    p = DoubleDickeParams(1.0, 1.0, 1.0, row["lambda_c"], row["lambda_i"],
                          16, 16)
    assert double_ed.DoubleEDBasis(16, 16, 40).dim > ed._DENSE_DIM
    res, s, rep = double_ed.double_ed(p, n_max=40)
    got = dict(n_max_used=res.n_max_used, ground_energy=res.ground_energy,
               gap01=res.gap01, parity=res.parity,
               converged=res.cutoff_converged, dx=rep.dx, dp=rep.dp,
               hp=rep.hp, s_vn=s)
    assert got == {c: row[c] for c in got}


def _point(model, dense=False):
    """A normal point and a basis of that model, dense or above
    ed._DENSE_DIM."""
    if model == "single":
        return DickeParams(1.0, 1.0, 0.4), ed.EDBasis(*(
            (3, 12) if dense else (30, 44)))
    # three quarters of the way to the chain-C line on theta = pi/8
    n = 3 if dense else 8
    r = 0.375 / math.cos(math.pi / 8)
    p = DoubleDickeParams(1.0, 1.0, 1.0, r * math.cos(math.pi / 8),
                          r * math.sin(math.pi / 8), n, n)
    return p, double_ed.DoubleEDBasis(n, n, 12 if dense else 30)


@pytest.mark.parametrize("model", ["single", "double"])
def test_seeded_sparse_solve_is_deterministic(model):
    p, basis = _point(model)
    assert basis.dim > ed._DENSE_DIM
    build, solve, *_ = basis._api()
    H = build(p, basis)
    a, b = solve(H, basis, seed=3), solve(H, basis, seed=3)
    assert np.array_equal(a.state, b.state)
    assert (a.ground_energy, a.gap01, a.parity) == (
        b.ground_energy, b.gap01, b.parity)


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("model", ["single", "double"])
def test_solve_leaves_the_matrix_and_sums_its_duplicates(model, dense):
    """A CSR whose second stored entry, a coupling, is split into two
    exact halves is solved as the canonical matrix, bit for bit, and
    left as it was passed."""
    p, basis = _point(model, dense)
    assert (basis.dim <= ed._DENSE_DIM) == dense
    build, solve, *_ = basis._api()
    H = build(p, basis)
    data = np.insert(H.data, 1, H.data[1] / 2)
    data[2] /= 2
    G = type(H)((data, np.insert(H.indices, 1, H.indices[1]),
                 H.indptr + (np.arange(H.indptr.size) > 0)), shape=H.shape)
    assert not G.has_canonical_format
    arrays = [a.copy() for a in (G.data, G.indices, G.indptr)]
    got, want = solve(G, basis, seed=3), solve(H, basis, seed=3)
    assert not G.has_canonical_format
    for a, b in zip((G.data, G.indices, G.indptr), arrays):
        assert a.tobytes() == b.tobytes()
    assert got.state.tobytes() == want.state.tobytes()
    assert (got.ground_energy, got.gap01, got.parity) == (
        want.ground_energy, want.gap01, want.parity)


def test_readme_pattern_reads_a_shelled_walk_result():
    """The walk at N = 512, lambda_cr accepts a solve on an HP shell; its
    state, read at EDBasis(N, n_max_used) as the README does, gives the
    bits of the sweep row at that point."""
    res = ed.converge_cutoff(DickeParams(1.0, 1.0, 0.5), 512)
    assert res.shell is not None
    basis = ed.EDBasis(512, res.n_max_used)
    assert res.state.size == replace(basis, shell=res.shell).support.size
    cfg = sweeps.SweepConfig.from_dict(dict(
        model="dicke", mode="ed", n_spins=512, coupling_min=0.5,
        coupling_max=0.5, steps=1))
    row = sweeps.sweep_rows(cfg)[0].values
    assert row["n_max_used"] == res.n_max_used
    assert ed.photon_moments_ed(res, basis).hp == row["hp"]
    assert ed.photon_entropy_ed(res, basis) == row["s_vn"]


@pytest.mark.parametrize("model", ["single", "double"])
def test_a_state_is_not_read_on_another_grid_of_its_size(model):
    """A state solved on one grid and read with a basis of another chain
    size but the same dimension raises DomainError, not a reshaped
    answer; so does a basis with fewer photon rows than the state."""
    if model == "single":
        p = DickeParams(1.0, 1.0, 0.4)
        at, other, fewer = ed.EDBasis(3, 7), ed.EDBasis(7, 3), ed.EDBasis(3, 3)
    else:
        p = DoubleDickeParams(1.0, 1.0, 1.0, 0.3, 0.2, 1, 1)
        at, other, fewer = (double_ed.DoubleEDBasis(1, *k)
                            for k in ((1, 7), (3, 3), (1, 3)))
    assert at.dim == other.dim
    build, solve, moments, entropy, _ = at._api()
    res = solve(build(p, at), at)
    assert moments(res, at).hp >= 0.5
    for basis in (other, fewer):
        with pytest.raises(DomainError):
            moments(res, basis)
        with pytest.raises(DomainError):
            entropy(res, basis)


# three rows of the ed-fixed lattice: one chain at N = 384 on its shell,
# two chains at N = 16 on theirs (theta = pi/8, radial index 130), and a
# superradiant N = 128 row on its whole 13,029-state grid; then a
# superradiant sector of 20,689 states (N = 256) and two chains at N = 100,
# whose top Fock slab holds 10,201 states
_R130 = 130 * 0.5 / math.cos(math.pi / 8) / 200
BLAS_ROWS = [
    dict(model="dicke", mode="ed", n_spins=384, n_max=40,
         coupling_min=0.235, coupling_max=0.235, steps=1),
    dict(model="double-dicke", mode="ed", n_spins=16, n_max=40,
         theta=math.pi / 8, r_min=_R130, r_max=_R130, steps=1),
    dict(model="dicke", mode="ed", n_spins=128, n_max=100,
         coupling_min=0.505, coupling_max=0.505, steps=1),
    dict(model="dicke", mode="ed", n_spins=256, n_max=160,
         coupling_min=0.6, coupling_max=0.6, steps=1),
    dict(model="double-dicke", mode="ed", n_spins=100, n_max=8,
         theta=math.pi / 8, r_min=_R130, r_max=_R130, steps=1),
]


@pytest.mark.parametrize("raw", BLAS_ROWS,
                         ids=["single-shell", "double-shell", "single-grid",
                              "single-sector", "double-top-slab"])
def test_ed_row_keeps_off_numpy_blas(monkeypatch, raw):
    """numpy bundles its own OpenBLAS, whose thread pool wakes on a dot of
    about 12,000 elements and an eigvalsh of about 100 rows and then
    competes with scipy's beside ARPACK.  An ED row calls neither
    eigvalsh nor a dot, vdot or norm on more than 10,000 elements, and
    its cells are those of the unpatched row, bit for bit."""
    cfg = sweeps.SweepConfig.from_dict(raw)
    want = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
    seen = []

    def refused(*args, **kwargs):
        seen.append("eigvalsh")
        pytest.fail("numpy.linalg.eigvalsh on an ED row")

    def small(fn):
        def checked(*args, **kwargs):
            sizes = [np.size(a) for a in args]
            if max(sizes) > 10_000:
                seen.append((fn.__name__, sizes))
                pytest.fail(f"numpy.{fn.__name__} on {sizes} elements")
            return fn(*args, **kwargs)
        return checked

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(np, "vdot", small(np.vdot))
    monkeypatch.setattr(np, "dot", small(np.dot))
    monkeypatch.setattr(np.linalg, "norm", small(np.linalg.norm))
    got = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
    assert seen == []
    assert got == want
