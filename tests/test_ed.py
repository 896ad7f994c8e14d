import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import assert_dense_blocks
from hpdicke import ed
from hpdicke.dicke import DickeParams
from hpdicke.ed import (_DENSE_DIM, TOP_ROW_TOL, EDBasis, build_hamiltonian,
                        converge_cutoff, ground_state, parity_diagonal,
                        photon_entropy_ed, photon_moments_ed)
from hpdicke.errors import (BudgetExceeded, CutoffError, CutoffWarning,
                            DomainError)
from hpdicke.gaussian import entropy_from_hp


def test_basis_layout():
    b = EDBasis(4, 6)
    assert b.dim == 7 * 5
    assert b.j == 2.0
    with pytest.raises(CutoffError):
        EDBasis(4, 0)


@pytest.mark.parametrize("state", [(0, 0.4), (0, 1.6), (4, 0.5), (-1, 0.5),
                                   (0.5, 0.5), (0, math.nan)])
def test_basis_index_rejects_states_outside_the_basis(state):
    with pytest.raises(DomainError):
        EDBasis(2, 3).index(*state)


def test_basis_index_layout():
    b = EDBasis(3, 2)
    assert [b.index(n, m) for n in range(3) for m in (-1.5, -0.5, 0.5, 1.5)
            ] == list(range(b.dim))


def test_decoupled_hamiltonian_is_diagonal():
    b = EDBasis(4, 6)
    H = build_hamiltonian(DickeParams(1.0, 1.0, 0.0), b)
    diag = (np.arange(b.n_max + 1)[:, None]
            + np.arange(b.n_spins + 1) - b.j).ravel()
    assert np.array_equal(H.toarray(), np.diag(diag))
    assert H.nnz == np.count_nonzero(diag) < b.dim
    res = ground_state(H, b)
    assert res.ground_energy == pytest.approx(-b.j, abs=1e-13)
    assert photon_moments_ed(res, b).hp == pytest.approx(0.5, abs=1e-13)
    assert photon_entropy_ed(res, b) == pytest.approx(0.0, abs=1e-12)


def _coo_reference(p, basis):
    """The former COO assembly of the Hamiltonian, kept only as an oracle
    for the direct CSR builder; it stores the diagonal's zeros."""
    nm = basis.n_spins + 1
    nn = basis.n_max + 1
    j = basis.j
    g = p.coupling / math.sqrt(basis.n_spins)
    levels = np.arange(nn)
    m_vals = -j + np.arange(nm)
    jp = np.sqrt(np.maximum(j * (j + 1) - m_vals * (m_vals + 1), 0.0))
    jm = np.sqrt(np.maximum(j * (j + 1) - m_vals * (m_vals - 1), 0.0))
    diag = (p.omega * levels[:, None] + p.omega0 * m_vals[None, :]).ravel()
    rows, cols, vals = [np.arange(basis.dim)], [np.arange(basis.dim)], [diag]
    up = np.sqrt(levels[1:])

    def add(dn, dm, amp):
        n_src = levels[:-1] if dn > 0 else levels[1:]
        m_src = np.arange(nm - 1) if dm > 0 else np.arange(1, nm)
        nv, mv = np.meshgrid(n_src, m_src, indexing="ij")
        rows.append(((nv + dn) * nm + (mv + dm)).ravel())
        cols.append((nv * nm + mv).ravel())
        vals.append(amp.ravel())

    if g != 0.0:
        add(+1, +1, g * up[:, None] * jp[None, :-1])
        add(+1, -1, g * up[:, None] * jm[None, 1:])
        add(-1, +1, g * up[:, None] * jp[None, :-1])
        add(-1, -1, g * up[:, None] * jm[None, 1:])
    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim))
    return H.tocsr()


@pytest.mark.parametrize("n_spins", [1, 2, 8, 33, 384])
@pytest.mark.parametrize("n_max", [1, 6, 40])
@pytest.mark.parametrize("omega,omega0", [(1.0, 1.0), (1.3, 0.7)])
@pytest.mark.parametrize("lam", [0.0, 0.45, 1.7])
def test_builder_matches_coo_assembly(n_spins, n_max, omega, omega0, lam):
    p, basis = DickeParams(omega, omega0, lam), EDBasis(n_spins, n_max)
    H = build_hamiltonian(p, basis)
    ref = _coo_reference(p, basis)
    ref.eliminate_zeros()
    assert np.array_equal(H.indptr, ref.indptr)
    assert np.array_equal(H.indices, ref.indices)
    assert np.array_equal(H.data, ref.data)
    assert H.has_canonical_format
    assert not np.any(H.data == 0)
    assert H.nnz <= basis.max_nnz
    if basis.dim <= _DENSE_DIM:
        assert_dense_blocks(H, basis)


def test_dense_blocks_of_any_csr_are_scipys():
    # a CSR with duplicate entries, (0, 0) and (5, 2), and one joining
    # the two parity sectors, (0, 1): the duplicates are summed and the
    # joining entry left out, as H[idx][:, idx].toarray() does
    basis = EDBasis(3, 5)
    H = build_hamiltonian(DickeParams(1.0, 1.0, 0.7), basis)
    rows = [list(zip(H.indices[a:b], H.data[a:b]))
            for a, b in zip(H.indptr[:-1], H.indptr[1:])]
    rows[0] += [(0, 0.25), (1, -1.5)]
    rows[5] += [(2, 2.0)]
    G = sp.csr_matrix(([v for r in rows for _, v in r],
                       [c for r in rows for c, _ in r],
                       np.cumsum([0] + [len(r) for r in rows])),
                      shape=H.shape)
    assert not G.has_canonical_format
    parity = basis.parity
    sectors = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    want = [G[idx][:, idx].toarray() for idx in sectors]
    got = list(ed._dense_blocks(G, parity, sectors))
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]
    assert got[0][2, 1] == H[5, 2] + 2.0  # states 5 and 2 are even


def test_exact_symmetry_and_parity_commutation():
    b = EDBasis(4, 20)
    H = build_hamiltonian(DickeParams(1.0, 1.0, 0.5), b)
    assert np.abs((H - H.T).toarray()).max() == 0.0
    pi = parity_diagonal(b)
    comm = H.multiply(pi[None, :]) - H.multiply(pi[:, None])
    assert abs(comm).max() == 0.0
    assert int(np.diff(H.indptr).max()) <= 5


@pytest.mark.parametrize("n_spins,n_max,lam", [(1, 40, 0.2), (8, 60, 0.45)])
def test_against_dense_solver(n_spins, n_max, lam):
    basis = EDBasis(n_spins, n_max)
    H = build_hamiltonian(DickeParams(1.0, 1.0, lam), basis)
    res = ground_state(H, basis)
    w = np.linalg.eigvalsh(H.toarray())
    assert res.ground_energy == pytest.approx(w[0], abs=1e-10)
    assert res.gap01 == pytest.approx(w[1] - w[0], abs=1e-9)
    assert res.cutoff_converged


def test_iterative_path_matches_dense_and_is_deterministic():
    basis = EDBasis(30, 44)  # large enough to force the sparse solver
    H = build_hamiltonian(DickeParams(1.0, 1.0, 0.45), basis)
    res = ground_state(H, basis)
    w = np.linalg.eigvalsh(H.toarray())
    assert res.ground_energy == pytest.approx(w[0], abs=1e-9)
    res2 = ground_state(H, basis)
    assert np.array_equal(res.state, res2.state)


def test_ground_energy_variational_in_cutoff():
    p = DickeParams(1.0, 1.0, 0.45)
    energies = []
    for n_max in (10, 14, 20, 30):
        basis = EDBasis(8, n_max)
        energies.append(ground_state(build_hamiltonian(p, basis),
                                     basis).ground_energy)
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))


def test_photon_entropy_tracks_gaussian_identity():
    basis = EDBasis(8, 40)
    res = ground_state(build_hamiltonian(DickeParams(1.0, 1.0, 0.3), basis),
                       basis)
    mom = photon_moments_ed(res, basis)
    s_direct = photon_entropy_ed(res, basis)
    # finite N deviates from the Gaussian value at the percent level
    assert s_direct == pytest.approx(entropy_from_hp(mom.hp).s_vn, abs=5e-2)


def test_parity_eigenstate_has_no_first_moment():
    basis = EDBasis(6, 30)
    res = ground_state(build_hamiltonian(DickeParams(1.0, 1.0, 0.4), basis),
                       basis)
    mom = photon_moments_ed(res, basis)
    assert abs(mom.mean_a) < 1e-10
    assert res.parity in (1.0, -1.0) or abs(abs(res.parity) - 1.0) < 1e-9


def test_deep_superradiant_cat_pair():
    basis = EDBasis(16, 120)
    res = ground_state(build_hamiltonian(DickeParams(1.0, 1.0, 1.0), basis),
                       basis)
    assert res.gap01 < 1e-6
    assert res.parity == pytest.approx(1.0, abs=1e-6)


def test_large_n_superradiant_cat_pair_is_a_parity_eigenstate():
    # sparse solve deep in the cat regime: the two sector minima agree to
    # round-off and the even member is returned, with hp independent of
    # the cutoff
    p = DickeParams(1.0, 1.0, 0.6)
    hps = []
    for n_max in (160, 220):
        basis = EDBasis(256, n_max)
        res = ground_state(build_hamiltonian(p, basis), basis)
        state = res.state.reshape(n_max + 1, -1)
        assert abs(res.parity) == 1.0
        assert float(np.dot(state[-1], state[-1])) < TOP_ROW_TOL
        assert res.cutoff_converged
        hps.append(photon_moments_ed(res, basis).hp)
    assert hps[0] == pytest.approx(6.543728, abs=1e-6)
    assert abs(hps[0] - hps[1]) < 1e-8


def test_converge_cutoff_minimal_for_decoupled():
    n_max = converge_cutoff(DickeParams(1.0, 1.0, 0.0), 4).n_max_used
    assert n_max <= 8


def test_converge_cutoff_is_self_consistent():
    p = DickeParams(1.0, 1.0, 0.5)
    n_max = converge_cutoff(p, 12, tol=1e-8).n_max_used
    basis_a = EDBasis(12, n_max)
    basis_b = EDBasis(12, math.ceil(1.5 * n_max))
    hp_a = photon_moments_ed(ground_state(build_hamiltonian(p, basis_a),
                                          basis_a), basis_a).hp
    hp_b = photon_moments_ed(ground_state(build_hamiltonian(p, basis_b),
                                          basis_b), basis_b).hp
    assert abs(hp_a - hp_b) < 1e-6


def test_budget_enforced():
    with pytest.raises(BudgetExceeded) as err:
        converge_cutoff(DickeParams(1.0, 1.0, 3.0), 16, budget_nnz=10_000)
    assert err.value.needed > err.value.budget


def test_cutoff_warning_on_tight_basis():
    basis = EDBasis(8, 6)
    H = build_hamiltonian(DickeParams(1.0, 1.0, 1.5), basis)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ground_state(H, basis)
    assert not res.cutoff_converged
    assert any(issubclass(w.category, CutoffWarning) for w in caught)


def test_converge_cutoff_returns_its_accepted_solve():
    p = DickeParams(1.0, 1.0, 1.0)
    res = converge_cutoff(p, 16)
    basis = EDBasis(16, res.n_max_used)
    assert basis.dim > _DENSE_DIM  # the accepted solve is an ARPACK one
    fresh = ground_state(build_hamiltonian(p, basis), basis)
    assert np.array_equal(res.state, fresh.state)
    assert res.ground_energy == fresh.ground_energy
    assert res.gap01 == fresh.gap01
    assert res.cutoff_converged


def test_cutoff_searches_are_independent():
    p = DickeParams(1.0, 1.0, 0.5)
    converge_cutoff(p, 16)
    with pytest.raises(BudgetExceeded):
        converge_cutoff(p, 16, budget_nnz=10)


def _walked(monkeypatch):
    """(n_max, cutoff_converged) of each ground-state solve, and n_max of
    each Hamiltonian build, in order; a probe is a build with no solve."""
    solved, built = [], []

    def solving(H, basis, *args, **kwargs):
        res = ground_state(H, basis, *args, **kwargs)
        solved.append((basis.n_max, res.cutoff_converged))
        return res

    def building(p, basis):
        built.append(basis.n_max)
        return build_hamiltonian(p, basis)

    monkeypatch.setattr("hpdicke.ed.ground_state", solving)
    monkeypatch.setattr("hpdicke.ed.build_hamiltonian", building)
    return solved, built


def test_unconverged_cutoff_skips_its_probe(monkeypatch):
    # N = 8, lambda = 0.46 has the halving grid 1, 2, 4, 9, 19 below
    # n0 = 19 and starts at 9, the highest point at most n0/2 (all are
    # dense).  The solve at 9 is not cutoff_converged, so its probe 12
    # is not even built and the walk goes up; 19 is converged and
    # confirmed by an inverse-iteration step at its probe 24, which
    # builds H there but solves no eigenproblem.
    solved, built = _walked(monkeypatch)
    res = converge_cutoff(DickeParams(1.0, 1.0, 0.46), 8)
    assert res.n_max_used == 19
    assert solved == [(9, False), (19, True)]
    assert built == [9, 19, 24]


def test_accepted_cutoff_needs_no_confirmation_above_it(monkeypatch):
    # N = 16, lambda = 0.5 from n0 = 32 starts at 16: it passes its own
    # top-level test and its probe 20 confirms hp, so the walk goes down
    # to 8, which fails its own test; 16 is returned without building
    # the grid point 32 or its probe 40
    solved, built = _walked(monkeypatch)
    res = converge_cutoff(DickeParams(1.0, 1.0, 0.5), 16)
    assert res.n_max_used == 16
    assert solved == [(16, True), (8, False)]
    assert built == [16, 20, 8]


def test_large_critical_walk_starts_dense(monkeypatch):
    # N = 256, lambda = 0.5: n0 = 320, and of the grid 1, 2, 5, ..., 160
    # only 1 and 2 have dense bases, so the walk starts at 2 and goes up;
    # 40 is the first converged cutoff and its probe 50 the only build
    # above it
    solved, built = _walked(monkeypatch)
    res = converge_cutoff(DickeParams(1.0, 1.0, 0.5), 256)
    assert res.n_max_used == 40
    assert solved == [(2, False), (5, False), (10, False), (20, False),
                      (40, True)]
    assert built == [2, 5, 10, 20, 40, 50]
    assert EDBasis(256, 2).dim <= _DENSE_DIM < EDBasis(256, 5).dim


# accepted cutoffs, frozen before the walk dropped its second
# confirmation at the next grid point up; (N, lambda): n_max_used
WALK_CUTOFFS = {
    (4, 0.2): 9, (4, 0.5): 12, (4, 0.75): 17, (4, 1.0): 24,
    (8, 0.2): 6, (8, 0.5): 20, (8, 0.75): 30, (8, 1.0): 44,
    (16, 0.2): 9, (16, 0.5): 16, (16, 0.75): 52, (16, 1.0): 80,
    (32, 0.2): 7, (32, 0.5): 27, (32, 0.75): 95, (32, 1.0): 151,
}


def test_accepted_cutoffs_are_frozen():
    got = {(n, lam): converge_cutoff(DickeParams(1.0, 1.0, lam),
                                     n).n_max_used
           for n, lam in WALK_CUTOFFS}
    assert got == WALK_CUTOFFS
