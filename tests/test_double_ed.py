import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import assert_dense_blocks
from hpdicke import ed as sed
from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import (DoubleEDBasis, build_double_hamiltonian,
                               converge_cutoff_double, double_ed,
                               double_ground_state, double_parities,
                               photon_entropy_double, photon_moments_double,
                               symmetry_residuals)
from hpdicke.errors import (BudgetExceeded, CutoffError, CutoffWarning,
                            DomainError)


def P(om, wc, wi, lc, li, N):
    return DoubleDickeParams(omega_cav=om, omega0_c=wc, omega0_i=wi,
                             lambda_c=lc, lambda_i=li, n_c=N, n_i=N)


def test_decoupled_limit():
    res, s, rep = double_ed(P(1.0, 1.0, 1.0, 0.0, 0.0, 4), n_max=6)
    assert res.ground_energy == pytest.approx(-4.0, abs=1e-13)
    assert rep.hp == pytest.approx(0.5, abs=1e-13)
    assert abs(s) < 1e-12
    assert res.gap01 > 0.9


@pytest.mark.parametrize("dims,error", [
    ((2.5, 2, 8), DomainError), ((2, 2.0, 8), DomainError),
    ((0, 2, 8), DomainError), ((2, -1, 8), DomainError),
    ((2, 2, 8.5), CutoffError), ((2, 2, 8.0), CutoffError),
    ((2, 2, 0), CutoffError), ((2, 2, "8"), CutoffError),
])
def test_basis_rejects_non_integers(dims, error):
    with pytest.raises(error):
        DoubleEDBasis(*dims)


@pytest.mark.parametrize("state", [(4, 0, 0), (0, 3, 0), (0, 0, 3),
                                   (0, -1, 0), (-1, 0, 0), (0, 0, -1),
                                   (0.5, 0, 0), (0, 0.5, 0), (0, 0, 1.5)])
def test_basis_index_rejects_states_outside_the_basis(state):
    with pytest.raises(DomainError):
        DoubleEDBasis(2, 2, 3).index(*state)


def test_exact_hermiticity_and_symmetries():
    basis = DoubleEDBasis(5, 5, 7)
    H = build_double_hamiltonian(P(1.1, 0.9, 1.3, 0.37, 0.52, 5), basis)
    D = H - H.conj().T
    assert D.nnz == 0 or np.abs(D.data).max() == 0.0
    assert symmetry_residuals(H, basis) == (0.0, 0.0, 0.0)
    assert int(np.diff(H.indptr).max()) <= 9


def _brute_force(p, basis):
    # direct loop over basis states, written independently of the
    # kron-product assembly
    dim = basis.dim
    Hd = np.zeros((dim, dim), dtype=complex)
    jc, ji = basis.n_c / 2.0, basis.n_i / 2.0
    gc = p.lambda_c / math.sqrt(basis.n_c)
    gi = p.lambda_i / math.sqrt(basis.n_i)

    def lad(j, m):
        return math.sqrt(max((j - m) * (j + m + 1.0), 0.0))

    for n in range(basis.n_max + 1):
        for a in range(basis.n_c + 1):
            for b in range(basis.n_i + 1):
                i = basis.index(n, a, b)
                mc, mi = a - jc, b - ji
                Hd[i, i] = (p.omega_cav * n + p.omega0_c * mc
                            + p.omega0_i * mi)
                for dn, amp_n in ((1, math.sqrt(n + 1)), (-1, math.sqrt(n))):
                    if not 0 <= n + dn <= basis.n_max:
                        continue
                    for da, amp_a in ((1, lad(jc, mc)), (-1, lad(jc, mc - 1))):
                        if 0 <= a + da <= basis.n_c:
                            Hd[basis.index(n + dn, a + da, b), i] += \
                                gc * amp_n * amp_a
                    amp_ph = -1j * amp_n if dn == 1 else 1j * amp_n
                    for db, amp_b in ((1, lad(ji, mi)), (-1, lad(ji, mi - 1))):
                        if 0 <= b + db <= basis.n_i:
                            Hd[basis.index(n + dn, a, b + db), i] += \
                                gi * amp_ph * amp_b
    return Hd


def _gauged(H, basis):
    """D^dag H D, dense, for a physical matrix H: the real matrix the
    builder writes, with D = 1 where U_C = +1 and i where U_C = -1."""
    d = np.where(double_parities(basis)[0] > 0, 1.0 + 0j, 1j)
    H = H.toarray() if sp.issparse(H) else H
    return d.conj()[:, None] * H * d[None, :]


@pytest.mark.parametrize("args", [(1.0, 1.0, 1.0, 0.3, 0.4, 2),
                                  (1.3, 0.7, 1.9, 0.51, 0.22, 3)])
def test_assembly_against_brute_force(args):
    p = P(*args)
    basis = DoubleEDBasis(p.n_c, p.n_i, 5)
    H = build_double_hamiltonian(p, basis)
    G = _gauged(_brute_force(p, basis), basis)
    assert not np.any(G.imag)
    assert np.abs(H.toarray() - G.real).max() < 1e-14


def _kron_reference(p, basis):
    """The former assembly from kron products of the photon and spin
    operators, kept only as an oracle for the direct CSR builder."""
    def spin_ops(n_spins):
        j = n_spins / 2.0
        m = np.arange(n_spins + 1) - j
        lad = np.sqrt(np.clip((j - m[:-1]) * (j + m[:-1] + 1.0), 0.0, None))
        return sp.diags(m), sp.diags([lad, lad], offsets=[-1, 1])

    levels = np.arange(basis.n_max + 1)
    nph = sp.diags(levels.astype(float))
    root = np.sqrt(levels[1:].astype(float))
    x2 = sp.diags([root, root], offsets=[-1, 1])
    ip2 = sp.diags([-1j * root, 1j * root], offsets=[-1, 1])
    jz_c, jx2_c = spin_ops(basis.n_c)
    jz_i, jx2_i = spin_ops(basis.n_i)
    ic = sp.identity(basis.n_c + 1, format="csr")
    ii = sp.identity(basis.n_i + 1, format="csr")
    iph = sp.identity(basis.n_max + 1, format="csr")
    gc = p.lambda_c / math.sqrt(basis.n_c)
    gi = p.lambda_i / math.sqrt(basis.n_i)
    H = (p.omega_cav * sp.kron(sp.kron(nph, ic), ii)
         + p.omega0_c * sp.kron(sp.kron(iph, jz_c), ii)
         + p.omega0_i * sp.kron(sp.kron(iph, ic), jz_i)).astype(complex)
    if gc != 0.0:
        H = H + gc * sp.kron(sp.kron(x2, jx2_c), ii)
    if gi != 0.0:
        H = H + gi * sp.kron(sp.kron(ip2, ic), jx2_i)
    return sp.csr_matrix(H)


def _params(om, wc, wi, lc, li):
    return DoubleDickeParams(omega_cav=om, omega0_c=wc, omega0_i=wi,
                             lambda_c=lc, lambda_i=li)


@pytest.mark.parametrize("args,dims", [
    ((1.0, 1.0, 1.0, 0.3, 0.4), (2, 2, 5)),
    ((1.1, 0.9, 1.3, 0.37, 0.52), (3, 5, 7)),
    ((1.3, 0.7, 1.9, 0.0, 0.61), (4, 2, 6)),
    ((0.8, 1.2, 0.6, 0.45, 0.0), (2, 6, 9)),
    ((1.0, 1.0, 1.0, 0.5, 0.5), (3, 2, 1)),
    ((1.0, 2.5, 0.4, 0.9, 1.4), (6, 6, 20)),
    ((1.0, 1.0, 1.0, 0.0, 0.0), (4, 4, 3)),
])
def test_builder_matches_kron_assembly(args, dims):
    p, basis = _params(*args), DoubleEDBasis(*dims)
    H = build_double_hamiltonian(p, basis)
    ref = _kron_reference(p, basis)
    G = _gauged(ref, basis)
    assert not np.any(G.imag)
    assert np.array_equal(G.real, H.toarray())
    assert H.nnz == ref.nnz <= basis.max_nnz
    assert isinstance(H, sp.csr_matrix) and H.dtype == np.float64
    assert H.has_canonical_format
    assert not np.any(H.data == 0)
    assert symmetry_residuals(H, basis) == (0.0, 0.0, 0.0)
    assert_dense_blocks(H, basis)


@pytest.mark.parametrize("dims", [(1, 1, 4), (1, 3, 5), (3, 1, 1)])
def test_builder_matches_kron_assembly_for_a_single_spin(dims):
    # with one spin on chain I kron takes its block path, which stores the
    # zeros of the 2x2 spin blocks; the nonzero entries are the same
    p, basis = _params(1.1, 0.9, 1.3, 0.37, 0.52), DoubleEDBasis(*dims)
    H = build_double_hamiltonian(p, basis)
    ref = _kron_reference(p, basis)
    ref.eliminate_zeros()
    G = _gauged(ref, basis)
    assert not np.any(G.imag)
    assert np.array_equal(G.real, H.toarray())
    assert H.nnz == ref.nnz <= basis.max_nnz
    assert symmetry_residuals(H, basis) == (0.0, 0.0, 0.0)
    assert_dense_blocks(H, basis)


def test_symmetry_residuals_catch_a_parity_breaking_entry():
    basis = DoubleEDBasis(3, 2, 6)
    H = build_double_hamiltonian(_params(1.1, 0.9, 1.3, 0.37, 0.52),
                                 basis).tolil()
    u_c, u_i = double_parities(basis)
    # the ground slab |0, 0, 0> and |0, 0, 1>, of opposite total parity
    i, j = basis.index(0, 0, 0), basis.index(0, 0, 1)
    assert u_c[i] * u_i[i] == -u_c[j] * u_i[j]
    H[i, j] = H[j, i] = 0.5
    res = symmetry_residuals(H.tocsr(), basis)
    assert res[2] > 0.0
    assert max(res[:2]) > 0.0


def test_iterative_matches_dense_and_is_deterministic():
    basis = DoubleEDBasis(6, 6, 20)  # above the dense threshold
    H = build_double_hamiltonian(P(1.0, 1.0, 1.0, 0.5, 0.5, 6), basis)
    res = double_ground_state(H, basis)
    evals = np.linalg.eigvalsh(H.toarray())
    assert abs(res.ground_energy - evals[0]) < 1e-10
    res2 = double_ground_state(H, basis)
    assert res2.ground_energy == res.ground_energy
    assert np.array_equal(res2.state, res.state)


def _sector_minima(H, basis):
    """Lowest eigenvalue of the complex matrix in each total-parity
    sector, read off its full dense spectrum: (even, odd)."""
    u_c, u_i = double_parities(basis)
    w, v = np.linalg.eigh(H.toarray())
    par = np.einsum("ij,i,ij->j", v.conj(), u_c * u_i, v).real
    return w, w[par > 0].min(), w[par < 0].min()


@pytest.mark.parametrize("args", [(1.1, 0.9, 1.3, 0.37, 0.52, 3),
                                  (1.0, 1.0, 1.0, 0.6, 0.7, 2)])
def test_real_gauge_is_exact_and_keeps_the_sector_minima(args):
    p = P(*args)
    basis = DoubleEDBasis(p.n_c, p.n_i, 12)
    H = build_double_hamiltonian(p, basis)
    ref = _kron_reference(p, basis)
    G = _gauged(ref, basis)
    assert not np.any(G.imag)
    assert np.array_equal(G.real, H.toarray())
    w, e_even, e_odd = _sector_minima(ref, basis)
    res = double_ground_state(H, basis)
    other = res.ground_energy + res.gap01
    want = (e_even, e_odd) if res.parity > 0 else (e_odd, e_even)
    assert res.ground_energy == pytest.approx(w[0], abs=1e-10)
    assert (res.ground_energy, other) == pytest.approx(want, abs=1e-10)


def test_odd_parity_ground_state():
    r, th = 1.2, math.pi / 4
    p = P(1.0, 1.0, 1.0, r * math.cos(th), r * math.sin(th), 1)
    basis = DoubleEDBasis(1, 1, 40)
    H = build_double_hamiltonian(p, basis)
    res = double_ground_state(H, basis)
    w, e_even, e_odd = _sector_minima(H, basis)
    assert res.parity == -1.0
    assert res.ground_energy == pytest.approx(w[0], abs=1e-10)
    assert res.gap01 == pytest.approx(e_even - e_odd, abs=1e-10)
    assert e_odd - e_even == pytest.approx(-0.053, abs=1e-3)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_normal_phase_gap_is_the_first_excitation(N):
    # below both critical lines the first excited state has the other
    # total parity, so the sector splitting is the spectral gap
    for a in (0, 4, 8):
        th = a * math.pi / 16
        r_cr = 0.5 / max(math.cos(th), math.sin(th))
        for frac in (0.5, 0.9):
            r = frac * r_cr
            p = P(1.0, 1.0, 1.0, r * math.cos(th), r * math.sin(th), N)
            basis = DoubleEDBasis(N, N, 20)
            H = build_double_hamiltonian(p, basis)
            w = np.linalg.eigvalsh(H.toarray())
            res = double_ground_state(H, basis)
            assert res.parity == 1.0
            assert res.gap01 == pytest.approx(w[1] - w[0], abs=1e-9)


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_single_chain_reduction(lam):
    # chain I sits in its ground slab: energy shifts by -N/2, photon
    # observables match the single-chain solver
    N, n_max = 4, 30
    pd_basis = DoubleEDBasis(N, N, n_max)
    H = build_double_hamiltonian(P(1.0, 1.0, 1.0, lam, 0.0, N), pd_basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffWarning)
        resd = double_ground_state(H, pd_basis)
        sb = sed.EDBasis(n_spins=N, n_max=n_max)
        ress = sed.ground_state(sed.build_hamiltonian(
            DickeParams(omega=1.0, omega0=1.0, coupling=lam), sb), sb)
        hp_d = photon_moments_double(resd, pd_basis).hp
        hp_s = sed.photon_moments_ed(ress, sb).hp
        s_d = photon_entropy_double(resd, pd_basis)
        s_s = sed.photon_entropy_ed(ress, sb)
    assert abs(resd.ground_energy - (ress.ground_energy - N / 2.0)) < 1e-9
    assert abs(hp_d - hp_s) < 1e-9
    assert abs(s_d - s_s) < 1e-8


def test_chain_swap_duality():
    _, s1, r1 = double_ed(P(1.0, 1.0, 1.0, 0.35, 0.52, 5), n_max=24)
    _, s2, r2 = double_ed(P(1.0, 1.0, 1.0, 0.52, 0.35, 5), n_max=24)
    assert abs(r1.dx - r2.dp) < 1e-9
    assert abs(r1.dp - r2.dx) < 1e-9
    assert abs(r1.hp - r2.hp) < 1e-9
    assert abs(s1 - s2) < 1e-8


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
def test_cutoff_tolerance_must_be_positive(tol):
    with pytest.raises(DomainError):
        converge_cutoff_double(P(1.0, 1.0, 1.0, 0.3, 0.3, 2), tol=tol,
                               budget_nnz=20_000)


def test_budget_enforced():
    with pytest.raises(BudgetExceeded) as err:
        double_ed(P(1, 1, 1, 0.5, 0.5, 8), n_max=50, budget_nnz=10_000)
    assert err.value.needed > err.value.budget


def test_cutoff_warning_on_tight_basis():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res, _, _ = double_ed(P(1, 1, 1, 0.9, 0.9, 6), n_max=4)
    assert any(isinstance(w.message, CutoffWarning) for w in caught)
    assert not res.cutoff_converged


def test_converge_cutoff_double_returns_its_accepted_solve():
    p = P(1.0, 1.0, 1.0, 0.5, 0.5, 4)
    res = converge_cutoff_double(p)
    basis = DoubleEDBasis(4, 4, res.n_max_used)
    fresh = double_ground_state(build_double_hamiltonian(p, basis), basis)
    assert np.array_equal(res.state, fresh.state)
    assert res.ground_energy == fresh.ground_energy
    assert res.gap01 == fresh.gap01


def test_converge_cutoff_double_accepts_only_converged():
    # N = 2 on theta = pi/8 at lambda_C = 1/4: hp at n_max = 4 agrees with
    # n_max = 5 to 1e-8 while the top Fock slab still holds 2.4e-7
    p = P(1.0, 1.0, 1.0, 0.25, 0.25 * math.tan(math.pi / 8), 2)
    res = converge_cutoff_double(p)
    assert res.cutoff_converged
    top = res.state.reshape(res.n_max_used + 1, -1)[-1]
    assert np.vdot(top, top).real < sed.TOP_ROW_TOL


# accepted two-chain cutoffs, frozen before the walk dropped its second
# confirmation; (N, r, a) on the ray theta = a pi / 16: n_max_used
WALK_CUTOFFS = {(2, 0.3, 4): 8, (3, 0.5, 8): 10, (4, 0.8, 2): 17}


def test_accepted_cutoffs_are_frozen():
    got = {}
    for n, r, a in WALK_CUTOFFS:
        th = a * math.pi / 16
        p = P(1.0, 1.0, 1.0, r * math.cos(th), r * math.sin(th), n)
        got[n, r, a] = converge_cutoff_double(p).n_max_used
    assert got == WALK_CUTOFFS


# entanglement growth along the boundary of the imaginary-coupling phase,
# sampled where only that coupling is critical
LINE_SIZES = (4, 8, 16, 32, 64)
LINE_S = {4: 0.64572982, 8: 0.75021323, 16: 0.86213653,
          32: 0.98178732, 64: 1.10882131}


@pytest.fixture(scope="module")
def critical_line_table():
    lam_i = 0.5
    lam_c = 0.5 / math.tan(5 * math.pi / 16)
    table = {}
    for n in LINE_SIZES:
        p = P(1.0, 1.0, 1.0, lam_c, lam_i, n)
        cut = converge_cutoff_double(p, tol=1e-8).n_max_used
        _, s, _ = double_ed(p, n_max=cut)
        table[n] = s
    return table


def test_critical_line_entropies_reproduce(critical_line_table):
    for n in LINE_SIZES:
        assert critical_line_table[n] == pytest.approx(LINE_S[n], abs=1e-6)


@pytest.mark.xfail(strict=True, reason="plain S vs log2 N slope at N <= 64 "
                   "sits below the asymptotic band; see the corrected fit")
def test_critical_line_entropy_slope_plain(critical_line_table):
    xs = np.log2(np.array(LINE_SIZES, dtype=float))
    ys = np.array([critical_line_table[n] for n in LINE_SIZES])
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 0.115776) < 1e-4
    assert abs(slope - 1 / 6) < 0.05


def test_critical_line_entropy_slope_corrected(critical_line_table):
    # adding an N^(-1/3) finite-size term pulls the leading coefficient
    # into the asymptotic band
    ns = np.array(LINE_SIZES, dtype=float)
    ys = np.array([critical_line_table[n] for n in LINE_SIZES])
    A = np.vstack([np.log2(ns), ns ** (-1 / 3), np.ones_like(ns)]).T
    e_corr = np.linalg.lstsq(A, ys, rcond=None)[0][0]
    assert e_corr == pytest.approx(0.148587, abs=1e-4)
    assert abs(e_corr - 1 / 6) < 0.05
