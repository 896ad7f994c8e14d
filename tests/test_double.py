import math

import numpy as np
import pytest

from conftest import fail_krein_rows
from hpdicke import dicke, double
from hpdicke.double import (DoubleDickeParams, DoublePhase,
                            _double_thermo_grid, build_double_quadratic_form,
                            classify_double_phase, double_gaps,
                            double_point_hp, entropy_double, hp_double,
                            lower_polariton, mean_field, soft_mode_count,
                            solve_double_thermo)
from hpdicke.errors import (BranchError, CriticalPointDivergence,
                            GaplessError, RegimeError)
from hpdicke.fits import fit_critical_exponent
from hpdicke.gaussian import (bogoliubov_gaps, entropy_from_hp, form_matrix,
                              heisenberg_product, symplectic_diagonalize)

SZ = np.diag([1.0, 1, 1, -1, -1, -1])


def P(om, wc, wi, lc, li):
    return DoubleDickeParams(omega_cav=om, omega0_c=wc, omega0_i=wi,
                             lambda_c=lc, lambda_i=li)


class TestPhaseDiagram:
    def test_quadrants(self):
        assert classify_double_phase(P(1, 1, 1, 0.2, 0.3)).phase \
            is DoublePhase.NORMAL
        assert classify_double_phase(P(1, 1, 1, 0.8, 0.3)).phase \
            is DoublePhase.SUPERRADIANT_REAL
        assert classify_double_phase(P(1, 1, 1, 0.2, 0.9)).phase \
            is DoublePhase.SUPERRADIANT_IMAG
        assert classify_double_phase(P(1, 1, 1, 0.8, 0.9)).phase \
            is DoublePhase.SUPERRADIANT_DOUBLE

    def test_boundary_flags(self):
        info = classify_double_phase(P(1, 1, 1, 0.5, 0.5))
        assert info.phase is DoublePhase.SUPERRADIANT_DOUBLE
        assert info.critical_c and info.critical_i
        assert info.degeneracy == 4
        info = classify_double_phase(P(1, 1, 1, 0.5, 0.2))
        assert info.phase is DoublePhase.SUPERRADIANT_REAL
        assert info.critical_c and not info.critical_i

    def test_critical_couplings(self):
        info = classify_double_phase(P(1, 2.0, 0.5, 0.2, 0.1))
        assert info.lambda_c_cr == math.sqrt(2.0) / 2
        assert info.lambda_i_cr == math.sqrt(0.5) / 2


class TestMeanField:
    def test_local_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            om, wc, wi = rng.uniform(0.4, 2.5, 3)
            lc = rng.uniform(0, 1.6) * math.sqrt(om * wc) / 2
            li = rng.uniform(0, 1.6) * math.sqrt(om * wi) / 2
            mf = mean_field(P(om, wc, wi, lc, li))

            def f(u, v, xc, xi):
                sc = math.sqrt(1 - xc * xc)
                si = math.sqrt(1 - xi * xi)
                return (om * (u * u + v * v)
                        + wc * (xc * xc - .5) + wi * (xi * xi - .5)
                        + 4 * lc * u * xc * sc - 4 * li * v * xi * si)

            base = f(mf.u, mf.v, mf.x_c, mf.x_i)
            assert abs(base - mf.energy) < 1e-12
            for _ in range(10):
                du, dv, dxc, dxi = rng.uniform(-0.05, 0.05, 4)
                xc2, xi2 = np.clip([mf.x_c + dxc, mf.x_i + dxi], -0.99, 0.99)
                assert f(mf.u + du, mf.v + dv, xc2, xi2) >= base - 1e-9

    def test_strong_coupling_rows_are_stationary(self):
        # judged against an absolute tolerance, the closed-form minimum
        # failed from lambda_C ~ 330 on
        lam_c = np.geomspace(1.0, 5000.0, 300)
        grid = _double_thermo_grid(1.0, 1.0, 1.0, lam_c, [0.1] * len(lam_c))
        assert grid.errors == [None] * len(lam_c)
        for lc, hp in zip(lam_c.tolist(), grid.hp):
            assert math.isfinite(hp)
            assert hp == hp_double(P(1.0, 1.0, 1.0, lc, 0.1)).hp

    def test_branch_signs(self):
        mfm = mean_field(P(1, 1, 1, 0.8, 0.3), branch=(-1, 0))
        mfp = mean_field(P(1, 1, 1, 0.8, 0.3), branch=(+1, 0))
        assert mfm.x_c == -mfp.x_c
        assert mfm.u == -mfp.u
        assert mfm.x_c < 0 < mfm.u

    @pytest.mark.parametrize("bad", [(1, 1), (0, 1), (2, 0)])
    def test_branch_rejected_on_unbroken_direction(self, bad):
        with pytest.raises(BranchError):
            mean_field(P(1, 1, 1, 0.8, 0.3), branch=bad)

    def test_branch_rejected_in_normal_phase(self):
        with pytest.raises(BranchError):
            mean_field(P(1, 1, 1, 0.2, 0.3), branch=(1, 0))


class TestSingleChainReduction:
    """With the I chain decoupled the model must reproduce the single-chain
    results identically, with one extra flat mode at omega0_i."""

    CASES = [(1, 1, 0.2), (1, 1, 0.45), (1, 1, 0.7),
             (1.3, 0.6, 0.2), (0.8, 1.7, 0.9), (2.0, 0.5, 0.51)]

    @pytest.mark.parametrize("om,wc,lc", CASES)
    def test_blocks_gaps_and_observables(self, om, wc, lc):
        for wi in (0.33, 1.0, 2.7):
            pd = P(om, wc, wi, lc, 0.0)
            ps = dicke.DickeParams(omega=om, omega0=wc, coupling=lc)
            fd = build_double_quadratic_form(pd)
            fs = dicke.dicke_quadratic_form(ps)
            assert np.abs(fd.A[np.ix_([0, 1], [0, 1])] - fs.A).max() < 1e-12
            assert np.abs(fd.B[np.ix_([0, 1], [0, 1])] - fs.B).max() < 1e-12
            assert np.abs(fd.A[2, :2]).max() < 1e-12
            assert abs(fd.A[2, 2] - wi) < 1e-14
            assert abs(fd.B[2, 2]) < 1e-14

            gd = double_gaps(pd)
            ss = dicke.solve_thermo(ps)
            gs = sorted([ss.gap_minus, ss.gap_plus, wi])
            assert max(abs(a - b) for a, b in zip(gd, gs)) < 1e-10

            if not dicke.classify_phase(ps).critical:
                rd = hp_double(pd)
                rs = dicke.hp_thermo(ps)
                assert abs(rd.hp - rs.hp) < 1e-10
                assert abs(rd.dx - rs.dx) < 1e-10
                assert abs(rd.dp - rs.dp) < 1e-10
                assert abs(entropy_double(pd).s_vn
                           - dicke.entropy_thermo(ps).s_vn) < 1e-10
                mf = mean_field(pd)
                assert abs(abs(mf.u) - abs(ss.alpha_coh)) < 1e-14


def test_chain_swap_duality():
    # swapping the two chains exchanges the quadratures
    rng = np.random.default_rng(11)
    done = 0
    while done < 10:
        om = rng.uniform(0.5, 2.0)
        wc, wi = rng.uniform(0.4, 2.0, 2)
        lc = rng.uniform(0.05, 1.5) * math.sqrt(om * wc) / 2
        li = rng.uniform(0.05, 1.5) * math.sqrt(om * wi) / 2
        if abs(lc / (math.sqrt(om * wc) / 2) - 1) < 5e-3:
            continue
        if abs(li / (math.sqrt(om * wi) / 2) - 1) < 5e-3:
            continue
        r1 = hp_double(P(om, wc, wi, lc, li))
        r2 = hp_double(P(om, wi, wc, li, lc))
        assert abs(r1.dx - r2.dp) < 1e-9
        assert abs(r1.dp - r2.dx) < 1e-9
        assert abs(r1.hp - r2.hp) < 1e-9
        assert r1.zeta == 0.0 and r1.phi == 0.0
        s1 = entropy_double(P(om, wc, wi, lc, li))
        s2 = entropy_double(P(om, wi, wc, li, lc))
        assert abs(s1.s_vn - s2.s_vn) < 1e-9
        done += 1


class TestGapStructure:
    def test_soft_mode_counting(self):
        assert soft_mode_count(P(1, 1, 1, 0.2, 0.3)) == 0
        assert soft_mode_count(P(1, 1, 1, 0.5, 0.2)) == 1
        assert soft_mode_count(P(1, 1, 1, 0.3, 0.5)) == 1
        assert soft_mode_count(P(1, 1, 1, 0.5, 0.9)) == 1
        assert soft_mode_count(P(1, 1, 1, 0.5, 0.5)) == 2

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_soft_modes_next_to_a_line_are_the_phase_rule(self, scalar):
        # at relative distance 1e-10 the phase rule sees no line, though
        # the Hessian's softest stiffness is below 1e-8 of its largest
        p = P(*map(scalar, (1, 1, 1, 0.5 * (1 + 1e-10), 0.3)))
        q = P(*map(scalar, (1, 1, 1, 0.5 * (1 - 1e-10), 0.5 * (1 + 1e-10))))
        assert (soft_mode_count(p), soft_mode_count(q)) == (0, 0)
        double_point = soft_mode_count(P(*map(scalar, (1, 1, 1, 0.5, 0.5))))
        assert type(double_point) is int and double_point == 2

    def test_one_zero_gap_per_line(self):
        for p in (P(1, 1, 1, 0.5, 0.2), P(1, 1, 1, 0.3, 0.5),
                  P(1, 1, 1, 0.5, 0.9),
                  P(1.2, 0.7, 1.9, math.sqrt(1.2 * 0.7) / 2, 0.22)):
            g = double_gaps(p)
            assert g[0] < 1e-7
            assert g[1] > 0.05

    def test_golden_gaps_at_resonant_double_point(self):
        g = double_gaps(P(1, 1, 1, 0.5, 0.5))
        # the two soft directions merge into one flat canonical pair
        assert g[0] < 1e-7
        assert abs(g[1] - (math.sqrt(5) - 1) / 2) < 1e-7
        assert abs(g[2] - (math.sqrt(5) + 1) / 2) < 1e-7


class TestSolveDoubleThermo:
    def test_transform_is_symplectic_off_the_lines(self):
        sol = solve_double_thermo(P(1, 1, 1, 0.4, 0.2))
        assert sol.polariton_transform is not None
        assert sol.gaps[0] <= sol.gaps[1] <= sol.gaps[2]
        T = sol.polariton_transform
        assert np.abs(T @ SZ @ T.conj().T - SZ).max() < 1e-9
        assert sol.displacements == (0j, 0.0, 0.0)

    def test_no_transform_on_a_line(self):
        sol = solve_double_thermo(P(1, 1, 1, 0.5, 0.2))
        assert sol.polariton_transform is None
        assert sol.gaps[0] < 1e-7

    def test_branch_controls_displacement_signs(self):
        sol = solve_double_thermo(P(1, 1, 1, 0.8, 0.9), branch=(-1, +1))
        d = sol.displacements
        assert d[0].real > 0 and d[0].imag > 0
        assert d[1] < 0 and d[2] > 0


# normal, superradiant in each direction and both, on each line, at the
# double point, and on a line with unequal matter frequencies
COMPOSED = [(P(1, 1, 1, 0.2, 0.3), None), (P(1, 1, 1, 0.8, 0.3), None),
            (P(1, 1, 1, 0.2, 0.9), (0, -1)), (P(1, 1, 1, 0.8, 0.9), (-1, 1)),
            (P(1, 1, 1, 0.5, 0.2), None), (P(1, 1, 1, 0.3, 0.5), None),
            (P(1, 1, 1, 0.5, 0.5), None),
            (P(1.2, 0.7, 1.9, math.sqrt(1.2 * 0.7) / 2, 0.22), None)]


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("p,branch", COMPOSED)
def test_scalar_results_are_the_public_composition(p, branch):
    """solve_double_thermo, double_gaps and lower_polariton equal, bit for
    bit, the public Bogoliubov functions on build_double_quadratic_form."""
    form = build_double_quadratic_form(p, branch)
    info, mf = classify_double_phase(p), mean_field(p, branch)
    on_line = info.critical_c or info.critical_i
    sol = solve_double_thermo(p, branch)
    assert repr((sol.phase, sol.mu_c, sol.mu_i, sol.displacements)) == repr(
        (info.phase, mf.mu_c, mf.mu_i, (complex(mf.u, mf.v), mf.x_c, mf.x_i)))
    if on_line:
        want = sorted(float(g) for g in bogoliubov_gaps(form))
        assert sol.polariton_transform is None
    else:
        ref = symplectic_diagonalize(form)
        want = ref.gaps
        assert sol.polariton_transform.tobytes() == ref.transform.tobytes()
    assert _hexes(sol.gaps) == _hexes(want)
    if branch is None:
        assert _hexes(double_gaps(p)) == _hexes(
            sorted(float(g) for g in bogoliubov_gaps(form)))
    if info.phase is DoublePhase.NORMAL and not on_line:
        row = lower_polariton(p)
        assert row.tobytes() == ref.transform[np.argmin(ref.gaps)].tobytes()


def test_solve_double_thermo_classifies_and_solves_once(monkeypatch):
    calls = {"classify": 0, "mean_field": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(double, "classify_double_phase", counted(
        "classify", double.classify_double_phase))
    monkeypatch.setattr(double, "_mean_field_grid", counted(
        "mean_field", double._mean_field_grid))
    solve_double_thermo(P(1, 1, 1, 0.8, 0.3))
    assert calls == {"classify": 1, "mean_field": 1}


@pytest.mark.parametrize("couplings,error", [
    ((0.2, 0.3), None), ((0.8, 0.3), RegimeError),
    ((0.5, 0.3), CriticalPointDivergence), ((0.5, 0.5), None)])
def test_lower_polariton_classifies_its_point_once(monkeypatch, couplings,
                                                   error):
    calls = []

    def counted(q):
        calls.append(q)
        return classify_double_phase(q)

    monkeypatch.setattr(double, "classify_double_phase", counted)
    p = P(1, 1, 1, *couplings)
    if error is None:
        lower_polariton(p)
    else:
        with pytest.raises(error):
            lower_polariton(p)
    assert calls == [p]


def _asymptotic_row(p, d1):
    # leading behaviour of the soft-mode row as the lowest gap d1 -> 0
    om, w0c, w0i, li = p.omega_cav, p.omega0_c, p.omega0_i, p.lambda_i
    R = w0i * om - 4 * li * li
    Ne = 2.0 * math.sqrt(d1 * (w0i * w0c / R + om / w0c))
    ua = (1 + w0i * d1 / R) * math.sqrt(w0c) / Ne
    uc = -(1 + d1 / w0c) * math.sqrt(om) / Ne
    ui = 2j * math.sqrt(w0c) * li * d1 / (R * Ne)
    va = -(1 - w0i * d1 / R) * math.sqrt(w0c) / Ne
    vc = (1 - d1 / w0c) * math.sqrt(om) / Ne
    vi = -2j * math.sqrt(w0c) * li * d1 / (R * Ne)
    return np.array([ua, uc, ui, va, vc, vi])


def _aligned(row):
    return row / (row[0] / abs(row[0]))


class TestLowerPolariton:
    def test_regime_guards(self):
        with pytest.raises(RegimeError):
            lower_polariton(P(1, 1, 1, 0.8, 0.2))
        with pytest.raises(CriticalPointDivergence):
            lower_polariton(P(1, 1, 1, 0.5, 0.2))

    @pytest.mark.parametrize("om,wc,wi,li",
                             [(1, 1, 1, 0.35), (1.2, 0.8, 1.5, 0.3)])
    def test_asymptotic_row_near_the_c_line(self, om, wc, wi, li):
        lcr = math.sqrt(om * wc) / 2
        for off in (1e-3, 1e-4):
            p = P(om, wc, wi, lcr * (1 - off), li)
            d1 = double_gaps(p)[0]
            w = _aligned(lower_polariton(p))
            ref = _aligned(_asymptotic_row(p, d1))
            dev = np.abs(w - ref).max() / np.abs(ref).max()
            assert dev < 20 * d1 * d1
            kn = float(np.real(w @ SZ @ w.conj()))
            assert abs(kn - 1) < 1e-7


class TestDoublePoint:
    def test_resonant_hp_closed_form(self):
        assert abs(double_point_hp(P(1, 1, 1, 0.5, 0.5))
                   - (0.5 + 1 / math.sqrt(5.0))) < 1e-15

    def test_generic_ratio_hp_closed_form(self):
        pdg = P(1.0, 0.7, 0.7, math.sqrt(0.7) / 2, math.sqrt(0.7) / 2)
        assert abs(double_point_hp(pdg)
                   - (0.5 + 1 / math.sqrt(1 + 4 * 0.49))) < 1e-15

    def test_flat_pair_row(self):
        pdp = P(1, 1, 1, 0.5, 0.5)
        row = lower_polariton(pdp)
        assert np.allclose(row, [1, -0.5, 0.5j, 0, 0.5, -0.5j])
        K = SZ @ form_matrix(build_double_quadratic_form(pdp))
        assert np.abs(row @ K).max() < 1e-12
        assert abs(float(np.real(row @ SZ @ row.conj())) - 1) < 1e-15

        pdg = P(1.0, 0.7, 0.7, math.sqrt(0.7) / 2, math.sqrt(0.7) / 2)
        sg = math.sqrt(1.0 / (4 * 0.7))
        rowg = lower_polariton(pdg)
        assert np.allclose(rowg, [1, -sg, 1j * sg, 0, sg, -1j * sg])
        Kg = SZ @ form_matrix(build_double_quadratic_form(pdg))
        assert np.abs(rowg @ Kg).max() < 1e-12

    def test_diagonal_limit_reaches_the_closed_form(self):
        hp_dp = double_point_hp(P(1, 1, 1, 0.5, 0.5))
        lam = 0.5 * (1 - 1e-6)
        assert abs(hp_double(P(1, 1, 1, lam, lam)).hp - hp_dp) < 2e-3
        hp_g = double_point_hp(P(1.0, 0.7, 0.7, math.sqrt(0.7) / 2,
                                 math.sqrt(0.7) / 2))
        lam = math.sqrt(0.7) / 2 * (1 - 1e-6)
        assert abs(hp_double(P(1.0, 0.7, 0.7, lam, lam)).hp - hp_g) < 2e-3

    def test_balanced_quadratures(self):
        pdp = P(1, 1, 1, 0.5, 0.5)
        rep = hp_double(pdp)
        assert abs(rep.dx - rep.dp) < 1e-15
        assert abs(rep.hp - double_point_hp(pdp)) < 1e-15

    def test_entropy_closed_form(self):
        s_dp = entropy_double(P(1, 1, 1, 0.5, 0.5))
        s_ref = ((1 + math.sqrt(5)) / math.sqrt(5)) \
            * math.log2(1 + math.sqrt(5)) - math.log2(math.sqrt(5))
        assert s_dp.degeneracy_offset == 2
        assert abs((s_dp.s_vn - s_dp.degeneracy_offset) - s_ref) < 1e-12

    def test_mismatched_matter_frequencies_diverge(self):
        with pytest.raises(CriticalPointDivergence):
            hp_double(P(1, 1.0, 1.0 + 1e-5, 0.5, math.sqrt(1.0 + 1e-5) / 2))


class TestDoublePointBand:
    """Within about 1e-9 of a finite double point the Krein step finds the
    soft gap zero; hp there is the double point's closed form, which hp
    approaches linearly in the distance d."""

    @staticmethod
    def _hp(om0: float, d: float) -> float:
        lam = math.sqrt(om0) / 2 * (1 - d)
        return hp_double(P(1.0, om0, om0, lam, lam)).hp

    @pytest.mark.parametrize("d", [1e-9, 1e-10, -1e-10, 1e-11, -1e-11])
    def test_band_points_are_finite(self, d):
        # these raised InstabilityError ("2 positive mode energies")
        hp_dp = double_point_hp(P(1, 1, 1, 0.5, 0.5))
        assert abs(self._hp(1.0, d) - hp_dp) < 1e-7

    @pytest.mark.parametrize("om0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_linear_approach_to_the_double_point(self, om0, sign):
        hp_dp = double_point_hp(P(1.0, om0, om0, math.sqrt(om0) / 2,
                                  math.sqrt(om0) / 2))
        slope = abs(self._hp(om0, sign * 1e-6) - hp_dp) / 1e-6
        for e in range(6, 13):
            d = sign * 10.0 ** -e
            hp = self._hp(om0, d)
            assert math.isfinite(hp)
            assert abs(hp - hp_dp) <= 2 * slope * abs(d) + 1e-12, d

    @pytest.mark.parametrize("lc,li", [(0.5 * (1 - 1e-5), 0.5 * (1 - 1e-5)),
                                       (0.5 * (1 + 1e-9), 0.5 * (1 + 1e-4)),
                                       (0.3, 0.2), (2.0, 0.5 * (1 - 1e-9))])
    def test_zero_gap_away_from_the_double_point_fails(self, monkeypatch,
                                                        lc, li):
        fail_krein_rows(monkeypatch, GaplessError("forced"))
        with pytest.raises(GaplessError):
            hp_double(P(1.0, 1.0, 1.0, lc, li))

    def test_zero_gap_inside_the_band_is_the_double_point(self, monkeypatch):
        fail_krein_rows(monkeypatch, GaplessError("forced"))
        hp_dp = hp_double(P(2.0, 0.5, 0.5, 0.5, 0.5)).hp
        # the band is 1e-6 (1 + omega0_C/omega_cav) = 1.25e-6 here
        for d_c, d_i in ((1.2e-6, -1.2e-6), (1e-9, 3e-7)):
            assert hp_double(P(2.0, 0.5, 0.5, 0.5 * (1 - d_c),
                               0.5 * (1 - d_i))).hp == hp_dp
        with pytest.raises(GaplessError):
            hp_double(P(2.0, 0.5, 0.5, 0.5 * (1 - 1.3e-6), 0.5 * (1 - 1e-9)))

    @pytest.mark.parametrize("fn", [hp_double, entropy_double])
    def test_exact_double_point_needs_equal_matter_frequencies(self, fn):
        # lambda_C,cr = 1/2 and lambda_I,cr = 1 exactly
        with pytest.raises(CriticalPointDivergence,
                           match="equal matter frequencies only") as err:
            fn(P(1.0, 1.0, 4.0, 0.5, 1.0))
        assert err.value.quantity == "hp" and err.value.exponent is None

    @pytest.mark.parametrize("fn", [hp_double, entropy_double])
    @pytest.mark.parametrize("wi,lc,li", [(1.0, 0.5, 0.2), (1.0, 0.2, 0.5),
                                          (4.0, 0.5, 0.3), (4.0, 2.0, 1.0)])
    def test_exact_single_line_point_diverges(self, fn, wi, lc, li):
        with pytest.raises(CriticalPointDivergence,
                           match="diverge on a critical line") as err:
            fn(P(1.0, 1.0, wi, lc, li))
        assert err.value.exponent == -0.25

    def test_unequal_matter_frequencies_fail_in_the_band(self):
        wi = 1.0 + 1e-6
        p = P(1.0, 1.0, wi, 0.5 * (1 - 1e-10), math.sqrt(wi) / 2 * (1 - 1e-10))
        with pytest.raises(GaplessError):
            hp_double(p)


class TestOffAxisCriticality:
    THETA = 5 * math.pi / 16

    def test_hp_grows_toward_the_first_crossing(self):
        th = self.THETA
        ri = 0.5 / math.sin(th)
        r = ri * (1 - 1e-8)
        assert hp_double(P(1, 1, 1, r * math.cos(th), r * math.sin(th))).hp \
            > 10.0

    def test_mid_ray_phase(self):
        th = self.THETA
        mid = 0.5 * (0.5 / math.sin(th) + 0.5 / math.cos(th))
        info = classify_double_phase(P(1, 1, 1, mid * math.cos(th),
                                       mid * math.sin(th)))
        assert info.phase is DoublePhase.SUPERRADIANT_IMAG

    @pytest.mark.parametrize("which,side", [("i", -1), ("i", +1),
                                            ("c", -1), ("c", +1)])
    def test_quarter_exponent_on_both_radii(self, which, side):
        th = self.THETA
        r0 = 0.5 / math.sin(th) if which == "i" else 0.5 / math.cos(th)
        ds = np.geomspace(1e-8, 1e-5, 9)
        hps = [hp_double(P(1, 1, 1, r * math.cos(th), r * math.sin(th))).hp
               for r in r0 * (1 + side * ds)]
        fit = fit_critical_exponent(list(zip(r0 * ds, hps)))
        assert abs(fit.exponent + 0.25) < 0.02


def test_diagonal_profile_peaks_at_the_double_point():
    hp_dp = double_point_hp(P(1, 1, 1, 0.5, 0.5))
    vals = [hp_double(P(1, 1, 1, 0.5 * f, 0.5 * f)).hp
            for f in (0.9, 0.99, 0.999, 1.001, 1.01, 1.1)]
    assert all(v < hp_dp for v in vals)
    assert vals[0] < vals[1] < vals[2]
    assert vals[3] > vals[4] > vals[5]


def test_deep_double_phase_saturates():
    s_deep = entropy_double(P(1, 1, 1, 5.0, 5.0))
    assert s_deep.degeneracy_offset == 2
    assert abs(s_deep.s_vn - 2.0) < 0.02
    assert hp_double(P(1, 1, 1, 5.0, 5.0)).hp < 0.52


@pytest.mark.parametrize("include_degeneracy", [True, False])
@pytest.mark.parametrize("couplings", [(0.2, 0.3), (0.8, 0.3), (0.2, 0.9),
                                       (0.8, 0.9), (0.5, 0.5), (0.5, 0.3)])
def test_entropy_double_classifies_its_point_once(monkeypatch, couplings,
                                                  include_degeneracy):
    # the report of hp_double plus a separate classification, bitwise
    p, alphas = P(1, 1, 1, *couplings), (0.5, 2.0)
    info = classify_double_phase(p)
    on_line = (info.critical_c or info.critical_i) and couplings != (0.5, 0.5)
    if not on_line:
        offset = {1: 0, 2: 1, 4: 2}[info.degeneracy]
        want = entropy_from_hp(hp_double(p).hp,
                               degeneracy_offset=offset * include_degeneracy,
                               renyi_alphas=alphas)
    calls = []

    def counting(q):
        calls.append(q)
        return classify_double_phase(q)

    monkeypatch.setattr(double, "classify_double_phase", counting)
    if on_line:
        with pytest.raises(CriticalPointDivergence):
            entropy_double(p, include_degeneracy, alphas)
    else:
        got = entropy_double(p, include_degeneracy, alphas)
        assert repr(got) == repr(want)
    assert calls == [p]


class TestRoundoffAlignment:
    """Next to the critical lines the Krein step leaves <a^2>_c an
    imaginary part above the alignment threshold (1e-12 of max(1,
    |<a^2>_c|)), so the mode is rotated.  The grid applies the same
    alignment as heisenberg_product, so its cells are hp_double's bits."""

    # (lambda_C, lambda_I) / lambda_cr at omega = omega0 = 1, and the sign
    # of Re<a^2>_c there
    POINTS = [((1 + 1e-6, 1 + 3e-7), -1), ((1 - 1e-6, 1 - 3e-7), -1),
              ((1 + 1e-6, 1 - 3e-7), -1), ((1 - 1e-9, 0.5), +1),
              ((0.5, 1 - 1e-9), -1)]

    def test_grid_cells_are_the_rotated_reports(self):
        lam_c = [0.5 * c for (c, _), _ in self.POINTS]
        lam_i = [0.5 * i for (_, i), _ in self.POINTS]
        grid = _double_thermo_grid(1.0, 1.0, 1.0, lam_c, lam_i)
        assert grid.errors == [None] * len(self.POINTS)
        for k, (lc, li, (_, sign)) in enumerate(zip(lam_c, lam_i,
                                                    self.POINTS)):
            rep = hp_double(P(1.0, 1.0, 1.0, lc, li))
            assert rep.zeta < 0.0 and rep.sq.real * sign > 0.0
            assert (grid.sq[k].item(), grid.n_c[k].item()) == (
                rep.sq, rep.n_occ)
            assert [x.hex() for x in (grid.dx[k], grid.dp[k], grid.hp[k])] \
                == [x.hex() for x in (rep.dx, rep.dp, rep.hp)]

    # <a^2>, <a^dag a>, and the report's Re sq, Im sq, zeta, phi, dx, dp
    # as float.hex: the phase just above and just below 1e-12, Re < 0
    PINNED = [
        (-0.3 + 1.01e-12j, 0.2, ["-0x1.3333333333333p-2",
                                 "0x1.1c4a2b83b2c68p-40",
                                 "-0x1.3bb4a60964315p-80",
                                 "0x1.921fb54440f7bp+0",
                                 "0x1.0000000000000p+0",
                                 "0x1.43d136248490fp-1"]),
        (-0.3 + 0.99e-12j, 0.2, ["-0x1.3333333333333p-2",
                                 "0x1.16a904a20a7bap-40", "0x0.0p+0",
                                 "0x0.0p+0", "0x1.43d136248490fp-1",
                                 "0x1.0000000000000p+0"]),
        (-2.5 - 2.525e-12j, 3.0, ["-0x1.4000000000000p+1",
                                  "-0x1.635cb6649f782p-39",
                                  "-0x1.ed4a436eac8d0p-78",
                                  "0x1.921fb544435fap+0",
                                  "0x1.3988e1409212ep+1",
                                  "0x1.0000000000000p+0"]),
        (-2.5 - 2.475e-12j, 3.0, ["-0x1.4000000000000p+1",
                                  "-0x1.5c5345ca8d1a8p-39", "0x0.0p+0",
                                  "0x0.0p+0", "0x1.0000000000000p+0",
                                  "0x1.3988e1409212ep+1"]),
    ]

    @pytest.mark.parametrize("a_sq, occupation, want", PINNED)
    def test_heisenberg_product_rotation_threshold(self, a_sq, occupation,
                                                   want):
        rep = heisenberg_product(0.0, a_sq, occupation)
        assert [x.hex() for x in (rep.sq.real, rep.sq.imag, rep.zeta,
                                  rep.phi, rep.dx, rep.dp)] == want
