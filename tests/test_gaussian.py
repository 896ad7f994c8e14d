import math

import numpy as np
import pytest

from conftest import random_stable_form
from hpdicke.errors import DomainError, InstabilityError, UncertaintyViolation
from hpdicke.gaussian import (HP_CLAMP_BAND, _bogoliubov_stack,
                              _entropy_columns, _mode_moments, _nambu_stack,
                              quadratures, bogoliubov_gaps, entropy_from_hp,
                              form_from_xp, form_matrix, heisenberg_product,
                              photon_moments_from_solution, pseudo_energy,
                              renyi_entropy, symplectic_diagonalize,
                              thermal_weights, QuadraticForm)


def sigma_z(n):
    s = np.ones(2 * n)
    s[n:] = -1
    return np.diag(s)


class TestHeisenbergProduct:
    def test_vacuum(self):
        rep = heisenberg_product(0.0, 0.0, 0.0)
        assert rep.hp == pytest.approx(0.5, abs=1e-15)
        assert rep.dx == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert rep.zeta == 0.0 and rep.phi == 0.0

    def test_cat_moments(self):
        # coherent superposition +-alpha with alpha = 2: hp = sqrt(a^2+1/4)
        rep = heisenberg_product(0.0, 4.0, 4.0)
        assert rep.hp == pytest.approx(math.sqrt(4.25), abs=1e-13)

    def test_rotated_squeezing(self):
        rep = heisenberg_product(0.0, 0.3j, 0.3)
        assert rep.hp == pytest.approx(math.sqrt(0.55), abs=1e-13)
        assert rep.phi != 0.0

    @pytest.mark.parametrize("angle", [0.3, 1.2, 2.2, 4.0])
    def test_hp_invariant_under_phase_rotation(self, angle):
        base = dict(mean_a=0.2 + 0.1j, a_sq=0.25 + 0.15j, occupation=0.8)
        ref = heisenberg_product(**base)
        ph = np.exp(-1j * angle)
        rot = heisenberg_product(base["mean_a"] * ph,
                                 base["a_sq"] * ph * ph,
                                 base["occupation"])
        assert rot.hp == pytest.approx(ref.hp, abs=1e-12)

    def test_clamp_band_and_violation(self):
        # rounding-level negative occupation clamps to the vacuum product
        assert heisenberg_product(0.0, 0.0, -4e-10).hp >= 0.5
        with pytest.raises(UncertaintyViolation):
            heisenberg_product(0.0, 0.0, -1e-6)
        with pytest.raises(UncertaintyViolation):
            heisenberg_product(0.0, 0.5, 0.0)


@pytest.mark.parametrize("linear, shift", [((0.7, 0.0), 1.0),
                                         ((0.0, 0.7), 1j)])
def test_linear_terms_displace_the_oscillator(linear, shift):
    # H = omega/2 (x^2 + p^2) + g.r: <a> = -(g_x + i g_p)/(omega sqrt 2)
    # and the ground energy drops by g^2/(2 omega)
    omega, g = 1.3, 0.7
    sol = symplectic_diagonalize(form_from_xp(np.diag([omega, omega]),
                                              linear=linear))
    assert sol.displacements[0] == pytest.approx(
        -shift * g / (omega * math.sqrt(2.0)), abs=1e-14)
    assert sol.ground_energy == pytest.approx(
        omega / 2 - g * g / (2 * omega), abs=1e-14)


class TestEntropy:
    @pytest.mark.parametrize("hp", [0.5, 0.7, 1.0, 3.3, 10.0, 100.0])
    def test_matches_thermal_weight_sum(self, hp):
        w = thermal_weights(hp)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        direct = float(-np.sum(w[w > 0] * np.log2(w[w > 0])))
        assert entropy_from_hp(hp).s_vn == pytest.approx(direct, abs=1e-9)

    def test_pure_state_is_zero(self):
        assert entropy_from_hp(0.5).s_vn == 0.0

    def test_degeneracy_offsets(self):
        base = entropy_from_hp(2.0).s_vn
        assert entropy_from_hp(2.0, 1).s_vn - base == pytest.approx(1.0)
        assert entropy_from_hp(2.0, 2).s_vn - base == pytest.approx(2.0)
        rep = entropy_from_hp(2.0, 1)
        assert rep.degeneracy_offset == 1
        for hp in (2.0, math.nan, math.inf):
            with pytest.raises(DomainError,
                               match=r"^degeneracy offset 3 not in"):
                entropy_from_hp(hp, 3)

    def test_infinite_hp_has_infinite_entropies(self):
        rep = entropy_from_hp(math.inf, 1, renyi_alphas=(2.0,))
        assert rep.s_vn == rep.s_renyi[2.0] == math.inf

    def test_renyi_closed_forms(self):
        assert renyi_entropy(10.0, 2) == pytest.approx(math.log2(20.0),
                                                       abs=1e-12)
        w = thermal_weights(10.0)
        assert renyi_entropy(10.0, 2) == pytest.approx(
            -math.log2(float(np.sum(w ** 2))), abs=1e-9)
        # alpha -> 1 recovers von Neumann, alpha -> inf the min-entropy
        s1 = entropy_from_hp(3.0).s_vn
        assert renyi_entropy(3.0, 1 + 1e-7) == pytest.approx(s1, abs=1e-5)
        assert renyi_entropy(3.0, 1 - 1e-7) == pytest.approx(s1, abs=1e-5)
        assert renyi_entropy(3.0, 1e6) == pytest.approx(math.log2(3.5),
                                                        abs=1e-5)

    def test_large_hp_reference_points(self):
        # S(100) carries the additive log2 e, still within 1% of the
        # asymptote; Renyi-2 equals log2(2 hp) identically
        s100 = entropy_from_hp(100.0).s_vn
        assert abs(s100 / math.log2(math.e * 100.0) - 1.0) < 0.01
        s2 = renyi_entropy(1e4, 2.0)
        assert s2 == pytest.approx(math.log2(2e4), abs=1e-9)
        assert abs(s2 / math.log2(1e4) - 1.0) < 0.08

    def test_renyi_monotone_in_alpha(self):
        alphas = [0.3, 0.5, 2.0, 5.0, 50.0]
        vals = [renyi_entropy(2.2, a) for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_pseudo_energy(self):
        assert pseudo_energy(1.0) == pytest.approx(math.log(3.0), abs=1e-12)
        assert pseudo_energy(math.sqrt(0.75), 0.25) == pytest.approx(
            math.log(3.0), abs=1e-12)
        assert pseudo_energy(0.5) == math.inf

    def test_pseudo_energy_is_zero_where_hp_overflows(self):
        # hp^2 overflows from about 1.3e154; the gap's limit there is 0
        assert pseudo_energy(1e100) == 0.0
        for hp in (1.3e154, 1e300, math.inf):
            assert pseudo_energy(hp) == 0.0
        assert pseudo_energy(1.0, math.inf) == 0.0
        assert entropy_from_hp(math.inf).pseudo_energy == 0.0
        assert math.isnan(pseudo_energy(math.nan))

    @pytest.mark.parametrize("hp", [1e16, 1e154, 1.3e154, math.inf,
                                    math.nan])
    def test_thermal_weights_without_a_gap_raise_domain_error(self, hp):
        with pytest.raises(DomainError, match="no thermal weights"):
            thermal_weights(hp)


class TestSymplectic:
    def test_decoupled_modes(self):
        form = QuadraticForm(A=np.diag([2.0, 0.5]).astype(complex),
                             B=np.zeros((2, 2), complex),
                             d=np.zeros(2, complex))
        sol = symplectic_diagonalize(form)
        assert np.allclose(sol.gaps, [0.5, 2.0])
        rep = photon_moments_from_solution(sol, 0)
        assert rep.hp == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_form_invariants(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = 2 if trial % 2 == 0 else 3
        form = random_stable_form(rng, n)
        sol = symplectic_diagonalize(form)
        t = sol.transform
        sz = sigma_z(n)
        assert np.abs(t @ sz @ t.conj().T - sz).max() < 1e-7
        m = form_matrix(form)
        d = np.diag(np.concatenate([sol.gaps, sol.gaps]))
        assert np.abs(t.conj().T @ d @ t - m).max() < 1e-7
        assert np.abs(np.sort(sol.gaps)
                      - np.sort(bogoliubov_gaps(form))).max() < 1e-9
        assert np.all(sol.gaps[:-1] <= sol.gaps[1:])

    def test_displacement_closed_form(self):
        w0, dd = 1.3, 0.4
        form = QuadraticForm(A=np.array([[w0]], complex),
                             B=np.zeros((1, 1), complex),
                             d=np.array([dd], complex))
        sol = symplectic_diagonalize(form)
        assert sol.displacements[0] == pytest.approx(-dd / w0, abs=1e-12)
        assert sol.ground_energy == pytest.approx(-dd * dd / w0, abs=1e-12)

    def test_xp_conversion_squeezed(self):
        gq, gp = 2.5, 0.9
        sol = symplectic_diagonalize(form_from_xp(np.diag([gq, gp])))
        assert sol.gaps[0] == pytest.approx(math.sqrt(gq * gp), abs=1e-12)
        rep = photon_moments_from_solution(sol, 0)
        assert rep.dx == pytest.approx(math.sqrt(0.5 * math.sqrt(gp / gq)),
                                       abs=1e-12)
        assert rep.dp == pytest.approx(math.sqrt(0.5 * math.sqrt(gq / gp)),
                                       abs=1e-12)

    def test_unstable_form_raises(self):
        with pytest.raises(InstabilityError):
            symplectic_diagonalize(form_from_xp(np.diag([1.0, -0.5])))

    def test_same_mode_cross_term_rejected(self):
        g = np.eye(4)
        g[0, 2] = g[2, 0] = 0.1
        with pytest.raises(DomainError):
            form_from_xp(g)


class TestStacks:
    """The array forms reproduce the scalar functions bit for bit."""

    def test_nambu_stack_matches_form_matrix(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(8, 6, 6))
        G = G + G.swapaxes(1, 2)
        for k in range(3):
            G[:, k, k + 3] = G[:, k + 3, k] = 0.0
        M = _nambu_stack(G)
        for g, m in zip(G, M):
            assert np.array_equal(m, form_matrix(form_from_xp(g)))

    def test_bogoliubov_stack_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        forms = [random_stable_form(rng, 3, dscale=0.0) for _ in range(12)]
        # equal gaps take the Gram-Schmidt step
        forms.append(QuadraticForm(A=np.eye(3, dtype=complex),
                                   B=np.zeros((3, 3), complex),
                                   d=np.zeros(3, complex)))
        stable = np.ones(len(forms), dtype=bool)
        stable[5] = False
        stack = _bogoliubov_stack(
            np.array([form_matrix(f) for f in forms]), stable)
        moments = _mode_moments(stack.transform, 0j, 0)
        assert np.isnan(stack.transform[5]).all()
        assert stack.errors == [None] * len(forms)
        for k, form in enumerate(forms):
            assert np.array_equal(stack.gaps[k], bogoliubov_gaps(form))
            if k == 5:
                continue
            ref = photon_moments_from_solution(symplectic_diagonalize(form))
            got = heisenberg_product(*moments[k])
            assert (got.dx, got.dp, got.hp, got.n_occ, got.sq) \
                == (ref.dx, ref.dp, ref.hp, ref.n_occ, ref.sq)

    @staticmethod
    def _scalar_quadratures(n_c: float, sq: float):
        """(n_occ, dx, dp, hp) as scalar float code computes them for a
        real <a^2>, or None where a bound is broken."""
        if n_c < -HP_CLAMP_BAND:
            return None
        n_c = max(n_c, 0.0)
        dx2 = 0.5 + n_c + sq
        dp2 = 0.5 + n_c - sq
        if dx2 <= 0.0 or dp2 <= 0.0:
            return None
        dx, dp = math.sqrt(dx2), math.sqrt(dp2)
        hp = dx * dp
        if hp < 0.5 - HP_CLAMP_BAND:
            return None
        if hp < 0.5:
            hp = 0.5
            dp = hp / dx
        return n_c, dx, dp, hp

    def test_quadratures_match_scalar_arithmetic(self):
        rng = np.random.default_rng(5)
        n = rng.uniform(0.0, 5.0, 300)
        sq = rng.uniform(-1.0, 1.0, 300) * np.sqrt(n * (n + 1.0))
        # clamp band, negative occupation, negative variance, product
        # below the bound, and -0.0
        n = np.concatenate([n, [-4e-10, 0.0, -1e-6, 0.0, 1.0, 0.0, -0.0]])
        sq = np.concatenate([sq, [0.0, 1e-5, 0.0, 0.5, 2.0, 0.1, 0.0]])
        n_occ, dx, dp, hp, errors = quadratures(n, sq)
        kinds = set()
        for k, (nk, sk) in enumerate(zip(n.tolist(), sq.tolist())):
            ref = self._scalar_quadratures(nk, sk)
            if ref is None:
                kinds.add("violation")
                assert isinstance(errors[k], UncertaintyViolation)
                assert all(math.isnan(a[k]) for a in (dx, dp, hp))
                continue
            kinds.add("clamped" if ref[3] == 0.5 else "plain")
            assert errors[k] is None
            got = tuple(a[k].item() for a in (n_occ, dx, dp, hp))
            assert [math.copysign(1.0, v) for v in got] \
                == [math.copysign(1.0, v) for v in ref]
            assert got == ref
        assert kinds == {"violation", "clamped", "plain"}
        assert sum(e is not None for e in errors) == 4

    def test_entropy_columns_pass_failed_points_through(self):
        cols = _entropy_columns([0.7, math.nan], [1, 1], (2.0,))
        assert cols.s_vn[0] == entropy_from_hp(0.7, 1).s_vn
        assert math.isnan(cols.s_vn[1]) and math.isnan(cols.s_vn_bare[1])
        assert math.isnan(cols.s_renyi[2.0][1])

    @staticmethod
    def _s_vn_oracle(hp: float) -> float:
        """The scalar von Neumann formula, bits without offset."""
        hp = max(hp, 0.5)
        u = hp - 0.5
        if u == 0.0:
            return 0.0
        return math.log2(hp + 0.5) + u * math.log1p(1.0 / u) / math.log(2.0)

    def test_entropy_columns_match_entropy_from_hp(self):
        values = [0.5, 0.5 + 1e-10, 0.5 - 0.5 * HP_CLAMP_BAND, 0.61, 2.5,
                  40.0, 1e6]
        hp = [h for h in values for _ in range(3)] + [math.inf]
        offsets = [0, 1, 2] * len(values) + [1]
        cols = _entropy_columns(hp, offsets, (0.5, 2.0))
        for k, (h, off) in enumerate(zip(hp[:-1], offsets)):
            want = self._s_vn_oracle(h) + off
            ref = entropy_from_hp(h, degeneracy_offset=off,
                                  renyi_alphas=(0.5, 2.0))
            assert cols.s_vn[k].hex() == ref.s_vn.hex() == want.hex()
            assert cols.s_vn_bare[k].hex() == (want - off).hex()
            for a in (0.5, 2.0):
                assert (cols.s_renyi[a][k].hex() == ref.s_renyi[a].hex()
                        == renyi_entropy(h, a).hex())
        assert cols.s_vn[-1] == cols.s_vn_bare[-1] == math.inf
        assert cols.s_renyi[0.5][-1] == cols.s_renyi[2.0][-1] == math.inf

    def test_entropy_columns_check_offsets_and_clamp_once(self):
        with pytest.raises(DomainError,
                           match=r"^degeneracy offset 3 not in \(0, 1, 2\)$"):
            _entropy_columns([0.7, math.nan], [0, 3])
        with pytest.raises(DomainError, match=r"^uncertainty product 0\.4 "):
            _entropy_columns([0.7, 0.4, 0.3], [0, 0, 0])
