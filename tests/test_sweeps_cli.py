import json
import math
import os
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import fail_krein_rows
from hpdicke import cli, dicke, double
from hpdicke.dicke import (DickeParams, classify_phase, entropy_thermo,
                           hp_thermo, lambda_critical, solve_thermo)
from hpdicke.double import (DoubleDickeParams, build_double_quadratic_form,
                            classify_double_phase, double_gaps,
                            double_point_hp, entropy_double, hp_double)
from hpdicke.errors import (ConfigError, ConvergenceError,
                            CriticalPointDivergence, GaplessError,
                            InstabilityError, MeanFieldError)
from hpdicke.gaussian import (heisenberg_product,
                              photon_moments_from_solution,
                              symplectic_diagonalize)
from hpdicke.sweeps import (SweepConfig, _csv_lines, radial_sweep,
                            render_csv, render_json, run_sweep, sweep_rows,
                            write_atomic)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_CONFIG = dict(model="dicke", mode="thermo", coupling_min=0.2,
                     coupling_max=0.8, steps=5, renyi=(2.0,))

# frozen output of the config above; regenerating it must reproduce every
# byte, including the divergence markers on the boundary row
GOLDEN_CSV = """\
# schema: hpdicke-sweep-v1
# version: 0.1.0
# config-sha256: b1584312ebee82b2f2543ab148b0bfd20fd8a8b21bc91458bf6c23ee94f14c71
# seed: 7
# units: frequencies and couplings in units of omega_cav
# columns: index,coupling,dist_cr,phase,critical,dx,dp,hp,s_vn,s_vn_bare,renyi_2,gap_minus,gap_plus,reason
0,0.20000000000000001,-0.29999999999999999,Normal,false,0.73077847249770611,0.69960928843558934,0.51125940714816709,0.089214047627812584,0.089214047627812584,0.032127388929664935,0.7745966692414834,1.1832159566199232,
1,0.35000000000000003,-0.14999999999999997,Normal,false,0.80509422541680242,0.68036075697854881,0.54775451664363406,0.28007193221154708,0.28007193221154708,0.13160138047146175,0.54772255750516607,1.3038404810405297,
2,0.5,0,Superradiant,true,inf,0.59460355750136051,inf,inf,inf,inf,0,1.4142135623730951,critical-point
3,0.65000000000000013,0.15000000000000013,Superradiant,false,0.77685888001019554,0.67856220478276108,0.5271470744247847,1.1809396526502116,0.18093965265021161,0.076277436122836662,0.75084206867893533,1.814479591481243,
4,0.80000000000000004,0.30000000000000004,Superradiant,false,0.73468692298407756,0.69223306440498966,0.50857458007554068,1.0712940401909512,0.071294040190951202,0.024531259166896913,0.90852867201183651,2.5938727131708705,
"""


class TestSweepConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"model": "dicke", "typo_key": 1})

    def test_aliases(self):
        cfg = SweepConfig.from_dict({"lambda_min": 0.1, "lambda_max": 0.6,
                                     "n": 12, "budget": 1000})
        assert cfg.coupling_min == 0.1
        assert cfg.coupling_max == 0.6
        assert cfg.n_spins == 12
        assert cfg.budget_nnz == 1000

    @pytest.mark.parametrize("first, second", [
        ("lambda_min", "coupling_min"), ("coupling_min", "lambda_min"),
        ("lambda", "lambda_min"), ("n", "n_spins"), ("n_spins", "n"),
        ("budget", "budget_nnz"), ("budget_nnz", "budget")])
    def test_two_spellings_of_one_field_rejected(self, first, second):
        with pytest.raises(ConfigError,
                           match=f"'{first}' and '{second}' both set"):
            SweepConfig.from_dict({first: 1, second: 2})

    @pytest.mark.parametrize("raw", [
        {"model": "nonsense"},
        {"mode": "nonsense"},
        {"steps": 0},
        {"steps": -3},
        {"coupling_min": 0.5, "coupling_max": 0.2},
        {"omega": -1.0},
        {"model": "double-dicke", "r_min": 0.5, "r_max": 0.1},
        {"model": "double-dicke", "theta": 2.0},
        {"mode": "ed", "n_spins": 0},
        {"mode": "ed", "renyi": (2.0,)},
        {"renyi": (0.0,)},
        {"renyi": (1.0,)},
        {"format": "xml"},
        {"workers": 0},
        {"coupling_min": math.nan},
        {"coupling_max": math.nan},
        {"coupling_max": math.inf},
        {"model": "double-dicke", "r_min": math.nan},
        {"model": "double-dicke", "r_max": math.inf},
        {"tol": math.inf},
        {"tol": math.nan},
        {"omega": math.inf},
        {"renyi": (math.inf,)},
    ])
    def test_validation_matrix(self, raw):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(raw)

    def test_renyi_string_coercion(self):
        cfg = SweepConfig.from_dict({"renyi": "2;3"})
        assert cfg.renyi == (2.0, 3.0)

    def test_hash_ignores_output_settings(self):
        a = SweepConfig.from_dict(dict(GOLDEN_CONFIG))
        b = SweepConfig.from_dict(dict(GOLDEN_CONFIG, out="x.csv",
                                       format="json", workers=4))
        assert a.config_sha256() == b.config_sha256()
        c = SweepConfig.from_dict(dict(GOLDEN_CONFIG, steps=7))
        assert a.config_sha256() != c.config_sha256()


class TestRendering:
    def test_golden_csv_reproduced(self):
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG))
        text = render_csv(cfg, sweep_rows(cfg))
        assert text == GOLDEN_CSV

    def test_golden_json_reproduced(self):
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG))
        with open(os.path.join(GOLDEN_DIR, "dicke_thermo.json")) as fh:
            assert render_json(cfg, sweep_rows(cfg)) == fh.read()

    def test_rerun_is_byte_identical(self):
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG))
        assert render_csv(cfg, sweep_rows(cfg)) \
            == render_csv(cfg, sweep_rows(cfg))

    def test_json_payload(self):
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG))
        payload = json.loads(render_json(cfg, sweep_rows(cfg)))
        assert payload["schema"] == "hpdicke-sweep-v1"
        assert payload["config_sha256"] == cfg.config_sha256()
        cols = payload["columns"]
        assert len(payload["rows"]) == 5
        boundary = dict(zip(cols, payload["rows"][2]))
        assert boundary["hp"] == "inf"
        assert boundary["reason"] == "critical-point"
        assert boundary["critical"] is True
        inner = dict(zip(cols, payload["rows"][0]))
        assert isinstance(inner["hp"], float)

    def test_ed_sweep_parallel_matches_serial(self):
        raw = dict(model="dicke", mode="ed", coupling_min=0.2,
                   coupling_max=0.6, steps=3, n_spins=4)
        serial = SweepConfig.from_dict(dict(raw, workers=1))
        parallel = SweepConfig.from_dict(dict(raw, workers=3))
        assert render_csv(serial, sweep_rows(serial)) \
            == render_csv(parallel, sweep_rows(parallel))

    def test_sparse_sweep_is_independent_of_the_worker_count(self):
        # sparse two-chain solves at an explicit cutoff, each seeded the
        # same in every worker
        raw = dict(model="double-dicke", mode="ed", theta=math.pi / 8,
                   r_min=0.2, r_max=0.4, steps=3, n_spins=8, n_max=30)
        serial = SweepConfig.from_dict(dict(raw, workers=1))
        parallel = SweepConfig.from_dict(dict(raw, workers=2))
        assert render_csv(serial, sweep_rows(serial)) \
            == render_csv(parallel, sweep_rows(parallel))

    @pytest.mark.parametrize("workers, steps, forked", [(64, 3, 3),
                                                        (2, 3, 2)])
    def test_ed_pool_has_at_most_one_worker_per_row(self, monkeypatch,
                                                    workers, steps, forked):
        # a pool of the standard library forks every requested worker up
        # front, so the pool is sized by the rows; this one maps serially
        import concurrent.futures
        sizes = []

        class SerialPool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        raw = dict(model="dicke", mode="ed", coupling_min=0.2,
                   coupling_max=0.6, steps=steps, n_spins=4)
        serial = SweepConfig.from_dict(raw)
        want = render_csv(serial, sweep_rows(serial))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        cfg = SweepConfig.from_dict(dict(raw, workers=workers))
        assert render_csv(cfg, sweep_rows(cfg)) == want
        assert sizes == [forked]

    def test_axis_ray_matches_single_chain(self):
        # a ray along the real-coupling axis is the single-chain model
        rows = radial_sweep(0.0, 0.1, 0.9, 5)
        for row in rows:
            v = row.values
            if v["reason"] == "critical-point":
                assert v["hp"] == math.inf
                assert math.isnan(v["dx"])
                continue
            rep = hp_thermo(DickeParams(1.0, 1.0, v["lambda_c"]))
            assert v["hp"] == pytest.approx(rep.hp, abs=1e-10)
            assert v["dx"] == pytest.approx(rep.dx, abs=1e-10)


def _double_ray(a: int, steps: int, **extra) -> dict:
    """A ray at theta = a pi / 32 over r = 0 .. 400 h, where r = 200 h
    lies exactly on the nearer critical line (on the double point when
    a = 8)."""
    theta = a * math.pi / 32
    h = 0.5 / max(math.cos(theta), math.sin(theta)) / 200
    return dict(model="double-dicke", mode="thermo", theta=theta,
                r_min=0.0, r_max=400 * h, steps=steps, **extra)


class TestDoubleGolden:
    """Frozen double-model thermo output: one ray through the double point
    and one across a single critical line."""

    @pytest.mark.parametrize("tag,a", [("pi4", 8), ("pi8", 4)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_golden_reproduced(self, tag, a, fmt):
        cfg = SweepConfig.from_dict(_double_ray(a, 5, renyi=(2.0,)))
        render = render_csv if fmt == "csv" else render_json
        with open(os.path.join(GOLDEN_DIR,
                               f"double_thermo_{tag}.{fmt}")) as fh:
            assert render(cfg, sweep_rows(cfg)) == fh.read()


ED_GOLDEN = {
    "ed_auto_dicke": dict(model="dicke", mode="ed", coupling_min=0.2,
                          coupling_max=0.8, steps=4, n_spins=8),
    "ed_auto_double": dict(model="double-dicke", mode="ed",
                           theta=math.pi / 8, r_min=0.2, r_max=0.8,
                           steps=4, n_spins=3),
    "ed_fixed_dicke": dict(model="dicke", mode="ed", coupling_min=0.2,
                           coupling_max=0.4, steps=3, n_spins=30, n_max=44),
    "ed_fixed_double": dict(model="double-dicke", mode="ed",
                            theta=math.pi / 8, r_min=0.2, r_max=0.4,
                            steps=3, n_spins=8, n_max=30),
}


class TestEdGolden:
    """Frozen ED output.  With the cutoff found by the walk: one
    single-chain and one two-chain sweep from the normal phase into the
    superradiant one.  At an explicit cutoff above _DENSE_DIM: one
    normal-phase sweep of each model, solved on Holstein-Primakoff shells
    by sparse solves that start from the seeded draw."""

    @pytest.mark.parametrize("tag", sorted(ED_GOLDEN))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_golden_reproduced(self, tag, fmt):
        cfg = SweepConfig.from_dict(dict(ED_GOLDEN[tag]))
        render = render_csv if fmt == "csv" else render_json
        with open(os.path.join(GOLDEN_DIR, f"{tag}.{fmt}")) as fh:
            assert render(cfg, sweep_rows(cfg)) == fh.read()


def _bits(v) -> bytes:
    return struct.pack("<d", v)


@pytest.mark.parametrize("raw,names", [
    (dict(model="dicke", coupling_min=0.1, coupling_max=0.9, steps=9),
     ("coupling", "dist_cr")),
    (dict(model="double-dicke", theta=5 * math.pi / 32, r_min=0.1,
          r_max=0.9, steps=9), ("r", "theta", "lambda_c", "lambda_i")),
], ids=["dicke", "double-dicke"])
def test_thermo_and_ed_sweeps_share_coordinates(raw, names):
    thermo = sweep_rows(SweepConfig.from_dict(dict(raw, mode="thermo")))
    ed = sweep_rows(SweepConfig.from_dict(dict(raw, mode="ed", n_spins=2,
                                               n_max=6)))
    for name in names:
        assert list(map(_bits, thermo.columns[name])) \
            == list(map(_bits, ed.columns[name])), name
    if raw["model"] == "double-dicke":
        # r cos(theta) and r sin(theta) round at every r but 0.5, so
        # both modes must round the same products
        th, cols = raw["theta"], thermo.columns
        exact = [r for r, c, i in zip(cols["r"], cols["lambda_c"],
                                      cols["lambda_i"])
                 if Fraction(c) == Fraction(r) * Fraction(math.cos(th))
                 or Fraction(i) == Fraction(r) * Fraction(math.sin(th))]
        assert exact == [0.5]


def _assert_cells(row: dict, expected: dict):
    for name, value in expected.items():
        got = row[name]
        if isinstance(value, float):
            assert _bits(got) == _bits(value), (name, got, value)
        else:
            assert got == value, (name, got, value)


def _scalar_polaritons(p: DickeParams, info) -> tuple[float, ...]:
    """gap_minus, gap_plus, cos^2 gamma and sin^2 gamma from the closed
    forms in Python float arithmetic and math calls, as the row-by-row
    sweep evaluated them."""
    om, om0, lam = p.omega, p.omega0, p.coupling
    mu = 1.0 if info.phase.value == "Normal" else om * om0 / (4.0 * lam * lam)
    om0_eff = om0 / mu
    tr = om0_eff * om0_eff + om * om
    disc = math.sqrt((om0_eff * om0_eff - om * om) ** 2
                     + 16.0 * lam * lam * om * om0 * mu)
    gamma = 0.0 if lam == 0.0 else 0.5 * math.atan2(
        4.0 * lam * math.sqrt(om * om0) * mu ** 2.5,
        om0 * om0 - mu * mu * om * om)
    return (math.sqrt(max(0.5 * (tr - disc), 0.0)),
            math.sqrt(0.5 * (tr + disc)),
            math.cos(gamma) ** 2, math.sin(gamma) ** 2)


class TestThermoCellsMatchScalarApi:
    """Every thermo sweep cell equals, bitwise, the scalar public API at
    the same point, and the single-chain cells equal the closed forms
    evaluated in scalar float arithmetic."""

    # at (1.0, 9.0) the critical dp with the weight 1 - cos^2 gamma
    # differs in the last bits from the one with sin^2 gamma
    @pytest.mark.parametrize("omega,omega0,hi", [(1.0, 1.0, 1.0),
                                                 (1.44, 1.0, 1.2),
                                                 (1.0, 9.0, 3.0)])
    def test_single_chain(self, omega, omega0, hi):
        renyi = (0.5, 2.0, 3.0)
        cfg = SweepConfig.from_dict(dict(
            model="dicke", mode="thermo", omega=omega, omega0=omega0,
            coupling_min=0.0, coupling_max=hi, steps=1001, renyi=renyi))
        kinds = set()
        for row in sweep_rows(cfg):
            v = row.values
            p = DickeParams(omega, omega0, v["coupling"])
            info = classify_phase(p)
            gm, gp, c2, s2 = _scalar_polaritons(p, info)
            sol = solve_thermo(p)
            assert (sol.gap_minus, sol.gap_plus) == (gm, gp)
            expected = {"phase": info.phase.value, "critical": info.critical,
                        "dist_cr": v["coupling"] - lambda_critical(p),
                        "gap_minus": gm, "gap_plus": gp}
            if info.critical:
                kinds.add("critical")
                with pytest.raises(CriticalPointDivergence):
                    hp_thermo(p)
                expected.update(
                    dx=math.inf, hp=math.inf, s_vn=math.inf,
                    s_vn_bare=math.inf, reason="critical-point",
                    dp=math.sqrt(0.5 * (c2 * gm + (1.0 - c2) * gp) / omega))
                expected.update({f"renyi_{a:g}": math.inf for a in renyi})
            else:
                kinds.add(info.phase.value)
                dx2 = 0.5 * omega * (c2 / gm + s2 / gp)
                dp2 = 0.5 * (c2 * gm + s2 * gp) / omega
                rep = heisenberg_product(mean_a=0.0, a_sq=0.5 * (dx2 - dp2),
                                         occupation=0.5 * (dx2 + dp2) - 0.5)
                assert hp_thermo(p) == rep
                ent = entropy_thermo(p, renyi_alphas=renyi)
                expected.update(
                    dx=rep.dx, dp=rep.dp, hp=rep.hp, s_vn=ent.s_vn,
                    s_vn_bare=ent.s_vn - ent.degeneracy_offset, reason="")
                expected.update({f"renyi_{a:g}": ent.s_renyi[a]
                                 for a in renyi})
            _assert_cells(v, expected)
        assert kinds == {"Normal", "critical", "Superradiant"}

    @staticmethod
    def _double_kinds(cfg: SweepConfig) -> set:
        """Checks every cell of a double-model sweep; returns the kinds of
        point it held."""
        kinds = set()
        for row in sweep_rows(cfg):
            v = row.values
            p = DoubleDickeParams(cfg.omega, cfg.omega0_c, cfg.omega0_i,
                                  v["lambda_c"], v["lambda_i"])
            info = classify_double_phase(p)
            gaps = double_gaps(p)
            expected = {"phase": info.phase.value,
                        "critical_c": info.critical_c,
                        "critical_i": info.critical_i,
                        "dist_c": v["lambda_c"] - p.lambda_c_cr,
                        "dist_i": v["lambda_i"] - p.lambda_i_cr,
                        "gap_1": gaps[0], "gap_2": gaps[1],
                        "gap_3": gaps[2]}
            if info.critical_c and info.critical_i:
                kinds.add("double point")
            elif info.critical_c or info.critical_i:
                kinds.add("line")
            else:
                kinds.add(info.phase.value)
            try:
                rep = hp_double(p)
            except CriticalPointDivergence:
                assert math.isnan(v["dx"]) and math.isnan(v["dp"])
                expected.update(hp=math.inf, s_vn=math.inf,
                                s_vn_bare=math.inf, reason="critical-point")
                expected.update({f"renyi_{a:g}": math.inf
                                 for a in cfg.renyi})
            else:
                if not (info.critical_c or info.critical_i):
                    # the stack path against the scalar Gaussian pipeline
                    assert rep == photon_moments_from_solution(
                        symplectic_diagonalize(build_double_quadratic_form(p)))
                ent = entropy_double(p, renyi_alphas=cfg.renyi)
                expected.update(
                    dx=rep.dx, dp=rep.dp, hp=rep.hp, s_vn=ent.s_vn,
                    s_vn_bare=ent.s_vn - ent.degeneracy_offset, reason="")
                expected.update({f"renyi_{a:g}": ent.s_renyi[a]
                                 for a in cfg.renyi})
            _assert_cells(v, expected)
        return kinds

    @pytest.mark.parametrize("a", [0, 4, 8, 12, 16])
    def test_double_model(self, a):
        kinds = self._double_kinds(SweepConfig.from_dict(
            _double_ray(a, 41, renyi=(0.5, 2.0))))
        assert "Normal" in kinds
        assert ("double point" if a == 8 else "line") in kinds
        broken = {8: "SuperradiantDouble", 12: "SuperradiantImag",
                  16: "SuperradiantImag"}.get(a, "SuperradiantReal")
        assert broken in kinds

    @pytest.mark.parametrize("omega0_i", [1.0, 2.0])
    def test_double_model_long_ray(self, omega0_i):
        # 201 radii far into the broken phases, with equal and unequal
        # matter frequencies
        kinds = self._double_kinds(SweepConfig.from_dict(dict(
            model="double-dicke", mode="thermo", theta=5 * math.pi / 32,
            omega0_i=omega0_i, r_min=0.0, r_max=2.0, steps=201,
            renyi=(3.0,))))
        assert {"Normal", "SuperradiantReal",
                "SuperradiantDouble"} <= kinds

    def test_unequal_matter_double_point_diverges(self):
        # with omega0_c != omega0_i the two lines still cross, but the
        # finite double-point value does not hold there
        lc, li = 0.5, math.sqrt(2.0) / 2.0
        cfg = SweepConfig.from_dict(dict(
            model="double-dicke", mode="thermo", omega0_i=2.0,
            theta=math.atan2(li, lc), r_min=0.0,
            r_max=2.0 * math.hypot(lc, li), steps=5))
        row = sweep_rows(cfg)[2].values
        assert row["critical_c"] and row["critical_i"]
        assert row["reason"] == "critical-point"
        assert row["hp"] == math.inf and math.isnan(row["dx"])


def test_fmt_numpy_bool_matches_python_bool():
    cells = [np.bool_(True), True, np.bool_(False), False]
    assert _csv_lines([cells]) == ["true", "true", "false", "false"]


def _cells_equal(a: dict, b: dict) -> bool:
    return all(_bits(x) == _bits(y) if isinstance(x, float) else x == y
               for x, y in zip(a.values(), b.values()))


class TestThermoRowFailures:
    """A thermo point whose solve fails is recorded in its own row: nan
    computed cells, the error in reason, the failed flag; its neighbours
    keep their values and the sweep completes."""

    @staticmethod
    def _check_one_failed(cfg: SweepConfig, table, reference, k: int,
                          error: str):
        assert table.failed == [i == k for i in range(len(table))]
        for i, (row, ref) in enumerate(zip(table, reference)):
            if i != k:
                assert _cells_equal(row.values, ref.values)
                continue
            v = row.values
            assert v["reason"] == f"solver: {error}"
            assert all(math.isnan(v[c]) for c in ("dx", "dp", "hp", "s_vn",
                                                  "s_vn_bare", "renyi_2"))
            assert v["phase"] == ref.values["phase"]

    def test_single_chain_moment_failure(self, monkeypatch, tmp_path):
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG,
                                         out=str(tmp_path / "s.csv")))
        reference = sweep_rows(cfg)
        quadratures = dicke.quadratures

        def negative_occupation_at_1(n_c, sq):
            n_c = n_c.copy()
            n_c[1] = -1.0
            return quadratures(n_c, sq)

        monkeypatch.setattr(dicke, "quadratures", negative_occupation_at_1)
        table = sweep_rows(cfg)
        self._check_one_failed(cfg, table, reference, 1,
                               "UncertaintyViolation")
        assert all(math.isnan(table[1].values[c])
                   for c in ("gap_minus", "gap_plus"))
        assert run_sweep(cfg) == (cfg.out, 1)
        assert "solver: UncertaintyViolation" in (tmp_path / "s.csv") \
            .read_text().splitlines()[7]

    def test_double_model_krein_failure(self, monkeypatch):
        cfg = SweepConfig.from_dict(_double_ray(4, 7, renyi=(2.0,)))
        reference = sweep_rows(cfg)
        fail_krein_rows(monkeypatch, InstabilityError("forced"), rows={2})
        table = sweep_rows(cfg)
        self._check_one_failed(cfg, table, reference, 2, "InstabilityError")

    def test_mean_field_failure_stays_in_its_row(self, monkeypatch):
        # the stationarity check is made to fail past lambda_C = 500;
        # only those rows fail, and hp_double raises there too
        mean_field_grid = double._mean_field_grid

        def failing_past_500(om, om0_c, om0_i, lam_c, *args):
            mf, errors = mean_field_grid(om, om0_c, om0_i, lam_c, *args)
            return mf, [MeanFieldError("forced") if lc > 500.0 else e
                        for lc, e in zip(lam_c.tolist(), errors)]

        monkeypatch.setattr(double, "_mean_field_grid", failing_past_500)
        cfg = SweepConfig.from_dict(dict(model="double-dicke",
                                         mode="thermo", theta=0.3,
                                         r_min=0.0, r_max=4000.0, steps=5))
        table = sweep_rows(cfg)
        assert table.failed == [False, True, True, True, True]
        hp_dp = double_point_hp(DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5))
        for row in table:
            v = row.values
            p = DoubleDickeParams(1.0, 1.0, 1.0, v["lambda_c"], v["lambda_i"])
            assert v["hp"] != hp_dp
            if not row.failed:
                assert v["hp"] == hp_double(p).hp
                continue
            assert v["reason"] == "solver: MeanFieldError"
            assert math.isnan(v["hp"]) and math.isnan(v["gap_1"])
            with pytest.raises(MeanFieldError):
                hp_double(p)

    def test_zero_gap_away_from_the_double_point_fails(self, monkeypatch):
        cfg = SweepConfig.from_dict(_double_ray(8, 5, renyi=(2.0,)))
        reference = sweep_rows(cfg)
        fail_krein_rows(monkeypatch, GaplessError("forced"), rows={1})
        table = sweep_rows(cfg)
        # row 1 lies halfway to the double point (row 2)
        self._check_one_failed(cfg, table, reference, 1, "GaplessError")

    @pytest.mark.parametrize("coupling", [1e4, 1e40, 1e160, 1e300])
    @pytest.mark.parametrize("model,key", [("dicke", "coupling_max"),
                                           ("double-dicke", "r_max")])
    def test_huge_couplings_fail_their_rows(self, tmp_path, capsys, model,
                                            key, coupling):
        # overflowing closed forms once gave nan rows without a reason or
        # aborted the sweep with an OverflowError
        raw = {"model": model, "mode": "thermo", key: coupling, "steps": 3}
        table = sweep_rows(SweepConfig.from_dict(raw))
        for row in table:
            v = row.values
            if row.failed:
                assert v["reason"].startswith("solver: ")
                assert math.isnan(v["hp"])
            else:
                assert v["reason"] == ""
                assert all(math.isfinite(v[c])
                           for c in ("dx", "dp", "hp", "s_vn"))
        assert table.failed[0] is False
        failed = sum(table.failed)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config",
                         _write_config(tmp_path, "c.json", raw),
                         "--out", str(out)]) == 0
        err = capsys.readouterr().err
        reported = f"({failed} row(s) with recorded solver" in err
        assert reported == (failed > 0)


class TestFileOutput:
    def test_run_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG, out=str(out)))
        path, warnings_count = run_sweep(cfg)
        assert path == str(out)
        assert warnings_count == 0
        assert out.read_text() == GOLDEN_CSV

    def test_run_sweep_requires_out(self):
        cfg = SweepConfig.from_dict(dict(GOLDEN_CONFIG))
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    def test_atomic_overwrite(self, tmp_path):
        target = tmp_path / "table.csv"
        target.write_text("stale")
        write_atomic(str(target), "fresh\n")
        assert target.read_text() == "fresh\n"
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith(".sweep-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644),
                                             (0o077, 0o600)])
    def test_atomic_write_takes_the_mode_of_a_plain_open(self, tmp_path,
                                                          umask, mode):
        old = os.umask(umask)
        try:
            write_atomic(str(tmp_path / "table.csv"), "x\n")
            open(tmp_path / "plain.csv", "w").close()
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777
                 for p in tmp_path.iterdir()}
        assert modes == {"table.csv": mode, "plain.csv": mode}

    def test_failed_atomic_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(str(tmp_path / "table.csv"), None)
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError):
            write_atomic(str(tmp_path / "dir"), "x\n")
        assert os.listdir(tmp_path) == ["dir"]


def _write_config(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_validate_config(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "c.json", GOLDEN_CONFIG
                                 | {"renyi": [2.0]})
        assert cli.main(["validate-config", "--config", cfg_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["config_sha256"] == SweepConfig.from_dict(
            dict(GOLDEN_CONFIG)).config_sha256()

    def test_validate_config_key_value_format(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("# comment line\nmodel = dicke\nsteps = 5\n"
                        "coupling_max = 0.8\n")
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["steps"] == 5

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "bad.json", {"model": "nonsense"})
        assert cli.main(["validate-config", "--config", cfg_path]) == 2

    @pytest.mark.parametrize("raw", [
        {"model": "dicke", "coupling_max": math.nan},
        {"model": "double-dicke", "r_max": math.inf},
        {"model": "dicke", "tol": math.nan},
    ])
    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    def test_non_finite_config_exits_2(self, tmp_path, raw, command):
        cfg_path = _write_config(tmp_path, "c.json", raw)
        out = tmp_path / "s.csv"
        args = [command, "--config", cfg_path]
        if command == "sweep":
            args += ["--out", str(out)]
        assert cli.main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("raw", [
        {"n_spins": 8.7},
        {"steps": 2.5},
        {"mode": "ed", "n_max": 10.9},
        {"n_spins": True},
        {"mode": "ed", "n_max": False},
        {"seed": "7.5"},
        {"workers": math.inf},
    ])
    def test_non_integral_int_field_exits_2(self, tmp_path, capsys, raw):
        cfg_path = _write_config(tmp_path, "c.json", raw)
        assert cli.main(["validate-config", "--config", cfg_path]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_integral_int_fields_accepted(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "c.json", {
            "mode": "ed", "budget_nnz": 1e7, "n_spins": "8", "steps": 5.0,
            "n_max": "12"})
        assert cli.main(["validate-config", "--config", cfg_path]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["budget_nnz"], config["n_spins"], config["steps"],
                config["n_max"]) == (10_000_000, 8, 5, 12)

    @staticmethod
    def _config_file(tmp_path, raw, as_json):
        """raw as a JSON object or as key=value lines of JSON values."""
        path = tmp_path / "c.cfg"
        path.write_text(json.dumps(raw) if as_json else "".join(
            f"{key} = {json.dumps(value)}\n" for key, value in raw.items()))
        return str(path)

    @pytest.mark.parametrize("raw", [
        {"omega": True}, {"tol": True}, {"coupling_min": False},
        {"coupling_max": True},
        {"model": "double-dicke", "theta": False},
    ])
    @pytest.mark.parametrize("as_json", [True, False])
    def test_boolean_float_field_exits_2(self, tmp_path, capsys, raw,
                                         as_json):
        cfg_path = self._config_file(tmp_path, raw, as_json)
        assert cli.main(["validate-config", "--config", cfg_path]) == 2
        key, value = list(raw.items())[-1]
        assert (f"{key} must be a number, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key,value", [
        ("out", 2024), ("out", 7), ("model", 1), ("mode", ["ed"]),
        ("format", True)])
    @pytest.mark.parametrize("as_json", [True, False])
    def test_non_string_text_field_exits_2(self, tmp_path, monkeypatch,
                                           capsys, key, value, as_json):
        monkeypatch.chdir(tmp_path)
        cfg_path = self._config_file(tmp_path, {key: value}, as_json)
        args = ["sweep", "--config", cfg_path]
        if key != "out":
            args += ["--out", "s.csv"]
        assert cli.main(args) == 2
        assert (f"{key} must be a string, got {value!r}"
                in capsys.readouterr().err)
        assert [f.name for f in tmp_path.iterdir()] == ["c.cfg"]

    @pytest.mark.parametrize("key,value,message", [
        ("omega", [1.0], "omega must be a number, got [1.0]"),
        ("steps", [3], "steps must be an integer, got [3]"),
        ("n_max", [3], "n_max must be an integer, got [3]"),
        ("seed", None, "seed must be an integer, got None"),
        ("tol", None, "tol must be a number, got None"),
        ("renyi", True, "renyi must be a list of numbers, got True"),
        ("renyi", 2.0, "renyi must be a list of numbers, got 2.0"),
        ("renyi", [True], "renyi must be a number, got True"),
        ("lambda", [1.0], "lambda must be a number, got [1.0]"),
        ("budget", None, "budget must be an integer, got None"),
    ])
    @pytest.mark.parametrize("as_json", [True, False])
    def test_uncoercible_field_exits_2_naming_its_key(
            self, tmp_path, monkeypatch, capsys, key, value, message,
            as_json):
        monkeypatch.chdir(tmp_path)
        cfg_path = self._config_file(tmp_path, {key: value}, as_json)
        assert cli.main(["sweep", "--config", cfg_path, "--out", "s.csv"]) == 2
        assert message in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["c.cfg"]

    def test_option_overrides_either_spelling_in_the_file(self, tmp_path,
                                                           capsys):
        path = tmp_path / "c.cfg"
        path.write_text("budget = 1000\n")
        assert cli.main(["validate-config", "--config", str(path),
                         "--budget-nnz", "2000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["budget_nnz"] == 2000

    def test_two_spellings_in_the_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("budget = 1000\nbudget_nnz = 2000\n")
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert "'budget' and 'budget_nnz' both set" in capsys.readouterr().err

    def test_repeated_key_in_a_key_value_file_exits_2(self, tmp_path,
                                                       capsys):
        path = tmp_path / "c.cfg"
        path.write_text("steps = 5\n# a comment\nmodel = dicke\nsteps = 9\n")
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert (f"{path}:4: key 'steps' already set on line 1"
                in capsys.readouterr().err)

    def test_repeated_key_in_a_json_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"steps": 5, "model": "dicke", "steps": 9}')
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert "config key 'steps' is repeated" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main(["sweep", "--config",
                         str(tmp_path / "absent.json")]) == 2

    def test_sweep_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        cfg_path = _write_config(tmp_path, "c.json",
                                 GOLDEN_CONFIG | {"renyi": [2.0]})
        assert cli.main(["sweep", "--config", cfg_path,
                         "--out", str(out)]) == 0
        assert out.read_text() == GOLDEN_CSV
        assert str(out) in capsys.readouterr().err

    def test_sweep_through_the_double_point_band(self, tmp_path):
        # rows within 1e-9 of the double point aborted this sweep (exit 4)
        r_cr = math.sqrt(2.0) / 2.0
        cfg_path = _write_config(tmp_path, "c.json", dict(
            model="double-dicke", mode="thermo", theta=math.pi / 4,
            r_min=r_cr * (1 - 2e-9), r_max=r_cr * (1 + 2e-9), steps=5))
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", cfg_path,
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        cols = lines[5].removeprefix("# columns: ").split(",")
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert len(rows) == 5
        for row in rows:
            v = dict(zip(cols, row))
            assert v["reason"] == ""
            assert all(math.isfinite(float(v[c]))
                       for c in ("dx", "dp", "hp", "s_vn"))

    def test_sweep_budget_exit_3(self, tmp_path):
        cfg_path = _write_config(tmp_path, "tiny.json", {
            "model": "dicke", "mode": "ed", "coupling_min": 0.4,
            "coupling_max": 0.6, "steps": 2, "n_spins": 8,
            "budget_nnz": 50})
        assert cli.main(["sweep", "--config", cfg_path,
                         "--out", str(tmp_path / "s.csv")]) == 3

    @pytest.mark.parametrize("model", ["dicke", "double-dicke"])
    def test_fixed_cutoff_budget_exit_3(self, tmp_path, model):
        # a superradiant point is solved on its whole grid, which the
        # budget refuses before it is built
        point = ({"coupling_min": 0.8, "coupling_max": 0.8}
                 if model == "dicke" else {"r_min": 1.0, "r_max": 1.0})
        cfg_path = _write_config(tmp_path, "fixed.json", {
            "model": model, "mode": "ed", "n_spins": 8, "n_max": 2000,
            "steps": 1, "budget_nnz": 1000, **point})
        assert cli.main(["sweep", "--config", cfg_path,
                         "--out", str(tmp_path / "s.csv")]) == 3
        assert not (tmp_path / "s.csv").exists()

    def test_figure_budget_exit_3(self, tmp_path, capsys):
        outdir = tmp_path / "fig"
        assert cli.main(["figure", "1", "--out", str(outdir),
                         "--budget-nnz", "500"]) == 3
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["budget_exceeded"] is True

    def test_fit_power_law_to_file(self, tmp_path):
        xs = np.geomspace(1e-6, 1e-3, 8)
        lines = "\n".join(f"{x:.17g},{2.0 * x ** -0.25:.17g}" for x in xs)
        src = tmp_path / "p.csv"
        src.write_text("# columns: dist_cr,hp\n" + lines + "\n")
        report_path = tmp_path / "fit.json"
        code = cli.main(["fit", "--input", str(src), "--column", "hp",
                         "--x-column", "dist_cr", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "power"
        assert report["n_rows"] == 8
        assert report["exponent"] == pytest.approx(-0.25, abs=1e-12)

    def _power_input(self, tmp_path):
        xs = np.geomspace(1e-6, 1e-3, 8)
        src = tmp_path / "p.csv"
        src.write_text("# columns: dist_cr,hp\n" + "".join(
            f"{x:.17g},{2.0 * x ** -0.25:.17g}\n" for x in xs))
        return ["fit", "--input", str(src), "--column", "hp",
                "--x-column", "dist_cr", "--out", str(tmp_path / "fit.json")]

    def test_fit_out_failed_rename_leaves_no_file(self, tmp_path,
                                                   monkeypatch):
        argv = self._power_input(tmp_path)

        def fail(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(os, "replace", fail)
        assert cli.main(argv) == 2
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_fit_out_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        argv = self._power_input(tmp_path)
        argv[-1] = str(tmp_path / "missing" / "fit.json")
        assert cli.main(argv) == 2
        assert "error: cannot write output" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_sweep_out_in_a_missing_directory_exits_2(self, tmp_path,
                                                      capsys):
        cfg_path = _write_config(tmp_path, "c.json", GOLDEN_CONFIG)
        assert cli.main(["sweep", "--config", cfg_path, "--out",
                         str(tmp_path / "missing" / "s.csv")]) == 2
        assert "error: cannot write output" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    def test_fit_out_in_a_missing_directory_names_the_given_path(
            self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "fit.json")
        argv = self._power_input(tmp_path)
        argv[-1] = out
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert repr(out) in err and ".sweep-" not in err

    def test_sweep_out_in_a_missing_directory_names_the_given_path(
            self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "s.csv")
        cfg_path = _write_config(tmp_path, "c.json", GOLDEN_CONFIG)
        assert cli.main(["sweep", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert repr(out) in err and ".sweep-" not in err

    def test_sweep_out_on_an_existing_directory_names_the_given_path(
            self, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        cfg_path = _write_config(tmp_path, "c.json", GOLDEN_CONFIG)
        assert cli.main(["sweep", "--config", cfg_path, "--out",
                         str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(str(out)) in err and ".sweep-" not in err
        assert sorted(os.listdir(tmp_path)) == ["c.json", "outdir"]
        assert os.listdir(out) == []

    def test_fit_out_on_an_existing_directory_names_the_given_path(
            self, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        argv = self._power_input(tmp_path)
        argv[-1] = str(out)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert repr(str(out)) in err and ".sweep-" not in err
        assert sorted(os.listdir(tmp_path)) == ["outdir", "p.csv"]

    def test_solver_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise ConvergenceError("no convergence")
        monkeypatch.setattr(cli, "run_sweep", fail)
        cfg_path = _write_config(tmp_path, "c.json", GOLDEN_CONFIG)
        assert cli.main(["sweep", "--config", cfg_path, "--out",
                         str(tmp_path / "s.csv")]) == 4
        assert "error: no convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"steps": 5,', "invalid JSON"),
        ("[1, 2]", "expected key=value"),
        ("steps = 5\nmodel dicke\n", "expected key=value"),
    ])
    def test_unparsable_config_exits_2(self, tmp_path, capsys, text,
                                       message):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ({"mode": "ed", "n_max": 0}, "n_max must be positive"),
        ({"tol": 0}, "tolerance must be positive"),
    ])
    def test_zero_cutoff_or_tolerance_exits_2(self, tmp_path, capsys, raw,
                                               message):
        cfg_path = _write_config(tmp_path, "c.json", raw)
        assert cli.main(["validate-config", "--config", cfg_path]) == 2
        assert message in capsys.readouterr().err

    def test_fit_unreadable_input_exits_2(self, tmp_path, capsys):
        argv = self._power_input(tmp_path)
        argv[2] = str(tmp_path / "absent.csv")
        assert cli.main(argv) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_failed_fit_exits_2(self, tmp_path, capsys):
        # eight distances within one decade: too narrow a span to fit
        src = tmp_path / "p.csv"
        src.write_text("# columns: dist_cr,hp\n" + "".join(
            f"{x:.17g},{2.0 * x ** -0.25:.17g}\n"
            for x in np.linspace(1e-4, 2e-4, 8)))
        assert cli.main(["fit", "--input", str(src), "--column", "hp",
                         "--x-column", "dist_cr"]) == 2
        assert "fit failed" in capsys.readouterr().err

    def test_figure_out_on_an_existing_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert cli.main(["figure", "2", "--out", str(out)]) == 2
        assert "error: cannot write output" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_fit_out_takes_the_mode_of_a_plain_open(self, tmp_path):
        argv = self._power_input(tmp_path)
        old = os.umask(0o077)
        try:
            assert cli.main(argv) == 0
        finally:
            os.umask(old)
        assert (tmp_path / "fit.json").stat().st_mode & 0o777 == 0o600

    def test_fit_skips_divergent_rows(self, tmp_path, capsys):
        # the golden table keeps only 4 finite hp rows once the boundary
        # row is dropped, below the minimum for a fit
        src = tmp_path / "g.csv"
        src.write_text(GOLDEN_CSV)
        assert cli.main(["fit", "--input", str(src), "--column", "hp",
                         "--x-column", "dist_cr"]) == 2
        assert "5 usable rows" in capsys.readouterr().err

    def test_fit_log2_inferred_from_size_column(self, tmp_path, capsys):
        rows = "\n".join(f"{n},{0.16 * math.log2(n) + 0.3:.17g}"
                         for n in (8, 16, 32, 64, 128, 256))
        src = tmp_path / "s.csv"
        src.write_text("# columns: n_spins,s_vn\n" + rows + "\n")
        assert cli.main(["fit", "--input", str(src), "--column", "s_vn",
                         "--x-column", "n_spins"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "log2"
        assert report["exponent"] == pytest.approx(0.16, abs=1e-12)

    def test_fit_window(self, tmp_path, capsys):
        rows = "\n".join(f"{n},{0.25 * math.log2(n):.17g}"
                         for n in (2, 4, 8, 16, 32, 64, 128))
        src = tmp_path / "s.csv"
        src.write_text("# columns: n_spins,s_vn\n" + rows + "\n")
        assert cli.main(["fit", "--input", str(src), "--column", "s_vn",
                         "--x-column", "n_spins", "--window", "8:"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_rows"] == 5
        assert report["window"] == [8.0, "inf"]

    @pytest.mark.parametrize("window", ["a:b", "1:x", "1e:2"])
    def test_fit_malformed_window_exits_2(self, tmp_path, capsys, window):
        src = tmp_path / "g.csv"
        src.write_text(GOLDEN_CSV)
        assert cli.main(["fit", "--input", str(src), "--column", "hp",
                         "--x-column", "dist_cr", "--window", window]) == 2
        assert "window" in capsys.readouterr().err

    def test_fit_missing_column_exits_2(self, tmp_path):
        src = tmp_path / "g.csv"
        src.write_text(GOLDEN_CSV)
        assert cli.main(["fit", "--input", str(src), "--column", "nope",
                         "--x-column", "coupling"]) == 2

    def test_fit_reads_json_sweep_files(self, tmp_path):
        raw = dict(model="dicke", coupling_min=0.3, coupling_max=0.49,
                   steps=40)
        reports = []
        for fmt in ("csv", "json"):
            out = tmp_path / f"s.{fmt}"
            run_sweep(SweepConfig.from_dict(dict(raw, format=fmt,
                                                 out=str(out))))
            report = cli.run_fit(str(out), "hp", "dist_cr")
            assert report.pop("input") == str(out)
            reports.append(report)
        assert reports[0]["n_rows"] == 40
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("text", ['{"columns": ["hp"', '{"rows": []}',
                                      '{"columns": 1, "rows": []}'])
    def test_fit_malformed_json_exits_2(self, tmp_path, capsys, text):
        src = tmp_path / "s.json"
        src.write_text(text)
        assert cli.main(["fit", "--input", str(src), "--column", "hp",
                         "--x-column", "dist_cr"]) == 2
        assert "malformed sweep JSON" in capsys.readouterr().err

    def test_fit_too_few_rows_exits_2(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("# columns: n_spins,s_vn\n8,1.0\n16,1.2\n32,1.4\n")
        assert cli.main(["fit", "--input", str(src), "--column", "s_vn",
                         "--x-column", "n_spins"]) == 2


def test_fit_power_matches_direct_regression(tmp_path):
    xs = np.geomspace(1e-6, 1e-3, 8)
    ys = 2.0 * xs ** -0.25
    lines = "\n".join(f"{x:.17g},{y:.17g}" for x, y in zip(xs, ys))
    src = tmp_path / "p.csv"
    src.write_text("# columns: dist,hp\n" + lines + "\n")
    report = cli.run_fit(str(src), "hp", "dist")
    assert report["exponent"] == pytest.approx(-0.25, abs=1e-12)
    assert report["intercept"] == pytest.approx(math.log(2.0), abs=1e-12)
