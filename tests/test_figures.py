import json
import os

import pytest

from hpdicke import __version__, cli, figures
from hpdicke.dicke import DickeParams, hp_thermo
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import (DoubleEDBasis, converge_cutoff_double,
                               photon_entropy_double, photon_moments_double)
from hpdicke.ed import (EDBasis, converge_cutoff, photon_entropy_ed,
                        photon_moments_ed)
from hpdicke.errors import BudgetExceeded, DomainError
from hpdicke.figures import reproduce_figure
from hpdicke.sweeps import SweepConfig


def _rows(path):
    with open(path) as handle:
        lines = [l.rstrip("\n") for l in handle]
    cols = next(l for l in lines if l.startswith("# columns: "))
    cols = cols.removeprefix("# columns: ").split(",")
    data = [l.split(",") for l in lines if not l.startswith("#")]
    return cols, data


def _public_inset_row(model, n, budget_nnz, seed):
    """The inset row of size n from the public walk, moments and entropy,
    each float cell as the 17 significant digits that round-trip it."""
    if model == "dicke":
        res = converge_cutoff(DickeParams(1.0, 1.0, 0.5), n,
                              budget_nnz=budget_nnz, seed=seed)
        basis = EDBasis(n, res.n_max_used)
        hp = photon_moments_ed(res, basis).hp
        s = photon_entropy_ed(res, basis)
    else:
        res = converge_cutoff_double(
            DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5, n, n),
            budget_nnz=budget_nnz, seed=seed)
        basis = DoubleEDBasis(n, n, res.n_max_used)
        hp = photon_moments_double(res, basis).hp
        s = photon_entropy_double(res, basis)
    return [str(n), str(res.n_max_used)] + [
        format(v, ".17g") for v in (hp, s, res.gap01, res.parity)]


@pytest.mark.parametrize("model,sizes", [("dicke", [4, 8]),
                                         ("double-dicke", [1, 2])])
def test_size_inset_rows_are_the_public_ed_rows(tmp_path, model, sizes):
    run = SweepConfig.from_dict(dict(budget_nnz=10 ** 6, seed=3))
    write = figures._size_inset(run, {"figure": 3}, model, sizes, "inset")
    assert write(str(tmp_path / "inset.csv")) == ["inset"]
    cols, data = _rows(tmp_path / "inset.csv")
    assert cols == ["n_spins", "n_max_used", "hp", "s_vn", "gap01",
                    "parity"]
    assert data == [_public_inset_row(model, n, 10 ** 6, 3) for n in sizes]


def test_figure_id_validated(tmp_path):
    with pytest.raises(DomainError):
        reproduce_figure(5, str(tmp_path))


def test_phase_diagram_figure_complete(tmp_path):
    outdir = tmp_path / "fig2"
    rep = reproduce_figure(2, str(outdir))
    assert not rep.budget_exceeded
    assert "fig2_phase_grid.csv" in rep.files
    assert "manifest.json" in rep.files
    assert len([f for f in rep.files if f.startswith("fig2_radial")]) == 5

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["schema"] == "hpdicke-figure-v1"
    assert manifest["figure"] == 2
    assert manifest["budget_exceeded"] is False
    assert manifest["files"] == [f for f in rep.files if f != "manifest.json"]

    cols, grid = _rows(outdir / "fig2_phase_grid.csv")
    assert len(grid) == 41 * 41
    i_phase = cols.index("phase")
    assert {r[i_phase] for r in grid} == {"Normal", "SuperradiantReal",
                                          "SuperradiantImag",
                                          "SuperradiantDouble"}

    # the theta = 0 panel reduces to the single-chain model
    cols, panel = _rows(outdir / "fig2_radial_theta_0.csv")
    i_r, i_hp = cols.index("r"), cols.index("hp")
    row = next(r for r in panel if abs(float(r[i_r]) - 0.3) < 1e-12)
    want = hp_thermo(DickeParams(omega=1.0, omega0=1.0, coupling=0.3)).hp
    assert abs(float(row[i_hp]) - want) < 1e-10
    crow = next(r for r in panel if abs(float(r[i_r]) - 0.5) < 1e-9)
    assert crow[i_hp] == "inf"
    assert crow[-1] == "critical-point"


def test_uncertainty_figure_partial_on_small_budget(tmp_path):
    outdir = tmp_path / "fig1"
    rep = reproduce_figure(1, str(outdir), budget_nnz=500)
    assert rep.budget_exceeded
    assert "fig1_thermo.csv" in rep.files
    assert any("budget exhausted" in n for n in rep.notes)
    assert not any(f.startswith("fig1_inset") for f in rep.files)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["budget_exceeded"] is True
    assert manifest["files"] == [f for f in rep.files if f != "manifest.json"]


def test_entropy_figure_partial_on_small_budget(tmp_path):
    outdir = tmp_path / "fig3"
    rep = reproduce_figure(3, str(outdir), budget_nnz=2000)
    assert rep.budget_exceeded
    assert "fig3_thermo_theta_5pi16.csv" in rep.files
    assert "fig3_thermo_theta_pi4.csv" in rep.files
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["budget_exceeded"] is True


def _budget_stop(name):
    return f"sparse budget exhausted while producing {name}; output is partial"


@pytest.mark.parametrize("figure, budget, files, notes", [
    (1, 500, ["fig1_thermo.csv"],
     ["thermodynamic curve sampled at 101 couplings; size curves at 51",
      _budget_stop("fig1_ed_n8.csv")]),
    (3, 2000, ["fig3_thermo_theta_5pi16.csv", "fig3_thermo_theta_pi4.csv"],
     [_budget_stop("fig3_ed_theta_5pi16_n4.csv")]),
])
def test_budget_stop_manifest(tmp_path, figure, budget, files, notes):
    rep = reproduce_figure(figure, str(tmp_path), budget_nnz=budget)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {"schema": "hpdicke-figure-v1",
                        "version": __version__, "figure": figure,
                        "seed": 7, "budget_nnz": budget, "files": files,
                        "notes": notes, "budget_exceeded": True}
    assert rep.files == (*files, "manifest.json")
    assert rep.notes == tuple(notes)
    assert sorted(os.listdir(tmp_path)) == sorted(rep.files)


def test_budget_stop_inside_a_table_step(tmp_path, monkeypatch):
    def stop(*args, **kwargs):
        raise BudgetExceeded("stopped in the inset")
    monkeypatch.setattr(figures, "scaling_at_critical", stop)
    rep = reproduce_figure(1, str(tmp_path))
    assert rep.budget_exceeded
    assert rep.notes[-1] == _budget_stop("fig1_inset_scaling.csv")
    assert rep.files == ("fig1_thermo.csv", "fig1_ed_n8.csv",
                         "fig1_ed_n16.csv", "fig1_ed_n32.csv",
                         "manifest.json")
    assert sorted(os.listdir(tmp_path)) == sorted(rep.files)


@pytest.mark.parametrize("option", [["--seed", "-1"], ["--budget-nnz", "0"],
                                    ["--workers", "0"]])
def test_bad_figure_argument_exits_2_and_writes_nothing(tmp_path, option):
    out = tmp_path / "fig2"
    assert cli.main(["figure", "2", "--out", str(out), *option]) == 2
    assert not out.exists()
