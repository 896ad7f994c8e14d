"""The column-at-a-time renderers against the row-at-a-time reference.

The reference below formats every cell through one per-cell dispatch,
reading each row's values dict, as the renderers did before sweeps
became column tables.  It is kept only as an oracle: every table must
render to the same bytes in both formats.
"""

import json
import math

import numpy as np
import pytest

from hpdicke import double_ed, ed, sweeps
from hpdicke.errors import ConvergenceError
from hpdicke.sweeps import (SweepConfig, SweepRow, SweepTable, columns_for,
                            render_csv, render_json, sweep_rows)


def _ref_fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return format(v, ".17g")
    return str(v)


def _ref_json_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isinf(v) or math.isnan(v):
            return _ref_fmt(v)
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def ref_render_csv(cfg: SweepConfig, rows) -> str:
    cols = columns_for(cfg)
    lines = [f"# schema: {sweeps.SCHEMA}",
             f"# version: {sweeps.__version__}",
             f"# config-sha256: {cfg.config_sha256()}",
             f"# seed: {cfg.seed}",
             "# units: frequencies and couplings in units of omega_cav",
             f"# columns: {','.join(cols)}"]
    for row in rows:
        lines.append(",".join(_ref_fmt(row.values.get(c, "nan"))
                              for c in cols))
    return "\n".join(lines) + "\n"


def ref_render_json(cfg: SweepConfig, rows) -> str:
    cols = columns_for(cfg)
    payload = {
        "schema": sweeps.SCHEMA,
        "version": sweeps.__version__,
        "config_sha256": cfg.config_sha256(),
        "seed": cfg.seed,
        "units": "frequencies and couplings in units of omega_cav",
        "columns": cols,
        "rows": [[_ref_json_value(r.values.get(c, math.nan)) for c in cols]
                 for r in rows],
    }
    return json.dumps(payload, indent=1, sort_keys=False) + "\n"


def _assert_renders_like_reference(cfg: SweepConfig, table: SweepTable):
    assert render_csv(cfg, table) == ref_render_csv(cfg, table)
    assert render_json(cfg, table) == ref_render_json(cfg, table)


def _ray(theta: float, **extra) -> dict:
    """A thermo ray whose middle point lies on the nearer critical line
    (the double point at theta = pi/4)."""
    r_cr = 0.5 / max(math.cos(theta), math.sin(theta))
    return dict(model="double-dicke", mode="thermo", theta=theta,
                r_min=0.0, r_max=2.0 * r_cr, steps=41, **extra)


THERMO_CONFIGS = {
    # the middle coupling is exactly lambda_cr = 1/2
    "single": dict(model="dicke", mode="thermo", coupling_min=0.0,
                   coupling_max=1.0, steps=81, renyi=(2.0, 0.5)),
    "ray0": _ray(0.0, renyi=(3.0,)),
    "ray_pi4": _ray(math.pi / 4, renyi=(2.0, 0.5)),
}


@pytest.mark.parametrize("tag", sorted(THERMO_CONFIGS))
def test_thermo_tables_render_like_reference(tag):
    cfg = SweepConfig.from_dict(THERMO_CONFIGS[tag])
    table = sweep_rows(cfg)
    flags = [c for c in ("critical", "critical_c", "critical_i")
             if c in table.columns]
    assert any(any(table.columns[c]) for c in flags)
    _assert_renders_like_reference(cfg, table)


ED_CONFIGS = {
    "dicke": dict(model="dicke", mode="ed", coupling_min=0.2,
                  coupling_max=0.8, steps=4, n_spins=4),
    "double": dict(model="double-dicke", mode="ed", theta=math.pi / 8,
                   r_min=0.2, r_max=0.8, steps=3, n_spins=2),
}


@pytest.mark.parametrize("tag", sorted(ED_CONFIGS))
def test_ed_tables_with_a_failed_row_render_like_reference(tag,
                                                           monkeypatch):
    cfg = SweepConfig.from_dict(ED_CONFIGS[tag])
    module, name = ((ed, "converge_cutoff") if cfg.model == "dicke"
                    else (double_ed, "converge_cutoff_double"))
    walk = getattr(module, name)
    calls = []

    def failing_second_point(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ConvergenceError("forced")
        return walk(*args, **kwargs)

    clean = sweep_rows(cfg)
    monkeypatch.setattr(module, name, failing_second_point)
    table = sweep_rows(cfg)
    assert table.failed == [False, True] + [False] * (len(table) - 2)
    assert table[1].values["reason"] == "solver: ConvergenceError"
    _assert_renders_like_reference(cfg, table)
    # the failed row keeps its grid cells, bit for bit, and its solver
    # cells are the failure's: no cutoff, not converged, nan floats
    got, want = table[1].values, clean[1].values
    solver = columns_for(cfg)[columns_for(cfg).index("n_max_used"):-1]
    for c in set(got) - set(solver) - {"reason"}:
        assert type(got[c]) is type(want[c]), c
        assert np.array_equal(np.float64(got[c]).view(np.int64),
                              np.float64(want[c]).view(np.int64)), c
    assert got["index"] == 1 and got["n_spins"] == cfg.n_spins
    assert got["n_max_used"] == 0 and type(got["n_max_used"]) is int
    assert got["converged"] is False
    floats = [c for c in solver if c not in ("n_max_used", "converged")]
    assert floats == ["ground_energy", "gap01", "parity", "dx", "dp", "hp",
                      "s_vn"]
    assert all(isinstance(got[c], float) and math.isnan(got[c])
               for c in floats)
    assert [r.values for k, r in enumerate(table) if k != 1] \
        == [r.values for k, r in enumerate(clean) if k != 1]


def test_numpy_bool_cells_render_like_reference():
    cfg = SweepConfig.from_dict(THERMO_CONFIGS["single"])
    table = sweep_rows(cfg)
    flags = [np.bool_(v) if k % 2 else v
             for k, v in enumerate(table.columns["critical"])]
    table.columns["critical"] = flags
    assert {type(v) for v in flags} == {bool, np.bool_}
    _assert_renders_like_reference(cfg, table)


def test_mixed_kind_column_is_rejected():
    cfg = SweepConfig.from_dict(dict(THERMO_CONFIGS["single"], steps=3))
    table = sweep_rows(cfg)
    table.columns["hp"] = [1, 0.5, "x"]
    with pytest.raises(TypeError):
        render_csv(cfg, table)


@pytest.mark.parametrize("raw", [THERMO_CONFIGS["single"],
                                 ED_CONFIGS["dicke"]])
def test_sweep_rows_is_a_sequence_of_row_views(raw):
    cfg = SweepConfig.from_dict(dict(raw, steps=3))
    table = sweep_rows(cfg)
    names = columns_for(cfg)
    assert list(table.columns) == names
    assert len(table) == 3
    rows = list(table)
    assert [r.index for r in rows] == [0, 1, 2]
    assert all(isinstance(r, SweepRow) for r in rows)
    assert list(table[1].values) == names
    assert table[1].values == {c: table.columns[c][1] for c in names}
    assert table[-1] == table[2] == rows[2]
    assert [r.failed for r in table] == table.failed == [False] * 3
    with pytest.raises(IndexError):
        table[3]
