"""tools/output_digest.py: one sha256 line per lattice point, equal to the
hash of the CSV the point renders to in this checkout, or one per file
that a figure writes, equal to the hash of that file, or one line per
point of the cutoff-walk scan, equal to the walk's accepted solve, or
one line per point of the double scan, equal to the scalar results and
the point's thermo-grid cells, or
one line per ed-fixed point, naming the shell its row was solved on
and the shell its HP Gaussian predicts, or one line per basis of the
build scan, equal to the hash of the matrix its public builder writes."""

import hashlib
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from hpdicke import ed, sweeps
from hpdicke.dicke import DickeParams
from hpdicke.double import (DoubleDickeParams, _double_thermo_grid,
                            double_gaps, hp_double, lower_polariton,
                            soft_mode_count, solve_double_thermo)
from hpdicke.double_ed import (DoubleEDBasis, build_double_hamiltonian,
                               converge_cutoff_double, photon_moments_double)
from hpdicke.ed import (EDBasis, build_hamiltonian, converge_cutoff,
                        photon_moments_ed)
from hpdicke.errors import CriticalPointDivergence, GaplessError, RegimeError
from hpdicke.figures import reproduce_figure

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "bench"), str(_ROOT / "tools")]
import output_digest  # noqa: E402
import workloads  # noqa: E402

KEYS = {"thermo-grid": ["dt:500", "tt:8:200"],
        "ed-auto": ["de:8:auto:200", "te:2:auto:0:110"]}


def _digest(cmd_args):
    out = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "output_digest.py"),
         *cmd_args], capture_output=True, text=True, check=False)
    return out.returncode, out.stdout


def test_digest_lines_are_the_rendered_csv_hashes():
    for workload, keys in KEYS.items():
        code, out = _digest([workload, *keys])
        assert code == 0
        points = workloads.lattice(workload)
        expected = []
        for key in keys:
            cfg = sweeps.SweepConfig.from_dict(points[key])
            text = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
            expected.append(
                f"{key} {hashlib.sha256(text.encode()).hexdigest()}")
        assert out.splitlines() == expected


def test_figure_digest_lines_are_the_written_file_hashes(tmp_path):
    code, out = _digest(["figure", "1", "--budget-nnz", "500"])
    assert code == 0
    rep = reproduce_figure(1, str(tmp_path), budget_nnz=500)
    assert out.splitlines() == [
        f"{name} {hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}"
        for name in rep.files]
    assert rep.files[-1] == "manifest.json"


def test_unknown_workload_exits_2():
    assert _digest(["no-such-workload"]) == (2, "")
    assert _digest(["values", "no-such-workload"]) == (2, "")
    assert _digest(["values"]) == (2, "")


def test_value_lines_are_the_computed_cells():
    """One line per point: every cell but the coordinates and n_spins, a
    float as float.hex, so equal lines are equal bits cell by cell."""
    keys = {"thermo-grid": ["dt:500", "tt:8:200"],
            "ed-fixed": ["de:128:40:200"]}
    given = {"index", "coupling", "dist_cr", "n_spins", "r", "theta",
             "lambda_c", "lambda_i", "dist_c", "dist_i"}
    for workload, picked in keys.items():
        code, out = _digest(["values", workload, *picked])
        assert code == 0
        points = workloads.lattice(workload)
        expected = []
        for key in picked:
            cfg = sweeps.SweepConfig.from_dict(points[key])
            (row,) = sweeps.sweep_rows(cfg)
            expected.append(" ".join([key] + [
                f"{c}={v.hex() if isinstance(v, float) else v}"
                for c, v in row.values.items() if c not in given]))
        assert out.splitlines() == expected
    cells = dict(c.split("=") for c in out.split()[1:])
    assert list(cells) == ["n_max_used", "ground_energy", "gap01", "parity",
                           "converged", "dx", "dp", "hp", "s_vn", "reason"]
    config = points["de:128:40:200"]
    _, _, rep = ed._row(DickeParams(1.0, 1.0, config["coupling_min"]),
                        EDBasis(128, 40), config["n_max"])
    assert float.fromhex(cells["hp"]) == rep.hp


def test_walk_lines_are_the_accepted_solves():
    code, out = _digest(["walk", "d:8:6", "d:1:0", "t:2:4:5"])
    assert code == 0
    single = [(key, n, converge_cutoff(DickeParams(1.0, 1.0, lam), n))
              for key, n, lam in (("d:8:6", 8, 0.05 * 6), ("d:1:0", 1, 0.0))]
    expected = [(key, res, photon_moments_ed(
        res, EDBasis(n, res.n_max_used)).hp) for key, n, res in single]
    theta, r = 4 * math.pi / 32, 0.1 * 5
    res = converge_cutoff_double(DoubleDickeParams(
        1.0, 1.0, 1.0, r * math.cos(theta), r * math.sin(theta), 2, 2))
    expected.append(("t:2:4:5", res, photon_moments_double(
        res, DoubleEDBasis(2, 2, res.n_max_used)).hp))
    assert out.splitlines() == [
        f"{key} {res.n_max_used} {hp.hex()} {res.ground_energy.hex()}"
        for key, res, hp in expected]
    keys = output_digest.walk_points()
    assert (len(keys), len(set(keys))) == (670, 670)


def test_double_lines_are_the_scalar_results():
    keys = ["g:0:4:14", "c:0:D:+0", "c:1:C:-10", "c:2:D:+10"]
    code, out = _digest(["double", *keys])
    assert code == 0
    expected = []
    for key in keys:
        p = output_digest._double_params(key)
        gaps = ",".join(g.hex() for g in double_gaps(p))
        try:
            sol = solve_double_thermo(p)
        except GaplessError as exc:
            solve = type(exc).__name__
        else:
            blob = repr((sol.phase, sol.mu_c, sol.mu_i,
                         sol.displacements)).encode()
            if sol.polariton_transform is not None:
                blob += sol.polariton_transform.tobytes()
            solve = (",".join(g.hex() for g in sol.gaps) + "/"
                     + hashlib.sha256(blob).hexdigest())
        try:
            lower = hashlib.sha256(lower_polariton(p).tobytes()).hexdigest()
        except (CriticalPointDivergence, GaplessError, RegimeError) as exc:
            lower = type(exc).__name__
        grid = _double_thermo_grid(p.omega_cav, p.omega0_c, p.omega0_i,
                                   [p.lambda_c], [p.lambda_i])
        cells = ",".join(x.hex() for x in (grid.dx[0], grid.dp[0],
                                           grid.hp[0]))
        if grid.errors[0] is not None:
            cells += "/" + type(grid.errors[0]).__name__
        try:
            rep = hp_double(p)
        except (CriticalPointDivergence, GaplessError) as exc:
            report = type(exc).__name__
        else:
            report = ",".join(x.hex() for x in (
                rep.n_occ, rep.sq.real, rep.sq.imag, rep.dx, rep.dp, rep.hp,
                rep.zeta, rep.phi))
        expected.append(f"{key} {gaps} {solve} {lower} {soft_mode_count(p)} "
                        f"{cells} {report}")
    assert out.splitlines() == expected
    assert [output_digest._double_params(k) for k in keys[1:]] == [
        DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5),
        DoubleDickeParams(1.0, 0.5, 2.0, math.sqrt(0.5) / 2 * (1 - 1e-10),
                          0.5 * math.sqrt(2.0) / 2),
        DoubleDickeParams(1.0, 3.0, 0.7, math.sqrt(3.0) / 2 * (1 + 1e-10),
                          math.sqrt(0.7) / 2 * (1 + 1e-10))]
    keys = output_digest.double_points()
    assert (len(keys), len(set(keys))) == (1197, 1197)


def test_support_lines_name_the_shell_and_its_accuracy():
    keys = ["de:128:40:200", "te:16:40:4:110", "de:128:100:505",
            "de:128:100:500"]
    code, out = _digest(["support", *keys])
    assert code == 0
    grids = [EDBasis(128, 40), DoubleEDBasis(16, 16, 40)]
    lines = [line.split() for line in out.splitlines()]
    # a normal row is one solve on the shell its Gaussian predicts
    shells = [18, 22]
    assert [line[:6] for line in lines[:2]] == [
        [key, str(grid.dim), str(k), str(k),
         str(replace(grid, shell=k).support.size), "1"]
        for key, grid, k in zip(keys, grids, shells)]
    single = grids[0]
    assert ed._gaussian_shell(single._hp_form(DickeParams(1.0, 1.0, 0.2)),
                              int(single.levels[-1])) == 18
    assert lines[2:] == [
        # superradiant: no HP form, solved once on the whole grid
        [keys[2], "13029", "grid", "-", "13029", "1", *lines[2][6:]],
        # lambda_cr: gapless, so shells 30, 45 and 68
        [keys[3], "13029", "68", "inf",
         str(EDBasis(128, 100, shell=68).support.size), "3",
         *lines[3][6:]]]
    for line in lines:
        assert max(float(line[6]), float(line[7])) < 1e-11


def _matrix_hash(H):
    h = hashlib.sha256(repr((H.indptr.dtype.str, H.indices.dtype.str,
                             H.data.dtype.str, H.shape)).encode())
    for part in (H.indptr, H.indices, H.data):
        h.update(part.tobytes())
    return h.hexdigest()


def test_build_lines_hash_the_built_matrices():
    keys = ["d:8:7:5:0", "d:3:2:-:1", "t:5:3:12:14:2", "d:2000:85:45:0",
            "t:32:32:120:30:0"]
    code, out = _digest(["build", *keys])
    assert code == 0
    single, double = output_digest._BUILD_SINGLE, output_digest._BUILD_DOUBLE
    built = [
        build_hamiltonian(DickeParams(*single[0]), EDBasis(8, 7, shell=5)),
        build_hamiltonian(DickeParams(*single[1]), EDBasis(3, 2)),
        build_double_hamiltonian(DoubleDickeParams(*double[2]),
                                 DoubleEDBasis(5, 3, 12, shell=14)),
        build_hamiltonian(DickeParams(*single[0]),
                          EDBasis(2000, 85, shell=45)),
        build_double_hamiltonian(DoubleDickeParams(*double[0]),
                                 DoubleEDBasis(32, 32, 120, shell=30))]
    assert out.splitlines() == [f"{key} {_matrix_hash(H)}"
                                for key, H in zip(keys, built)]
    assert single[1][2] == double[1][3] == double[2][4] == 0.0
    keys = output_digest.build_points()
    assert (len(keys), len(set(keys))) == (3904, 3904)
    # shells whose box is far smaller than the grid are in the scan
    assert {"d:10000:162:68:0", "t:128:128:100:68:0"} <= set(keys)
