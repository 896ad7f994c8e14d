"""scipy is loaded by the ED path only.

The thermo API and thermo sweeps run on numpy alone; an ED config loads
scipy's solvers when it is validated, and every ED call site loads them
itself when no config was, the photon entropy included, which forms and
diagonalizes its reduced density on scipy's BLAS and LAPACK.  This
process has long since imported scipy, so each check runs in a fresh
interpreter.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

from hpdicke.dicke import DickeParams
from hpdicke.double import DoubleDickeParams
from hpdicke.double_ed import (DoubleEDBasis, build_double_hamiltonian,
                               double_ground_state, symmetry_residuals)
from hpdicke.ed import _DENSE_DIM, EDBasis, build_hamiltonian, ground_state

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
# what a thermo run must not load: scipy's solvers and the process pool
UNUSED = ("scipy.sparse", "scipy.linalg", "concurrent.futures.process")


def _fresh(code: str) -> dict:
    """Run code in a fresh interpreter with src and tests on the path;
    it prints one JSON object, returned parsed."""
    path = os.pathsep.join(filter(None, [SRC, TESTS,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


THERMO_RUN = """
    import json, math, os, sys, tempfile
    UNUSED = {unused!r}

    def loaded():
        return [m for m in UNUSED if m in sys.modules]

    steps = {{}}
    import hpdicke
    steps["import"] = loaded()
    from hpdicke import cli, sweeps
    from hpdicke.dicke import DickeParams, hp_thermo
    from hpdicke.double import DoubleDickeParams, entropy_double, hp_double
    middle = []
    for raw in (dict(model="dicke", coupling_min=0.2, coupling_max=0.8,
                     steps=5, renyi=(2.0,)),
                dict(model="double-dicke", theta=math.pi / 4, r_min=0.0,
                     r_max=math.sqrt(2.0), steps=3)):
        cfg = sweeps.SweepConfig.from_dict(raw)
        table = sweeps.sweep_rows(cfg)
        sweeps.render_csv(cfg, table)
        sweeps.render_json(cfg, table)
        middle.append(table[len(table) // 2].values)
    steps["sweep"] = loaded()
    hp_thermo(DickeParams(omega=1.0, omega0=1.0, coupling=0.3))
    p = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                          lambda_c=0.3, lambda_i=0.2)
    hp_double(p)
    entropy_double(p)
    steps["scalar"] = loaded()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "c.json")
        with open(config, "w") as fh:
            json.dump(dict(model="dicke", steps=4), fh)
        code = cli.main(["sweep", "--config", config,
                         "--out", os.path.join(tmp, "s.csv")])
    steps["cli"] = loaded()
    sweeps.SweepConfig.from_dict(dict(mode="ed"))
    ed = [m for m in ("scipy.sparse.linalg", "scipy.linalg")
          if m in sys.modules]
    print(json.dumps(dict(steps=steps, ed=ed, cli_exit=code,
                          double_point=middle[1])))
""".format(unused=UNUSED)


@pytest.fixture(scope="module")
def thermo_run() -> dict:
    return _fresh(THERMO_RUN)


@pytest.mark.parametrize("step", ["import", "sweep", "scalar", "cli"])
def test_thermo_step_loads_no_scipy(thermo_run, step):
    assert thermo_run["steps"][step] == []


def test_thermo_run_reached_the_double_point_and_the_cli(thermo_run):
    row = thermo_run["double_point"]
    assert thermo_run["cli_exit"] == 0
    assert row["critical_c"] and row["critical_i"]
    assert row["reason"] == "" and math.isfinite(row["hp"])


def test_ed_config_loads_the_solvers(thermo_run):
    assert thermo_run["ed"] == ["scipy.sparse.linalg", "scipy.linalg"]


# (single-chain basis, coupling) and (two-chain basis, couplings): each
# model at one size solved densely and one above _DENSE_DIM (ARPACK)
SINGLE = [((4, 30), 0.7), ((16, 80), 0.6)]
DOUBLE = [((2, 2, 10), (0.5, 0.4)), ((4, 4, 60), (0.6, 0.5))]


def ed_fingerprints() -> dict:
    """Ground energy, gap, parity and state sha256 of each ED case, and
    the two-chain symmetry residuals; solved through the library API with
    no SweepConfig.  loaded_before says whether scipy's solvers were
    loaded before the first solve."""
    loaded = [m for m in UNUSED[:2] if m in sys.modules]
    out = {"loaded_before": loaded, "dense": [], "cases": []}

    def record(res, dim):
        out["dense"].append(dim <= _DENSE_DIM)
        out["cases"].append([res.ground_energy.hex(), res.gap01.hex(),
                             res.parity,
                             hashlib.sha256(res.state.tobytes()).hexdigest()])

    for (n_spins, n_max), lam in SINGLE:
        basis = EDBasis(n_spins, n_max)
        p = DickeParams(omega=1.0, omega0=1.0, coupling=lam)
        record(ground_state(build_hamiltonian(p, basis), basis), basis.dim)
    for (n_c, n_i, n_max), (lam_c, lam_i) in DOUBLE:
        basis = DoubleEDBasis(n_c, n_i, n_max)
        p = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                              lambda_c=lam_c, lambda_i=lam_i)
        H = build_double_hamiltonian(p, basis)
        record(double_ground_state(H, basis), basis.dim)
        out["cases"].append(list(symmetry_residuals(H, basis)))
    return out


def test_ed_library_api_loads_scipy_itself():
    fresh = _fresh("""
        import json
        import hpdicke
        from test_scipy_loading import ed_fingerprints
        print(json.dumps(ed_fingerprints()))
    """)
    here = json.loads(json.dumps(ed_fingerprints()))
    assert fresh["loaded_before"] == []
    assert fresh["dense"] == [True, False, True, False]
    assert fresh["cases"] == here["cases"]


ENTROPY_RUN = """
    import json, sys
    import numpy as np
    from hpdicke.double_ed import DoubleEDBasis, photon_entropy_double
    from hpdicke.ed import EDBasis, EDResult, photon_entropy_ed
    out = {"loaded_before": [m for m in %r if m in sys.modules],
           "entropy": []}
    for basis, entropy in ((EDBasis(4, 6), photon_entropy_ed),
                           (DoubleEDBasis(2, 3, 5), photon_entropy_double)):
        state = np.cos(0.7 * np.arange(basis.dim) + 0.1) * basis.gauge
        state /= np.linalg.norm(state)
        res = EDResult(0.0, 0.0, state, 1.0, True, basis.n_max)
        out["entropy"].append(entropy(res, basis).hex())
    out["loaded"] = [m for m in %r if m in sys.modules]
    print(json.dumps(out))
""" % (UNUSED[:2], UNUSED[:2])


def test_photon_entropy_loads_scipy_itself():
    """On a hand-built EDResult, with no solve before it, each model's
    photon entropy loads scipy and gives the bits that numpy's W W^dag
    and eigvalsh gave."""
    fresh = _fresh(ENTROPY_RUN)
    assert fresh["loaded_before"] == []
    assert fresh["loaded"] == list(UNUSED[:2])
    assert fresh["entropy"] == ["0x1.ee1615fc968eep-1",
                                "0x1.e767619a559f9p+0"]
