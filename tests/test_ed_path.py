"""The one ED path behind both models' public names: every sweep and the
one-shot double_ed reach the eleven public ED functions through their
module attributes, as often as the walk and the fixed-cutoff solve need,
and double_ed gives the bits of the sweep row at the same point."""

import collections
import math

import pytest

from hpdicke import double_ed, ed, sweeps
from hpdicke.double import DoubleDickeParams

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
# probes that inverse iteration confirms with no eigensolve, 6 solves, 3
# of them not cutoff_converged, and 9 moment reductions (one per
# converged solve, per probe and per row)
WALK_SINGLE = {"converge_cutoff": 3, "build_hamiltonian": 9,
               "ground_state": 6, "photon_moments_ed": 9,
               "photon_entropy_ed": 3}
WALK_DOUBLE = {"converge_cutoff_double": 3, "build_double_hamiltonian": 9,
               "double_ground_state": 6, "photon_moments_double": 9,
               "photon_entropy_double": 3}
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


def test_double_ed_calls_each_public_name(calls):
    double_ed.double_ed(DoubleDickeParams(1.0, 1.0, 1.0, 0.3, 0.1, 8, 8),
                        n_max=30)
    assert dict(calls) == {"double_ed": 1, "build_double_hamiltonian": 1,
                           "double_ground_state": 1,
                           "photon_moments_double": 1,
                           "photon_entropy_double": 1}


def test_double_ed_is_the_sweep_row():
    """At a sparse normal point double_ed starts from the HP state as the
    sweep does, so every cell agrees bitwise."""
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
