"""The stacked Bogoliubov step against its row-at-a-time reference
(bogoliubov_rows.py): gaps, Krein energies, transforms, mode-0 moments and
per-row errors must agree bit for bit."""

import importlib.util
import math
import os

import numpy as np
import pytest

from bogoliubov_rows import bogoliubov_rows
from hpdicke import double
from hpdicke.double import DoubleDickeParams, double_quadrature_matrix
from hpdicke.errors import GaplessError, InstabilityError
from hpdicke.gaussian import (QuadraticForm, _bogoliubov_stack,
                              _mode_moments, _nambu_stack, form_matrix)
from hpdicke.sweeps import SweepConfig, sweep_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _assert_rows_equal(M: np.ndarray, stable: np.ndarray):
    """The stack of M equals the reference row by row, bitwise; returns
    the stack."""
    stack = _bogoliubov_stack(M, stable)
    gaps, modes, transforms, moments, errors = bogoliubov_rows(M, stable)
    assert _bits(stack.gaps) == _bits(gaps)
    got = _mode_moments(stack.transform, 0j, 0)
    for k in range(len(M)):
        assert type(stack.errors[k]) is type(errors[k]), k
        if transforms[k] is None:
            assert np.isnan(stack.transform[k]).all()
            continue
        assert _bits(stack.modes[k]) == _bits(modes[k])
        assert _bits(stack.transform[k]) == _bits(transforms[k])
        assert _bits(np.array(got[k])) == _bits(np.array(moments[k]))
    return stack


def _thermo_grid_requests(seed: int) -> list[dict]:
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("thermo-grid", seed)


def test_every_double_ray_of_the_thermo_request_set(monkeypatch):
    stacks = []
    stack_step = double._bogoliubov_stack

    def recording(M, stable):
        stacks.append((M.copy(), stable.copy()))
        return stack_step(M, stable)

    monkeypatch.setattr(double, "_bogoliubov_stack", recording)
    for req in _thermo_grid_requests(1):
        if req["config"]["model"] == "double-dicke":
            sweep_rows(SweepConfig.from_dict(req["config"]))
    monkeypatch.undo()
    assert len(stacks) == 32
    for M, stable in stacks:
        _assert_rows_equal(M, stable)


def _double_stack(points) -> np.ndarray:
    return _nambu_stack(np.array([
        double_quadrature_matrix(DoubleDickeParams(*p))[0] for p in points]))


@pytest.mark.parametrize("om0_i", [1.0, 1.0 + 1e-10, 2.0])
def test_near_degenerate_gap_groups(om0_i):
    # zero couplings at om = om0_C give two (or, with om0_I, three) equal
    # gaps, and tiny couplings split them far inside the group tolerance
    points = [(1.0, 1.0, om0_i, lc, li)
              for lc, li in ((0.0, 0.0), (1e-9, 0.0), (0.0, 1e-9),
                             (1e-12, 3e-12), (0.1, 0.0), (0.2, 0.3))]
    M = _double_stack(points)
    stack = _assert_rows_equal(M, np.ones(len(M), dtype=bool))
    assert stack.errors == [None] * len(M)
    equal = np.count_nonzero(np.abs(stack.modes[:4] - 1.0) < 1e-8, axis=1)
    assert (equal == (3 if om0_i < 2.0 else 2)).all()
    sz = np.diag([1.0, 1, 1, -1, -1, -1])
    for T in stack.transform:
        assert np.abs(T @ sz @ T.conj().T - sz).max() < 1e-12


def _form(a, b) -> np.ndarray:
    n = len(a)
    return form_matrix(QuadraticForm(A=np.diag(a).astype(complex),
                                     B=np.asarray(b, dtype=complex),
                                     d=np.zeros(n, complex)))


def test_failed_rows_leave_the_good_rows_alone():
    good = _double_stack([(1.0, 1.0, 1.0, 0.3, 0.2), (1.0, 2.0, 0.5, 0.9, 0.1),
                          (1.0, 1.0, 1.0, 0.7, 0.7)])
    gapless = _form([0.0, 1.0, 2.0], np.zeros((3, 3)))
    complex_gaps = _form([1.0, 1.0, 1.0], np.diag([1.0, 0.0, 0.0]))
    M = np.array([good[0], gapless, good[1], complex_gaps, good[2]])
    stable = np.ones(len(M), dtype=bool)
    stack = _assert_rows_equal(M, stable)
    assert [type(e) for e in stack.errors] == [
        type(None), GaplessError, type(None), InstabilityError, type(None)]
    assert np.isnan(stack.gaps[3]).all() and not np.isnan(stack.gaps[1]).any()
    alone = _bogoliubov_stack(good, np.ones(len(good), dtype=bool))
    for k, row in zip((0, 2, 4), range(3)):
        assert _bits(stack.gaps[k]) == _bits(alone.gaps[row])
        assert _bits(stack.transform[k]) == _bits(alone.transform[row])
    assert math.isnan(stack.modes[1, 0]) and math.isnan(stack.modes[3, 0])
