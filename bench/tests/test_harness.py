"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests

Runs a few cheap requests of each workload through the real harness and
checks that every metric BENCHMARK.json names is emitted, that a
corrupted reference value is caught, and that a layer that records no
calls fails the traced run.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny(workload: str) -> list[dict]:
    """The cheapest requests of seed 1 that still reach every layer the
    workload must exercise."""
    reqs = workloads.generate(workload, 1)
    if workload == "thermo-grid":
        singles = [r for r in reqs if r["config"]["model"] == "dicke"]
        doubles = [r for r in reqs if r["config"]["model"] != "dicke"]
        return singles[:2] + doubles[:1]
    small = {"ed-auto": (8, 2), "ed-fixed": (128, 16)}[workload]
    out = []
    for model, n in zip(("dicke", "double-dicke"), small):
        out += [r for r in reqs if r["config"]["model"] == model
                and r["config"]["n_spins"] == n][:1]
    return out


@pytest.fixture(scope="module")
def reference():
    return check.load_reference(os.path.join(BENCH, "reference.json"))


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, reference):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result = run.measure(workload, _tiny(workload), 0, True, reference, SRC)
    plain = run.report(result, False)
    traced = run.report(result, True)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert plain["correct"] and plain["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    for out in (plain, traced):
        for name, metric in out["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def test_corrupted_reference_turns_failed_frac_nonzero(reference):
    reqs = _tiny("thermo-grid")
    key = next(k for k in reqs[0]["keys"] if k in reference)
    bad = copy.deepcopy(reference)
    bad[key][0] *= 1.0 + 1e-6
    result = run.measure("thermo-grid", reqs, 0, False, bad, SRC)
    assert result["failed"] >= 1
    assert result["failed_frac"] > 0
    assert not run.report(result, False)["correct"]


def test_layer_without_calls_fails_traced_run(reference):
    # single-chain requests only: the double layer records nothing
    reqs = [r for r in _tiny("thermo-grid") if r["config"]["model"] == "dicke"]
    with pytest.raises(run.BenchError, match="double"):
        run.measure("thermo-grid", reqs, 0, True, reference, SRC)


def test_exits_nonzero_without_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "ed-auto", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
