"""tools/output_digest.py: one sha256 line per lattice point, equal to the
hash of the CSV the point renders to in this checkout."""

import hashlib
import subprocess
import sys
from pathlib import Path

from hpdicke import sweeps

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "bench"))
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


def test_unknown_workload_exits_2():
    assert _digest(["no-such-workload"]) == (2, "")
