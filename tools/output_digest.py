"""Print the sha256 of the rendered CSV of every lattice point of a
benchmark workload, one "key digest" line per point.

Each point of bench/workloads.lattice(workload) is swept on its own and
rendered as CSV, so two checkouts give the same output on every point
exactly when this script prints the same lines in both.  The program is
imported from the src/ of the checkout that holds this script.

Usage: python tools/output_digest.py WORKLOAD [KEY ...]

With keys, only those points are digested, in the order given.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

import workloads  # noqa: E402

from hpdicke import sweeps  # noqa: E402


def digest(config: dict) -> str:
    """sha256 of the CSV that one sweep config renders to."""
    cfg = sweeps.SweepConfig.from_dict(config)
    text = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in workloads.WORKLOADS:
        print("usage: python tools/output_digest.py WORKLOAD [KEY ...]",
              file=sys.stderr)
        return 2
    points = workloads.lattice(argv[1])
    for key in argv[2:] or points:
        print(key, digest(points[key]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
