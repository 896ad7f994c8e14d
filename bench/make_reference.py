"""Rebuild bench/reference.json: hp and s_vn at every lattice point any
seed of any workload can produce.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Run it from the repository root on the commit whose results are the
reference.  Each point is solved as its own one-point sweep, so no
request order or cache state enters.  The script also applies the
per-row invariants to every point and exits 1 if any point fails them,
so a workload can never draw a point that fails at this commit.
"""

from __future__ import annotations

import json
import os
import sys
import time

from hpdicke import sweeps

import check
import workloads

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")


def main(names: list[str]) -> int:
    table = {}
    if os.path.exists(PATH):
        table = check.load_reference(PATH)
    bad = 0
    for name in names or workloads.WORKLOADS:
        t0 = time.perf_counter()
        points = workloads.lattice(name)
        for key, raw in points.items():
            cfg = sweeps.SweepConfig.from_dict(raw)
            text = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
            row = check.parse(text)[0]
            if row["hp"] != float("inf"):
                table[key] = [row["hp"], row["s_vn"]]
            problem = check.check_request({"config": raw, "keys": [key]},
                                          text, table)[0]
            if problem:
                bad += 1
                print(f"{key}: {problem}", file=sys.stderr)
        print(f"{name}: {len(points)} points in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    # drop points no workload can produce any more
    live = set().union(*(workloads.lattice(w) for w in workloads.WORKLOADS))
    table = {k: v for k, v in sorted(table.items()) if k in live}
    with open(PATH, "w") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
