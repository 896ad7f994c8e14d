"""Print the sha256 of the rendered CSV of every lattice point of a
benchmark workload, one "key digest" line per point, or of every file
that one figure writes, one "file digest" line per file.

Each point of bench/workloads.lattice(workload) is swept on its own and
rendered as CSV, so two checkouts give the same output on every point
exactly when this script prints the same lines in both.  A figure is
written into a temporary directory at the default seed and one worker,
and its files, the manifest last, are digested in manifest order.  The
program is imported from the src/ of the checkout that holds this
script.

Usage: python tools/output_digest.py WORKLOAD [KEY ...]
       python tools/output_digest.py figure N [--budget-nnz B]

With keys, only those points are digested, in the order given.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

import workloads  # noqa: E402

from hpdicke import sweeps  # noqa: E402
from hpdicke.ed import DEFAULT_BUDGET_NNZ  # noqa: E402
from hpdicke.figures import reproduce_figure  # noqa: E402


def digest(config: dict) -> str:
    """sha256 of the CSV that one sweep config renders to."""
    cfg = sweeps.SweepConfig.from_dict(config)
    text = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def figure_digests(figure: int, budget_nnz: int) -> list[str]:
    """One "file digest" line per file that the figure writes."""
    with tempfile.TemporaryDirectory() as outdir:
        rep = reproduce_figure(figure, outdir, budget_nnz=budget_nnz)
        blobs = [Path(outdir, name).read_bytes() for name in rep.files]
    return [f"{name} {hashlib.sha256(blob).hexdigest()}"
            for name, blob in zip(rep.files, blobs)]


def main(argv: list[str]) -> int:
    if argv[1:2] == ["figure"]:
        parser = argparse.ArgumentParser(prog="output_digest.py figure")
        parser.add_argument("id", type=int, choices=(1, 2, 3))
        parser.add_argument("--budget-nnz", dest="budget_nnz", type=int,
                            default=DEFAULT_BUDGET_NNZ)
        args = parser.parse_args(argv[2:])
        print("\n".join(figure_digests(args.id, args.budget_nnz)))
        return 0
    if len(argv) < 2 or argv[1] not in workloads.WORKLOADS:
        print("usage: python tools/output_digest.py WORKLOAD [KEY ...]\n"
              "       python tools/output_digest.py figure N "
              "[--budget-nnz B]", file=sys.stderr)
        return 2
    points = workloads.lattice(argv[1])
    for key in argv[2:] or points:
        print(key, digest(points[key]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
