"""Print the sha256 of the rendered CSV of every lattice point of a
benchmark workload, one "key digest" line per point, or of every file
that one figure writes, one "file digest" line per file, or the accepted
cutoff of every point of the cutoff-walk scan, one "key n_max_used hp
energy" line per point.

Each point of bench/workloads.lattice(workload) is swept on its own and
rendered as CSV, so two checkouts give the same output on every point
exactly when this script prints the same lines in both.  A figure is
written into a temporary directory at the default seed and one worker,
and its files, the manifest last, are digested in manifest order.  The
walk scan is 670 calls of the cutoff walk at its defaults, omega =
omega0 = 1: one chain, key d:N:k, with N in 1, 2, 3, 4, 6, 8, 12, 16, 24,
32 at lambda = 0.05 k, k = 0 .. 30; two chains, key t:N:a:k, with N_C =
N_I = N in 1 .. 4 on theta = a pi/32, a = 0, 2, .. 16, at r = 0.1 k,
k = 1 .. 10.  hp and the ground energy print as float.hex, so equal
lines are equal bits.  The program is imported from the src/ of the
checkout that holds this script.

Usage: python tools/output_digest.py WORKLOAD [KEY ...]
       python tools/output_digest.py figure N [--budget-nnz B]
       python tools/output_digest.py walk [KEY ...]

With keys, only those points are digested, in the order given.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

import workloads  # noqa: E402

from hpdicke import double_ed, ed, sweeps  # noqa: E402
from hpdicke.dicke import DickeParams  # noqa: E402
from hpdicke.double import DoubleDickeParams  # noqa: E402
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


def walk_points() -> list[str]:
    """The keys of the cutoff-walk scan, in scan order."""
    single = [f"d:{n}:{k}" for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
              for k in range(31)]
    double = [f"t:{n}:{a}:{k}" for n in range(1, 5)
              for a in range(0, 17, 2) for k in range(1, 11)]
    return single + double


def walk_line(key: str) -> str:
    """"key n_max_used hp energy" for one point of the walk scan."""
    model, *ints = key.split(":")
    if model == "d":
        n, k = map(int, ints)
        res = ed.converge_cutoff(DickeParams(1.0, 1.0, 0.05 * k), n)
        hp = ed.photon_moments_ed(res, ed.EDBasis(n, res.n_max_used)).hp
    else:
        n, a, k = map(int, ints)
        theta, r = a * math.pi / 32, 0.1 * k
        res = double_ed.converge_cutoff_double(DoubleDickeParams(
            1.0, 1.0, 1.0, r * math.cos(theta), r * math.sin(theta), n, n))
        hp = double_ed.photon_moments_double(
            res, double_ed.DoubleEDBasis(n, n, res.n_max_used)).hp
    return f"{key} {res.n_max_used} {hp.hex()} {res.ground_energy.hex()}"


def main(argv: list[str]) -> int:
    if argv[1:2] == ["figure"]:
        parser = argparse.ArgumentParser(prog="output_digest.py figure")
        parser.add_argument("id", type=int, choices=(1, 2, 3))
        parser.add_argument("--budget-nnz", dest="budget_nnz", type=int,
                            default=DEFAULT_BUDGET_NNZ)
        args = parser.parse_args(argv[2:])
        print("\n".join(figure_digests(args.id, args.budget_nnz)))
        return 0
    if argv[1:2] == ["walk"]:
        for key in argv[2:] or walk_points():
            print(walk_line(key), flush=True)
        return 0
    if len(argv) < 2 or argv[1] not in workloads.WORKLOADS:
        print("usage: python tools/output_digest.py WORKLOAD [KEY ...]\n"
              "       python tools/output_digest.py figure N "
              "[--budget-nnz B]\n"
              "       python tools/output_digest.py walk [KEY ...]",
              file=sys.stderr)
        return 2
    points = workloads.lattice(argv[1])
    for key in argv[2:] or points:
        print(key, digest(points[key]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
