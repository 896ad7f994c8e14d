"""Print the sha256 of the rendered CSV of every lattice point of a
benchmark workload, one "key digest" line per point, or of every file
that one figure writes, one "file digest" line per file, or the accepted
cutoff of every point of the cutoff-walk scan, one "key n_max_used hp
energy" line per point, or the double-model scalar results at every
point of the double scan, one line per point, or the sha256 of every
Hamiltonian of the build scan, one "key digest" line per basis.

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
lines are equal bits.

The double scan is 1,197 points at omega_cav = 1 and (omega0_C,
omega0_I) = (1, 1), (0.5, 2), (3, 0.7), index m = 0, 1, 2: key g:m:a:k
on theta = a pi/16, a = 0 .. 8, at r = 0.05 k, k = 0 .. 40; and key
c:m:L:sE next to line L, C, I or D (the double point), at relative
distance d = 0 (E = 0) or 10^-E (E = 13, 10, 7, 4) on side s, + or -:
the line's couplings are lambda_cr (1 + s d), and on a single line the
other coupling is half its critical value.  A line reads "key gaps
solve lower soft grid report": double_gaps as float.hex;
solve_double_thermo's gaps as float.hex, a slash and the sha256 of its
other fields (their repr) and its transform's bytes; the sha256 of
lower_polariton's bytes; soft_mode_count; the dx, dp and hp cells of
the point's one-point thermo grid (those of a sweep row there) as
float.hex, with a slash and the error class of a failed cell; and
hp_double's report (n_occ, the real and imaginary parts of sq, dx, dp,
hp, zeta, phi) as float.hex.  A call that raises gives its error class
instead.

The support scan takes every point of the ed-fixed lattice, as for a
workload, and prints "key grid K K* support rounds hp_rel s_vn_rel": the
grid dimension, the shell K that the row was accepted on ("grid" for a
solve on the whole grid), the shell K* that the row's HP Gaussian
predicts (ed._gaussian_shell; "inf" where the form is gapless, "-" where
the point has no HP form), the support dimension, the number of solves
the row took, and the relative deviation of the row's hp and s_vn from
a full-grid solve of both parity sectors by ARPACK with tol=0 (_exact).

The build scan prints "key digest" for each basis of a fixed scan of
Hamiltonian builds through the public builders: the sha256 of the built
matrix's indptr, indices and data with their dtypes, and its shape.  A
one-chain key d:N:n_max:K:k is EDBasis(N, n_max, shell=K) at the params
_BUILD_SINGLE[k]; a two-chain key t:N_C:N_I:n_max:K:k is
DoubleEDBasis(N_C, N_I, n_max, shell=K) at _BUILD_DOUBLE[k]; K is "-"
for the whole grid.  The scan takes grids and shells K = 1, 5, 20, 30,
n_max and n_max + 2 over small sizes and cutoffs, at zero and nonzero
couplings and unequal frequencies, and shells whose box is far smaller
than the grid (N = 2000 and 10^4 on one chain, N = 32 and 128 on two).

The values mode prints, for each lattice point of a workload, "key
name=value ..." over the cells its sweep computes: every column but the
grid coordinates and n_spins, a float as float.hex and any other cell as
its text.  Two checkouts' lines can then be compared cell by cell, so a
stated output change can be bounded by the relative change of each
cell, where the workload digests only say that a point changed.

The program is imported from the src/ of the checkout that holds this
script.

Usage: python tools/output_digest.py WORKLOAD [KEY ...]
       python tools/output_digest.py values WORKLOAD [KEY ...]
       python tools/output_digest.py figure N [--budget-nnz B]
       python tools/output_digest.py walk [KEY ...]
       python tools/output_digest.py double [KEY ...]
       python tools/output_digest.py support [KEY ...]
       python tools/output_digest.py build [KEY ...]

With keys, only those points are digested, in the order given.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

import workloads  # noqa: E402

import numpy as np  # noqa: E402

from hpdicke import double, double_ed, ed, sweeps  # noqa: E402
from hpdicke.dicke import DickeParams  # noqa: E402
from hpdicke.double import DoubleDickeParams  # noqa: E402
from hpdicke.ed import DEFAULT_BUDGET_NNZ  # noqa: E402
from hpdicke.figures import reproduce_figure  # noqa: E402


def digest(config: dict) -> str:
    """sha256 of the CSV that one sweep config renders to."""
    cfg = sweeps.SweepConfig.from_dict(config)
    text = sweeps.render_csv(cfg, sweeps.sweep_rows(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def value_lines(key: str, config: dict) -> list[str]:
    """"key name=value ..." for each row that one sweep config computes:
    every cell but the grid coordinates and n_spins, a float as
    float.hex and any other cell as its str."""
    cfg = sweeps.SweepConfig.from_dict(config)
    given = {"n_spins", *sweeps._coordinates(cfg)}
    return [" ".join([key] + [
        f"{name}={cell.hex() if isinstance(cell, float) else cell}"
        for name, cell in row.values.items() if name not in given])
        for row in sweeps.sweep_rows(cfg)]


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


# (omega0_C, omega0_I) of the double scan
_MATTER = ((1.0, 1.0), (0.5, 2.0), (3.0, 0.7))


def double_points() -> list[str]:
    """The keys of the double scan, in scan order."""
    return [key for m in range(len(_MATTER)) for key in (
        [f"g:{m}:{a}:{k}" for a in range(9) for k in range(41)]
        + [f"c:{m}:{line}:{s}{e}" for line in "CID" for s in "+-"
           for e in (0, 13, 10, 7, 4)])]


def _double_params(key: str) -> DoubleDickeParams:
    kind, m, *rest = key.split(":")
    om0_c, om0_i = _MATTER[int(m)]
    p = DoubleDickeParams(1.0, om0_c, om0_i, 0.0, 0.0)
    if kind == "g":
        theta, r = int(rest[0]) * math.pi / 16, 0.05 * int(rest[1])
        return DoubleDickeParams(1.0, om0_c, om0_i, r * math.cos(theta),
                                 r * math.sin(theta))
    line, side = rest
    d = 0.0 if side[1:] == "0" else float(f"{side[0]}1e-{side[1:]}")
    near = {"C": (1.0 + d, 0.5), "I": (0.5, 1.0 + d), "D": (1.0 + d, 1.0 + d)}
    c, i = near[line]
    return DoubleDickeParams(1.0, om0_c, om0_i, p.lambda_c_cr * c,
                             p.lambda_i_cr * i)


def _called(fn, text):
    """text(fn()), or the class name of the error fn raises."""
    try:
        value = fn()
    except Exception as exc:
        return type(exc).__name__
    return text(value)


def _hexes(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _solution_text(sol: double.DoubleThermoSolution) -> str:
    blob = repr((sol.phase, sol.mu_c, sol.mu_i, sol.displacements)).encode()
    if sol.polariton_transform is not None:
        blob += sol.polariton_transform.tobytes()
    return f"{_hexes(sol.gaps)}/{hashlib.sha256(blob).hexdigest()}"


def _grid_text(p: DoubleDickeParams) -> str:
    g = double._double_thermo_grid(p.omega_cav, p.omega0_c, p.omega0_i,
                                   [p.lambda_c], [p.lambda_i])
    text = _hexes([g.dx[0], g.dp[0], g.hp[0]])
    return text if g.errors[0] is None else (
        f"{text}/{type(g.errors[0]).__name__}")


def _report_text(rep) -> str:
    return _hexes([rep.n_occ, rep.sq.real, rep.sq.imag, rep.dx, rep.dp,
                   rep.hp, rep.zeta, rep.phi])


def double_line(key: str) -> str:
    """"key gaps solve lower soft grid report" for one point of the
    double scan."""
    p = _double_params(key)
    return " ".join([
        key, _called(lambda: double.double_gaps(p), _hexes),
        _called(lambda: double.solve_double_thermo(p), _solution_text),
        _called(lambda: double.lower_polariton(p),
                lambda row: hashlib.sha256(row.tobytes()).hexdigest()),
        _called(lambda: double.soft_mode_count(p), str), _grid_text(p),
        _called(lambda: double.hp_double(p), _report_text)])


def _exact(p, basis: ed._Basis) -> tuple[float, float]:
    """hp and s_vn of the ground state on the whole grid of the basis:
    each parity sector solved by ARPACK to machine precision (tol=0) from
    a seeded draw, the odd one taken by the row's own rule."""
    build, _, moments, entropy, _ = basis._api()
    H, parity = build(p, basis), basis.parity
    minima = []
    for sign in (1.0, -1.0):
        idx = np.flatnonzero(parity == sign)
        v0 = np.random.default_rng(ed.DEFAULT_SEED).standard_normal(idx.size)
        w, v = ed._scipy().sparse.linalg.eigsh(
            H[idx][:, idx], k=1, which="SA", v0=v0, tol=0)
        minima.append((float(w[0]), sign, idx, v[:, 0]))
    even, odd = minima
    odd_wins = odd[0] < even[0] - ed.SOLVE_TOL * max(1.0, abs(even[0]))
    e0, sign, idx, v = odd if odd_wins else even
    psi = np.zeros(basis.dim)
    psi[idx] = v
    res = ed.EDResult(ground_energy=e0, gap01=abs(odd[0] - even[0]),
                      state=basis.gauge * psi, parity=sign,
                      cutoff_converged=True, n_max_used=basis.n_max)
    return moments(res, basis).hp, entropy(res, basis)


def support_line(key: str) -> str:
    """"key grid K K* support rounds hp_rel s_vn_rel" for one point of
    the ed-fixed lattice: its sweep row, the params and bases of its
    Hamiltonian builds (one per solve at an explicit cutoff), the
    Gaussian's shell, and the full-grid tol=0 solve of the last one."""
    cfg = sweeps.SweepConfig.from_dict(workloads.lattice("ed-fixed")[key])
    seen = []
    saved = [(m, name, getattr(m, name)) for m, name in (
        (ed, "build_hamiltonian"), (double_ed, "build_double_hamiltonian"))]

    def recording(p, basis, *, _fn):
        seen.append((p, basis))
        return _fn(p, basis)

    for module, name, fn in saved:
        setattr(module, name, functools.partial(recording, _fn=fn))
    try:
        row = sweeps.sweep_rows(cfg)[0].values
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    p, basis = seen[-1]
    grid = replace(basis, shell=None)
    form = grid._hp_form(p)
    predicted = ("-" if form is None else
                 str(ed._gaussian_shell(form, int(grid.levels[-1]))))
    hp, s_vn = _exact(p, grid)
    return " ".join([
        key, str(basis.dim), "grid" if basis.shell is None else str(basis.shell),
        predicted, str(basis.support.size), str(len(seen)),
        f"{abs(row['hp'] - hp) / hp:.1e}", f"{abs(row['s_vn'] - s_vn) / s_vn:.1e}"])


# (omega, omega0, coupling) and (omega_cav, omega0_C, omega0_I, lambda_C,
# lambda_I) of the build scan
_BUILD_SINGLE = ((1.0, 1.0, 0.5), (1.3, 0.7, 0.0), (0.8, 1.7, 1.1))
_BUILD_DOUBLE = ((1.0, 1.0, 1.0, 0.4, 0.3), (1.3, 0.7, 1.9, 0.0, 0.6),
                 (0.8, 1.7, 0.5, 0.9, 0.0))


def build_points() -> list[str]:
    """The keys of the build scan, in scan order."""
    def shells(n_max: int) -> list[str]:
        return ["-"] + [str(k) for k in sorted({1, 5, 20, 30, n_max,
                                                 n_max + 2})]

    single = [f"d:{n}:{m}:{k}:{c}"
              for n in (1, 2, 3, 4, 5, 8, 16, 33, 64, 128, 512)
              for m in (1, 2, 3, 7, 12, 20, 40) for k in shells(m)
              for c in range(3)]
    double = [f"t:{nc}:{ni}:{m}:{k}:{c}" for nc in (1, 2, 3, 5, 8, 16)
              for ni in (1, 2, 3, 8) for m in (1, 2, 4, 12, 30)
              for k in shells(m) for c in range(3)]
    boxed = [f"d:2000:85:{k}:{c}" for k in ("-", "45") for c in range(3)] + [
        "d:10000:162:68:0", "t:32:32:120:30:0", "t:32:32:120:30:2",
        "t:128:128:100:68:0"]
    return single + double + boxed


def build_line(key: str) -> str:
    """"key digest" for one basis of the build scan."""
    model, *sizes, shell, case = key.split(":")
    sizes = [int(n) for n in sizes]
    shell = None if shell == "-" else int(shell)
    if model == "d":
        H = ed.build_hamiltonian(DickeParams(*_BUILD_SINGLE[int(case)]),
                                 ed.EDBasis(*sizes, shell=shell))
    else:
        H = double_ed.build_double_hamiltonian(
            DoubleDickeParams(*_BUILD_DOUBLE[int(case)]),
            double_ed.DoubleEDBasis(*sizes, shell=shell))
    h = hashlib.sha256(repr((H.indptr.dtype.str, H.indices.dtype.str,
                             H.data.dtype.str, H.shape)).encode())
    for part in (H.indptr, H.indices, H.data):
        h.update(part.tobytes())
    return f"{key} {h.hexdigest()}"


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
    if argv[1:2] == ["support"]:
        for key in argv[2:] or workloads.lattice("ed-fixed"):
            print(support_line(key), flush=True)
        return 0
    if argv[1:2] == ["build"]:
        for key in argv[2:] or build_points():
            print(build_line(key), flush=True)
        return 0
    if argv[1:2] == ["double"]:
        for key in argv[2:] or double_points():
            print(double_line(key), flush=True)
        return 0
    values = argv[1:2] == ["values"]
    args = argv[1 + values:]
    if not args or args[0] not in workloads.WORKLOADS:
        print("usage: python tools/output_digest.py WORKLOAD [KEY ...]\n"
              "       python tools/output_digest.py values WORKLOAD "
              "[KEY ...]\n"
              "       python tools/output_digest.py figure N "
              "[--budget-nnz B]\n"
              "       python tools/output_digest.py walk [KEY ...]\n"
              "       python tools/output_digest.py double [KEY ...]\n"
              "       python tools/output_digest.py support [KEY ...]\n"
              "       python tools/output_digest.py build [KEY ...]",
              file=sys.stderr)
        return 2
    points = workloads.lattice(args[0])
    for key in args[1:] or points:
        print("\n".join(value_lines(key, points[key])) if values
              else f"{key} {digest(points[key])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
