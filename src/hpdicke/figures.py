"""Reference datasets for the three summary figures.

Each generator writes plain data files (no plotting) plus a manifest
that lists the files, the sampling choices, and any reductions relative
to full publication scale.  Running out of sparse-matrix budget leaves
the files produced so far in place and records the interruption in the
manifest instead of failing the whole command.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dicke import DickeParams
from .double import DoubleDickeParams, classify_double_phase
from .ed import (DEFAULT_BUDGET_NNZ, DEFAULT_SEED, EDBasis, _observables,
                 converge_cutoff, scaling_at_critical)
from .double_ed import DoubleEDBasis, converge_cutoff_double
from .errors import BudgetExceeded, DomainError
from .sweeps import SweepConfig, _csv_lines, run_sweep, write_atomic

__all__ = ["FigureReport", "reproduce_figure"]

FIGURE_SCHEMA = "hpdicke-figure-v1"

# rays shown in the radial phase-diagram panels
_PANEL_THETAS = (("0", 0.0), ("pi8", math.pi / 8), ("pi4", math.pi / 4),
                 ("3pi8", 3 * math.pi / 8), ("pi2", math.pi / 2))


@dataclass(frozen=True)
class FigureReport:
    figure: int
    outdir: str
    files: tuple[str, ...]
    notes: tuple[str, ...]
    budget_exceeded: bool = False


def _figure_header(figure: int, seed: int, columns: list[str]) -> list[str]:
    return [
        f"# schema: {FIGURE_SCHEMA}",
        f"# version: {__version__}",
        f"# figure: {figure}",
        f"# seed: {seed}",
        "# units: frequencies and couplings in units of omega_cav",
        f"# columns: {','.join(columns)}",
    ]


def _write_table(path: str, figure: int, seed: int, columns: list[str],
                 rows: list[dict]) -> None:
    lines = _figure_header(figure, seed, columns)
    lines += _csv_lines([[row[c] for row in rows] for c in columns])
    write_atomic(path, "\n".join(lines) + "\n")


class _Collector:
    """Accumulates produced files and notes; remembers a budget stop."""

    def __init__(self, figure: int, outdir: str):
        self.figure = figure
        self.outdir = outdir
        self.files: list[str] = []
        self.notes: list[str] = []
        self.stopped = False

    def add(self, path: str):
        self.files.append(os.path.basename(path))

    def note(self, text: str):
        self.notes.append(text)

    def stop(self, stage: str):
        self.stopped = True
        self.note(f"sparse budget exhausted while producing {stage}; "
                  "output is partial")

    def report(self, seed: int, budget_nnz: int) -> FigureReport:
        manifest = {
            "schema": FIGURE_SCHEMA,
            "version": __version__,
            "figure": self.figure,
            "seed": seed,
            "budget_nnz": budget_nnz,
            "files": self.files,
            "notes": self.notes,
            "budget_exceeded": self.stopped,
        }
        path = os.path.join(self.outdir, "manifest.json")
        write_atomic(path, json.dumps(manifest, indent=1) + "\n")
        self.files.append("manifest.json")
        return FigureReport(figure=self.figure, outdir=self.outdir,
                            files=tuple(self.files),
                            notes=tuple(self.notes),
                            budget_exceeded=self.stopped)


def _sweep_file(col: _Collector, name: str, raw: dict, workers: int) -> bool:
    """Run one sweep into the figure directory; False on budget stop."""
    path = os.path.join(col.outdir, name)
    cfg = SweepConfig.from_dict(dict(raw, out=path, workers=workers))
    try:
        _, warned = run_sweep(cfg)
    except BudgetExceeded:
        col.stop(name)
        return False
    col.add(path)
    if warned:
        col.note(f"{name}: {warned} row(s) recorded a solver failure")
    return True


_SIZE_COLS = ["n_spins", "n_max_used", "hp", "s_vn", "gap01", "parity"]


def _figure_1(outdir: str, budget_nnz: int, seed: int,
              workers: int) -> FigureReport:
    col = _Collector(1, outdir)
    _sweep_file(col, "fig1_thermo.csv",
                dict(model="dicke", mode="thermo", coupling_min=0.0,
                     coupling_max=1.0, steps=101, seed=seed,
                     budget_nnz=budget_nnz), workers)
    col.note("thermodynamic curve sampled at 101 couplings; "
             "size curves at 51")
    for n in (8, 16, 32):
        ok = _sweep_file(col, f"fig1_ed_n{n}.csv",
                         dict(model="dicke", mode="ed", n_spins=n,
                              coupling_min=0.0, coupling_max=1.0, steps=51,
                              seed=seed, budget_nnz=budget_nnz), workers)
        if not ok:
            return col.report(seed, budget_nnz)

    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.5)
    sizes = [10, 16, 25, 40, 63, 100, 158, 251, 398, 631, 1000]
    col.note("scaling inset capped at N = 1000")
    try:
        rep = scaling_at_critical(p, sizes, budget_nnz=budget_nnz, seed=seed)
    except BudgetExceeded:
        col.stop("fig1_inset_scaling.csv")
        return col.report(seed, budget_nnz)
    rows = [dict(n_spins=n, n_max_used=c, hp=h)
            for n, h, c in zip(rep.sizes, rep.hp_values, rep.cutoffs)]
    path = os.path.join(outdir, "fig1_inset_scaling.csv")
    _write_table(path, 1, seed, ["n_spins", "n_max_used", "hp"], rows)
    col.add(path)
    col.note(f"inset power-law fit over N >= {rep.fit_sizes[0]}: "
             f"exponent {rep.fit.exponent:.6f}")
    return col.report(seed, budget_nnz)


def _figure_2(outdir: str, budget_nnz: int, seed: int,
              workers: int) -> FigureReport:
    col = _Collector(2, outdir)
    grid = np.linspace(0.0, 1.0, 41)
    rows = []
    for lc in grid:
        for li in grid:
            p = DoubleDickeParams(omega_cav=1.0, omega0_c=1.0, omega0_i=1.0,
                                  lambda_c=float(lc), lambda_i=float(li))
            info = classify_double_phase(p)
            rows.append(dict(lambda_c=float(lc), lambda_i=float(li),
                             phase=info.phase.value,
                             degeneracy=info.degeneracy,
                             critical_c=info.critical_c,
                             critical_i=info.critical_i))
    path = os.path.join(outdir, "fig2_phase_grid.csv")
    _write_table(path, 2, seed,
                 ["lambda_c", "lambda_i", "phase", "degeneracy",
                  "critical_c", "critical_i"], rows)
    col.add(path)
    col.note("phase grid sampled 41 x 41 over [0, 1]^2")
    for tag, theta in _PANEL_THETAS:
        _sweep_file(col, f"fig2_radial_theta_{tag}.csv",
                    dict(model="double-dicke", mode="thermo", theta=theta,
                         r_min=0.0, r_max=1.5, steps=151, seed=seed,
                         budget_nnz=budget_nnz), workers)
    col.note("radial panels sampled at 151 radii over [0, 1.5]")
    return col.report(seed, budget_nnz)


def _size_rows(model: str, sizes: list[int], budget_nnz: int,
               seed: int) -> list[dict]:
    """Inset rows at lambda = 0.5 (both couplings for the double model)
    and unit frequencies: each size's accepted cutoff and its solve."""
    rows = []
    for n in sizes:
        if model == "dicke":
            res = converge_cutoff(DickeParams(1.0, 1.0, 0.5), n,
                                  budget_nnz=budget_nnz, seed=seed)
            basis = EDBasis(n, res.n_max_used)
        else:
            p = DoubleDickeParams(1.0, 1.0, 1.0, 0.5, 0.5, n, n)
            res = converge_cutoff_double(p, budget_nnz=budget_nnz, seed=seed)
            basis = DoubleEDBasis(n, n, res.n_max_used)
        s, rep = _observables(res, basis)
        rows.append(dict(n_spins=n, n_max_used=res.n_max_used, hp=rep.hp,
                         s_vn=s, gap01=res.gap01, parity=res.parity))
    return rows


def _figure_3(outdir: str, budget_nnz: int, seed: int,
              workers: int) -> FigureReport:
    col = _Collector(3, outdir)
    rays = (("5pi16", 5 * math.pi / 16), ("pi4", math.pi / 4))
    for tag, theta in rays:
        _sweep_file(col, f"fig3_thermo_theta_{tag}.csv",
                    dict(model="double-dicke", mode="thermo", theta=theta,
                         r_min=0.0, r_max=1.2, steps=121, seed=seed,
                         budget_nnz=budget_nnz), workers)
    for tag, theta in rays:
        for n in (4, 8):
            ok = _sweep_file(col, f"fig3_ed_theta_{tag}_n{n}.csv",
                             dict(model="double-dicke", mode="ed", theta=theta,
                                  r_min=0.0, r_max=1.2, steps=61, n_spins=n,
                                  seed=seed, budget_nnz=budget_nnz), workers)
            if not ok:
                return col.report(seed, budget_nnz)
    col.note("finite-size radial curves at N in {4, 8}, 61 radii; "
             "thermodynamic curves at 121 radii")

    try:
        drows = _size_rows("double-dicke", [2, 4, 8, 16, 32], budget_nnz,
                           seed)
    except BudgetExceeded:
        col.stop("fig3_inset_double.csv")
        return col.report(seed, budget_nnz)
    path = os.path.join(outdir, "fig3_inset_double.csv")
    _write_table(path, 3, seed, _SIZE_COLS, drows)
    col.add(path)
    col.note("double-model size inset sampled to N = 32 (cap N <= 64)")

    try:
        srows = _size_rows("dicke", [8, 16, 32, 64, 128, 256, 512],
                           budget_nnz, seed)
    except BudgetExceeded:
        col.stop("fig3_inset_single.csv")
        return col.report(seed, budget_nnz)
    path = os.path.join(outdir, "fig3_inset_single.csv")
    _write_table(path, 3, seed, _SIZE_COLS, srows)
    col.add(path)
    col.note("single-chain size inset sampled to N = 512 (cap N <= 512)")
    return col.report(seed, budget_nnz)


_GENERATORS = {1: _figure_1, 2: _figure_2, 3: _figure_3}


def reproduce_figure(figure: int, outdir: str,
                     budget_nnz: int = DEFAULT_BUDGET_NNZ,
                     seed: int = DEFAULT_SEED,
                     workers: int = 1) -> FigureReport:
    """Write the data files behind one of the three summary figures.

    Returns a FigureReport listing files and notes; budget_exceeded is set
    when the sparse budget ran out partway, in which case the files written
    so far remain valid and the manifest says what is missing.
    """
    if figure not in _GENERATORS:
        raise DomainError(f"figure must be 1, 2 or 3, got {figure!r}")
    os.makedirs(outdir, exist_ok=True)
    return _GENERATORS[figure](outdir, int(budget_nnz), int(seed),
                               int(workers))
