"""Reference datasets for the three summary figures.

Each figure writes plain data files (no plotting) plus a manifest that
lists the files, the sampling choices, and any reductions relative to
full publication scale.

A figure is a generator of steps, yielded in manifest order.  A step is
either a note string or a pair (file name, writer); writer(path) writes
the file and returns the notes about it, such as a sweep's count of
failed rows or the inset's fit.  reproduce_figure runs the steps, and
the first step that runs out of sparse-matrix budget ends the figure:
the files produced so far stay in place and the manifest records the
interruption instead of the whole command failing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .dicke import DickeParams
from .double import DoubleDickeParams, classify_double_phase
from .ed import DEFAULT_BUDGET_NNZ, DEFAULT_SEED, scaling_at_critical
from .errors import BudgetExceeded, DomainError
from .sweeps import SweepConfig, _csv_text, _ed_row, run_sweep, write_atomic

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


def _sweep(run: SweepConfig, name: str, **raw):
    """The step that writes the sweep raw, at the run's seed, budget and
    workers, to the file name."""
    def write(path: str) -> list[str]:
        _, warned = run_sweep(SweepConfig.from_dict(dict(
            raw, out=path, seed=run.seed, budget_nnz=run.budget_nnz,
            workers=run.workers)))
        return [f"{name}: {warned} row(s) recorded a solver failure"] \
            if warned else []
    return name, write


def _figure_1(run: SweepConfig, head: dict):
    yield _sweep(run, "fig1_thermo.csv", model="dicke", mode="thermo",
                 coupling_min=0.0, coupling_max=1.0, steps=101)
    yield "thermodynamic curve sampled at 101 couplings; size curves at 51"
    for n in (8, 16, 32):
        yield _sweep(run, f"fig1_ed_n{n}.csv", model="dicke", mode="ed",
                     n_spins=n, coupling_min=0.0, coupling_max=1.0, steps=51)
    yield "scaling inset capped at N = 1000"

    def inset(path: str) -> list[str]:
        rep = scaling_at_critical(
            DickeParams(omega=1.0, omega0=1.0, coupling=0.5),
            [10, 16, 25, 40, 63, 100, 158, 251, 398, 631, 1000],
            budget_nnz=run.budget_nnz, seed=run.seed)
        write_atomic(path, _csv_text(head, dict(
            n_spins=rep.sizes, n_max_used=rep.cutoffs, hp=rep.hp_values)))
        return [f"inset power-law fit over N >= {rep.fit_sizes[0]}: "
                f"exponent {rep.fit.exponent:.6f}"]
    yield "fig1_inset_scaling.csv", inset


def _figure_2(run: SweepConfig, head: dict):
    def phase_grid(path: str) -> list[str]:
        grid = np.linspace(0.0, 1.0, 41).tolist()
        points = [(lc, li) for lc in grid for li in grid]
        info = [classify_double_phase(DoubleDickeParams(1.0, 1.0, 1.0, *at))
                for at in points]
        lambda_c, lambda_i = zip(*points)
        write_atomic(path, _csv_text(head, dict(
            lambda_c=lambda_c, lambda_i=lambda_i,
            phase=[i.phase.value for i in info],
            degeneracy=[i.degeneracy for i in info],
            critical_c=[i.critical_c for i in info],
            critical_i=[i.critical_i for i in info])))
        return ["phase grid sampled 41 x 41 over [0, 1]^2"]
    yield "fig2_phase_grid.csv", phase_grid
    for tag, theta in _PANEL_THETAS:
        yield _sweep(run, f"fig2_radial_theta_{tag}.csv",
                     model="double-dicke", mode="thermo", theta=theta,
                     r_min=0.0, r_max=1.5, steps=151)
    yield "radial panels sampled at 151 radii over [0, 1.5]"


def _size_inset(run: SweepConfig, head: dict, model: str, sizes: list[int],
                note: str):
    """The writer of an inset at lambda = 0.5 (both couplings for the
    double model) and the run's unit frequencies: each size's ED row
    (sweeps._ed_row) at its accepted cutoff.  A solver error propagates."""
    at = 0.5 if model == "dicke" else (0.5, 0.5)

    def write(path: str) -> list[str]:
        rows = []
        for n in sizes:
            res, s, rep = _ed_row(
                replace(run, model=model, mode="ed", n_spins=n), at)
            rows.append((n, res.n_max_used, rep.hp, s, res.gap01,
                         res.parity))
        names = ("n_spins", "n_max_used", "hp", "s_vn", "gap01", "parity")
        write_atomic(path, _csv_text(head, dict(zip(names, zip(*rows)))))
        return [note]
    return write


def _figure_3(run: SweepConfig, head: dict):
    rays = (("5pi16", 5 * math.pi / 16), ("pi4", math.pi / 4))
    for tag, theta in rays:
        yield _sweep(run, f"fig3_thermo_theta_{tag}.csv",
                     model="double-dicke", mode="thermo", theta=theta,
                     r_min=0.0, r_max=1.2, steps=121)
    for tag, theta in rays:
        for n in (4, 8):
            yield _sweep(run, f"fig3_ed_theta_{tag}_n{n}.csv",
                         model="double-dicke", mode="ed", theta=theta,
                         r_min=0.0, r_max=1.2, steps=61, n_spins=n)
    yield ("finite-size radial curves at N in {4, 8}, 61 radii; "
           "thermodynamic curves at 121 radii")
    yield "fig3_inset_double.csv", _size_inset(
        run, head, "double-dicke", [2, 4, 8, 16, 32],
        "double-model size inset sampled to N = 32 (cap N <= 64)")
    yield "fig3_inset_single.csv", _size_inset(
        run, head, "dicke", [8, 16, 32, 64, 128, 256, 512],
        "single-chain size inset sampled to N = 512 (cap N <= 512)")


_GENERATORS = {1: _figure_1, 2: _figure_2, 3: _figure_3}


def reproduce_figure(figure: int, outdir: str,
                     budget_nnz: int = DEFAULT_BUDGET_NNZ,
                     seed: int = DEFAULT_SEED,
                     workers: int = 1) -> FigureReport:
    """Write the data files behind one of the three summary figures.

    Seed, budget and workers are checked by SweepConfig's rules before
    anything is written.  Returns a FigureReport listing files and notes;
    budget_exceeded is set when the sparse budget ran out partway, in
    which case the files written so far remain valid and the manifest
    says what is missing.
    """
    if figure not in _GENERATORS:
        raise DomainError(f"figure must be 1, 2 or 3, got {figure!r}")
    run = SweepConfig.from_dict(dict(budget_nnz=budget_nnz, seed=seed,
                                     workers=workers))
    os.makedirs(outdir, exist_ok=True)
    head = {"schema": FIGURE_SCHEMA, "version": __version__,
            "figure": figure, "seed": run.seed}
    files, notes, stopped = [], [], False
    for step in _GENERATORS[figure](run, head):
        if isinstance(step, str):
            notes.append(step)
            continue
        name, write = step
        try:
            notes += write(os.path.join(outdir, name))
        except BudgetExceeded:
            notes.append(f"sparse budget exhausted while producing {name}; "
                         "output is partial")
            stopped = True
            break
        files.append(name)
    manifest = dict(head, budget_nnz=run.budget_nnz, files=files,
                    notes=notes, budget_exceeded=stopped)
    write_atomic(os.path.join(outdir, "manifest.json"),
                 json.dumps(manifest, indent=1) + "\n")
    return FigureReport(figure=figure, outdir=outdir,
                        files=(*files, "manifest.json"), notes=tuple(notes),
                        budget_exceeded=stopped)
