"""Deterministic parameter sweeps serialized to CSV or JSON.

A sweep is a validated SweepConfig evaluated over its grid: single-chain
sweeps scan the coupling, double-model sweeps scan a radius at fixed
polar angle in the (lambda_C, lambda_I) plane.  A thermo sweep computes
the whole grid at once, an ED sweep point by point.  Rows always appear
in grid order; identical config and seed give byte-identical files.

A sweep's result is a SweepTable: one list per output column plus a
failed flag per row.  The renderers format it a column at a time, with
one formatter per column chosen from the kind of its cells.

Divergences are first-class results: a field whose value diverges at a
critical point is written as the literal string "inf" with the reason
column set, never as an error.  Fields whose finite limit exists but is
not evaluated exactly on the line are written as "nan" with the same
reason.  A row whose solver fails, thermo or ED, keeps its coordinates
and phase labels, gets nan computed cells and the reason "solver:
<error class>", and is flagged failed; only BudgetExceeded aborts a
sweep.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
import warnings
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields as dc_fields
from itertools import repeat

import numpy as np

from . import __version__
from .dicke import DickeParams, _thermo_grid, lambda_critical
from .double import DoubleDickeParams, _double_thermo_grid
from .ed import (DEFAULT_BUDGET_NNZ, DEFAULT_SEED, EDBasis, _check_budget,
                 build_hamiltonian, converge_cutoff, ground_state,
                 photon_entropy_ed, photon_moments_ed)
from .double_ed import (DoubleEDBasis, build_double_hamiltonian,
                        converge_cutoff_double, double_ground_state,
                        photon_entropy_double, photon_moments_double)
from .errors import BudgetExceeded, ConfigError, CutoffWarning, HpDickeError

__all__ = ["SCHEMA", "SweepConfig", "SweepRow", "SweepTable", "run_sweep",
           "radial_sweep", "sweep_rows", "render_csv", "render_json",
           "write_atomic"]

SCHEMA = "hpdicke-sweep-v1"

_MODELS = ("dicke", "double-dicke")
_MODES = ("thermo", "ed")
_FORMATS = ("csv", "json")

# accepted spellings for config keys, mapped onto dataclass fields
_ALIASES = {
    "lambda": "coupling_min",
    "lambda_min": "coupling_min",
    "lambda_max": "coupling_max",
    "budget": "budget_nnz",
    "n": "n_spins",
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; build from raw dicts via from_dict."""

    model: str = "dicke"
    mode: str = "thermo"
    omega: float = 1.0
    omega0: float = 1.0
    omega0_c: float = 1.0
    omega0_i: float = 1.0
    coupling_min: float = 0.0
    coupling_max: float = 1.0
    theta: float = 0.25 * math.pi
    r_min: float = 0.0
    r_max: float = 1.0
    steps: int = 11
    n_spins: int = 8
    n_max: int | None = None
    tol: float = 1e-8
    budget_nnz: int = DEFAULT_BUDGET_NNZ
    seed: int = DEFAULT_SEED
    renyi: tuple[float, ...] = ()
    format: str = "csv"
    out: str | None = None
    workers: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        known = {f.name: f for f in dc_fields(cls)}
        kwargs = {}
        for key, value in raw.items():
            name = _ALIASES.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[name] = value
        try:
            cfg = cls(**_coerced(kwargs, known))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    def validate(self):
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}")
        if self.steps < 1:
            raise ConfigError("grid must be nonempty (steps >= 1)")
        for name in ("omega", "omega0", "omega0_c", "omega0_i"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.model == "dicke":
            if self.coupling_min < 0 or self.coupling_max < self.coupling_min:
                raise ConfigError("coupling range must be 0 <= min <= max")
        else:
            if not 0.0 <= self.theta <= 0.5 * math.pi:
                raise ConfigError("theta must lie in [0, pi/2]")
            if self.r_min < 0 or self.r_max < self.r_min:
                raise ConfigError("radial range must be 0 <= min <= max")
        if self.mode == "ed":
            if self.n_spins < 1:
                raise ConfigError("n_spins must be a positive integer")
            if self.n_max is not None and self.n_max < 1:
                raise ConfigError("n_max must be positive when given")
            if self.renyi:
                raise ConfigError("renyi entropies are thermo-only")
        if self.budget_nnz <= 0:
            raise ConfigError("budget must be positive")
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        for a in self.renyi:
            if not (0 < a < math.inf) or abs(a - 1.0) < 1e-9:
                raise ConfigError(f"invalid Renyi order {a!r}")

    def grid(self) -> np.ndarray:
        if self.model == "dicke":
            return np.linspace(self.coupling_min, self.coupling_max,
                               self.steps)
        return np.linspace(self.r_min, self.r_max, self.steps)

    def config_sha256(self) -> str:
        """Hash of the computation-defining fields (output path and format
        are presentation, not computation)."""
        payload = {f.name: getattr(self, f.name) for f in dc_fields(self)
                   if f.name not in ("out", "format", "workers")}
        payload["renyi"] = list(payload["renyi"])
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _integer(name: str, value) -> int:
    """The value of an int field.  Integers and integral numbers or
    strings (1e7, "8") pass; booleans and non-integral values are
    rejected rather than truncated."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    number = float(value)
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _coerced(kwargs: dict, known: dict) -> dict:
    out = {}
    for name, value in kwargs.items():
        hint = known[name].type
        if name == "renyi":
            if isinstance(value, str):
                value = [v for v in value.split(";") if v]
            out[name] = tuple(float(v) for v in value)
        elif name == "n_max":
            out[name] = (None if value in (None, "", "auto")
                         else _integer(name, value))
        elif hint in ("int", int):
            out[name] = _integer(name, value)
        elif hint in ("float", float):
            out[name] = float(value)
        else:
            out[name] = value
    return out


@dataclass(frozen=True)
class SweepRow:
    """One grid point: column names and values, plus the failed flag; a
    view that SweepTable builds on demand."""

    index: int
    values: dict = field(default_factory=dict)
    failed: bool = False


class SweepTable(Sequence):
    """A sweep's result: columns maps each output column to its cells in
    grid order, failed holds one flag per row, and indexing gives
    SweepRow views."""

    def __init__(self, columns: dict[str, Sequence], failed: list[bool]):
        self.columns = columns
        self.failed = failed

    def __len__(self) -> int:
        return len(self.failed)

    def __getitem__(self, i: int) -> SweepRow:
        i = range(len(self))[i]
        return SweepRow(index=i, values={c: col[i] for c, col
                                         in self.columns.items()},
                        failed=self.failed[i])


def columns_for(cfg: SweepConfig) -> list[str]:
    renyi = [f"renyi_{format(a, 'g')}" for a in cfg.renyi]
    if cfg.model == "dicke":
        if cfg.mode == "thermo":
            return (["index", "coupling", "dist_cr", "phase", "critical",
                     "dx", "dp", "hp", "s_vn", "s_vn_bare"] + renyi
                    + ["gap_minus", "gap_plus", "reason"])
        return ["index", "coupling", "dist_cr", "n_spins", "n_max_used",
                "ground_energy", "gap01", "parity", "converged",
                "dx", "dp", "hp", "s_vn", "reason"]
    if cfg.mode == "thermo":
        return (["index", "r", "theta", "lambda_c", "lambda_i",
                 "dist_c", "dist_i", "phase", "critical_c", "critical_i",
                 "dx", "dp", "hp", "s_vn", "s_vn_bare"] + renyi
                + ["gap_1", "gap_2", "gap_3", "reason"])
    return ["index", "r", "theta", "lambda_c", "lambda_i", "n_spins",
            "n_max_used", "ground_energy", "gap01", "parity", "converged",
            "dx", "dp", "hp", "s_vn", "reason"]


def _thermo_rows(cfg: SweepConfig) -> SweepTable:
    """All rows of a thermo sweep, from one grid evaluation of the
    request.  Divergent cells are inf with the reason critical-point; on
    a double-model line the bounded quadrature's limit is not evaluated
    exactly, so dx and dp are nan there.  A point whose solve failed
    gets nan in every computed column."""
    x = cfg.grid()
    if cfg.model == "dicke":
        g = _thermo_grid(cfg.omega, cfg.omega0, x, cfg.renyi)
        coupling = x.tolist()
        cols = {"coupling": coupling,
                "dist_cr": [c - i.lambda_cr for c, i in zip(coupling, g.info)],
                "critical": [i.critical for i in g.info]}
        computed = {"gap_minus": g.gap_minus, "gap_plus": g.gap_plus}
    else:
        lam_c = (x * math.cos(cfg.theta)).tolist()
        lam_i = (x * math.sin(cfg.theta)).tolist()
        g = _double_thermo_grid(cfg.omega, cfg.omega0_c, cfg.omega0_i,
                                lam_c, lam_i, cfg.renyi)
        cols = {"r": x.tolist(), "theta": [cfg.theta] * len(x),
                "lambda_c": lam_c, "lambda_i": lam_i,
                "dist_c": [c - i.lambda_c_cr for c, i in zip(lam_c, g.info)],
                "dist_i": [c - i.lambda_i_cr for c, i in zip(lam_i, g.info)],
                "critical_c": [i.critical_c for i in g.info],
                "critical_i": [i.critical_i for i in g.info]}
        computed = dict(zip(("gap_1", "gap_2", "gap_3"),
                            map(list, zip(*g.gaps))))
    ent = g.entropy
    computed.update(dx=g.dx, dp=g.dp, hp=g.hp, s_vn=ent.s_vn,
                    s_vn_bare=ent.s_vn_bare)
    for a in cfg.renyi:
        computed[f"renyi_{format(a, 'g')}"] = ent.s_renyi[a]
    reason = ["critical-point" if h == math.inf else "" for h in g.hp]
    for k, exc in enumerate(g.errors):
        if exc is not None:
            reason[k] = f"solver: {type(exc).__name__}"
            for column in computed.values():
                column[k] = math.nan
    cols.update(computed, index=range(len(x)),
                phase=[i.phase.value for i in g.info], reason=reason)
    return SweepTable({c: cols[c] for c in columns_for(cfg)},
                      [e is not None for e in g.errors])


def _ed_row(cfg: SweepConfig, i: int, x: float) -> SweepRow:
    """One ED grid point of either model: a single solve at an explicit
    n_max, otherwise the solve the cutoff walk accepted."""
    if cfg.model == "dicke":
        p = DickeParams(omega=cfg.omega, omega0=cfg.omega0, coupling=x)
        base = {"index": i, "coupling": x, "dist_cr": x - lambda_critical(p)}
        basis_at = functools.partial(EDBasis, cfg.n_spins)
        walk = functools.partial(converge_cutoff, p, cfg.n_spins)
        build, solve = build_hamiltonian, ground_state
        moments, entropy = photon_moments_ed, photon_entropy_ed
    else:
        lam_c = x * math.cos(cfg.theta)
        lam_i = x * math.sin(cfg.theta)
        p = DoubleDickeParams(omega_cav=cfg.omega, omega0_c=cfg.omega0_c,
                              omega0_i=cfg.omega0_i, lambda_c=lam_c,
                              lambda_i=lam_i, n_c=cfg.n_spins,
                              n_i=cfg.n_spins)
        base = {"index": i, "r": x, "theta": cfg.theta,
                "lambda_c": lam_c, "lambda_i": lam_i}
        basis_at = functools.partial(DoubleEDBasis, cfg.n_spins, cfg.n_spins)
        walk = functools.partial(converge_cutoff_double, p)
        build, solve = build_double_hamiltonian, double_ground_state
        moments, entropy = photon_moments_double, photon_entropy_double
    base["n_spins"] = cfg.n_spins
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffWarning)
            if cfg.n_max is None:
                res = walk(tol=cfg.tol, budget_nnz=cfg.budget_nnz,
                           seed=cfg.seed)
                basis = basis_at(res.n_max_used)
            else:
                basis = basis_at(cfg.n_max)
                _check_budget(basis, cfg.budget_nnz)
                res = solve(build(p, basis), basis, seed=cfg.seed)
            rep = moments(res, basis)
            s = entropy(res, basis)
    except BudgetExceeded:
        raise
    except HpDickeError as exc:
        base.update(n_max_used=0, ground_energy=math.nan, gap01=math.nan,
                    parity=math.nan, converged=False, dx=math.nan,
                    dp=math.nan, hp=math.nan, s_vn=math.nan,
                    reason=f"solver: {type(exc).__name__}")
        return SweepRow(index=i, values=base, failed=True)
    base.update(n_max_used=res.n_max_used, ground_energy=res.ground_energy,
                gap01=res.gap01, parity=res.parity,
                converged=res.cutoff_converged, dx=rep.dx, dp=rep.dp,
                hp=rep.hp, s_vn=s, reason="")
    return SweepRow(index=i, values=base)


def sweep_rows(cfg: SweepConfig) -> SweepTable:
    """All rows of the sweep, in grid order, as one table.

    A thermo sweep is evaluated over its whole grid at once.  ED rows may
    be computed in parallel; they are scheduled largest grid value first
    (a proxy for matrix size) and reassembled in order, so the output is
    independent of the worker count.
    """
    if cfg.mode == "thermo":
        return _thermo_rows(cfg)
    jobs = [(cfg, i, x) for i, x in enumerate(cfg.grid().tolist())]
    if cfg.workers > 1 and len(jobs) > 1:
        order = sorted(jobs, key=lambda j: -abs(j[2]))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            done = list(pool.map(_ed_row, *zip(*order)))
        rows = sorted(done, key=lambda r: r.index)
    else:
        rows = [_ed_row(*j) for j in jobs]
    return SweepTable({c: [r.values[c] for r in rows]
                       for c in columns_for(cfg)},
                      [r.failed for r in rows])


def _header_lines(cfg: SweepConfig, cols: list[str]) -> list[str]:
    return [
        f"# schema: {SCHEMA}",
        f"# version: {__version__}",
        f"# config-sha256: {cfg.config_sha256()}",
        f"# seed: {cfg.seed}",
        "# units: frequencies and couplings in units of omega_cav",
        f"# columns: {','.join(cols)}",
    ]


# the kind of a cell's type; bool comes first, as bool subclasses int
_KINDS = ((bool, (bool, np.bool_)), (int, (int, np.integer)),
          (float, (float, np.floating)), (str, (str,)))


def _texts(column, quoted: bool) -> list[str]:
    """The cells of column as CSV text, or as JSON values when quoted, all
    formatted by the one formatter that the kind they share selects."""
    kinds = {next((kind for kind, members in _KINDS
                   if issubclass(t, members)), t)
             for t in set(map(type, column))}
    if len(kinds) > 1 or not kinds <= {bool, int, float, str}:
        raise TypeError(f"column cells are not of one kind: {kinds}")
    kind = kinds.pop() if kinds else str
    if kind is bool:
        return ["true" if v else "false" for v in column]
    if kind is int:
        return list(map(str, map(int, column)))
    if kind is str:
        if not quoted:
            return list(column)
        text = {v: json.dumps(v) for v in set(column)}
        return [text[v] for v in column]
    if quoted:
        # a finite repr ends in a digit; inf, -inf and nan become strings
        texts = map(float.__repr__, map(float, column))
        return [t if t[-1].isdigit() else f'"{t}"' for t in texts]
    # .17g spells infinities and nan as inf, -inf and nan
    return list(map(format, map(float, column), repeat(".17g")))


def _csv_lines(columns) -> list[str]:
    """The CSV lines of rows given as columns."""
    return list(map(",".join, zip(*(_texts(c, False) for c in columns))))


def render_csv(cfg: SweepConfig, table: SweepTable) -> str:
    cols = columns_for(cfg)
    lines = _header_lines(cfg, cols)
    lines += _csv_lines([table.columns[c] for c in cols])
    return "\n".join(lines) + "\n"


def render_json(cfg: SweepConfig, table: SweepTable) -> str:
    """The payload as json.dumps(indent=1) lays it out; the rows, which
    hold nearly all of it, are written here a column at a time."""
    cols = columns_for(cfg)
    head = json.dumps({
        "schema": SCHEMA,
        "version": __version__,
        "config_sha256": cfg.config_sha256(),
        "seed": cfg.seed,
        "units": "frequencies and couplings in units of omega_cav",
        "columns": cols,
        "rows": [],
    }, indent=1)
    texts = [_texts(table.columns[c], True) for c in cols]
    rows = ",\n".join(["  [\n   " + ",\n   ".join(cells) + "\n  ]"
                       for cells in zip(*texts)])
    # head ends with the empty rows list: '"rows": []\n}'
    return head[:-len("[]\n}")] + "[\n" + rows + "\n ]\n}\n"


def write_atomic(path: str, text: str):
    """Write-to-temp then rename, so a killed run never leaves a torn
    file and re-runs overwrite cleanly."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sweep-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_sweep(cfg: SweepConfig) -> tuple[str, int]:
    """Execute the sweep and write its output file.

    Returns (path, warning count); warning count is the number of rows
    with recorded solver failures.  Raises ConfigError when no output
    path is configured; lets BudgetExceeded escape to the caller.
    """
    if not cfg.out:
        raise ConfigError("no output path configured")
    table = sweep_rows(cfg)
    text = (render_csv if cfg.format == "csv" else render_json)(cfg, table)
    write_atomic(cfg.out, text)
    return cfg.out, sum(table.failed)


def radial_sweep(theta: float, r_min: float, r_max: float, steps: int,
                 mode: str = "thermo", **overrides) -> SweepTable:
    """Double-model sweep along a polar ray; convenience wrapper used by
    the figure generators and tests."""
    cfg = SweepConfig.from_dict(dict(model="double-dicke", mode=mode,
                                     theta=theta, r_min=r_min, r_max=r_max,
                                     steps=steps, **overrides))
    return sweep_rows(cfg)
