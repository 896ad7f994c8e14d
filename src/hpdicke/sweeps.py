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

import hashlib
import json
import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields as dc_fields
from itertools import repeat

import numpy as np

from . import __version__
from .dicke import DickeParams, _thermo_grid, lambda_critical
from .double import DoubleDickeParams, _double_thermo_grid
from .ed import DEFAULT_BUDGET_NNZ, DEFAULT_SEED, EDBasis, _row, _scipy
from .double_ed import DoubleEDBasis
from .errors import BudgetExceeded, ConfigError, CutoffWarning, HpDickeError

__all__ = ["SCHEMA", "SweepConfig", "SweepRow", "SweepTable", "run_sweep",
           "radial_sweep", "sweep_rows", "render_csv", "render_json",
           "write_atomic"]

SCHEMA = "hpdicke-sweep-v1"
_UNITS = "frequencies and couplings in units of omega_cav"

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
        kwargs, spelled = {}, {}
        for key, value in raw.items():
            name = _ALIASES.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if name in spelled:
                raise ConfigError(f"config keys {spelled[name]!r} and "
                                  f"{key!r} both set {name}")
            kwargs[name], spelled[name] = value, key
        cfg = cls(**_coerced(kwargs, known, spelled))
        cfg.validate()
        return cfg

    def validate(self):
        """Raise ConfigError on a bad field; an ED config loads scipy."""
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
            _scipy()
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
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    number = _number(name, value, "an integer")
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _number(name: str, value, kind: str = "a number") -> float:
    """The value of a float field; booleans and values that float()
    does not take are rejected."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _coerced(kwargs: dict, known: dict, spelled: dict) -> dict:
    """kwargs, keyed by field, coerced to the field types; an error names
    the key as spelled in the config."""
    out = {}
    for name, value in kwargs.items():
        hint, key = known[name].type, spelled[name]
        if name == "renyi":
            if isinstance(value, str):
                value = [v for v in value.split(";") if v]
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list of numbers, got "
                                  f"{value!r}")
            out[name] = tuple(_number(key, v) for v in value)
        elif name == "n_max":
            out[name] = (None if value in (None, "", "auto")
                         else _integer(key, value))
        elif hint in ("int", int):
            out[name] = _integer(key, value)
        elif hint in ("float", float):
            out[name] = _number(key, value)
        elif isinstance(value, str) or (value is None and name == "out"):
            out[name] = value
        else:
            raise ConfigError(f"{key} must be a string, got {value!r}")
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


def _coordinates(cfg: SweepConfig) -> dict[str, Sequence]:
    """The index and coordinate columns over the sweep's grid, for either
    mode: coupling and dist_cr, or r, theta, lambda_c = r cos(theta),
    lambda_i = r sin(theta), dist_c and dist_i."""
    x = cfg.grid()
    if cfg.model == "dicke":
        coupling = x.tolist()
        lam_cr = lambda_critical(DickeParams(cfg.omega, cfg.omega0, 0.0))
        return {"index": range(len(x)), "coupling": coupling,
                "dist_cr": [c - lam_cr for c in coupling]}
    p = DoubleDickeParams(cfg.omega, cfg.omega0_c, cfg.omega0_i, 0.0, 0.0)
    lam_c = (x * math.cos(cfg.theta)).tolist()
    lam_i = (x * math.sin(cfg.theta)).tolist()
    return {"index": range(len(x)), "r": x.tolist(),
            "theta": [cfg.theta] * len(x), "lambda_c": lam_c,
            "lambda_i": lam_i, "dist_c": [c - p.lambda_c_cr for c in lam_c],
            "dist_i": [c - p.lambda_i_cr for c in lam_i]}


def _thermo_rows(cfg: SweepConfig, cols: dict[str, Sequence]) -> SweepTable:
    """All rows of a thermo sweep over the coordinate columns cols, from
    one grid evaluation of the request.  Divergent cells are inf with the
    reason critical-point; on a double-model line the bounded
    quadrature's limit is not evaluated exactly, so dx and dp are nan
    there.  A point whose solve failed gets nan in every computed
    column."""
    if cfg.model == "dicke":
        g = _thermo_grid(cfg.omega, cfg.omega0, cols["coupling"], cfg.renyi)
        cols["critical"] = [i.critical for i in g.info]
        gaps = ("gap_minus", "gap_plus")
    else:
        g = _double_thermo_grid(cfg.omega, cfg.omega0_c, cfg.omega0_i,
                                cols["lambda_c"], cols["lambda_i"], cfg.renyi)
        cols.update(critical_c=[i.critical_c for i in g.info],
                    critical_i=[i.critical_i for i in g.info])
        gaps = ("gap_1", "gap_2", "gap_3")
    computed = dict(zip(gaps, g.gaps.T.tolist()))
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
    cols.update(computed, phase=[i.phase.value for i in g.info],
                reason=reason)
    return SweepTable({c: cols[c] for c in columns_for(cfg)},
                      [e is not None for e in g.errors])


# the solver cells of an ED row whose solve failed, less its reason
_ED_FAILED = dict(n_max_used=0, ground_energy=math.nan, gap01=math.nan,
                  parity=math.nan, converged=False, dx=math.nan, dp=math.nan,
                  hp=math.nan, s_vn=math.nan)


def _ed_row(cfg: SweepConfig, at):
    """The ED row (ed._row) of the config's model and n_spins at the
    couplings at, a coupling or (lambda_c, lambda_i): the solve at an
    explicit n_max, otherwise the solve the cutoff walk accepted."""
    n = cfg.n_spins
    if cfg.model == "dicke":
        p = DickeParams(omega=cfg.omega, omega0=cfg.omega0, coupling=at)
        basis = EDBasis(n, 1)
    else:
        p = DoubleDickeParams(cfg.omega, cfg.omega0_c, cfg.omega0_i, *at,
                              n_c=n, n_i=n)
        basis = DoubleEDBasis(n, n, 1)
    return _row(p, basis, cfg.n_max, cfg.tol, cfg.budget_nnz, cfg.seed)


def _ed_cells(cfg: SweepConfig, at) -> dict:
    """The solver cells of one ED grid point, from its _ed_row.
    CutoffWarning is silenced, and a solver error other than
    BudgetExceeded fails the row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffWarning)
            res, s, rep = _ed_row(cfg, at)
    except BudgetExceeded:
        raise
    except HpDickeError as exc:
        return dict(_ED_FAILED, reason=f"solver: {type(exc).__name__}")
    return dict(n_max_used=res.n_max_used, ground_energy=res.ground_energy,
                gap01=res.gap01, parity=res.parity,
                converged=res.cutoff_converged, dx=rep.dx, dp=rep.dp,
                hp=rep.hp, s_vn=s, reason="")


def sweep_rows(cfg: SweepConfig) -> SweepTable:
    """All rows of the sweep, in grid order, as one table.

    A thermo sweep is evaluated over its whole grid at once.  ED rows may
    be computed in parallel, by at most one worker process per row; they
    are scheduled largest grid value first (a proxy for matrix size) and
    reassembled in order, so the output is independent of the worker
    count.
    """
    cols = _coordinates(cfg)
    if cfg.mode == "thermo":
        return _thermo_rows(cfg, cols)
    at = (cols["coupling"] if cfg.model == "dicke"
          else list(zip(cols["lambda_c"], cols["lambda_i"])))
    if cfg.workers > 1 and len(at) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the grid ascends, so reversed it is largest first
        with ProcessPoolExecutor(min(cfg.workers, len(at))) as pool:
            cells = list(pool.map(_ed_cells, [cfg] * len(at), at[::-1]))[::-1]
    else:
        cells = [_ed_cells(cfg, a) for a in at]
    cols["n_spins"] = [cfg.n_spins] * len(at)
    cols.update({c: [r[c] for r in cells] for c in cells[0]})
    return SweepTable({c: cols[c] for c in columns_for(cfg)},
                      [r["reason"] != "" for r in cells])


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


def _csv_text(head: dict, columns: dict[str, Sequence]) -> str:
    """A CSV file: a '# key: value' line for each item of head, then the
    units and the column names, then the rows given as columns."""
    head = dict(head, units=_UNITS, columns=",".join(columns))
    lines = [f"# {key}: {value}" for key, value in head.items()]
    return "\n".join(lines + _csv_lines(columns.values())) + "\n"


def render_csv(cfg: SweepConfig, table: SweepTable) -> str:
    head = {"schema": SCHEMA, "version": __version__,
            "config-sha256": cfg.config_sha256(), "seed": cfg.seed}
    return _csv_text(head, {c: table.columns[c] for c in columns_for(cfg)})


def render_json(cfg: SweepConfig, table: SweepTable) -> str:
    """The payload as json.dumps(indent=1) lays it out; the rows, which
    hold nearly all of it, are written here a column at a time."""
    cols = columns_for(cfg)
    head = json.dumps({
        "schema": SCHEMA,
        "version": __version__,
        "config_sha256": cfg.config_sha256(),
        "seed": cfg.seed,
        "units": _UNITS,
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
    file and re-runs overwrite cleanly.  The file gets the mode a plain
    open gives: the temp file is created with 0o666, less the umask.  A
    temp file that cannot be created or renamed is reported under path."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".sweep-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if getattr(exc, "filename", None) == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
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
    """Double-model sweep along a polar ray, a public convenience wrapper
    over sweep_rows; the figure generators call run_sweep instead."""
    cfg = SweepConfig.from_dict(dict(model="double-dicke", mode=mode,
                                     theta=theta, r_min=r_min, r_max=r_max,
                                     steps=steps, **overrides))
    return sweep_rows(cfg)
