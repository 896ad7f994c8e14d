"""Command-line front end.

Subcommands: sweep (run a parameter sweep from a config file), fit
(power-law or bits-per-doubling fit over a sweep file), figure
(regenerate the data behind one of the three summary figures), and
validate-config (parse, validate, and echo the canonical form).

Exit codes: 0 success, 2 configuration or input error (an output path
that cannot be written included), 3 sparse budget exceeded, 4 solver
failure.  Config files are either JSON objects or
key=value lines with '#' comments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .errors import (BudgetExceeded, ConfigError, DegenerateFit,
                     HpDickeError)
from .figures import reproduce_figure
from .fits import fit_critical_exponent, fit_entropy_slope
from .sweeps import _ALIASES, SweepConfig, run_sweep, write_atomic

__all__ = ["main", "load_config", "run_fit"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a ConfigError."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigError(f"config key {key!r} is repeated")
    return dict(pairs)


def load_config(path: str) -> dict:
    """Read a config file: a JSON object, or key=value lines.  A key
    given twice is a ConfigError."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    raw, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if lines.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set "
                              f"on line {lines[key]}")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return raw


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    """raw with each option given on the command line in place of the
    config file's value, under whichever spelling the file used."""
    for key in ("seed", "workers", "budget_nnz", "out", "format"):
        value = getattr(args, key, None)
        if value is not None:
            raw = {k: v for k, v in raw.items()
                   if _ALIASES.get(k, k) != key}
            raw[key] = value
    return raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    raw = _apply_overrides(load_config(args.config), args)
    cfg = SweepConfig.from_dict(raw)
    path, warned = run_sweep(cfg)
    if warned:
        print(f"wrote {path} ({warned} row(s) with recorded solver "
              "failures)", file=sys.stderr)
    else:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _parse_window(text: str | None) -> tuple[float, float]:
    if not text:
        return (-math.inf, math.inf)
    sep = ":" if ":" in text else ","
    parts = text.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"window must be LO{sep}HI, got {text!r}")
    try:
        lo = float(parts[0]) if parts[0].strip() else -math.inf
        hi = float(parts[1]) if parts[1].strip() else math.inf
    except ValueError:
        raise ConfigError(f"window ends must be numbers, got {text!r}") \
            from None
    if not lo <= hi:
        raise ConfigError("window low end exceeds high end")
    return lo, hi


def _read_sweep_table(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read input {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
            cols = list(payload["columns"])
            rows = [[str(v) for v in row] for row in payload["rows"]]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed sweep JSON {path!r}") from exc
        return cols, rows
    cols = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            if line.startswith("# columns: "):
                cols = line.removeprefix("# columns: ").split(",")
            continue
        if line.strip():
            rows.append(line.split(","))
    if cols is None:
        raise ConfigError(f"{path!r} has no '# columns:' header")
    return cols, rows


def run_fit(path: str, column: str, x_column: str,
            window: tuple[float, float] = (-math.inf, math.inf),
            kind: str | None = None) -> dict:
    """Fit `column` against `x_column` over rows of a sweep file.

    kind "power" fits a log-log power law of the column against the
    absolute x value; kind "log2" fits bits per doubling (column against
    log2 of x).  When kind is omitted, size-like x columns (n_spins, N)
    choose log2 and anything else chooses power.  Requires at least five
    usable rows inside the window.
    """
    cols, raw_rows = _read_sweep_table(path)
    for name in (column, x_column):
        if name not in cols:
            raise ConfigError(f"no column {name!r} in input "
                              f"(have {', '.join(cols)})")
    if kind is None:
        kind = "log2" if x_column in ("n_spins", "N", "n") else "power"
    if kind not in ("power", "log2"):
        raise ConfigError(f"kind must be power or log2, got {kind!r}")
    ix, iy = cols.index(x_column), cols.index(column)
    pairs = []
    for row in raw_rows:
        if len(row) != len(cols):
            continue
        try:
            x, y = float(row[ix]), float(row[iy])
        except ValueError:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if kind == "power":
            x = abs(x)
            if x == 0.0:
                continue
        if window[0] <= x <= window[1]:
            pairs.append((x, y))
    if len(pairs) < 5:
        raise ConfigError(f"need at least 5 usable rows in the window, "
                          f"got {len(pairs)}")
    try:
        fit = (fit_critical_exponent if kind == "power"
               else fit_entropy_slope)(pairs)
    except (DegenerateFit, HpDickeError) as exc:
        raise ConfigError(f"fit failed: {exc}") from exc
    if kind == "power":
        predicted = [math.exp(fit.intercept + fit.exponent * math.log(x))
                     for x, _ in pairs]
    else:
        predicted = [fit.intercept + fit.exponent * math.log2(x)
                     for x, _ in pairs]
    residuals = [y - yhat for (_, y), yhat in zip(pairs, predicted)]
    return {
        "input": path,
        "column": column,
        "x_column": x_column,
        "kind": kind,
        "window": [window[0], window[1]],
        "n_rows": len(pairs),
        "exponent": fit.exponent,
        "stderr": fit.stderr,
        "intercept": fit.intercept,
        "residual_rms": fit.residual,
        "residuals": residuals,
    }


def _cmd_fit(args: argparse.Namespace) -> int:
    window = _parse_window(args.window)
    report = run_fit(args.input, args.column, args.x_column,
                     window=window, kind=args.kind)
    text = json.dumps(_jsonable(report), indent=1) + "\n"
    if args.out:
        write_atomic(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    return obj


def _cmd_figure(args: argparse.Namespace) -> int:
    given = {key: getattr(args, key)
             for key in ("budget_nnz", "seed", "workers")
             if getattr(args, key) is not None}
    rep = reproduce_figure(args.id, args.out, **given)
    print(f"wrote {len(rep.files)} file(s) to {rep.outdir}",
          file=sys.stderr)
    for note in rep.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_BUDGET if rep.budget_exceeded else EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    raw = _apply_overrides(load_config(args.config), args)
    cfg = SweepConfig.from_dict(raw)
    canon = asdict(cfg)
    canon["renyi"] = list(canon["renyi"])
    payload = {"valid": True, "config": canon,
               "config_sha256": cfg.config_sha256()}
    sys.stdout.write(json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpdicke",
        description="Uncertainty-product and entanglement sweeps for "
                    "Dicke-type models")
    parser.add_argument("--version", action="version",
                        version=f"hpdicke {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True,
                           help="JSON or key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed recorded in output headers")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers for ED rows")
        p.add_argument("--budget-nnz", dest="budget_nnz", type=int,
                       default=None,
                       help="sparse nonzero budget for ED matrices")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--out", help="output path (overrides config)")
    p_sweep.add_argument("--format", choices=("csv", "json"))
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit an exponent over a sweep file")
    p_fit.add_argument("--input", required=True, help="sweep CSV or JSON")
    p_fit.add_argument("--column", required=True,
                       help="value column, e.g. hp or s_vn")
    p_fit.add_argument("--x-column", required=True, dest="x_column",
                       help="distance column (power law) or size column "
                            "(bits per doubling)")
    p_fit.add_argument("--window", default=None,
                       help="LO:HI window on the x values (abs for power)")
    p_fit.add_argument("--kind", choices=("power", "log2"), default=None)
    p_fit.add_argument("--out", help="write the JSON report here")
    p_fit.set_defaults(fn=_cmd_fit)

    p_fig = sub.add_parser("figure", help="regenerate figure datasets")
    p_fig.add_argument("id", type=int, choices=(1, 2, 3))
    p_fig.add_argument("--out", required=True, help="output directory")
    common(p_fig, config_required=False)
    p_fig.set_defaults(fn=_cmd_figure)

    p_val = sub.add_parser("validate-config",
                           help="validate and echo a config")
    common(p_val)
    p_val.add_argument("--out", help="output path echoed in the canonical "
                                     "config; nothing is written")
    p_val.add_argument("--format", choices=("csv", "json"))
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'hpdicke {args.command} --help' for usage",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except HpDickeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
