"""Correctness check of rendered sweep outputs.

Every row is checked against invariants that hold for any seed:

* hp >= 1/2;
* s_vn_bare equals the thermal-mode entropy of hp on finite thermo cells;
* inf with reason "critical-point" appears exactly on critical cells
  (known from the lattice, not from the program's own flags);
* the double point holds hp = 1/2 + 5^(-1/2);
* ED rows are converged, with |parity| = 1, and record no solver failure.

Each row's hp and s_vn are also compared with the reference table stored
with the benchmark, which covers every lattice point a workload can
produce.  The tolerances admit a different but correct eigensolver or
cutoff walk (the cutoff search stops at an hp change below 1e-8).
"""

from __future__ import annotations

import json
import math

from workloads import ANGLES, K_CRIT, R_CRIT

HP_FLOOR_TOL = 1e-12
ENTROPY_TOL = 1e-9
DOUBLE_POINT_HP = 0.5 + 5.0 ** -0.5
PARITY_TOL = 1e-6
REF_TOL = {"thermo": 1e-9, "ed": 1e-6}


def thermal_entropy(hp: float) -> float:
    """S(hp) = (hp + 1/2) log2(hp + 1/2) - (hp - 1/2) log2(hp - 1/2),
    rearranged to avoid cancellation at large hp."""
    u = hp - 0.5
    if u <= 0.0:
        return 0.0
    return math.log2(hp + 0.5) + u * math.log2(1.0 + 1.0 / u)


def _value(v):
    if isinstance(v, str):
        if v in ("true", "false"):
            return v == "true"
        try:
            return float(v)
        except ValueError:
            return v
    return v


def parse(text: str) -> list[dict]:
    """Rows of a rendered CSV or JSON sweep as column -> value dicts."""
    if text.startswith("{"):
        payload = json.loads(text)
        cols = payload["columns"]
        return [{c: _value(v) for c, v in zip(cols, row)}
                for row in payload["rows"]]
    cols, rows = None, []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            cols = line[len("# columns: "):].split(",")
        elif line and not line.startswith("#"):
            rows.append({c: _value(v)
                         for c, v in zip(cols, line.split(","))})
    return rows


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _critical_kind(key: str) -> str:
    """'' off the critical lines, 'line' on one, 'double' on both."""
    parts = key.split(":")
    if parts[0] == "dt":
        return "line" if int(parts[1]) == K_CRIT else ""
    a, k = int(parts[1]), int(parts[2])
    if k != R_CRIT:
        return ""
    return "double" if 2 * a == ANGLES else "line"


def _row_problem(mode: str, key: str, row: dict, reference: dict) -> str:
    """Why the row is wrong, or '' when it passes."""
    hp, reason = row.get("hp"), row.get("reason")
    if not isinstance(hp, float):
        return "hp missing"
    if mode == "thermo":
        kind = _critical_kind(key)
        if kind == "line":
            ok = math.isinf(hp) and reason == "critical-point"
            return "" if ok else "critical cell not inf/critical-point"
        if reason != "" or not math.isfinite(hp):
            return f"non-critical cell has hp={hp} reason={reason!r}"
        if kind == "double" and not _close(hp, DOUBLE_POINT_HP, ENTROPY_TOL):
            return f"double-point hp {hp!r}"
        if not _close(row["s_vn_bare"], thermal_entropy(hp), ENTROPY_TOL):
            return "s_vn_bare differs from S(hp)"
    else:
        if reason != "":
            return f"solver failure {reason!r}"
        if row.get("converged") is not True:
            return "cutoff not converged"
        if not abs(abs(row["parity"]) - 1.0) <= PARITY_TOL:
            return f"parity {row['parity']!r}"
        if not (math.isfinite(hp) and math.isfinite(row["s_vn"])):
            return "non-finite ED value"
    if hp < 0.5 - HP_FLOOR_TOL:
        return f"hp {hp!r} below 1/2"
    ref = reference.get(key)
    if ref is None:
        return "no reference value"
    tol = REF_TOL[mode]
    if not (_close(hp, ref[0], tol) and _close(row["s_vn"], ref[1], tol)):
        return f"hp/s_vn {hp!r}/{row['s_vn']!r} differ from reference {ref}"
    return ""


def check_request(request: dict, text: str, reference: dict) -> list[str]:
    """One problem string per grid point of the request ('' = correct)."""
    keys = request["keys"]
    mode = request["config"].get("mode", "thermo")
    try:
        rows = parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {exc}"] * len(keys)
    if len(rows) != len(keys):
        return [f"{len(rows)} rows for {len(keys)} grid points"] * len(keys)
    return [_row_problem(mode, key, row, reference)
            for key, row in zip(keys, rows)]


def load_reference(path: str) -> dict:
    """Reference table: key -> [hp, s_vn] at every finite lattice point."""
    with open(path) as fh:
        return json.load(fh)
