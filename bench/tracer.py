"""Span tracing of the hpdicke layers, for the traced benchmark run only.

The tracer wraps each layer's public functions at the module attributes
callers reach them through (``hpdicke.sweeps.ground_state`` and
``hpdicke.ed.ground_state`` are separate bindings of one function, and
both are replaced), so calls made inside the package, such as the
cutoff-probe solves inside ``converge_cutoff``, are caught too.  No
source file changes.

A span is (name, start, end, parent, request id).  Spans are held in
flat lists while the run lasts and are written out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (defining module, traced functions); None means every public
# function of the module
LAYERS = {
    "sweeps": ("hpdicke.sweeps", ("sweep_rows", "render_csv", "render_json")),
    "dicke": ("hpdicke.dicke", ("classify_phase", "solve_thermo",
                                "hp_thermo", "entropy_thermo")),
    "double": ("hpdicke.double", ("classify_double_phase", "double_gaps",
                                  "hp_double", "entropy_double")),
    "gaussian": ("hpdicke.gaussian", None),
    "ed": ("hpdicke.ed", ("converge_cutoff", "ground_state",
                          "build_hamiltonian", "photon_moments_ed",
                          "photon_entropy_ed")),
    "double_ed": ("hpdicke.double_ed", ("converge_cutoff_double",
                                        "double_ground_state",
                                        "build_double_hamiltonian",
                                        "photon_moments_double",
                                        "photon_entropy_double",
                                        "double_ed")),
}
# the gaussian layer is measured where the model layers call it
GAUSSIAN_SITES = ("hpdicke.dicke", "hpdicke.double", "hpdicke.ed",
                  "hpdicke.double_ed")
# the sparse eigensolver; a ground-state span with an eigsh child counts
# as a sparse solve, any other as a dense one
SPARSE_SOLVER = ("scipy.sparse.linalg", "eigsh")

# per ED layer: metric prefix -> traced function
_ED_NAMES = {
    "ed": {"converge_cutoff": "converge_cutoff",
           "ground_state": "ground_state",
           "build": "build_hamiltonian",
           "observables": ("photon_moments_ed", "photon_entropy_ed")},
    "double_ed": {"converge_cutoff": "converge_cutoff_double",
                  "ground_state": "double_ground_state",
                  "build": "build_double_hamiltonian",
                  "observables": ("photon_moments_double",
                                  "photon_entropy_double")},
}
# the single-chain build metrics keep the function's name
_BUILD_METRIC = {"ed": "ed.build_hamiltonian", "double_ed": "double_ed.build"}


class TraceError(RuntimeError):
    """A function the trace must wrap is missing, or a span the workload
    must exercise never ran."""


def _replace(fn, wrapped, modules) -> int:
    """Rebind every attribute of modules that is fn to wrapped; returns
    the number of bindings replaced."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapped)
                hits += 1
    return hits


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.request = -1
        self._stack: list[int] = []
        # span index -> (matrix dimension, item size) of ground-state calls
        self.solve_dims: dict[int, tuple[int, int]] = {}
        # per ED layer: stored entries and bytes of the built matrices
        self.built_nnz: dict[str, int] = {"ed": 0, "double_ed": 0}
        self.built_bytes: dict[str, int] = {"ed": 0, "double_ed": 0}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_span(self, name: str) -> int:
        """Start a harness-level span; returns its index."""
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """fn recording one span per call; observe(span, args, result)
        runs after a successful call."""
        nid = self._name_id(name)
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    def write(self, path: str):
        """Write every span as tab-separated name, start, end, parent,
        request."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t"
                         f"{self.req[i]}\n")

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function at each hpdicke module attribute
        bound to it.  Raises TraceError when a function is missing, so a
        rename cannot blank a layer silently."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "hpdicke" or name.startswith("hpdicke.")]
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            sites = package
            if names is None:
                sites = [importlib.import_module(m) for m in GAUSSIAN_SITES]
                names = [n for n in mod.__all__
                         if any(getattr(site, n, None) is getattr(mod, n)
                                for site in sites)]
            if not names:
                raise TraceError(f"no {modname} function to trace")
            for fname in names:
                fn = getattr(mod, fname, None)
                if not callable(fn):
                    raise TraceError(f"{modname}.{fname} is not a function")
                wrapped = self.wrap(f"{layer}.{fname}", fn,
                                    self._observer(layer, fname))
                if not _replace(fn, wrapped, sites):
                    raise TraceError(f"no module attribute is bound to "
                                     f"{modname}.{fname}")
        solver_mod = importlib.import_module(SPARSE_SOLVER[0])
        eigsh = getattr(solver_mod, SPARSE_SOLVER[1])
        _replace(eigsh, self.wrap("arpack.eigsh", eigsh),
                 package + [solver_mod])

    def _observer(self, layer: str, fname: str):
        names = _ED_NAMES.get(layer)
        if names is None:
            return None
        if fname == names["build"]:
            def observe(idx, args, H):
                self.built_nnz[layer] += int(H.nnz)
                self.built_bytes[layer] += int(H.data.nbytes
                                               + H.indices.nbytes
                                               + H.indptr.nbytes)
            return observe
        if fname == names["ground_state"]:
            def observe(idx, args, result):
                H = args[0]
                self.solve_dims[idx] = (int(H.shape[0]),
                                        int(H.dtype.itemsize))
            return observe
        return None

    # -- metrics -----------------------------------------------------------

    def _busy(self, names: set[str]) -> tuple[int, float]:
        """Call count of spans named in names, and the time covered by
        the outermost of them (nested calls within the set count once)."""
        ids = {self._ids[n] for n in names if n in self._ids}
        calls, busy = 0, 0.0
        for i, nid in enumerate(self.name):
            if nid not in ids:
                continue
            calls += 1
            p = self.parent[i]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                busy += self.end[i] - self.start[i]
        return calls, busy

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids.setdefault(p, []).append(i)
        return kids

    def metrics(self, rows: dict) -> dict:
        """Per-layer metrics of everything traced so far.  rows holds the
        row-level counts the harness collected: rows, rows_failed,
        output_bytes, ed_rows, double_ed_rows, double_critical_rows."""
        kids = self._children()
        m = {}

        def dur(i):
            return self.end[i] - self.start[i]

        calls, _ = self._busy({"sweeps.sweep_rows"})
        m["sweeps.requests"] = calls
        m["sweeps.rows"] = rows["rows"]
        m["sweeps.rows_failed"] = rows["rows_failed"]
        sweep_id = self._ids.get("sweeps.sweep_rows")
        m["sweeps.self_s"] = sum(
            dur(i) - sum(dur(c) for c in kids.get(i, ()))
            for i, nid in enumerate(self.name) if nid == sweep_id)
        m["sweeps.render_s"] = self._busy({"sweeps.render_csv",
                                           "sweeps.render_json"})[1]
        m["sweeps.output_bytes"] = rows["output_bytes"]
        for layer in ("dicke", "double", "gaussian"):
            names = {n for n in self.names if n.startswith(layer + ".")}
            m[f"{layer}.calls"], m[f"{layer}.busy_s"] = self._busy(names)
        m["double.critical_rows"] = rows["double_critical_rows"]

        eigsh_id = self._ids.get("arpack.eigsh")
        for layer, names in _ED_NAMES.items():
            fn = {k: {f"{layer}.{v}"} if isinstance(v, str)
                  else {f"{layer}.{x}" for x in v} for k, v in names.items()}
            for key in ("converge_cutoff", "ground_state"):
                calls, busy = self._busy(fn[key])
                m[f"{layer}.{key}.calls"] = calls
                m[f"{layer}.{key}.busy_s"] = busy
            gs_id = self._ids.get(f"{layer}.{names['ground_state']}")
            dense = sparse = dim_max = 0
            dense_bytes = 0
            for i, nid in enumerate(self.name):
                if nid != gs_id or i not in self.solve_dims:
                    continue
                dim, item = self.solve_dims[i]
                dim_max = max(dim_max, dim)
                if any(self.name[c] == eigsh_id for c in kids.get(i, ())):
                    sparse += 1
                else:
                    dense += 1
                    dense_bytes += dim * dim * item
            m[f"{layer}.ground_state.dense_calls"] = dense
            m[f"{layer}.ground_state.sparse_calls"] = sparse
            build = _BUILD_METRIC[layer]
            m[f"{build}.busy_s"] = self._busy(fn["build"])[1]
            m[f"{build}.nnz"] = self.built_nnz[layer]
            m[f"{layer}.matrix_bytes_computed"] = (self.built_bytes[layer]
                                                   + dense_bytes)
            m[f"{layer}.observables_s"] = self._busy(fn["observables"])[1]
            m[f"{layer}.dim_max"] = dim_max
            solves = m[f"{layer}.ground_state.calls"]
            m[f"{layer}.useful_solve_frac"] = (
                rows[f"{layer}_rows"] / solves if solves else 0.0)
        return m
