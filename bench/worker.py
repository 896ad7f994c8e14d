"""One timed pass of a workload, in a fresh interpreter.

    python3 bench/worker.py CONFIGS.json OUTDIR [run | trace SPANS.tsv]

Reads the list of raw sweep configs, imports hpdicke, validates every
config, then prints "ready" (the parent times set-up up to that line).
It then issues the sweep requests one after another, each only after the
previous one finished (a closed loop with one client).  Each rendered
output is written to OUTDIR/<request index> as soon as it is produced
and then dropped, as the CLI does, so the peak resident memory is the
program's own.  Last it prints one JSON line with the per-request
latencies, the peak resident memory and the environment.

hpdicke must be importable (run.py puts the checkout's src/ on
PYTHONPATH).
"""

import json
import sys

with open(sys.argv[1]) as fh:
    raw_configs = json.load(fh)
out_dir, mode = sys.argv[2], sys.argv[3]

from hpdicke import sweeps  # noqa: E402  (set-up is timed from start)

configs = [sweeps.SweepConfig.from_dict(c) for c in raw_configs]
print("ready", flush=True)

import ctypes  # noqa: E402
import glob  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


def blas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with a numpy or scipy wheel,
    or None when it cannot be queried."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy_blas_threads": blas_threads(numpy),
            "scipy_blas_threads": blas_threads(scipy),
            "sweep_workers_default": sweeps.SweepConfig().workers}


tracer = None
if mode == "trace":
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()

latencies = []
row_counts = {"rows": 0, "rows_failed": 0, "output_bytes": 0, "ed_rows": 0,
              "double_ed_rows": 0, "double_critical_rows": 0}
perf = time.perf_counter
for req_id, cfg in enumerate(configs):
    if tracer is not None:
        tracer.request = req_id
        span = tracer.open_span("request")
    t0 = perf()
    rows = sweeps.sweep_rows(cfg)
    render = sweeps.render_csv if cfg.format == "csv" else sweeps.render_json
    text = render(cfg, rows)
    latencies.append(perf() - t0)
    if tracer is not None:
        tracer.close_span(span)
    # bookkeeping between requests is outside every latency
    with open(os.path.join(out_dir, str(req_id)), "w") as fh:
        fh.write(text)
    failed = sum(r.failed for r in rows)
    row_counts["rows"] += len(rows)
    row_counts["rows_failed"] += failed
    row_counts["output_bytes"] += len(text.encode())
    if cfg.mode == "ed":
        key = "ed_rows" if cfg.model == "dicke" else "double_ed_rows"
        row_counts[key] += len(rows) - failed
    elif cfg.model == "double-dicke":
        row_counts["double_critical_rows"] += sum(
            1 for r in rows
            if r.values["critical_c"] or r.values["critical_i"])
    del rows, text  # let go before the next request, as the CLI does

result = {"wall_s": sum(latencies), "latencies": latencies,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          / 1024.0,
          "environment": environment()}
if tracer is not None:
    result["layers"] = tracer.metrics(row_counts)
    tracer.write(sys.argv[4])
print(json.dumps(result))
