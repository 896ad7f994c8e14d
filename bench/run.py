"""hpdicke benchmark: closed-loop sweep requests, one client, one process.

    python3 bench/run.py --workload thermo-grid|ed-auto|ed-fixed
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
The seed generates the workload's request sequence (bench/workloads.py);
the program receives only the generated sweep configs.  Each timed pass
runs in a fresh interpreter (bench/worker.py), so the module-level cutoff
cache starts cold as it does for every ``hpdicke sweep`` invocation.
Passes repeat the same sequence until S seconds have been spent.
wall_s and setup_s are medians over passes; request latencies are pooled
over the passes.  Every output row of every pass is checked
(bench/check.py).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it reports the
per-layer metrics of the traced passes plus the tracing overhead.  Lines
before it state each metric with its unit, the tail percentile with its
sample count, failed_frac, and the environment.  The full result (and,
traced, the spans of the last traced pass) is also written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import check
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
PASS_TIMEOUT_S = 150
# spans each workload must produce; zero calls means a layer went dark
REQUIRED = {
    "thermo-grid": ("sweeps.requests", "dicke.calls", "double.calls",
                    "gaussian.calls", "double.critical_rows"),
    "ed-auto": ("sweeps.requests", "ed.converge_cutoff.calls",
                "ed.ground_state.dense_calls", "ed.build_hamiltonian.nnz",
                "double_ed.converge_cutoff.calls",
                "double_ed.ground_state.calls", "double_ed.build.nnz"),
    "ed-fixed": ("sweeps.requests", "ed.ground_state.sparse_calls",
                 "ed.build_hamiltonian.nnz",
                 "double_ed.ground_state.sparse_calls",
                 "double_ed.build.nnz"),
}


class BenchError(RuntimeError):
    pass


def _worker(env: dict, args: list[str]) -> tuple[float, dict]:
    """Start a fresh worker interpreter; returns the set-up time (start
    to "ready") and the pass result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args[2]} pass failed "
                         f"(exit {proc.returncode})")
    return setup, json.loads(out)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten requests beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def _quantile(values: list[float], pct: int) -> float:
    """Value at or below which pct percent of the samples lie."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def repeat_frac(requests: list[dict]) -> float:
    """Share of ED grid points repeating an earlier (params, N)."""
    seen, ed, repeats = set(), 0, 0
    for req in requests:
        if req["config"].get("mode") != "ed":
            continue
        for key in req["keys"]:
            # keys are model:N:n_max:coordinates; any cutoff counts
            parts = key.split(":")
            point = (parts[0], parts[1], *parts[3:])
            ed += 1
            repeats += point in seen
            seen.add(point)
    return repeats / ed if ed else 0.0


def measure(workload: str, requests: list[dict], seconds: float,
            trace: bool, reference: dict, src: str) -> dict:
    """Run the passes and return every metric plus the details printed
    with them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    os.makedirs(OUT_DIR, exist_ok=True)
    job = os.path.join(OUT_DIR, f"configs-{workload}.json")
    with open(job, "w") as fh:
        json.dump([r["config"] for r in requests], fh)
    spans = os.path.join(OUT_DIR, f"spans-{workload}.tsv")
    out_dir = os.path.join(OUT_DIR, f"outputs-{workload}")
    os.makedirs(out_dir, exist_ok=True)

    setups = []
    passes = {False: [], True: []}
    attempted = failed = 0
    problems = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        setup, res = _worker(env, [job, out_dir, "trace", spans] if traced
                             else [job, out_dir, "run"])
        setups.append(setup)
        passes[traced].append(res)
        for i, req in enumerate(requests):
            path = os.path.join(out_dir, str(i))
            with open(path) as fh:
                text = fh.read()
            os.remove(path)  # no pass can be checked on another's output
            for problem in check.check_request(req, text, reference):
                attempted += 1
                failed += bool(problem)
                if problem and len(problems) < 10:
                    problems.append(f"{req['keys'][0]}: {problem}")
        # stop when one more pass of the same length would overrun
        elapsed = time.perf_counter() - t_start
        done = elapsed + elapsed / (len(passes[False]) + len(passes[True])) \
            > seconds
        if done and passes[False] and (passes[True] or not trace):
            break

    n = len(requests)
    pct = tail_percentile(n)
    plain = passes[False]
    # latencies pooled over the passes: the order statistics of a few
    # hundred samples are steadier than a median of per-pass statistics
    pooled = [t for p in plain for t in p["latencies"]]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "request_p50_s": (statistics.median(pooled), "s"),
        "request_tail_s": (_quantile(pooled, pct), "s"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain),
                        "MB"),
    }
    result = {"workload": workload, "requests": n, "tail_percentile": pct,
              "passes": len(plain), "traced_passes": len(passes[True]),
              "pass_walls_s": [p["wall_s"] for p in plain],
              "pass_latencies_s": [p["latencies"] for p in plain],
              "traced_pass_walls_s": [p["wall_s"] for p in passes[True]],
              "setups_s": setups,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "problems": problems,
              "environment": plain[0]["environment"],
              "end_to_end": e2e}
    if trace:
        layers = {}
        for name in passes[True][0]["layers"]:
            layers[name] = statistics.median(p["layers"][name]
                                             for p in passes[True])
        untraced = e2e["wall_s"][0]
        traced_wall = statistics.median(p["wall_s"] for p in passes[True])
        layers["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        layers["inputs.ed_repeat_frac"] = repeat_frac(requests)
        missing = [m for m in REQUIRED[workload] if not layers[m]]
        if missing:
            raise BenchError(f"traced run of {workload} recorded no calls "
                             f"for {', '.join(missing)}")
        result["per_layer"] = layers
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def report(result: dict, trace: bool) -> dict:
    """Print the readable summary and return the final JSON object."""
    env = result["environment"]
    print(f"workload {result['workload']}: {result['requests']} requests "
          f"per pass, {result['passes']} untraced and "
          f"{result['traced_passes']} traced passes, one client, closed loop")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in result["end_to_end"].items():
        note = ""
        if name == "request_tail_s":
            note = (f"  (p{result['tail_percentile']} of "
                    f"{result['requests'] * result['passes']} requests: "
                    f"{result['requests']} per pass, {result['passes']} "
                    f"passes)")
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_frac = {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} grid points)")
    for problem in result["problems"]:
        print(f"  wrong: {problem}")
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in result["per_layer"].items()}
        for k, v in metrics.items():
            print(f"{k} = {v['value']:.6g} {v['unit']}")
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in result["end_to_end"].items()}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hpdicke", "__init__.py")):
        print("no hpdicke source under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    reference = check.load_reference(os.path.join(BENCH_DIR,
                                                  "reference.json"))
    requests = workloads.generate(args.workload, args.seed)
    try:
        result = measure(args.workload, requests, args.seconds,
                         bool(args.trace), reference, src)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    final = report(result, bool(args.trace))
    result["seed"] = args.seed
    path = os.path.join(OUT_DIR, f"result-{args.workload}-trace"
                                 f"{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
