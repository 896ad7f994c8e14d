"""Seeded, stratified sweep-request generators for the three workloads.

Every grid point a workload can produce lies on a fixed lattice, so the
stored reference table covers any seed.  The seed only moves requests
inside fixed strata and shuffles their order; the number of requests,
grid points, critical cells, Renyi orders and output formats per
stratum is the same for every seed, which keeps the work per seed
comparable.

Lattices (all frequencies stay at 1, so lambda_cr = 1/2):

* single chain: coupling = k / 1000, k integer; k = 500 is lambda_cr.
* double model: ray angle theta = a pi / 32 (a = 0 .. 16) and radius
  r = k * h(a) with h(a) = (1/2) / max(cos theta, sin theta) / 200, so
  index k = 200 lies exactly on the nearer critical line, and on the
  double point when a = 8 (theta = pi/4).

A request is ``{"config": {...}, "keys": [...]}``: the raw sweep config
the program receives, and one reference-table key per grid point that
only the harness uses.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("thermo-grid", "ed-auto", "ed-fixed")

K_SCALE = 1000          # single-chain coupling lattice: lambda = k / K_SCALE
K_CRIT = 500            # lattice index of lambda_cr
ANGLES = 16             # double-model angles a pi / 32, a = 0 .. ANGLES
R_CRIT = 200            # radial lattice index of the nearer critical line


# ED strata: (lowest, highest, step) lattice index.  Single-chain
# coupling strata are normal, critical (holding lambda_cr itself) and
# superradiant; double-model radial strata likewise.  The costlier points
# get narrower strata, and each double-model stratum has fixed ray angles
# (the cost of a double-model point depends strongly on the angle), so
# the work per seed stays comparable.
NORMAL, CRITICAL, SUPER = (200, 350, 5), (480, 520, 5), (650, 800, 5)
R_NORMAL, R_CRITICAL, R_SUPER = (110, 170, 10), (190, 210, 5), (260, 340, 10)

# Request latencies follow cost far more than seed: each (N, stratum)
# cell costs about the same on every seed, and larger solves vary less
# with host load than small ones.  Each ED workload therefore has one
# block of like, mid-sized requests large enough to hold both its median
# and its tail request (p67 of 31 on ed-auto, p56 of 23 on ed-fixed):
# the single-chain N = 16 critical cell on ed-auto, and the two-chain
# N = 16 sweeps with the N = 384 ones on ed-fixed.

# ed-auto (n_max omitted).  Single chain: (N, {stratum: points});
# double model: (N, {stratum: ray angle indices, one point each}).
AUTO_SINGLE = ((8, {NORMAL: 1, CRITICAL: 1, SUPER: 1}),
               (12, {NORMAL: 1, CRITICAL: 1, SUPER: 1}),
               (16, {NORMAL: 2, CRITICAL: 8, SUPER: 2}),
               (32, {(250, 300, 5): 1, (490, 510, 5): 1, (700, 750, 5): 1}),
               (64, {(490, 505, 5): 1}))
AUTO_DOUBLE = ((2, {R_NORMAL: (0,), R_CRITICAL: (8,), R_SUPER: (16,)}),
               (3, {R_NORMAL: (12,), R_CRITICAL: (4,), R_SUPER: (4,)}),
               (4, {R_NORMAL: (8,), R_CRITICAL: (16,), R_SUPER: (0,)}))
# ed-fixed: the same with an explicit cutoff, (N, n_max, strata).  Each
# cutoff holds the top Fock row below the convergence threshold on every
# lattice point of its strata.  Large-N superradiant points are left out:
# see bench/README.md.  The two-chain N = 32 point on the diagonal ray
# with n_max = 120 (dimension 1.3e5) is the largest matrix of any
# workload and sets the peak memory of the pass.
FIXED_SINGLE = ((128, 40, {NORMAL: 4}), (256, 40, {NORMAL: 4}),
                (384, 40, {NORMAL: 4}), (512, 40, {NORMAL: 2}),
                (128, 100, {(490, 510, 5): 2}))
FIXED_DOUBLE = ((16, 40, {R_NORMAL: (4, 12, 4, 12, 4, 12)}),
                (32, 120, {R_NORMAL: (8,)}))


def theta(a: int) -> float:
    return a * math.pi / (2 * ANGLES)


def r_step(a: int) -> float:
    th = theta(a)
    return 0.5 / max(math.cos(th), math.sin(th)) / R_CRIT


def _single(req_keys_prefix: str, ka: int, stride: int, steps: int,
            **extra) -> dict:
    ks = [ka + stride * i for i in range(steps)]
    cfg = dict(model="dicke", coupling_min=ka / K_SCALE,
               coupling_max=ks[-1] / K_SCALE, steps=steps, **extra)
    return {"config": cfg, "keys": [f"{req_keys_prefix}:{k}" for k in ks]}


def _double(req_keys_prefix: str, a: int, ka: int, stride: int, steps: int,
            **extra) -> dict:
    ks = [ka + stride * i for i in range(steps)]
    h = r_step(a)
    cfg = dict(model="double-dicke", theta=theta(a), r_min=ka * h,
               r_max=ks[-1] * h, steps=steps, **extra)
    return {"config": cfg,
            "keys": [f"{req_keys_prefix}:{a}:{k}" for k in ks]}


def _distinct(rng: random.Random, count: int, stratum) -> list[int]:
    """count different lattice indices of the stratum, spread evenly over
    it with one seeded offset (systematic sampling), so no point repeats
    by accident and every seed covers the stratum alike."""
    lo, hi, step = stratum
    slots = (hi - lo) // step + 1
    u = rng.random()
    return [lo + step * int((j + u) * slots / count) for j in range(count)]


def _thermo_grid(rng: random.Random) -> list[dict]:
    reqs = []
    # single-chain coupling windows: (lowest start, highest start,
    # stride); every window of the middle stratum holds the exact
    # lambda_cr cell, because it starts at most 200 strides below k = 500
    for lo, hi, stride in ((0, 200, 1), (300, 500, 1), (510, 800, 2)):
        for i, ka in enumerate(_distinct(rng, 32, (lo, hi, 1))):
            extra = dict(mode="thermo")
            if i % 4 == 1:
                extra["renyi"] = [2.0]
            elif i % 4 == 3:
                extra["renyi"] = [0.5, 2.0, 3.0]
            if i % 3 == 2:
                extra["format"] = "json"
            reqs.append(_single("dt", ka, stride, 201, **extra))
    # double-model polar rays: every angle once and the inner ones twice,
    # so theta = 0, pi/4 and pi/2 are in every seed; each window of 41
    # radii holds the critical index R_CRIT
    angles = list(range(ANGLES + 1)) + list(range(1, ANGLES))
    offsets = _distinct(rng, len(angles), (0, R_CRIT, 5))
    rng.shuffle(offsets)
    for i, (a, off) in enumerate(zip(angles, offsets)):
        extra = dict(mode="thermo")
        if i % 4 == 1:
            extra["renyi"] = [2.0]
        if i % 3 == 2:
            extra["format"] = "json"
        reqs.append(_double("tt", a, R_CRIT - off, 5, 41, **extra))
    rng.shuffle(reqs)
    return reqs


def _ed_requests(rng: random.Random, singles, doubles) -> list[dict]:
    reqs = []
    for n, n_max, strata in singles:
        extra = dict(mode="ed", n_spins=n)
        if n_max != "auto":
            extra["n_max"] = n_max
        for stratum, count in strata.items():
            for k in _distinct(rng, count, stratum):
                reqs.append(_single(f"de:{n}:{n_max}", k, 10, 1, **extra))
    for n, n_max, strata in doubles:
        extra = dict(mode="ed", n_spins=n)
        if n_max != "auto":
            extra["n_max"] = n_max
        for stratum, angles in strata.items():
            for a, k in zip(angles, _distinct(rng, len(angles), stratum)):
                reqs.append(_double(f"te:{n}:{n_max}", a, k, 5, 1, **extra))
    return reqs


def _ed_auto(rng: random.Random) -> list[dict]:
    reqs = _ed_requests(rng, [(n, "auto", s) for n, s in AUTO_SINGLE],
                        [(n, "auto", s) for n, s in AUTO_DOUBLE])
    rng.shuffle(reqs)
    return reqs


def _ed_fixed(rng: random.Random) -> list[dict]:
    reqs = _ed_requests(rng, FIXED_SINGLE, FIXED_DOUBLE)
    rng.shuffle(reqs)
    return reqs


_GENERATORS = {"thermo-grid": _thermo_grid, "ed-auto": _ed_auto,
               "ed-fixed": _ed_fixed}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's request sequence for this seed, in sending order."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def lattice(workload: str) -> dict[str, dict]:
    """Every grid point the workload can produce, as single-point sweep
    configs keyed like the request keys (used to build the reference)."""
    points = {}
    if workload == "thermo-grid":
        for k in range(0, 1201):
            points[f"dt:{k}"] = dict(model="dicke", mode="thermo",
                                     coupling_min=k / K_SCALE,
                                     coupling_max=k / K_SCALE, steps=1)
        for a in range(ANGLES + 1):
            for k in range(0, 2 * R_CRIT + 1, 5):
                points[f"tt:{a}:{k}"] = dict(
                    model="double-dicke", mode="thermo", theta=theta(a),
                    r_min=k * r_step(a), r_max=k * r_step(a), steps=1)
        return points
    if workload == "ed-auto":
        singles = [(n, "auto", s) for n, s in AUTO_SINGLE]
        doubles = [(n, "auto", s) for n, s in AUTO_DOUBLE]
    else:
        singles, doubles = FIXED_SINGLE, FIXED_DOUBLE
    for n, n_max, strata in singles:
        for lo, hi, step in strata:
            for k in range(lo, hi + 1, step):
                cfg = dict(model="dicke", mode="ed", n_spins=n,
                           coupling_min=k / K_SCALE,
                           coupling_max=k / K_SCALE, steps=1)
                if n_max != "auto":
                    cfg["n_max"] = n_max
                points[f"de:{n}:{n_max}:{k}"] = cfg
    for n, n_max, strata in doubles:
        for (lo, hi, step), angles in strata.items():
            for a in angles:
                for k in range(lo, hi + 1, step):
                    cfg = dict(model="double-dicke", mode="ed", n_spins=n,
                               theta=theta(a), r_min=k * r_step(a),
                               r_max=k * r_step(a), steps=1)
                    if n_max != "auto":
                        cfg["n_max"] = n_max
                    points[f"te:{n}:{n_max}:{a}:{k}"] = cfg
    return points
