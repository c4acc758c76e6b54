"""Seeded operation plans for the three benchmark workloads.

A plan is a list of operations.  Each operation is a `weylsym` command line
run through `weylsym.cli.main`, a section of oscillator symbol values computed
through `weylsym.weyl.symbol_oscillator_projection`, or star squares of the
box projection through `weylsym.moyal.moyal_via_composition`.  The same seed
always gives the same plan.  The seed moves positions, windows and the
scaling constants by a few per cent at most, so the amount of work, and hence
the time of a pass, does not depend on it.

This module imports only the standard library and numpy: the pass process
imports it during its set-up.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("box-grid", "box-point", "osc")

# Stages of a pass: the parts that the untraced results file reports apart.
STAGES = (
    "field", "l2_sweep", "moyal", "edge", "limit_sweeps", "osc_symbol", "osc_sweeps",
)


def _num(v: float) -> str:
    return f"{v:.6f}"


def _cli(name, stage, argv, outputs, **extra):
    return {"name": name, "stage": stage, "kind": "cli", "argv": argv, "outputs": outputs, **extra}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _box_grid(seed: int) -> dict:
    rng = _rng("box-grid", seed)
    mu = 1.0 + rng.uniform(-0.02, 0.02)
    L = 1.0 + rng.uniform(-0.02, 0.02)
    P = math.pi * mu / (2.0 * L)
    common = ["--mu", _num(mu), "--L", _num(L)]
    ops = []

    def window(n):
        # x window a little wider than the box on each side (seeded, so the
        # cells land differently against the wall); p window symmetric about
        # 0 so that evenness and oddness in p are checked cell by cell
        x0 = -L * (1.2 + rng.uniform(0.0, 0.1))
        x1 = L * (1.2 + rng.uniform(0.0, 0.1))
        ph = P * (1.4 + rng.uniform(0.0, 0.2))
        return f"{x0:.6f}:{x1:.6f}:{n},{-ph:.6f}:{ph:.6f}:{n}"

    for i, (N, n) in enumerate(((48, 400), (80, 520))):
        out = f"proj{i}.csv"
        ops.append(_cli(f"field-projection-N{N}", "field",
                        ["field", "--observable", "projection", "--N", str(N), *common,
                         "--grid", window(n), "-o", out], [out, out + ".manifest.json"]))
    for i, (N, n) in enumerate(((40, 160), (56, 176))):
        out = f"mom{i}.csv"
        ops.append(_cli(f"field-momentum-N{N}", "field",
                        ["field", "--observable", "momentum", "--N", str(N), *common,
                         "--grid", window(n), "-o", out], [out, out + ".manifest.json"]))
    ops.append(_cli("field-projection-json-N40", "field",
                    ["field", "--N", "40", *common, "--grid", window(300), "--format", "json",
                     "-o", "proj.json"], ["proj.json", "proj.json.manifest.json"]))
    ops.append(_cli("sweep-box-projection-l2", "l2_sweep",
                    ["sweep", "--exp", "box-projection-l2", *common, "-o", "l2"],
                    ["l2.json", "l2.csv", "l2.manifest.json"]))
    ops.append(_cli("sweep-moyal-idempotency", "moyal",
                    ["sweep", "--exp", "moyal-idempotency", *common, "-o", "idem"],
                    ["idem.json", "idem.csv", "idem.manifest.json"]))
    # The star square of P_N by exact composition, at points drawn as
    # moyal-check draws them.  moyal-check itself is not run: its verdict on
    # the direct product fails near the origin even on a 24N grid (rel. error
    # 0.0205 at (0, 0) for N = 16, 384^2, tol 0.02), so it would pass or fail
    # with the seed.  moyal_direct is timed and checked in moyal-idempotency.
    points = [[float(rng.uniform(-0.5 * L, 0.5 * L)), float(rng.uniform(-0.6 * P, 0.6 * P))]
              for _ in range(10)]
    ops.append({"name": "moyal-composition-N16", "stage": "moyal", "kind": "composition",
                "N": 16, "mu": mu, "L": L, "points": points})
    return {"workload": "box-grid", "seed": seed, "mu": mu, "L": L, "ops": ops}


def _box_point(seed: int) -> dict:
    rng = _rng("box-point", seed)
    mu = 1.0 + rng.uniform(-0.02, 0.02)
    L = 1.0 + rng.uniform(-0.02, 0.02)
    P = math.pi * mu / (2.0 * L)
    common = ["--mu", _num(mu), "--L", _num(L)]
    p0 = P * rng.uniform(0.0, 0.5)
    ops = [
        _cli("edge-x-wall-N400", "edge",
             ["edge", "--kind", "x", "--u", f"{rng.uniform(0, 0.05):.6f}:{6 - rng.uniform(0, 0.1):.6f}:101",
              "--p", _num(p0), "--N", "400", *common, "-o", "edge_x_wall.csv"],
             ["edge_x_wall.csv", "edge_x_wall.csv.manifest.json"], near_edge=True),
        _cli("edge-x-deep-N400", "edge",
             ["edge", "--kind", "x", "--u", f"{rng.uniform(0, 0.05):.6f}:{200 - rng.uniform(0, 2):.6f}:101",
              "--p", _num(p0), "--N", "400", *common, "-o", "edge_x_deep.csv"],
             ["edge_x_deep.csv", "edge_x_deep.csv.manifest.json"], near_edge=False),
    ]
    for tag, frac in (("x0", 0.0), ("x09L", 0.9)):
        v0 = -0.75 + rng.uniform(0.0, 0.05)
        v1 = 2.5 + rng.uniform(0.0, 0.1)
        ops.append(_cli(f"edge-p-{tag}-N1000", "edge",
                        ["edge", "--kind", "p", "--x", _num(frac * L), "--v", f"{v0:.6f}:{v1:.6f}:24",
                         "--N", "1000", *common, "-o", f"edge_p_{tag}.csv"],
                        [f"edge_p_{tag}.csv", f"edge_p_{tag}.csv.manifest.json"], near_edge=True))
    sweeps = (
        ("box-edge-x", None), ("box-edge-p", "250,1000,4000"), ("box-bulk-sup", None),
        ("box-tridiag-norm", None), ("box-momentum-norm", "128,256,512,1024"),
    )
    for exp, ns in sweeps:
        argv = ["sweep", "--exp", exp, *common, "-o", exp]
        if ns:
            argv[3:3] = ["--N", ns]
        ops.append(_cli(f"sweep-{exp}", "limit_sweeps", argv,
                        [f"{exp}.json", f"{exp}.csv", f"{exp}.manifest.json"]))
    # Fails today (edge_profile_p gives up past 2^28 terms for |x| >= 0.999 L).
    # Fixed arguments, so it fails the same way for every seed; the exact
    # limit is 0.5.
    ops.append(_cli("edge-p-near-wall-N1000", "edge",
                    ["edge", "--kind", "p", "--x", "0.999", "--v", "0.5", "--N", "1000",
                     "-o", "edge_p_wall.csv"],
                    ["edge_p_wall.csv", "edge_p_wall.csv.manifest.json"], near_edge=True))
    return {"workload": "box-point", "seed": seed, "mu": mu, "L": L, "ops": ops}


def _osc(seed: int) -> dict:
    rng = _rng("osc", seed)
    mu = 1.0
    ops = []
    sizes = {64: 6, 128: 5, 256: 4}
    for N, count in sizes.items():
        # p-section: fixed x, distinct p, so every point needs its own node count
        x0 = float(rng.uniform(0.0, 1.0))
        ps = np.linspace(0.15, 1.65, count) + rng.uniform(-0.01, 0.01, count)
        ops.append({"name": f"osc-p-section-N{N}", "stage": "osc_symbol", "kind": "osc",
                    "N": N, "mu": mu, "points": [[x0, float(p)] for p in ps]})
    for N in sizes:
        # x-section: fixed p, so the whole section shares one node set
        p0 = 0.7 + float(rng.uniform(-0.01, 0.01))
        xs = np.sort(rng.uniform(0.0, 1.8, 6))
        ops.append({"name": f"osc-x-section-N{N}", "stage": "osc_symbol", "kind": "osc",
                    "N": N, "mu": mu, "points": [[float(x), p0] for x in xs]})
    phi = rng.uniform(0.0, 2.0 * math.pi)
    smu = 1.0 + rng.uniform(-0.02, 0.02)
    ab = ["--mu", _num(smu), "--a", _num(math.cos(phi)), "--b", _num(math.sin(phi))]
    ops.append(_cli("sweep-osc-catalan", "osc_sweeps",
                    ["sweep", "--exp", "osc-catalan", "--n", "1,2,3,4,5,6,7,8",
                     "--N", "64,128,256,512,1024", *ab, "-o", "osc-catalan"],
                    ["osc-catalan.json", "osc-catalan.csv", "osc-catalan.manifest.json"]))
    ops.append(_cli("sweep-osc-offdiag", "osc_sweeps",
                    ["sweep", "--exp", "osc-offdiag", *ab, "-o", "osc-offdiag"],
                    ["osc-offdiag.json", "osc-offdiag.csv", "osc-offdiag.manifest.json"]))
    ops.append(_cli("sweep-osc-origin-parity", "osc_sweeps",
                    ["sweep", "--exp", "osc-origin-parity", "--mu", _num(smu), "-o", "osc-origin-parity"],
                    ["osc-origin-parity.json", "osc-origin-parity.csv",
                     "osc-origin-parity.manifest.json"]))
    return {"workload": "osc", "seed": seed, "mu": mu, "ops": ops}


def plan(workload: str, seed: int) -> dict:
    """The operations of one pass of `workload` for `seed`."""
    plans = {"box-grid": _box_grid, "box-point": _box_point, "osc": _osc}
    if workload not in plans:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return plans[workload](seed)


def is_sweep(op: dict) -> bool:
    return op["kind"] == "cli" and op["argv"][0] == "sweep"
