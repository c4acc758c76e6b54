"""Evaluate every reference against the program once and print the worst
disagreement of each.

    python3 perfbench/refcheck.py [--seed N]

Runs one untimed pass of each workload, checks its outputs as a benchmark
run does, and prints, per reference, the number of comparisons, the largest
|program - reference| and the largest share of its tolerance used.  A share
near 1 means a tolerance is tight; any change to a reference or a tolerance
shows here.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import references as ref
import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    worst: dict[str, list] = {}
    failures: list[str] = []
    try:
        for w in workloads.WORKLOADS:
            plan = workloads.plan(w, args.seed)
            record = run.run_pass(w, args.seed, work / w)
            chk = checks.check_pass(plan, str(work / w), record)
            failures += chk.failures
            for name, (err, share, count) in chk.worst.items():
                cur = worst.setdefault(name, [0.0, 0.0, 0])
                cur[0], cur[1], cur[2] = max(cur[0], err), max(cur[1], share), cur[2] + count
            failed = [op["name"] for op in record["ops"] if op["error"]]
            print(f"{w}: {len(record['ops'])} operations, failed: {', '.join(failed) or 'none'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"\n{'reference':24s} {'compared':>8s} {'worst |diff|':>13s} {'share of tol':>13s}")
    for name in sorted(worst):
        err, share, count = worst[name]
        print(f"{name:24s} {count:8d} {err:13.3g} {share:13.3g}")

    # the references' own accuracy
    l2 = ref.box_projection_l2(80, 1.0, 1.0)
    l2_fine = ref.box_projection_l2(80, 1.0, 1.0, nodes=6 * 80 + 96)
    print(f"\nL2 reference at N=80, 4N+64 vs 6N+96 nodes: {l2:.15f}, |diff| {abs(l2 - l2_fine):.3g}")
    wall = ref.edge_limit_p(0.999, 0.5, 1.0, 1.0)
    print(f"p-edge reference at x=0.999L, v=0.5 (exact 0.5): {wall:.12f}, |diff| {abs(wall - 0.5):.3g}")
    for line in failures:
        print(f"check failed: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
