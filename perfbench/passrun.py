"""One pass of a workload, in a fresh process.

    python3 perfbench/passrun.py --workload W --seed S --t0 T --record FILE [--trace] [--setup-only]

Started by run.py with the working directory set to an empty pass
directory, which receives the command-line outputs.  A fresh process per
pass means every pass starts with weylsym's in-process caches empty (the
Gauss-Legendre node cache in `basis`, the sign-sequence cache in
`truncate`), as a user's command or a new script does.

Set-up is measured up to the point where the first operation is ready, as
the CPU time of this process (which includes the interpreter start) and as
wall time since `--t0`, the parent's time.monotonic() just before it started
this process (CLOCK_MONOTONIC is shared by all processes).  The record (JSON)
holds the set-up times, per-operation CPU and wall times and outcomes, the
pass totals, peak resident memory and, with --trace, the spans.
"""

import argparse
import json
import os
import resource
import time


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss would also count the
    # parent's pages that were mapped when this process was forked
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dir_bytes() -> int:
    return sum(e.stat().st_size for e in os.scandir(".") if e.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import weylsym.cli
    import weylsym.moyal
    import weylsym.weyl
    import workloads
    from weylsym.basis import EigenBasis, Model

    plan = workloads.plan(args.workload, args.seed)
    # CPU time counts from the start of this process
    record = {"setup_cpu_s": time.process_time(), "setup_wall_s": time.monotonic() - args.t0,
              "weylsym_file": weylsym.__file__}
    if args.setup_only:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        record["wrapped_names"] = tracer.install()

    ops = []
    values = {}
    output_bytes = 0
    t_pass, c_pass = time.perf_counter(), time.process_time()
    for op in plan["ops"]:
        before = _dir_bytes() if tracer else 0
        error = None
        t, c = time.perf_counter(), time.process_time()
        try:
            if op["kind"] == "cli":
                # looked up at call time, so a traced pass calls the wrapper
                rc = weylsym.cli.main(list(op["argv"]))
                if rc != 0:
                    error = f"exit status {rc}"
            elif op["kind"] == "osc":
                N, mu = op["N"], op["mu"]
                values[op["name"]] = [
                    weylsym.weyl.symbol_oscillator_projection(N, mu / N, x, p) for x, p in op["points"]
                ]
            else:
                N, hbar, L = op["N"], op["mu"] / op["N"], op["L"]
                basis = EigenBasis(Model.BOX, hbar=hbar, box_half_width=L)
                proj = weylsym.moyal.FiniteRankOperator(basis=basis, coeff=np.eye(N, dtype=complex))
                values[op["name"]] = [
                    weylsym.moyal.moyal_via_composition(proj, proj, hbar, x, p) for x, p in op["points"]
                ]
        except Exception as exc:  # the benchmark counts it as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds, cpu_s = time.perf_counter() - t, time.process_time() - c
        if tracer:
            output_bytes += _dir_bytes() - before
        ops.append({"name": op["name"], "stage": op["stage"], "seconds": seconds, "cpu_s": cpu_s,
                    "error": error})
    record["wall_s"] = time.perf_counter() - t_pass
    record["cpu_s"] = time.process_time() - c_pass
    record["peak_rss_mb"] = _peak_rss_mb()
    record["ops"] = ops
    record["values"] = values
    if tracer:
        record["spans"] = tracer.spans
        record["cli_output_bytes"] = output_bytes
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
