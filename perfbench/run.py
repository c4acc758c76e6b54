"""weylsym benchmark: one workload, timed from outside, outputs checked.

    python3 perfbench/run.py --workload {box-grid,box-point,osc} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; weylsym is imported from ./src.
Each pass of the workload runs in a fresh process (passrun.py), so that
every pass starts with weylsym's caches empty.  Passes are started until
--seconds have gone by, and at least MIN_PASSES of them; every pass runs the
same operations in full.  The first pass's outputs are checked against the
independent references (checks.py); every later pass must write the same
bytes, as weylsym promises for reruns of a command line.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (medians over the passes); with --trace 1 every pass
is traced and the metrics are the per-layer ones.  Per-pass details go to
.perfbench-out/result-<workload>-<seed>-trace<t>.json, and the spans of the
first traced pass to .perfbench-out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3
# processes that only set up, started after every pass: set-up takes about
# 0.1 s, and the speed of such short processes on a shared host varies by a
# third from one to the next, so setup_s is a median over many of them,
# spread over the whole run
SETUP_PROBES_PER_PASS = 6
PASS_TIMEOUT_S = 150

class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WEYL_THREADS", None)  # the program's default: one worker
    # one BLAS/LAPACK thread as well: a pass then uses one core, and work on
    # the machine's other core disturbs it far less than a two-thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload: str, seed: int, pass_dir: Path, trace: bool = False,
             setup_only: bool = False) -> dict:
    """Run one pass (or only its set-up) in a fresh process; return its record."""
    pass_dir.mkdir(parents=True)
    record_path = pass_dir.parent / (pass_dir.name + ".record.json")
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed),
           "--record", str(record_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    with open(pass_dir.parent / (pass_dir.name + ".log"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=pass_dir, env=_child_env(),
                              stdout=log, stderr=subprocess.STDOUT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        with open(pass_dir.parent / (pass_dir.name + ".log")) as log:
            tail = log.read()[-2000:]
        raise BenchError(f"pass process exited with {proc.returncode}:\n{tail}")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    src = ROOT / "src"
    if Path(record["weylsym_file"]).resolve().parent.parent != src.resolve():
        raise BenchError(f"weylsym was imported from {record['weylsym_file']}, not from {src}")
    return record


def _digest(pass_dir: Path, plan: dict, record: dict) -> str:
    h = hashlib.sha256()
    for op in plan["ops"]:
        for out in op.get("outputs", ()):
            path = pass_dir / out
            h.update(out.encode())
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
    h.update(json.dumps(record["values"], sort_keys=True).encode())
    h.update(json.dumps([op["error"] is None for op in record["ops"]]).encode())
    return h.hexdigest()


def _pass_figures(plan: dict, record: dict) -> dict:
    def total(key, pick):
        return sum(r[key] for op, r in zip(plan["ops"], record["ops"]) if pick(op))

    stages = {s: total("cpu_s", lambda op, s=s: op["stage"] == s) for s in workloads.STAGES}
    return {
        "setup_s": record["setup_cpu_s"], "setup_wall_s": record["setup_wall_s"],
        "pass_cpu_s": record["cpu_s"], "wall_s": record["wall_s"],
        "sweeps_cpu_s": total("cpu_s", workloads.is_sweep),
        "symbols_cpu_s": total("cpu_s", lambda op: not workloads.is_sweep(op)),
        "peak_rss_mb": record["peak_rss_mb"],
        "stages_cpu_s": {k: v for k, v in stages.items() if v},
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    import spans

    plan = workloads.plan(workload, seed)
    records, figures, digests, setups = [], [], [], []
    checker = None
    t_start = time.monotonic()
    while len(records) < MIN_PASSES or time.monotonic() - t_start < seconds:
        pass_dir = work / f"pass{len(records)}"
        record = run_pass(workload, seed, pass_dir, trace=trace)
        records.append(record)
        figures.append(_pass_figures(plan, record))
        digests.append(_digest(pass_dir, plan, record))
        if checker is None:
            try:
                checker = checks.check_pass(plan, str(pass_dir), record)
            except Exception as exc:  # unreadable output: a failed check, not a crash
                checker = checks.Checker()
                checker.failures.append(f"checking raised {type(exc).__name__}: {exc}")
        shutil.rmtree(pass_dir)
        setups.append(record["setup_cpu_s"])
        for _ in range(SETUP_PROBES_PER_PASS):
            probe = run_pass(workload, seed, work / f"setup{len(setups)}", setup_only=True)
            setups.append(probe["setup_cpu_s"])

    stable = all(d == digests[0] for d in digests)
    if not stable:
        checker.failures.append("outputs differ between passes of the same command lines")
    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(1 for r in records for op in r["ops"] if op["error"])
    result = {
        "workload": workload, "seed": seed, "trace": trace, "passes": len(records),
        "setup_s": setups, "figures": figures,
        "errors": sorted({f"{op['name']}: {op['error']}" for r in records for op in r["ops"] if op["error"]}),
        "check_failures": checker.failures,
        "worst": {k: {"abs": v[0], "share_of_tol": v[1], "comparisons": v[2]} for k, v in checker.worst.items()},
    }
    if trace:
        layers = [spans.layer_metrics(r["spans"]) for r in records]
        metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        metrics["cli.output_bytes"] = statistics.median(r["cli_output_bytes"] for r in records)
        metrics["traced.pass_cpu_s"] = statistics.median(r["cpu_s"] for r in records)
        metrics["traced.spans"] = statistics.median(len(r["spans"]) for r in records)
        result["spans"] = records[0]["spans"]
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("pass_cpu_s", "sweeps_cpu_s", "symbols_cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(f[name] for f in figures)
    result["metrics"] = metrics
    result["correct"] = not checker.failures
    result["attempted"] = attempted
    result["failed"] = failed
    return result


def _units(trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weylsym" / "__init__.py").is_file():
        print(f"error: no weylsym sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = _units(trace)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        result = bench(args.workload, args.seed, args.seconds, trace, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    if trace:
        with open(out_dir / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": result.pop("spans")}, fh)
    with open(out_dir / f"result-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for line in result["check_failures"][:20]:
        print(f"check failed: {line}")
    for line in result["errors"]:
        print(f"failed operation: {line}")
    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
