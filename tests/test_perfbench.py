"""Tier-1 checks through the benchmark harness: one traced pass of each
workload runs cleanly, and one box-point pass and one box-grid pass stay
within the reference tolerances."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced_pass(tmp_path, workload):
    # spans.py binds arguments by name (moyal_direct's sigma1, the grid of
    # the symbol fields), so a traced pass fails if a traced signature drifts
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "passrun.py"), "--workload", workload,
           "--seed", "0", "--t0", "0", "--record", str(record), "--trace"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert Path(rec["weylsym_file"]).is_relative_to(ROOT / "src")
    assert rec["wrapped_names"] > 0
    assert rec["spans"]
    assert rec["ops"]
    assert [op["name"] for op in rec["ops"] if op["error"] is not None] == []


def test_traced_osc_pass_runs(tmp_path):
    _traced_pass(tmp_path, "osc")


@pytest.mark.parametrize("workload", ["box-grid", "box-point"])
def test_traced_box_pass_runs(tmp_path, workload):
    _traced_pass(tmp_path, workload)


def test_box_point_pass_within_reference_tolerances(tmp_path, monkeypatch):
    # every box-point output (edge sections, limit sweeps, momentum norms)
    # against the benchmark's independent references
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "passrun.py"), "--workload", "box-point",
           "--seed", "0", "--t0", "0", "--record", str(record)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert [op["name"] for op in rec["ops"] if op["error"] is not None] == []
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import workloads

    chk = checks.check_pass(workloads.plan("box-point", 0), str(tmp_path), rec)
    assert chk.failures == []
    assert "momentum-norm" in chk.worst


def test_box_grid_pass_within_reference_tolerances(tmp_path, monkeypatch):
    # every box-grid output (projection and momentum fields, CSV and JSON, the
    # L2 and idempotency sweeps, star squares) against the benchmark's
    # independent references
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "passrun.py"), "--workload", "box-grid",
           "--seed", "0", "--t0", "0", "--record", str(record)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert [op["name"] for op in rec["ops"] if op["error"] is not None] == []
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import workloads

    chk = checks.check_pass(workloads.plan("box-grid", 0), str(tmp_path), rec)
    assert chk.failures == []
    assert "box-symbol-projection" in chk.worst
