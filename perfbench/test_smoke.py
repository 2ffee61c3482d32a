"""Smoke tests of the benchmark harness at toy sizes (about a minute in all).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_is_correct_and_complete(workload):
    out = _result(_bench(ROOT, "--workload", workload, "--smoke", "--seed", "3",
                         "--seconds", "1", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    # correct also requires the traced call counts to match their closed forms
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units(SPEC["per_layer"])


def test_untraced_smoke_run_reports_end_to_end_metrics():
    out = _result(_bench(ROOT, "--workload", "sweep-large", "--smoke", "--seconds", "1",
                         "--trace", "0"))
    assert out["correct"]
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep-large", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
