"""Smoke tests for the benchmark itself.

Run with ``python -m pytest bench/check_smoke.py`` from the repository root.
The file name keeps it out of the default test run: the cli-session
workload alone starts a few dozen interpreters; the file takes about
ninety seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import GAUGE_REF_S, at_reference_speed, tail

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stderr
    return doc


def units(doc: dict) -> dict:
    return {name: m["unit"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_at_tiny_size(workload):
    doc = result(workload, 0)
    assert units(doc) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    doc = result(workload, 1)
    assert units(doc) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    assert metrics["trace.job_s"] > 0 and metrics["trace.overhead_ratio"] > 0
    assert metrics["cli.import_s"] > metrics["cli.import.scipy_stats_s"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_leaves_ten_jobs_beyond():
    assert tail([float(i) for i in range(1, 31)]) == (20.0, pytest.approx(100 * 20 / 30))
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_times_scale_with_the_gauge():
    assert at_reference_speed(2.0, GAUGE_REF_S, GAUGE_REF_S) == pytest.approx(2.0)
    # a spell at half speed doubles the job and the gauge alike
    assert at_reference_speed(4.0, 1.5 * GAUGE_REF_S, 2.5 * GAUGE_REF_S) == pytest.approx(2.0)
