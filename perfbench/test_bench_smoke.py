"""Smoke test of the benchmark at tiny size: every end-to-end and per-layer
metric named in BENCHMARK.json is emitted with its unit.

At the tiny size the 0.02 statistical checks have little power, so a run
may report ``correct: false``; the test only requires the exit code to
agree with it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.stdout, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr
    return result


@pytest.mark.parametrize("workload,trace", [
    ("fig1", 0), ("fig1", 1), ("fig2", 0), ("se_grid", 0), ("se_grid", 1)])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
