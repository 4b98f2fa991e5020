"""Every workload runs end to end at the smoke size, untraced and
traced, and prints every metric ``BENCHMARK.json`` lists."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke"])
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_schedule():
    from perfbench import w_edit, w_serve, w_table2

    labels = ["a", "b", "c", "d"]
    schedules = [
        lambda seed: w_table2.schedule(seed, labels),
        lambda seed: w_serve.round_requests("full", seed),
        lambda seed: w_edit.schedule(seed, 16),
    ]
    for make in schedules:
        assert make(5) == make(5)
        assert len({repr(make(seed)) for seed in range(10)}) > 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "table2", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
