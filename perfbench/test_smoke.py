"""Seconds-sized smoke run of the benchmark.

Every workload runs once on tiny inputs with all output checks on; the
result line must match the metric lists in BENCHMARK.json, and every
metric must be above 0 except the layer times of layers the workload
never calls, which must read 0. A copy of the benchmark alone, outside
a checkout, must refuse to run.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [("toy-e2e", 1), ("zipf-tensor", 0),
                                            ("zipf-tensor", 1)])
def test_smoke_run_passes_all_checks(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    not_called = tracing.NOT_CALLED[workload]
    for metric in expected:
        name = metric["name"]
        reported = result["metrics"][name]
        assert reported["unit"] == metric["unit"]
        if name == "trace.overhead_s":
            assert math.isfinite(reported["value"])
        elif name in not_called:
            assert reported["value"] == 0, name
        else:
            assert reported["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "toy-e2e", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
