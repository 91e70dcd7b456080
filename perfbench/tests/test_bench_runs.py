"""Whole runs of the benchmark script.  Slow: about two minutes, most of it
the two traced runs of each workload."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import END_TO_END, EXACT_COUNTS, PER_LAYER
from workloads import WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def test_benchmark_json_matches_the_script():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)
        assert 0.95 < result["metrics"]["trace_accounted_ratio"]["value"] <= 1.0
    counts = [{key: r["metrics"][key]["value"] for key in EXACT_COUNTS}
              for r in (first, second)]
    assert counts[0] == counts[1]


def test_untraced_run_reports_end_to_end_metrics():
    result = result_of(bench("--workload", "breathe", "--seed", "3",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "rotate", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
