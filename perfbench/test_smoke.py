"""Smoke tests: each workload at a tiny size emits every named metric with its
unit, passes its own output checks, and repeats its exact counts for a fixed
seed.  Run from the repository root with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import BuildWorkload, ChannelWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

TINY = {
    "build-set": BuildWorkload([(10, 4, 1, "stable")]),
    "build-perm": BuildWorkload([(9, 5, 1, "unstable")]),
    "channel": ChannelWorkload((12, 5, 2, "stable"), (10, 5, 1, "unstable"),
                               sim_trials=40, ud_trials=10, stream_ops=30),
}


def test_tiny_workloads_cover_every_declared_workload():
    assert sorted(TINY) == sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_and_checks(name):
    record, result, spans = run.measure(ROOT, TINY[name], seed=3, seconds=0.5, trace=0)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["error_rate"] == 0
    assert spans is None


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_layers_and_repeats_counts(name):
    runs = [run.measure(ROOT, TINY[name], seed=5, seconds=0.5, trace=1) for _ in range(2)]
    counts = []
    for record, result, spans in runs:
        assert result["correct"], record["failures"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
        assert spans["missing_wrap_points"] == []
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["vtcode.set_decode_calls"] > 0
    assert counts[0]["vtcode.census_subsets"] > 0


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "channel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
