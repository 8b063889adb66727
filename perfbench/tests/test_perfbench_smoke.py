"""Tiny-size runs of the whole benchmark through its command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
WORKLOADS = ("test_large", "null_heavy", "power_grid", "dissim_io")


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def all_workloads():
    done = run(REPO, "--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "0", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_every_workload_checks_against_the_recorded_reference(all_workloads):
    result = json.loads(all_workloads[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 8
    checked = [line for line in all_workloads if line.startswith("# reference:")]
    assert len(checked) == 2 * len(WORKLOADS)
    assert all(line.startswith("# reference: recorded;") for line in checked)


def test_every_declared_metric_is_reported_with_its_unit(all_workloads):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    metrics = json.loads(all_workloads[-1])["metrics"]
    for workload in WORKLOADS:
        for entry in declared["end_to_end"] + declared["per_layer"]:
            reported = metrics[f"{workload}.{entry['name']}"]
            assert reported["unit"] == entry["unit"]
            assert isinstance(reported["value"], float)
    assert len(metrics) == len(WORKLOADS) * (len(declared["end_to_end"]) + len(declared["per_layer"]))


def test_layer_self_times_add_up_to_the_traced_op(all_workloads):
    metrics = json.loads(all_workloads[-1])["metrics"]
    for workload in WORKLOADS:
        layers = sum(v["value"] for k, v in metrics.items() if k.startswith(f"{workload}.layer."))
        assert layers == pytest.approx(metrics[f"{workload}.trace.op_s"]["value"], rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    done = run(tmp_path, "--workload", "test_large", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
