"""Smoke test of the benchmark at toy sizes (a few seconds per workload).

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run as bench  # noqa: E402


def _result(capsys, *argv) -> dict:
    assert bench.main(list(argv) + ["--size", "toy"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "record" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_runs_clean_and_prints_every_metric(capsys, workload):
    doc = _result(capsys, "--workload", workload, "--seed", "5", "--seconds", "0.1")
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    names = [m["name"] for m in bench.declared_metrics("end_to_end")]
    assert list(doc["metrics"]) == names
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_run_matches_untraced_and_separates_layers(capsys):
    layers = {}
    for workload in bench.WORKLOADS:
        doc = _result(capsys, "--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "1")
        assert doc["correct"], workload
        metrics = {k: v["value"] for k, v in doc["metrics"].items()}
        assert list(metrics) == [m["name"] for m in bench.declared_metrics("per_layer")]
        layers[workload] = metrics
    assert layers["select"]["selection.evaluate.calls"] == 2**3 - 1
    assert layers["eval-cohort"]["nifti.read_volume.calls"] == 6
    for workload in ("eval-cohort", "select"):
        assert layers[workload]["nifti.write_volume.calls"] == 0
        assert layers[workload]["geometry.sample_points.self_s"] == 0
    assert layers["transform-write"]["nifti.write_volume.calls"] == 5
    assert layers["transform-write"]["metrics.edt.calls"] == 0


def test_corrupted_output_digest_counts_as_failed(tmp_path):
    deadline = time.monotonic() + 120
    plan, inputs, _ = bench.set_up("transform-write", 5, "toy", tmp_path, deadline)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result = bench.run_worker(plan_path, inputs, 0.0, 0, deadline)
    passes = result["passes"] + copy.deepcopy(result["passes"])
    attempted, failed, _ = bench.count_failures("transform-write", plan, passes, inputs)
    assert (attempted, failed) == (8, 0)

    # a later pass whose output file digest drifts
    drifted = copy.deepcopy(passes)
    path = next(iter(drifted[1]["ops"][0]["outputs"]))
    drifted[1]["ops"][0]["outputs"][path] = "sha256:" + "0" * 64
    attempted, failed, problems = bench.count_failures("transform-write", plan, drifted, inputs)
    assert failed / attempted == 1 / 8 and problems

    # a report whose stated output digest disagrees with the file: every pass fails
    lying = copy.deepcopy(passes)
    for p in lying:
        doc = json.loads(p["ops"][1]["stdout"])
        doc["outputs"] = {k: "sha256:" + "f" * 64 for k in doc["outputs"]}
        p["ops"][1]["stdout"] = json.dumps(doc)
    attempted, failed, _ = bench.count_failures("transform-write", plan, lying, inputs)
    assert failed / attempted == 2 / 8


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "select", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
