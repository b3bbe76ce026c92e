"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload scaled down (``--scale 0.02``) through the real
command and checks the contract the benchmark promises: every metric
present and finite, the last-line JSON result, a failing run when the
reference is perturbed, a refusal without the program, and agreement
between ``BENCHMARK.json`` and the metric catalogue.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SMALL = ["--seed", "1", "--scale", "0.02"]


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = _run("--all", *SMALL, "--trace", "--out", str(out))
    records = [json.loads(line) for line in (out / "samples.jsonl").read_text().splitlines()]
    return done, out, records


def test_every_workload_passes_its_checks(smoke):
    done, _, records = smoke
    assert done.returncode == 0, done.stderr
    assert sorted(r["workload"] for r in records) == sorted(catalog.WORKLOADS)
    for record in records:
        assert record["correct"], record["checks"]
        assert record["failed"] == 0


def test_every_named_metric_is_present_and_finite(smoke):
    _, _, records = smoke
    for record in records:
        for metric in catalog.METRICS:
            if catalog.applies(metric, record["workload"]):
                value = record["metrics"].get(metric.name)
                assert value is not None, (record["workload"], metric.name)
                assert math.isfinite(value), (record["workload"], metric.name, value)


def test_run_directory_layout(smoke):
    _, out, _ = smoke
    manifest = json.loads((out / "manifest.json").read_text())
    assert {"git_commit", "python", "numpy", "nproc", "seeds"} <= set(manifest)
    summary = json.loads((out / "summary.json").read_text())
    row = summary["gk_fleet_threaded"]["ingest_pps"]
    assert row["q1"] <= row["median"] <= row["q3"]
    assert (out / "window_rebuild" / "seed-1" / "spans.jsonl").stat().st_size > 0


def test_closed_loop_waterfalls_sum_to_wall(smoke):
    _, _, records = smoke
    for record in records:
        if record["workload"] in catalog.CLOSED_LOOP:
            assert record["waterfall"]["mismatch_frac"] <= 0.02


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_json_result(trace):
    done = _run("--workload", "gk_fleet_threaded", *SMALL, "--seconds", "10",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == catalog.contract_names(bool(trace))
    for name, entry in result["metrics"].items():
        assert entry["unit"] == catalog.BY_NAME[name].unit
        assert math.isfinite(entry["value"])


def test_altered_reference_point_fails_the_run():
    done = _run("--workload", "gk_fleet_threaded", *SMALL, "--alter-reference")
    assert done.returncode != 0
    assert "FAILED reference:" in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py"), "--workload",
         "mixed_durable", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalog.WHY
    assert [m["name"] for m in spec["end_to_end"]] == catalog.contract_names(False)
    assert [m["name"] for m in spec["per_layer"]] == catalog.contract_names(True)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        metric = catalog.BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        if "bound" in entry:
            assert entry["bound"] == metric.bound
