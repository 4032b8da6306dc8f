"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_spec_matches_the_harness():
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = run_cli("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("machine ")
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_and_untraced_time_add_up_to_op_spans(workload):
    res = harness.run_workload(workload, 5, 0, True, tiny=True)
    assert threading.active_count() == 1
    spans = res.tracer.spans
    op_spans = [s for s in spans if s.parent is None]
    assert op_spans and len(res.traced_walls) == 1
    assert all(spans[s.parent].parent is None for s in spans if s.parent is not None)
    assert sum(s.end - s.start for s in op_spans) == pytest.approx(sum(res.traced_walls), rel=1e-2)
    metrics = harness.per_layer(res, 0.0)
    layers = sum(
        value
        for name, value in metrics.items()
        if name.endswith("_s") and name.count(".") == 1 and not name.startswith(("setup.", "trace."))
    )
    assert layers > 0
    assert layers + metrics["trace.untraced_s"] == pytest.approx(metrics["trace.op_s"], rel=1e-9)
    again = harness.per_layer(harness.run_workload(workload, 5, 0, True, tiny=True), 0.0)
    counts = [n for n, unit in PER_LAYER_UNITS.items() if unit == "count"]
    assert [metrics[n] for n in counts] == [again[n] for n in counts]


@pytest.mark.parametrize("workload, op_id", [("shatter", "join-full-k2"), ("transfer", "doubling-2")])
def test_corrupted_reference_digest_counts_as_a_failed_op(workload, op_id):
    reference = harness.load_reference(workload)
    clean = harness.run_workload(workload, 5, 0, False, tiny=True, reference=reference)
    assert clean.failed == 0
    reference[op_id] = "0" * 16
    bad = harness.run_workload(workload, 5, 0, False, tiny=True, reference=reference)
    assert bad.failed / bad.attempted > 0
    assert all(f.startswith(op_id + ":") for f in bad.failures)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_holds_every_default_seed_op(workload):
    ops = harness.WORKLOADS[workload](harness.DEFAULT_SEED)
    assert sorted(op.id for op in ops) == sorted(harness.load_reference(workload))


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli("--workload", "shatter", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
