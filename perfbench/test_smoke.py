"""Smoke test of the benchmark itself, at a tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload at the warm-up size (a few thousand trajectories), untraced and
traced, and checks that every named metric is emitted, that the output checks
run, and that tracing leaves every wrapped ldslab attribute as it found it.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import bench  # noqa: E402
import flows  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402

# Checks every run makes; tracing adds its own two.
COMMON_CHECKS = {"model_finite_with_k_components", "posteriors_match_kalman"}
WORKLOAD_CHECKS = {
    "paper-200k": {"criterion6_ceilings"},
    "cli-files-20k": {"load_dataset_equals_sample"},
    "wide-q112": set(),
}
TRACE_CHECKS = {"trace_restored_attributes", "trace_self_times_sum_to_pipeline"}


def tiny(name):
    return dataclasses.replace(flows.WORKLOADS[name], **flows.WARMUP)


@pytest.mark.parametrize("name", sorted(flows.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_runs_checks(name, trace):
    before = flows.module_snapshot()
    info, out = bench.measure(tiny(name), 42, 0.0, trace)
    assert flows.module_snapshot() == before
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert list(out["metrics"]) == [m.name for m in table]
    for m in table:
        value = out["metrics"][m.name]
        assert value["unit"] == m.unit
        assert isinstance(value["value"], (int, float))
    expected = COMMON_CHECKS | WORKLOAD_CHECKS[name] | (TRACE_CHECKS if trace else set())
    ran = {c["name"]: c["ok"] for c in info["checks"]}
    assert expected <= set(ran)
    # At this size the criterion-6 ceilings may be missed; every other check holds.
    assert all(ok for check, ok in ran.items() if check != "criterion6_ceilings")
    assert out["attempted"] >= len(expected)
    assert out["failed"] == sum(not ok for ok in ran.values())
    assert out["correct"] == (out["failed"] == 0)
    json.dumps(out)


def test_failed_check_fails_the_run():
    wl = dataclasses.replace(tiny("paper-200k"), ceilings=(0.0, 0.0))
    info, out = bench.measure(wl, 42, 0.0, 0)
    assert not out["correct"] and out["failed"] == 1
    assert len(out["metrics"]) == len(metrics.END_TO_END)


def test_tracer_restores_attributes_after_an_exception():
    owner = types.SimpleNamespace(f=lambda: 1 / 0)
    original = owner.f
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer() as tr:
            tr.wrap(owner, "f", "f")
            owner.f()
    assert owner.f is original


def test_self_times_add_up_to_the_root():
    owner = types.SimpleNamespace()
    owner.leaf = lambda: sum(range(20000))
    owner.mid = lambda: [owner.leaf() for _ in range(3)]
    with tracer.Tracer() as tr:
        tr.wrap(owner, "leaf", "leaf", aggregate=True)
        tr.wrap(owner, "mid", "mid")
        with tr.span("root"):
            owner.mid()
            owner.leaf()
    root, mid = tr.spans
    assert (root.parent, mid.parent) == (-1, 0)
    assert tr.aggregates["leaf"][0] == 4
    assert abs(tr.self_time_sum() - (root.end - root.start)) < 1e-9
    assert mid.self_s < mid.end - mid.start


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(flows.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == flows.WORKLOADS[w["name"]].why
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-200k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
