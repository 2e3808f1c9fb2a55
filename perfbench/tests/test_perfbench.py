"""The benchmark's own tests, at tiny scale.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# the largest n (or series order) each workload keeps at tiny scale
TINY = {"identity_sweep": 2, "gf_sweep": 4, "value_mix": 5}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny_ops(workload, seed=3):
    return [op for op in workloads.build_ops(workload, seed, 0)
            if workloads.op_size(op) <= TINY[workload]]


@pytest.fixture(scope="module")
def refs():
    return workloads.load_refs()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    ops = workloads.build_ops(workload, 11, 0)
    assert ops == workloads.build_ops(workload, 11, 0)
    assert ops != workloads.build_ops(workload, 12, 0)
    assert ops != workloads.build_ops(workload, 11, 1)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs(workload, refs):
    ops = tiny_ops(workload)
    assert ops
    result = worker.run_pass(ops, refs)
    assert result["failed"] == 0, result["errors"]
    assert len(result["latency_s"]) == len(ops)
    metrics, _ = run.end_to_end([dict(result, setup_s=0.1,
                                      setup_reference_s=0.002)])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _unit in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_digest_is_caught(workload, refs):
    ops = tiny_ops(workload)
    bad = copy.deepcopy(refs)
    op = ops[0]
    if op[0] == "gf":
        key = workloads.grid_key(op[1], 0, op[2])
    elif op[0] == "value":
        key = workloads.grid_key(op[1], op[2], op[3])
    else:
        key = None
    if key is None:
        bad["identity"]["ops"][workloads.op_key(op)] = "0" * 64
    else:
        bad["grid"][key] = "0" * 64
    result = worker.run_pass(ops, bad)
    assert result["failed"] >= 1
    metrics, _ = run.end_to_end([dict(result, setup_s=0.1,
                                      setup_reference_s=0.002)])
    assert metrics["ok_frac"][0] < 1.0


def traced_tiny_pass(workload, refs):
    """An untraced and a traced run of the same tiny pass, in process."""
    ops = tiny_ops(workload)
    plain = worker.run_pass(ops, refs)
    tracer = tracing.Tracer()
    traced = worker.run_pass(ops, refs, tracer)
    traced["trace"] = tracer.summary()
    return plain, traced


def test_traced_pass_emits_every_per_layer_metric(refs):
    plain, traced = traced_tiny_pass("value_mix", refs)
    assert plain["failed"] == traced["failed"] == 0
    metrics = run.per_layer(plain, traced)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["families.calls"][0] == len(plain["latency_s"])
    assert metrics["trace.overhead"][0] > 0
    assert 0.5 < metrics["trace.self_cover"][0] <= 1.0


def test_unwrapped_layer_lowers_self_cover(refs, monkeypatch):
    _, traced = traced_tiny_pass("value_mix", refs)
    full = run.per_layer(traced, traced)["trace.self_cover"][0]
    # leave the parser unwrapped: its time then falls to the harness span
    monkeypatch.setattr(tracing, "TARGETS", tuple(
        t for t in tracing.TARGETS if t[0] != "textform.parse"))
    _, traced = traced_tiny_pass("value_mix", refs)
    partial = run.per_layer(traced, traced)["trace.self_cover"][0]
    assert traced["trace"]["self_s"]["textform.parse"] == 0.0
    assert partial < full - 0.05


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "value_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
