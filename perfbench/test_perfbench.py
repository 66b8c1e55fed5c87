"""Self-tests for the benchmark: its checks must fail on corrupted
inputs, its output must parse, and a tiny run must finish end to end.

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from checks import layout_problems, peak_problems, same_bits, topological_problems
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(scope="module")
def micro():
    from repro.compiler.pipeline import CompilationPipeline
    from repro.models.suite import serving_suite

    return CompilationPipeline("serenity").compile(serving_suite()["rw-micro-a"]())


def _inputs_of(graph):
    return {node.name: tuple(node.inputs) for node in graph}


def _buffers(model):
    return [
        (lt.buffer_id, lt.size, lt.start, lt.end, model.plan.offsets[lt.buffer_id])
        for lt in model.plan.lifetimes
    ]


def test_schedule_check_passes_and_catches_a_swap_against_an_edge(micro):
    order = list(micro.schedule.order)
    inputs_of = _inputs_of(micro.graph)
    assert topological_problems("m", order, inputs_of) == []
    # swap a consumer with the producer right before it
    i = next(
        i for i in range(1, len(order)) if order[i - 1] in inputs_of[order[i]]
    )
    order[i - 1], order[i] = order[i], order[i - 1]
    assert topological_problems("m", order, inputs_of)
    assert topological_problems("m", order[:-1], inputs_of)  # a node left out


def test_layout_check_passes_and_catches_overlapping_live_buffers(micro):
    buffers = _buffers(micro)
    peak = micro.meta["peak_bytes"]
    assert layout_problems("m", buffers, micro.arena_bytes, peak) == []
    a, b = next(
        (a, b)
        for a in buffers
        for b in buffers
        if a[0] != b[0] and a[1] > 0 and b[1] > 0 and a[2] < b[3] and b[2] < a[3]
    )
    moved = [(x[0], x[1], x[2], x[3], a[4]) if x is b else x for x in buffers]
    assert layout_problems("m", moved, micro.arena_bytes, peak)
    assert layout_problems("m", buffers, peak - 1, peak)  # arena below peak


def test_output_check_catches_one_flipped_bit():
    ref = {"y": np.linspace(-1.0, 1.0, 32)}
    got = {"y": ref["y"].copy()}
    assert same_bits(ref, got)
    got["y"].view(np.uint64)[7] ^= np.uint64(1)
    assert not same_bits(ref, got)
    assert not same_bits(ref, {"y": ref["y"].astype(np.float32)})
    assert not same_bits(ref, {})


def test_peak_check_catches_a_peak_above_a_heuristic(micro):
    from repro.scheduler.greedy import greedy_schedule
    from repro.scheduler.memory import simulate_schedule

    graph = micro.graph
    peak = simulate_schedule(graph, micro.schedule, validate=False).peak_bytes
    greedy = simulate_schedule(graph, greedy_schedule(graph), validate=False).peak_bytes
    assert peak_problems("m", peak, {"greedy": greedy}) == []
    assert peak_problems("m", greedy + 1, {"greedy": greedy})


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_tiny_run_prints_a_parsable_result(trace, names):
    proc = _run("--workload", "micro", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench").exists()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "micro", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
