"""Fast tests of the benchmark itself (tiny runs, a few seconds each).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import Tracer, layer_metrics
from run import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
DETERMINISTIC = (
    "success_rate",
    "msgs_per_trial",
    "bytes_per_trial",
    "sim_alloc_ms_p50",
    "sim_complete_s_p50",
)


def bench(workload: str, seed: int = 3, trace: int = 0, cwd: Path = ROOT):
    """Run one tiny benchmark; return (exit code, info line, result line)."""

    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        return completed.returncode, None, None
    return completed.returncode, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache: dict = {}

    def get(workload: str, trace: int = 0, attempt: int = 0):
        key = (workload, trace, attempt)
        if key not in cache:
            cache[key] = bench(workload, trace=trace)
        return cache[key]

    return get


def test_benchmark_json_has_the_required_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert WORKLOADS == ["paper_sweep", "adhoc_mobile", "churn_durable"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(runs, workload):
    code, info, result = runs(workload)
    assert code == 0, info
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert info["problems"] == []
    assert set(info["env"]) == {"cpu_count", "git_rev", "python", "numpy"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(runs, workload):
    _, first_info, first = runs(workload)
    _, second_info, second = runs(workload, attempt=1)
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_info["digest"] == second_info["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_keeps_the_digest(runs, workload):
    code, info, result = runs(workload, trace=1)
    assert code == 0, info
    assert result["correct"] is True
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert info["digest"] == runs(workload)[1]["digest"]
    assert result["metrics"]["host.messages"]["value"] > 0
    assert result["metrics"]["sim.events"]["value"] > 0
    if workload == "churn_durable":
        assert result["metrics"]["durability.appends"]["value"] > 0
    if workload == "paper_sweep":
        assert result["metrics"]["experiments.fallbacks"]["value"] == 0
        assert result["metrics"]["experiments.segment_bytes"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns(".run", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    code, info, result = bench("adhoc_mobile", cwd=tmp_path)
    assert code != 0
    assert result is None


LEFT_BEHIND = """
import ctypes, os, subprocess, sys, time
sys.path.insert(0, "perfbench")
from run import child_pids
# PR_SET_CHILD_SUBREAPER: the benchmark's orphans, zombies too, become ours.
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
time.sleep(0.5)
left = child_pids()
for pid in left:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
print(len(left))
"""


def test_pool_run_leaves_no_process_behind():
    completed = subprocess.run(
        [sys.executable, "-c", LEFT_BEHIND, sys.executable, "perfbench/run.py",
         "--workload", "paper_sweep", "--seed", "3", "--seconds", "0.5", "--trace", "0",
         "--tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "0"


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([7.0], 0.9) == 7.0


def test_self_time_subtracts_child_spans():
    class Leaf:
        def work(self):
            return sum(range(2000))

    class Node:
        def work(self, leaf):
            return leaf.work() + leaf.work()

    tracer = Tracer()
    tracer.wrap(Node, "work", "host.on_message")
    tracer.wrap(Leaf, "work", "core.solve")
    try:
        tracer.trial = 0
        Node().work(Leaf())
    finally:
        tracer.uninstall()
    assert "__wrapped__" not in vars(Node.work)
    summary = tracer.summary()
    outer, inner = summary["host.on_message"], summary["core.solve"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert outer["self_ns"] == outer["incl_ns"] - inner["incl_ns"]
    metrics = layer_metrics(summary, [None], 1, {}, 0.0)
    assert metrics["host.messages"] == 1.0
