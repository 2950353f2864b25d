"""Scaling benchmark for the batched execution plane (PR 5).

Three workloads, mirroring the PR's levers:

* **execution_fanout** — a deterministic 8-task fan-out/fan-in workflow
  (one hub task produces six labels consumed by six parallel stage tasks
  plus a join, concentrated on specialist hosts — the shape of the paper's
  catering scenarios, where one chef prepares many dishes handed to one
  kitchen team).  This is where per-label execution messaging hurts most:
  the per-label protocol pays one message per label x destination plus one
  completion per task, the batched protocol one label batch per (firing,
  destination) plus one progress report per completion burst.  Asserts the
  >=3x acceptance ratio.
* **execution_random** — fig5-style random supergraph workloads (30
  fragments, 8-task path) run to completion at several community sizes,
  reporting the label-message and completion-message reduction on
  arbitrary (chain-heavy) workflows.
* **fig6_execution** — the fan-out workflow deployed on a fig6-style
  multi-hop mobile community (802.11g model, mixed mostly-at-rest /
  random-waypoint population, specialists relaying over AODV routes),
  submitted repeatedly and run to *completion* with batched execution vs.
  the legacy per-label protocol, both on the production network, reporting
  end-to-end wall-clock and the predictive-scheduler counters.  Tasks here
  take real simulated time, so links churn *during* execution and the
  predictive scheduler actually has crossings to arm.

Everything here is ``slow``-marked; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_execution_scaling.py -m slow

Set ``REPRO_BENCH_FAST=1`` (the CI smoke job does) to shrink the sizes so
the whole file runs in a few seconds while still asserting the protocol
ratios; the wall-clock threshold only applies to the full-size run.

Each full-size run (re)writes ``benchmarks/BENCH_execution.json``.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.core.tasks import Task
from repro.execution.services import ServiceDescription
from repro.experiments.trials import adhoc_network_factory, build_trial_community
from repro.host.community import Community
from repro.host.workspace import WorkflowPhase
from repro.mobility.geometry import square_site
from repro.mobility.models import RandomWaypointMobility
from repro.sim.randomness import derive_rng, derive_seed
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

pytestmark = pytest.mark.slow

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

BENCH_SEED = 20090514
NUM_FRAGMENTS = 30
PATH_LENGTH = 8
HOST_COUNTS = (2,) if FAST else (2, 4, 8)
ROUNDS = 1 if FAST else 3  # independent timing rounds; the fastest is kept
FIG6_HOSTS = 8 if FAST else 20

EXECUTION_KINDS = (
    "LabelDataMessage",
    "TaskCompleted",
    "TaskFailed",
    "LabelBatch",
    "WorkflowProgressReport",
)
LABEL_KINDS = ("LabelDataMessage", "LabelBatch")
COMPLETION_KINDS = ("TaskCompleted", "TaskFailed", "WorkflowProgressReport")

RESULTS_PATH = Path(__file__).with_name("BENCH_execution.json")
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write this run's measurements to ``BENCH_execution.json``.

    Fast mode never writes: its tiny-size numbers would overwrite (and be
    indistinguishable from) the full-size sections the acceptance numbers
    live in.  The CI smoke job only needs the in-test assertions.
    """

    yield
    if not _RESULTS or FAST:
        return
    existing: dict = {}
    if RESULTS_PATH.exists():
        try:
            existing = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = {}
    for section, payload in _RESULTS.items():
        existing.setdefault(section, {}).update(payload)
    existing["meta"] = {
        "seed": BENCH_SEED,
        "num_fragments": NUM_FRAGMENTS,
        "path_length": PATH_LENGTH,
        "rounds": ROUNDS,
        "scaling_hosts": FIG6_HOSTS,
        "fast_mode": FAST,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def execution_traffic(stats) -> dict:
    return {
        "execution_messages": stats.kind_count(*EXECUTION_KINDS),
        "execution_bytes": stats.kind_bytes(*EXECUTION_KINDS),
        "label_messages": stats.kind_count(*LABEL_KINDS),
        "completion_messages": stats.kind_count(*COMPLETION_KINDS),
    }


def ratio(plain: float, batched: float) -> float:
    return plain / batched if batched else float("inf")


# ---------------------------------------------------------------------------
# Workload 1: the 8-task fan-out/fan-in workflow (acceptance ratio)
# ---------------------------------------------------------------------------

FAN_OUT = 6  # parallel stage tasks between the hub and the join


def fanout_workflow() -> tuple[list[Task], Specification]:
    """The 8-task hub → six parallel stages → join workflow."""

    hub = Task(
        "prepare",
        inputs=["go"],
        outputs=[f"part-{i}" for i in range(FAN_OUT)],
        duration=60.0,
    )
    stages = [
        Task(
            f"stage-{i}",
            inputs=[f"part-{i}"],
            outputs=[f"ready-{i}"],
            duration=60.0,
        )
        for i in range(FAN_OUT)
    ]
    join = Task(
        "assemble",
        inputs=[f"ready-{i}" for i in range(FAN_OUT)],
        outputs=["done"],
        duration=60.0,
    )
    return [hub, *stages, join], Specification(triggers=["go"], goals=["done"])


def hub_services() -> list[ServiceDescription]:
    return [ServiceDescription("prepare", duration=60.0)]


def stage_services() -> list[ServiceDescription]:
    return [
        ServiceDescription(f"stage-{i}", duration=60.0) for i in range(FAN_OUT)
    ] + [ServiceDescription("assemble", duration=60.0)]


def build_fanout_community(batch_execution: bool) -> tuple[Community, Specification]:
    """Initiator + hub specialist + stage specialist, 8-task workflow.

    ``host-0`` initiates (it holds the know-how), ``host-1`` is the only
    host able to run the hub task, ``host-2`` the only host able to run the
    six stage tasks and the join — so allocation is forced and the
    execution phase is identical across protocol modes.
    """

    tasks, specification = fanout_workflow()
    fragments = [WorkflowFragment([task]) for task in tasks]
    community = Community()
    community.add_host(
        "host-0", fragments=fragments, batch_execution=batch_execution
    )
    community.add_host(
        "host-1", services=hub_services(), batch_execution=batch_execution
    )
    community.add_host(
        "host-2", services=stage_services(), batch_execution=batch_execution
    )
    return community, Specification(triggers=["go"], goals=["done"])


def run_fanout(batch_execution: bool) -> dict:
    community, specification = build_fanout_community(batch_execution)
    workspace = community.submit_specification("host-0", specification)
    community.run_until_completed(workspace)
    assert workspace.phase is WorkflowPhase.COMPLETED
    assert len(workspace.workflow.task_names) == FAN_OUT + 2
    return execution_traffic(community.network.statistics)


def test_fanout_workflow_meets_acceptance_ratio():
    batched = run_fanout(True)
    plain = run_fanout(False)
    message_ratio = ratio(plain["execution_messages"], batched["execution_messages"])
    _RESULTS["execution_fanout"] = {
        str(FAN_OUT + 2): {
            "batched": batched,
            "per_label": plain,
            "message_ratio": message_ratio,
            "label_ratio": ratio(plain["label_messages"], batched["label_messages"]),
            "completion_ratio": ratio(
                plain["completion_messages"], batched["completion_messages"]
            ),
            "byte_ratio": ratio(plain["execution_bytes"], batched["execution_bytes"]),
        }
    }
    # Acceptance: >=3x fewer execution-phase messages on the 8-task workflow
    # (deterministic counts, asserted in fast mode too).
    assert message_ratio >= 3.0, f"execution message ratio {message_ratio:.1f}x < 3x"
    assert batched["label_messages"] < plain["label_messages"]
    assert batched["completion_messages"] < plain["completion_messages"]
    assert batched["execution_bytes"] < plain["execution_bytes"]


# ---------------------------------------------------------------------------
# Workload 2: fig5-style random workloads at several community sizes
# ---------------------------------------------------------------------------


def run_random_workload(num_hosts: int, batch_execution: bool) -> dict:
    workload = RandomSupergraphWorkload(seed=BENCH_SEED).generate(NUM_FRAGMENTS)
    community = build_trial_community(
        workload,
        num_hosts=num_hosts,
        seed=BENCH_SEED,
        batch_execution=batch_execution,
    )
    rng = derive_rng(BENCH_SEED, "bench-exec-spec", num_hosts)
    specification = workload.path_specification(PATH_LENGTH, rng)
    assert specification is not None
    workspace = community.submit_specification("host-0", specification)
    community.run_until_completed(workspace)
    assert workspace.phase is WorkflowPhase.COMPLETED
    traffic = execution_traffic(community.network.statistics)
    traffic["workflow_tasks"] = len(workspace.workflow.task_names)
    return traffic


@pytest.mark.parametrize("num_hosts", HOST_COUNTS)
def test_random_workload_execution_traffic_shrinks(num_hosts):
    batched = run_random_workload(num_hosts, True)
    plain = run_random_workload(num_hosts, False)
    _RESULTS.setdefault("execution_random", {})[str(num_hosts)] = {
        "batched": batched,
        "per_label": plain,
        "message_ratio": ratio(
            plain["execution_messages"], batched["execution_messages"]
        ),
        "byte_ratio": ratio(plain["execution_bytes"], batched["execution_bytes"]),
    }
    # Batching never adds messages.  Bytes shrink whenever anything was
    # actually batched (every merged message saves a 64-byte envelope);
    # when the allocation spreads every task to a distinct host nothing
    # coalesces, and the only cost is the 16-byte record framing of each
    # singleton progress report.
    assert batched["execution_messages"] <= plain["execution_messages"]
    if batched["execution_messages"] < plain["execution_messages"]:
        assert batched["execution_bytes"] < plain["execution_bytes"]
    else:
        framing = 16 * batched["completion_messages"]
        assert batched["execution_bytes"] <= plain["execution_bytes"] + framing
    if num_hosts == 2:
        # Chains concentrate on few hosts here: a real reduction, not parity.
        assert batched["execution_messages"] < plain["execution_messages"]


# ---------------------------------------------------------------------------
# Workload 3: the fan-out workflow on a fig6-style multi-hop mobile community
# ---------------------------------------------------------------------------

EXEC_REPEATS = 2 if FAST else 40


def mixed_mobility(index: int):
    """Mostly-at-rest population: 4 of 5 devices sit with their users,
    every 5th (including the two specialists) wanders as a random
    waypoint, so links break while workflows execute."""

    site = square_site(60.0 * math.sqrt(FIG6_HOSTS))
    if index % 5 == 0 or index in (1, 2):
        return RandomWaypointMobility(
            site, seed=derive_seed(BENCH_SEED, "bench-exec-mobility", index)
        )
    rng = derive_rng(BENCH_SEED, "bench-exec-scatter", index)
    return site.random_point(rng)


def run_fig6_trial(modern: bool) -> dict:
    """Repeat fan-out submissions on the mobile multi-hop community, timed.

    ``modern=True`` runs batched execution; ``False`` the legacy per-label
    protocol.  The community, trajectories, and specification are
    identical; only the execution protocol differs.  Tasks take 60
    simulated seconds each, so every workflow executes across minutes of
    mobility and the label/report traffic rides churning AODV routes.
    """

    community = Community(
        network_factory=adhoc_network_factory(BENCH_SEED, multi_hop=True)
    )
    tasks, specification = fanout_workflow()
    fragments = [WorkflowFragment([task]) for task in tasks]
    for index in range(FIG6_HOSTS):
        if index == 1:
            services = hub_services()
        elif index == 2:
            services = stage_services()
        else:
            services = []
        community.add_host(
            f"host-{index}",
            fragments=fragments if index == 0 else (),
            services=services,
            mobility=mixed_mobility(index),
            batch_execution=modern,
        )
    started = time.perf_counter()
    phases: list[str] = []
    completed_tasks = 0
    for _ in range(EXEC_REPEATS):
        workspace = community.submit_specification("host-0", specification)
        community.run_until_completed(workspace, max_sim_seconds=86_400.0)
        phases.append(workspace.phase.value)
        completed_tasks += len(workspace.completed_tasks)
    elapsed = time.perf_counter() - started
    network = community.network
    result = {
        "trial_seconds": elapsed,
        "hosts": FIG6_HOSTS,
        "repeats": EXEC_REPEATS,
        "phases": phases,
        "completed_tasks": completed_tasks,
        "sim_seconds": community.clock.now(),
        "link_breaks_predicted": network.link_breaks_predicted,
        "predicted_epoch_bumps": network.predicted_epoch_bumps,
        "route_discoveries": network.router.discoveries,
    }
    result.update(execution_traffic(network.statistics))
    return result


def test_fig6_execution_stack_end_to_end():
    modern = min(
        (run_fig6_trial(True) for _ in range(ROUNDS)),
        key=lambda r: r["trial_seconds"],
    )
    legacy = min(
        (run_fig6_trial(False) for _ in range(ROUNDS)),
        key=lambda r: r["trial_seconds"],
    )
    speedup = (
        legacy["trial_seconds"] / modern["trial_seconds"]
        if modern["trial_seconds"] > 0
        else float("inf")
    )
    _RESULTS["fig6_execution"] = {
        str(FIG6_HOSTS): {
            "modern": modern,
            "legacy": legacy,
            "end_to_end_speedup": speedup,
            "message_ratio": ratio(
                legacy["execution_messages"], modern["execution_messages"]
            ),
        }
    }
    # Both stacks complete the same workflows; the modern stack uses
    # strictly fewer execution messages, and the predictive scheduler
    # actually armed link-break events on this mobile community.
    assert modern["phases"] == legacy["phases"]
    assert modern["completed_tasks"] == legacy["completed_tasks"]
    assert modern["execution_messages"] < legacy["execution_messages"]
    assert modern["link_breaks_predicted"] > 0
    if not FAST:
        # Measurable end-to-end improvement (wall-clock is noisy on a busy
        # 1-core container, so the bound is deliberately conservative).
        assert speedup >= 1.0, f"end-to-end speedup {speedup:.2f}x < 1.0x"
