"""Scaling benchmark for the shared knowledge plane (PR 3).

Measures what repeat workflows cost on one host, fig5-style: a supergraph
workload of 50/100/200 fragments partitioned across a small community, the
same guaranteed-satisfiable specification submitted several times at the
same initiator.  Two configurations run the identical protocol:

* **shared** — the knowledge plane: one supergraph per host, delta
  queries, synced remotes skipped, one batched merge per response;
* **isolated** — the reference: every submission runs on a freshly built
  community (:func:`tests.oracles.discovery.fresh_community_workspace`), so
  its workspace builds its own graph and re-collects the community's
  knowledge.

For each fragment count the benchmark reports the wall-clock time of the
2nd..Nth submissions (submission → constructed, the discovery+construction
path this PR targets, plus the end-to-end time through allocation for
context), the fragment messages/bytes put on the wire, and the colouring
work.  Everything here is ``slow``-marked; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_discovery_scaling.py -m slow

Each run (re)writes ``benchmarks/BENCH_discovery.json`` following the
``BENCH_network.json`` format (sections merged into the existing file).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.trials import build_trial_community
from repro.host.workspace import WorkflowPhase
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload
from tests.oracles.discovery import fresh_community_workspace

pytestmark = pytest.mark.slow

BENCH_SEED = 20090514
NUM_HOSTS = 4
PATH_LENGTH = 6
REPEATS = 5  # submissions per configuration; the first is the cold start
ROUNDS = 3  # independent timing rounds; the fastest is reported

RESULTS_PATH = Path(__file__).with_name("BENCH_discovery.json")
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge this run's measurements into ``BENCH_discovery.json``."""

    yield
    if not _RESULTS:
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
        "num_hosts": NUM_HOSTS,
        "path_length": PATH_LENGTH,
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_repeated_submissions(num_fragments: int, share_supergraph: bool) -> dict:
    """Submit the same spec ``REPEATS`` times; measure the 2nd..Nth runs.

    Without ``share_supergraph`` each submission runs on a fresh community.
    """

    workload = RandomSupergraphWorkload(seed=BENCH_SEED).generate(num_fragments)
    community = build_trial_community(workload, num_hosts=NUM_HOSTS, seed=BENCH_SEED)
    rng = derive_rng(BENCH_SEED, "bench-spec", num_fragments)
    specification = workload.path_specification(PATH_LENGTH, rng)
    assert specification is not None

    construction_wall = 0.0
    allocation_wall = 0.0
    fragment_messages = 0
    fragment_bytes = 0
    nodes_recolored = 0
    for attempt in range(REPEATS):
        if share_supergraph:
            stats = community.network.statistics
            messages_before = stats.kind_count("FragmentQuery", "FragmentResponse")
            bytes_before = stats.kind_bytes("FragmentQuery", "FragmentResponse")
            workspace = community.submit_specification("host-0", specification)
            community.run_until_allocated(workspace)
        else:
            fresh, workspace = fresh_community_workspace(
                workload, NUM_HOSTS, BENCH_SEED, specification
            )
            stats = fresh.network.statistics
            messages_before = bytes_before = 0
        assert workspace.phase in (WorkflowPhase.EXECUTING, WorkflowPhase.COMPLETED)
        if attempt == 0:
            continue  # cold start: both configurations must collect everything
        _, construction = workspace.time_to_construction()
        _, allocation = workspace.time_to_allocation()
        construction_wall += construction
        allocation_wall += allocation
        fragment_messages += (
            stats.kind_count("FragmentQuery", "FragmentResponse") - messages_before
        )
        fragment_bytes += (
            stats.kind_bytes("FragmentQuery", "FragmentResponse") - bytes_before
        )
        construction_stats = workspace.construction_statistics
        nodes_recolored += construction_stats.nodes_recolored if construction_stats else 0
    return {
        "construction_seconds": construction_wall,
        "allocation_seconds": allocation_wall,
        "fragment_messages": fragment_messages,
        "fragment_bytes": fragment_bytes,
        "nodes_recolored": nodes_recolored,
        "repeat_submissions": REPEATS - 1,
    }


def best_of_rounds(num_fragments: int, share_supergraph: bool) -> dict:
    """Re-run the protocol ``ROUNDS`` times, keep the fastest timing round.

    Message/byte/recolor counts are deterministic across rounds; only the
    wall-clock components are noisy on a busy (1-core) machine, and the
    minimum is the standard robust estimator for them.
    """

    rounds = [
        run_repeated_submissions(num_fragments, share_supergraph)
        for _ in range(ROUNDS)
    ]
    return min(rounds, key=lambda r: r["construction_seconds"])


@pytest.mark.parametrize("num_fragments", [50, 100, 200])
def test_repeated_submissions_reuse_the_knowledge_plane(num_fragments):
    shared = best_of_rounds(num_fragments, share_supergraph=True)
    isolated = best_of_rounds(num_fragments, share_supergraph=False)

    speedup = (
        isolated["construction_seconds"] / shared["construction_seconds"]
        if shared["construction_seconds"] > 0
        else float("inf")
    )
    message_reduction = (
        1.0 - shared["fragment_messages"] / isolated["fragment_messages"]
        if isolated["fragment_messages"]
        else 0.0
    )
    _RESULTS.setdefault("repeated_submission", {})[str(num_fragments)] = {
        "shared": shared,
        "isolated": isolated,
        "construction_speedup": speedup,
        "allocation_speedup": (
            isolated["allocation_seconds"] / shared["allocation_seconds"]
            if shared["allocation_seconds"] > 0
            else float("inf")
        ),
        "fragment_message_reduction": message_reduction,
        "recolor_reduction": (
            1.0 - shared["nodes_recolored"] / isolated["nodes_recolored"]
            if isolated["nodes_recolored"]
            else 1.0
        ),
    }

    # Acceptance: >=5x on the discovery+construction path and >=80% fewer
    # fragment messages for the 2nd+ workflow at 100+ fragments.
    if num_fragments >= 100:
        assert speedup >= 5.0, f"construction speedup {speedup:.1f}x < 5x"
        assert message_reduction >= 0.8, (
            f"fragment message reduction {message_reduction:.0%} < 80%"
        )
    assert shared["fragment_messages"] == 0
    assert shared["nodes_recolored"] <= isolated["nodes_recolored"]
