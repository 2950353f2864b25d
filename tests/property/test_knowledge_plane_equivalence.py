"""Property: shared-supergraph construction ≡ per-workspace construction.

The shared knowledge plane claims that running a *sequence* of workflows on
one host — reusing the accumulated supergraph, skipping fully-synced
remotes, seeding only new local fragments — produces results equivalent to
collecting the community's knowledge into a fresh graph for every
workspace.  The reference is each submission run on a freshly built
community (:func:`tests.oracles.discovery.fresh_community_workspace`).
These tests drive fig5-style workloads (one supergraph partitioned across
two hosts, a sweep of guaranteed-satisfiable path specifications submitted
back to back at one initiator) and compare every workflow with its
reference.

Equivalence is the solver contract (:func:`results_equivalent`): same
feasibility verdict, and on success a valid workflow achieving the
specification — tie-breaks among redundant producers may legitimately pick
different, equally valid, workflows.  On top of that the shared run must
show actual reuse: no fragment queries after the first full sync.
"""

import pytest

from repro.core.solver import results_equivalent
from repro.experiments.trials import build_trial_community
from repro.host.workspace import WorkflowPhase
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload
from tests.oracles.discovery import fresh_community_workspace

SEED = 20090514


@pytest.mark.parametrize("num_tasks", [25, 50])
def test_shared_plane_equivalent_to_per_workspace_graphs(num_tasks):
    path_lengths = [2, 4, 6, 4, 2, 6]  # repeats exercise the solver cache
    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    community = build_trial_community(workload, num_hosts=2, seed=SEED)
    rng = derive_rng(SEED, "specs", num_tasks)
    shared, isolated = [], []
    for path_length in path_lengths:
        specification = workload.path_specification(path_length, rng)
        if specification is None:
            continue
        workspace = community.submit_specification("host-0", specification)
        community.run_until_allocated(workspace)
        shared.append(workspace)
        _, reference = fresh_community_workspace(
            workload, 2, SEED, specification
        )
        isolated.append(reference)
    shared_stats = community.network.statistics
    assert len(shared) > 0
    for ws_shared, ws_isolated in zip(shared, isolated):
        assert ws_shared.specification.name == ws_isolated.specification.name
        result_shared = ws_shared.construction_result
        result_isolated = ws_isolated.construction_result
        assert result_shared is not None and result_isolated is not None
        assert results_equivalent(result_shared, result_isolated), (
            f"{ws_shared.specification.name}: shared={result_shared!r} "
            f"isolated={result_isolated!r}"
        )
        # Both configurations must agree on the end-to-end outcome too.
        assert (ws_shared.phase is WorkflowPhase.FAILED) == (
            ws_isolated.phase is WorkflowPhase.FAILED
        )

    # The plane must actually have been reused: after the first workflow's
    # full sync, no further fragment traffic goes on the wire ...
    assert shared_stats.kind_count("FragmentQuery") == 1
    assert shared_stats.kind_count("FragmentResponse") == 1
    # Every later workspace starts from the accumulated knowledge.
    assert all(ws.fragments_reused > 0 for ws in shared[1:])


def test_shared_plane_seeds_only_new_local_fragments():
    """Local know-how added between submissions reaches the shared graph."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(25)
    community = build_trial_community(workload, num_hosts=2, seed=SEED)
    rng = derive_rng(SEED, "specs", 25)
    first_spec = workload.path_specification(2, rng)
    second_spec = workload.path_specification(4, rng)
    assert first_spec is not None and second_spec is not None

    host = community.host("host-0")
    first = community.submit_specification("host-0", first_spec)
    community.run_until_allocated(first)
    graph = host.workflow_manager.supergraph
    assert graph is not None
    before = len(graph.fragment_ids)

    # New local know-how between submissions: the delta seed picks it up.
    from repro.core.fragments import WorkflowFragment
    from repro.core.tasks import Task

    host.add_fragment(
        WorkflowFragment([Task("late-task", ["late-in"], ["late-out"])],
                         fragment_id="late-fragment")
    )
    second = community.submit_specification("host-0", second_spec)
    community.run_until_allocated(second)
    assert "late-fragment" in graph.fragment_ids
    assert len(graph.fragment_ids) == before + 1
    assert second.fragments_reused == before
