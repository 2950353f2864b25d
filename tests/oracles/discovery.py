"""Reference models for know-how discovery and the shared knowledge plane.

* :func:`linear_matching` answers a know-how query by one pass over every
  fragment a :class:`~repro.discovery.knowhow.FragmentManager` stores, where
  production answers from its inverted index.
* :func:`fresh_community_workspace` runs one submission on a community built
  from scratch.  Production hosts keep one supergraph for all their
  workspaces; a fresh community is the reference for what each workspace
  would have built on its own.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.discovery.knowhow import FragmentManager
from repro.experiments.trials import build_trial_community
from repro.host.community import Community
from repro.host.workspace import Workspace
from repro.net.messages import FragmentQuery
from repro.workloads.supergraph_gen import GeneratedWorkload


def linear_matching(
    manager: FragmentManager, query: FragmentQuery
) -> list[WorkflowFragment]:
    """The fragments ``manager`` must return for ``query``, by linear scan."""

    if query.since_epoch >= 0 and query.since_epoch != manager.epoch:
        query = replace(query, since_version=0, since_epoch=-1)
    knowledge = manager.knowledge
    matches: list[WorkflowFragment] = []
    for fragment in knowledge:
        if fragment.fragment_id in query.exclude_fragment_ids:
            continue
        if knowledge.sequence_of(fragment.fragment_id) <= query.since_version:
            continue
        if not query.want_all:
            relevant = any(
                fragment.consumes_label(label) for label in query.consuming
            ) or any(fragment.produces_label(label) for label in query.producing)
            if not relevant:
                continue
        matches.append(fragment)
    return matches


def fresh_community_workspace(
    workload: GeneratedWorkload,
    num_hosts: int,
    seed: int,
    specification: Specification,
) -> tuple[Community, Workspace]:
    """Submit ``specification`` at ``host-0`` of a newly built trial community
    and run it until allocated; returns the community and the workspace."""

    community = build_trial_community(workload, num_hosts, seed)
    workspace = community.submit_specification("host-0", specification)
    community.run_until_allocated(workspace)
    return community, workspace
