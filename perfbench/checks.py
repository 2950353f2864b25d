"""Correctness checks the benchmark runs on every trial it times.

:class:`TrialObserver` wraps ``trial_result_from_workspace`` — the call
every trial entry point (``execute_trial``, ``run_churn_trial``) ends with —
so it sees each trial's final workspace.  It raises :class:`GateError` when
an allocated workflow has a task without a host, and records the phase and
simulated completion time the :class:`~repro.experiments.trials.TrialResult`
does not carry.  Pool workers fork from the benchmark process after the
wrapper is installed, so the check runs there too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from patching import Patches


class GateError(AssertionError):
    """A trial's output broke an invariant the benchmark checks."""


@dataclass(frozen=True)
class Observation:
    """What the observer saw of the last finished trial in this process."""

    phase: str
    completed_sim_s: float | None
    """Simulated seconds from the first revision's submission to the final
    revision's completion; ``None`` when the workflow did not complete."""


class TrialObserver:
    """Checks each trial's final workspace at the library's result boundary."""

    def __init__(self) -> None:
        self.last: Observation | None = None
        self.checked = 0
        self._patches = Patches()

    def install(self) -> None:
        from repro.experiments import runner, trials

        for module in (runner, trials):
            self._patches.replace(module, "trial_result_from_workspace", self._wrap)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, original):
        def observed(community, workspace):
            self.observe(community, workspace)
            return original(community, workspace)

        return observed

    def observe(self, community, workspace) -> None:
        outcome = workspace.allocation_outcome
        workflow = workspace.workflow
        if workspace.is_allocated and workflow is not None:
            hosts = set(community.host_ids)
            unplaced = sorted(
                task
                for task in workflow.task_names
                if outcome.allocation.get(task) not in hosts
            )
            if unplaced:
                raise GateError(
                    f"workflow {workspace.workflow_id} is allocated but tasks "
                    f"{unplaced} have no host"
                )
        self.checked += 1
        self.last = Observation(
            phase=workspace.phase.value,
            completed_sim_s=_completion_sim_seconds(community, workspace),
        )


def _completion_sim_seconds(community, final) -> float | None:
    completed = final.timestamps.get("completed")
    if completed is None:
        return None
    by_id = {
        workspace.workflow_id: workspace
        for host in community
        for workspace in host.workflow_manager.workspaces()
    }
    first = final
    while first.repair_of is not None and first.repair_of in by_id:
        first = by_id[first.repair_of]
    submitted = first.timestamps.get("submitted")
    if submitted is None:
        return None
    return completed.sim_time - submitted.sim_time


def digest(results) -> str:
    """A hash of the trials' deterministic views, in trial order.

    ``None`` stands for a trial that drew no specification.  Dataclass
    ``repr`` spells every float exactly, so equal digests mean equal
    simulated outcomes.
    """

    hasher = hashlib.sha256()
    for index, result in enumerate(results):
        view = None if result is None else result.deterministic_copy()
        hasher.update(f"{index}:{view!r}\n".encode())
    return hasher.hexdigest()[:16]
