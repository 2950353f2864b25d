"""Communities: the transient group of hosts cooperating on open workflows.

A community bundles the shared infrastructure (event scheduler, clock,
communications layer, location directory) with the set of hosts currently
participating.  It is the programmatic analogue of "the set of participants
(people and the host devices they carry) who share a sense of purpose"
(paper, Section 1) and is the object the evaluation harness manipulates:
experiments create a community, distribute knowledge and services across
its hosts, submit a problem at an initiator, and pump the event scheduler
until allocation (and optionally execution) finishes.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Callable, Iterable, Iterator

from ..core.errors import OpenWorkflowError
from ..core.fragments import WorkflowFragment
from ..core.solver import Solver
from ..core.specification import Specification
from ..durability import HostDurability, make_backend, rebuild_state
from ..execution.services import ServiceDescription
from ..mobility.geometry import Point
from ..mobility.locations import LocationDirectory, TravelModel
from ..mobility.models import MobilityModel
from ..net.faults import FaultPlane
from ..net.simnet import SimulatedNetwork
from ..net.transport import CommunicationsLayer
from ..scheduling.preferences import ALWAYS_WILLING, ParticipantPreferences
from ..sim.clock import SimulatedClock
from ..sim.events import EventScheduler
from .host import Host
from .workspace import Workspace, WorkflowPhase


class Community:
    """A group of hosts sharing a scheduler and a communications layer.

    Parameters
    ----------
    network_factory:
        Builds the communications layer from the scheduler.  Defaults to a
        zero-latency :class:`~repro.net.simnet.SimulatedNetwork`, matching
        the paper's single-process simulation.
    locations:
        Shared directory of named places (optional).
    travel_model:
        Shared travel-time model (optional).

    A community that journals to disk (``durability="file"`` or
    ``"sqlite"``) keeps every journal under one temporary directory it
    creates on first use; call :meth:`close` when done with it.
    """

    def __init__(
        self,
        network_factory: Callable[[EventScheduler], CommunicationsLayer] | None = None,
        locations: LocationDirectory | None = None,
        travel_model: TravelModel | None = None,
    ) -> None:
        self.clock = SimulatedClock()
        self.scheduler = EventScheduler(self.clock)
        if network_factory is None:
            self.network: CommunicationsLayer = SimulatedNetwork(self.scheduler)
        else:
            self.network = network_factory(self.scheduler)
        self.locations = locations if locations is not None else LocationDirectory()
        self.travel_model = travel_model if travel_model is not None else TravelModel()
        self._hosts: dict[str, Host] = {}
        #: How each host was built, so ``restart_host`` can rebuild it after
        #: a crash with its durable state (the fragment database contents)
        #: but fresh volatile state and a new database epoch.
        self._recipes: dict[str, dict[str, object]] = {}
        #: Per-host durability backends (journal + snapshot storage).  Owned
        #: by the community, not the host, the way a flash chip is owned by
        #: the device rather than the operating system: a crash destroys the
        #: ``Host`` object but the backend — and everything journaled
        #: through it — survives for the next incarnation to replay.
        self._durability_backends: dict[str, object] = {}
        #: The temporary directory holding on-disk journals, created by the
        #: first ``"file"``/``"sqlite"`` host and removed by :meth:`close`.
        self._journal_root: str | None = None
        self.fault_plane: FaultPlane | None = None
        self.hosts_crashed = 0
        self.hosts_restarted = 0
        #: Workflows resumed from the durable journal instead of repaired.
        self.workflows_resumed = 0

    # -- membership -------------------------------------------------------------
    def add_host(
        self,
        host_id: str,
        fragments: Iterable[WorkflowFragment] = (),
        services: Iterable[ServiceDescription] = (),
        mobility: MobilityModel | Point | None = None,
        preferences: ParticipantPreferences = ALWAYS_WILLING,
        construction_mode: str = "batch",
        capability_aware: bool = False,
        enable_recovery: bool = False,
        max_repair_attempts: int = 3,
        solver: "Solver | str | None" = None,
        knowledge_refresh_interval: float = float("inf"),
        batch_auctions: bool = True,
        batch_execution: bool = True,
        fault_injection: bool = False,
        durability=None,
        durable_outputs: bool = True,
    ) -> Host:
        """Create a host, attach it to the network, and join it to the community.

        ``durability`` selects the host's durable state plane: ``None``
        (off), ``"memory"``/``True`` (simulated flash), ``"file"`` (real
        append-only files), ``"sqlite"`` (a WAL-mode database), or a
        ``host_id -> backend`` factory.  The resolved backend is owned by
        the community and survives crashes; :meth:`restart_host` replays it
        so the new incarnation resumes mid-workflow instead of forcing
        repair.  ``durable_outputs`` (only meaningful with durability on)
        additionally journals every published label value so a restarted
        producer can answer replay requests; turning it off reproduces the
        tier-1 plane for comparison.
        """

        if host_id in self._hosts:
            raise OpenWorkflowError(f"host {host_id!r} already exists in the community")
        recipe: dict[str, object] = dict(
            fragments=tuple(fragments),
            services=tuple(services),
            mobility=mobility,
            preferences=preferences,
            construction_mode=construction_mode,
            capability_aware=capability_aware,
            enable_recovery=enable_recovery,
            max_repair_attempts=max_repair_attempts,
            solver=solver,
            knowledge_refresh_interval=knowledge_refresh_interval,
            batch_auctions=batch_auctions,
            batch_execution=batch_execution,
            fault_injection=fault_injection,
            durability=durability,
            durable_outputs=durable_outputs,
        )
        plane = self._durability_plane(host_id, durability, durable_outputs)
        host = Host(
            host_id,
            network=self.network,
            scheduler=self.scheduler,
            fragments=recipe["fragments"],
            services=recipe["services"],
            locations=self.locations,
            travel_model=self.travel_model,
            mobility=mobility,
            preferences=preferences,
            construction_mode=construction_mode,
            batch_auctions=batch_auctions,
            batch_execution=batch_execution,
            capability_aware=capability_aware,
            enable_recovery=enable_recovery,
            max_repair_attempts=max_repair_attempts,
            solver=solver,
            knowledge_refresh_interval=knowledge_refresh_interval,
            fault_injection=fault_injection,
            durability=plane,
        )
        self._hosts[host_id] = host
        self._recipes[host_id] = recipe
        # Networks that model geometry (the ad hoc network) take placements.
        place_host = getattr(self.network, "place_host", None)
        if place_host is not None and mobility is not None:
            place_host(host_id, mobility)
        return host

    def _durability_plane(
        self, host_id: str, durability, durable_outputs: bool = True
    ) -> HostDurability | None:
        """Resolve the durability flag into a per-incarnation write facade.

        The *backend* (journal + snapshot storage) is created once per host
        id and kept across crashes; every incarnation gets a fresh
        :class:`~repro.durability.plane.HostDurability` wrapping it.
        """

        if durability is None or durability is False:
            return None
        backend = self._durability_backends.get(host_id)
        if backend is None:
            backend = make_backend(
                durability, host_id, self._journal_directory(durability)
            )
            if backend is None:
                return None
            self._durability_backends[host_id] = backend
        return HostDurability(backend, journal_outputs=durable_outputs)

    def _journal_directory(self, durability) -> str | None:
        """A fresh directory for one on-disk backend, inside the community's
        journal root (created on first use); ``None`` for other specs.

        Each backend gets its own subdirectory so a host id that leaves
        and rejoins never reopens its predecessor's journal.
        """

        if durability not in ("file", "sqlite"):
            return None
        if self._journal_root is None:
            self._journal_root = tempfile.mkdtemp(prefix="repro-durability-")
        return tempfile.mkdtemp(dir=self._journal_root)

    def close(self) -> None:
        """Close every durability backend and remove the journal root.

        Only a directory this community created is removed; backends a
        ``durability=`` factory built keep their files.  Call once the
        community is no longer run.
        """

        for backend in self._durability_backends.values():
            backend.close()
        if self._journal_root is not None:
            shutil.rmtree(self._journal_root, ignore_errors=True)
            self._journal_root = None

    def remove_host(self, host_id: str) -> None:
        """A participant leaves the community (powers off or walks away).

        The departed host's scheduled activity (retry timers, pending
        executions, watchdogs) is cancelled along with its network
        registration, so nothing it armed keeps firing after it left.  A
        departure is permanent: unlike a crash, the host's durability
        backend is released with it.
        """

        host = self._hosts.pop(host_id, None)
        self._recipes.pop(host_id, None)
        backend = self._durability_backends.pop(host_id, None)
        if backend is not None:
            backend.close()
        if host is not None:
            host.crash()

    # -- crash/restart churn (fault injection) --------------------------------------
    def crash_host(self, host_id: str) -> Host | None:
        """Fail-stop a host, keeping only its durable state for a restart.

        The host's current fragment database contents are snapshotted into
        its build recipe (they model flash storage, which survives a crash);
        everything else — commitments, pending invocations, open auctions,
        timers — is volatile and dies with the process.
        """

        host = self._hosts.pop(host_id, None)
        if host is None:
            return None
        recipe = self._recipes.get(host_id)
        if recipe is not None:
            # Defensive copy: mutating the stored recipe in place would alias
            # state across incarnations — a second crash of the restarted
            # host would overwrite the snapshot the first restart was built
            # from while older references still point at the same dict.
            self._recipes[host_id] = dict(
                recipe, fragments=tuple(host.fragment_manager.all_fragments())
            )
        host.crash()
        self.hosts_crashed += 1
        return host

    def restart_host(self, host_id: str) -> Host | None:
        """Bring a crashed host back, resuming from its durable state.

        The replacement is rebuilt from the recorded recipe; its fragment
        manager starts a new database *epoch*, so initiators that held
        delta-sync floors against the dead instance fall back to full
        queries instead of trusting stale versions.

        With durability on, the host's journal + snapshot are replayed and
        the new incarnation resumes mid-workflow: commitments are restored,
        in-flight invocations re-armed with their already-received inputs,
        published outputs refilled into the replay cache, and workspaces
        picked back up from their last durable phase — executing ones
        rejoin progress tracking, mid-construction ones re-query only the
        remotes that never answered, and mid-allocation ones restart their
        auction.  Only messages in flight during the outage are genuinely
        lost, and input replay recovers most of those.

        Returns ``None`` when the host is already alive (a benign no-op for
        racing restart schedules); raises :class:`OpenWorkflowError` for a
        host id this community has never seen — a silent ``None`` there
        previously masked typos and misrouted fault schedules.
        """

        if host_id in self._hosts:
            return None
        recipe = self._recipes.get(host_id)
        if recipe is None:
            raise OpenWorkflowError(
                f"cannot restart unknown host {host_id!r}: no build recipe "
                "recorded (never added, or removed from the community)"
            )
        self.hosts_restarted += 1
        backend = self._durability_backends.get(host_id)
        if backend is None:
            return self.add_host(host_id, **recipe)  # type: ignore[arg-type]
        state = rebuild_state(backend)
        # The journal is the authoritative flash image of the fragment
        # database; the recipe snapshot is only the fallback for the
        # durability-off path.
        recipe = dict(recipe, fragments=tuple(state.fragments.values()))
        host = self.add_host(host_id, **recipe)  # type: ignore[arg-type]
        host.restore_durable_state(state)
        resumed = sum(
            1
            for workspace in state.workspaces.values()
            if workspace.phase not in ("completed", "failed")
        )
        self.workflows_resumed += resumed
        return host

    def install_fault_plane(self, plane: FaultPlane) -> None:
        """Attach a fault plane: message faults at the transport, plus churn.

        Message-level faults (drops, duplicates, delays, partitions) are
        applied by the communications layer on every send.  The plane's
        crash schedule is turned into scheduler events here: each
        :class:`~repro.net.faults.HostCrash` fail-stops its host at
        ``crash_at`` and, when ``restart_at`` is set, rebuilds it then.
        """

        self.fault_plane = plane
        self.network.install_fault_plane(plane)
        for crash in plane.crashes:
            self.scheduler.schedule_at(
                crash.crash_at,
                lambda host_id=crash.host_id: self.crash_host(host_id),
                description=f"crash {crash.host_id}",
            )
            if crash.restart_at is not None:
                self.scheduler.schedule_at(
                    crash.restart_at,
                    lambda host_id=crash.host_id: self.restart_host(host_id),
                    description=f"restart {crash.host_id}",
                )

    def host(self, host_id: str) -> Host:
        return self._hosts[host_id]

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._hosts

    def __iter__(self) -> Iterator[Host]:
        return iter(self._hosts.values())

    def __len__(self) -> int:
        return len(self._hosts)

    @property
    def host_ids(self) -> list[str]:
        return sorted(self._hosts)

    # -- running problems ------------------------------------------------------------
    def submit_problem(
        self,
        initiator: str,
        triggers: Iterable[str],
        goals: Iterable[str],
        name: str | None = None,
    ) -> Workspace:
        """Submit a problem at ``initiator`` involving the whole community."""

        host = self._hosts[initiator]
        return host.submit_problem(triggers, goals, name=name)

    def submit_specification(
        self, initiator: str, specification: Specification
    ) -> Workspace:
        host = self._hosts[initiator]
        return host.submit_specification(specification)

    def run_until_allocated(
        self, workspace: Workspace, max_sim_seconds: float = 3_600.0
    ) -> Workspace:
        """Pump the event scheduler until the workflow is allocated (or fails)."""

        deadline = self.clock.now() + max_sim_seconds
        while workspace.phase in (
            WorkflowPhase.CREATED,
            WorkflowPhase.DISCOVERY,
            WorkflowPhase.CONSTRUCTION,
            WorkflowPhase.ALLOCATION,
        ):
            next_time = self.scheduler.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.scheduler.step()
        return workspace

    def run_until_completed(
        self, workspace: Workspace, max_sim_seconds: float = 86_400.0
    ) -> Workspace:
        """Pump the event scheduler until every task of the workflow executed."""

        deadline = self.clock.now() + max_sim_seconds
        while workspace.phase not in (WorkflowPhase.COMPLETED, WorkflowPhase.FAILED):
            next_time = self.scheduler.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.scheduler.step()
        return workspace

    def run_idle(self, max_sim_seconds: float | None = None) -> float:
        """Run the scheduler until quiescence (or a simulated-time bound)."""

        until = None if max_sim_seconds is None else self.clock.now() + max_sim_seconds
        return self.scheduler.run(until=until)

    # -- community-wide views -----------------------------------------------------------
    def total_fragments(self) -> int:
        return sum(host.fragment_count for host in self._hosts.values())

    def all_service_types(self) -> frozenset[str]:
        types: set[str] = set()
        for host in self._hosts.values():
            types |= host.service_types
        return frozenset(types)

    def all_labels(self) -> frozenset[str]:
        labels: set[str] = set()
        for host in self._hosts.values():
            labels |= host.fragment_manager.knowledge.all_labels()
        return frozenset(labels)

    def __repr__(self) -> str:
        return f"Community(hosts={self.host_ids})"
