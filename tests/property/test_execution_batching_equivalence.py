"""Property: the batched execution plane ≡ the per-label/per-task plane.

Two independent equivalences, mirroring the PR's two switches:

* **Protocol equivalence** (``batch_execution``): the batched execution
  protocol (one :class:`~repro.net.messages.LabelBatch` per firing and
  destination host, one :class:`~repro.net.messages.WorkflowProgressReport`
  per completion burst) claims to be a pure message-count optimisation.
  Complete trials (discovery → construction → allocation → execution) run
  through both protocols must record identical
  :class:`~repro.scheduling.commitments.CommitmentOutcome`\\ s on every
  host — same tasks, same completion instants, same outputs, same failure
  reasons — and identical initiator-side completion tracking, while the
  batched run never uses *more* execution-phase messages.  ``timing="sim"``
  trial results must be byte-identical up to the transport counters
  (``messages_sent`` / ``bytes_sent``), which are exactly what batching
  improves.

* **Epoch equivalence**: the production network's predictive link-break
  scheduling bumps link epochs at the exact crossing instants computed from
  trajectory geometry instead of lazily at the next query, as the
  :class:`~tests.oracles.adhoc.ReferenceAdHocNetwork` does.  On mobile
  communities driven through the same probe schedule, the two must agree
  on every latency and neighbour set, and each must uphold the route-cache
  soundness invariant: a host whose epoch did not change between probes has
  an unchanged neighbour set, and a changed neighbour set always comes with
  a changed epoch.  A full mobile multi-hop trial must produce a
  byte-identical deterministic trial result on either network.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.experiments.runner import TrialTask, execute_trial
from repro.experiments.trials import (
    adhoc_network_factory,
    build_trial_community,
    trial_result_from_workspace,
)
from repro.host.workspace import WorkflowPhase
from repro.mobility.geometry import Point, Rectangle
from repro.core.errors import HostUnreachableError
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.messages import Message
from repro.sim.events import EventScheduler
from repro.sim.randomness import derive_rng, derive_seed
from repro.workloads.supergraph_gen import RandomSupergraphWorkload
from tests.oracles.adhoc import ReferenceAdHocNetwork, reference_network_factory

SEED = 20090514
SETTINGS = settings(max_examples=15, deadline=None)

EXECUTION_KINDS = (
    "LabelDataMessage",
    "TaskCompleted",
    "TaskFailed",
    "LabelBatch",
    "WorkflowProgressReport",
)


# ---------------------------------------------------------------------------
# Batched vs per-label execution protocol
# ---------------------------------------------------------------------------


def run_execution_trial(batch_execution, num_tasks, num_hosts, path_length):
    """One complete trial run to workflow completion; returns the community
    and its initiator workspace (``None, None`` when no spec exists)."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    community = build_trial_community(
        workload, num_hosts=num_hosts, seed=SEED, batch_execution=batch_execution
    )
    rng = derive_rng(SEED, "exec-equivalence", num_tasks, num_hosts, path_length)
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None, None
    workspace = community.submit_specification("host-0", specification)
    community.run_until_completed(workspace)
    return community, workspace


def commitment_outcomes_view(community):
    """Every host's commitment outcomes, normalised for cross-run comparison
    (the workflow id embeds a process-global counter, so it is dropped)."""

    view = {}
    for host in community:
        view[host.host_id] = sorted(
            (
                outcome.commitment.task.name,
                outcome.completed_at,
                outcome.succeeded,
                tuple(sorted(outcome.outputs_sent)),
                outcome.failure_reason,
            )
            for outcome in host.execution_manager.outcomes
        )
    return view


@given(
    num_tasks=st.integers(min_value=12, max_value=40),
    num_hosts=st.integers(min_value=2, max_value=6),
    path_length=st.integers(min_value=2, max_value=8),
)
@SETTINGS
def test_batched_and_per_label_execution_identical(num_tasks, num_hosts, path_length):
    batched_community, batched_ws = run_execution_trial(
        True, num_tasks, num_hosts, path_length
    )
    plain_community, plain_ws = run_execution_trial(
        False, num_tasks, num_hosts, path_length
    )
    if batched_ws is None:
        assert plain_ws is None
        return

    assert batched_ws.phase == plain_ws.phase
    assert batched_ws.completed_tasks == plain_ws.completed_tasks
    assert batched_ws.failed_tasks == plain_ws.failed_tasks
    assert commitment_outcomes_view(batched_community) == commitment_outcomes_view(
        plain_community
    )
    assert sum(
        h.execution_manager.unexpected_labels for h in batched_community
    ) == sum(h.execution_manager.unexpected_labels for h in plain_community)

    # Batching can only remove messages, never add them.
    batched_stats = batched_community.network.statistics
    plain_stats = plain_community.network.statistics
    assert batched_stats.kind_count(*EXECUTION_KINDS) <= plain_stats.kind_count(
        *EXECUTION_KINDS
    )
    assert "LabelDataMessage" not in batched_stats.by_kind
    assert "LabelBatch" not in plain_stats.by_kind


def test_execution_batching_cuts_messages_on_multi_task_workflow():
    """Deterministic spot check: a real reduction, not just no-worse."""

    results = {}
    for batched in (True, False):
        community, workspace = run_execution_trial(
            batched, num_tasks=30, num_hosts=2, path_length=8
        )
        assert workspace is not None
        assert workspace.phase is WorkflowPhase.COMPLETED
        results[batched] = community.network.statistics
    batched_messages = results[True].kind_count(*EXECUTION_KINDS)
    plain_messages = results[False].kind_count(*EXECUTION_KINDS)
    assert batched_messages < plain_messages
    assert results[True].kind_bytes(*EXECUTION_KINDS) < results[False].kind_bytes(
        *EXECUTION_KINDS
    )


def test_sim_timing_trial_results_byte_identical_across_flag():
    """``timing="sim"`` trial results agree on everything but transport volume."""

    for path_length in (2, 4, 6):
        results = {}
        for batched in (True, False):
            task = TrialTask(
                series="equivalence",
                x=path_length,
                num_tasks=30,
                num_hosts=4,
                path_length=path_length,
                seed=SEED,
                batch_execution=batched,
            )
            results[batched] = execute_trial(task, timing="sim").result
        batched_result, plain_result = results[True], results[False]
        assert batched_result is not None and plain_result is not None
        assert batched_result.succeeded and plain_result.succeeded
        # messages_sent / bytes_sent are the optimisation target; every
        # other field must agree exactly.
        normalised = replace(
            batched_result,
            messages_sent=plain_result.messages_sent,
            bytes_sent=plain_result.bytes_sent,
        )
        assert normalised == plain_result


# ---------------------------------------------------------------------------
# Predictive vs lazy link epochs
# ---------------------------------------------------------------------------

SITE = Rectangle(0.0, 0.0, 300.0, 300.0)

coordinates = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
points = st.builds(Point, coordinates, coordinates)

static_specs = st.tuples(st.just("static"), points)
waypoint_specs = st.tuples(
    st.just("waypoint"),
    st.lists(points, min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
random_specs = st.tuples(
    st.just("random"),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
mobility_specs = st.one_of(static_specs, waypoint_specs, random_specs)

populations = st.lists(mobility_specs, min_size=0, max_size=8)
schedules = st.lists(
    st.floats(min_value=0.01, max_value=60.0, allow_nan=False), min_size=1, max_size=6
)


def make_model(spec):
    kind = spec[0]
    if kind == "static":
        return StaticMobility(spec[1])
    if kind == "waypoint":
        _, waypoints, speed, pause = spec
        return WaypointMobility(waypoints, speed=speed, pause=pause)
    _, seed, pause = spec
    return RandomWaypointMobility(SITE, seed=seed, pause=pause)


def build_mobile_network(specs, network_class):
    scheduler = EventScheduler()
    network = network_class(scheduler, radio_range=100.0)
    for index, spec in enumerate(specs):
        host = f"h{index}"
        network.register(host, lambda m: None)
        network.place_host(host, make_model(spec))
    return network, scheduler


def advance_to(scheduler, instant):
    """Run every scheduled event up to ``instant`` and land the clock there
    (``EventScheduler.run`` alone leaves the clock at the last event when
    the queue drains early)."""

    scheduler.run(until=instant)
    if scheduler.clock.now() < instant:
        scheduler.clock.advance_to(instant)


@given(populations, schedules)
@SETTINGS
def test_predictive_and_lazy_epochs_agree(specs, deltas):
    predictive, predictive_scheduler = build_mobile_network(
        specs, AdHocWirelessNetwork
    )
    lazy, lazy_scheduler = build_mobile_network(specs, ReferenceAdHocNetwork)

    hosts = sorted(predictive.host_ids)
    seen = {mode: {} for mode in ("predictive", "lazy")}
    instant = 0.0
    for delta in deltas:
        instant += delta
        advance_to(predictive_scheduler, instant)
        advance_to(lazy_scheduler, instant)
        for index, sender in enumerate(hosts):
            # Message-shaped traffic: arms the predictive network's link
            # watches (latencies must agree — same hops, same route cache
            # verdicts — whichever way the epochs are maintained).
            recipient = hosts[(index + 1) % len(hosts)]
            latencies = []
            for network in (predictive, lazy):
                try:
                    latencies.append(
                        network.latency_for(Message(sender=sender, recipient=recipient))
                    )
                except HostUnreachableError:
                    latencies.append(None)
            assert latencies[0] == latencies[1], (sender, recipient)
        for host in hosts:
            assert predictive.neighbours_of(host) == lazy.neighbours_of(host), host
            for mode, network in (("predictive", predictive), ("lazy", lazy)):
                epoch = network.link_epoch(host)
                neighbours = network.neighbours_of(host)
                previous = seen[mode].get(host)
                if previous is not None:
                    last_epoch, last_neighbours = previous
                    # Route-cache soundness: an unchanged epoch proves an
                    # unchanged link set, and a changed link set always
                    # advances the epoch.
                    if epoch == last_epoch:
                        assert neighbours == last_neighbours, (mode, host)
                    if neighbours != last_neighbours:
                        assert epoch != last_epoch, (mode, host)
                seen[mode][host] = (epoch, neighbours)
    # Every armed prediction fires at most once, bumping both endpoints.
    assert predictive.link_break_events <= predictive.link_breaks_predicted
    assert predictive.predicted_epoch_bumps <= 2 * predictive.link_break_events
    assert lazy_scheduler.peek_time() is None  # the oracle schedules nothing


def mobile_waypoint_factory(trial_seed):
    site = Rectangle(0.0, 0.0, 240.0, 240.0)

    def factory(index):
        if index % 3 == 0:
            return RandomWaypointMobility(
                site, seed=derive_seed(trial_seed, "predictive-equiv", index)
            )
        rng = derive_rng(trial_seed, "predictive-equiv-static", index)
        return site.random_point(rng)

    return factory


def test_predictive_links_leave_mobile_trial_results_byte_identical():
    """A full mobile multi-hop trial agrees exactly with the oracle network."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(30)
    rng = derive_rng(SEED, "predictive-trial-spec")
    specification = workload.path_specification(4, rng)
    assert specification is not None
    results = {}
    for name, factory in (
        ("production", adhoc_network_factory(SEED, multi_hop=True)),
        ("reference", reference_network_factory(SEED, multi_hop=True)),
    ):
        community = build_trial_community(
            workload,
            num_hosts=12,
            seed=SEED,
            network_factory=factory,
            mobility_factory=mobile_waypoint_factory(SEED),
        )
        workspace = community.submit_specification("host-0", specification)
        community.run_until_allocated(workspace)
        results[name] = trial_result_from_workspace(
            community, workspace
        ).deterministic_copy()
        # Messages crossed multi-hop AODV routes, so routing is compared too.
        assert community.network.router.discoveries > 0
    assert results["production"] == results["reference"]
    assert results["production"].succeeded
