"""Property tests: the grid-indexed network is exactly equivalent to brute force.

The production :class:`~repro.net.adhoc.AdHocWirelessNetwork` and the
brute-force :class:`~tests.oracles.adhoc.ReferenceAdHocNetwork` over the
same random placements must agree on every neighbour set, every
reachability answer, and connectivity, at every sampled instant of a random
mobility schedule — including after message traffic has warmed both
networks' AODV route caches, so reachability answered from a cached route
is checked against the oracle's breadth-first search.  The raw
:class:`~repro.net.spatial.SpatialGridIndex` is additionally checked to be
insensitive to the cell size chosen.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.errors import HostUnreachableError
from repro.mobility.geometry import Point, Rectangle
from repro.mobility.models import RandomWaypointMobility, WaypointMobility
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.messages import Message
from repro.net.spatial import SpatialGridIndex
from repro.sim.events import EventScheduler
from tests.oracles.adhoc import ReferenceAdHocNetwork

SETTINGS = settings(max_examples=40, deadline=None)

coordinates = st.floats(
    min_value=-400.0, max_value=400.0, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coordinates, coordinates)
placements = st.lists(points, min_size=0, max_size=14).map(
    lambda pts: {f"h{i}": p for i, p in enumerate(pts)}
)


def build_pair(positions, radio_range, multi_hop):
    """The same placement twice: grid-indexed and brute-force networks."""

    networks = []
    for network_class in (AdHocWirelessNetwork, ReferenceAdHocNetwork):
        scheduler = EventScheduler()
        network = network_class(
            scheduler, radio_range=radio_range, multi_hop=multi_hop
        )
        for host, position in positions.items():
            network.register(host, lambda m: None)
            network.place_host(host, position)
        networks.append((network, scheduler))
    return networks


def assert_equivalent(indexed, brute):
    hosts = sorted(indexed.host_ids)
    for host in hosts:
        assert indexed.neighbours_of(host) == brute.neighbours_of(host)
    for a in hosts:
        for b in hosts:
            assert indexed.is_reachable(a, b) == brute.is_reachable(a, b), (a, b)
    assert indexed.is_connected() == brute.is_connected()


@SETTINGS
@given(
    positions=placements,
    radio_range=st.floats(min_value=10.0, max_value=300.0),
    multi_hop=st.booleans(),
)
def test_static_placements_equivalent(positions, radio_range, multi_hop):
    (indexed, _), (brute, _) = build_pair(positions, radio_range, multi_hop)
    assert_equivalent(indexed, brute)


@SETTINGS
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=8),
    radio_range=st.floats(min_value=20.0, max_value=200.0),
    steps=st.lists(st.floats(min_value=0.5, max_value=60.0), min_size=1, max_size=5),
)
def test_mobile_hosts_equivalent_at_every_sampled_instant(seeds, radio_range, steps):
    area = Rectangle(0.0, 0.0, 500.0, 500.0)

    def mobility_for(index, seed):
        if index % 3 == 0:
            return WaypointMobility(
                [Point(10.0 * index, 0.0), Point(10.0 * index, 300.0)], speed=2.0
            )
        # Independent models with identical seeds so both networks see the
        # exact same trajectories.
        return RandomWaypointMobility(area, seed=seed)

    networks = []
    for network_class in (AdHocWirelessNetwork, ReferenceAdHocNetwork):
        scheduler = EventScheduler()
        network = network_class(scheduler, radio_range=radio_range, multi_hop=True)
        for index, seed in enumerate(seeds):
            host = f"h{index}"
            network.register(host, lambda m: None)
            network.place_host(host, mobility_for(index, seed))
        networks.append((network, scheduler))
    (indexed, sched_a), (brute, sched_b) = networks
    assert_equivalent(indexed, brute)
    for delta in steps:
        sched_a.clock.advance(delta)
        sched_b.clock.advance(delta)
        assert indexed.positions() == brute.positions()
        assert_equivalent(indexed, brute)


def run_warm_route_schedule(seeds, radio_range, steps, traffic_seed):
    """Send traffic, then compare every reachability verdict, per instant.

    At each sampled instant both networks first carry the same random
    unicasts (``latency_for`` must agree, including which pairs are
    unreachable), so production answers later ``is_reachable`` calls from
    routes cached at this and earlier instants.  Returns
    ``(false verdicts, verdicts answered by a cached route, stale routes)``
    over the whole schedule.
    """

    area = Rectangle(0.0, 0.0, 500.0, 500.0)
    networks = []
    for network_class in (AdHocWirelessNetwork, ReferenceAdHocNetwork):
        scheduler = EventScheduler()
        network = network_class(scheduler, radio_range=radio_range, multi_hop=True)
        for index, seed in enumerate(seeds):
            host = f"h{index}"
            network.register(host, lambda m: None)
            network.place_host(host, RandomWaypointMobility(area, seed=seed))
        networks.append((network, scheduler))
    (indexed, sched_a), (brute, sched_b) = networks
    hosts = sorted(indexed.host_ids)
    traffic = random.Random(traffic_seed)
    false_verdicts = route_answers = stale_routes = 0
    for delta in [0.0, *steps]:
        sched_a.clock.advance(delta)
        sched_b.clock.advance(delta)
        for _ in range(3 * len(hosts)):
            message = Message(sender=traffic.choice(hosts), recipient=traffic.choice(hosts))
            latencies = []
            for network in (indexed, brute):
                try:
                    latencies.append(network.latency_for(message))
                except HostUnreachableError:
                    latencies.append(None)
            assert latencies[0] == latencies[1], (message.sender, message.recipient)
        router = indexed.router
        stale_routes += sum(not router.was_cached(a, b) for a, b in router._cache)
        for a in hosts:
            for b in hosts:
                verdict = indexed.is_reachable(a, b)
                assert verdict == brute.is_reachable(a, b), (a, b)
                false_verdicts += not verdict
                route_answers += (
                    a != b and not indexed.in_radio_range(a, b) and router.was_cached(a, b)
                )
        assert indexed.is_connected() == brute.is_connected()
    return false_verdicts, route_answers, stale_routes


@SETTINGS
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**20), min_size=4, max_size=14),
    # 500 m site: short ranges partition the fleet and break cached routes.
    radio_range=st.floats(min_value=40.0, max_value=180.0),
    steps=st.lists(st.floats(min_value=0.5, max_value=60.0), min_size=2, max_size=6),
    traffic_seed=st.integers(min_value=0, max_value=2**20),
)
def test_reachability_with_warm_route_caches_equivalent(
    seeds, radio_range, steps, traffic_seed
):
    run_warm_route_schedule(seeds, radio_range, steps, traffic_seed)


def test_warm_route_schedule_exercises_partitions_and_stale_routes():
    """The schedule above reaches the cases that matter: unreachable pairs,
    verdicts answered from the route cache, and cached routes gone stale."""

    false_verdicts, route_answers, stale_routes = run_warm_route_schedule(
        seeds=list(range(12)), radio_range=120.0, steps=[10.0] * 8, traffic_seed=1
    )
    assert false_verdicts > 0
    assert route_answers > 0
    assert stale_routes > 0


@SETTINGS
@given(
    positions=placements,
    radius=st.floats(min_value=1.0, max_value=300.0),
    cell_size=st.floats(min_value=1.0, max_value=500.0),
)
def test_grid_queries_insensitive_to_cell_size(positions, radius, cell_size):
    reference = SpatialGridIndex(positions, cell_size=radius)
    other = SpatialGridIndex(positions, cell_size=cell_size)
    for host in positions:
        assert reference.neighbours_of(host, radius) == other.neighbours_of(
            host, radius
        )
    reference_components = {frozenset(c) for c in reference.connected_components(radius)}
    other_components = {frozenset(c) for c in other.connected_components(radius)}
    assert reference_components == other_components


@SETTINGS
@given(positions=placements, radius=st.floats(min_value=1.0, max_value=300.0))
def test_grid_neighbours_match_brute_force_distance_scan(positions, radius):
    grid = SpatialGridIndex(positions, cell_size=radius)
    for host, point in positions.items():
        expected = frozenset(
            other
            for other, other_point in positions.items()
            if other != host and point.distance_to(other_point) <= radius
        )
        assert grid.neighbours_of(host, radius) == expected
