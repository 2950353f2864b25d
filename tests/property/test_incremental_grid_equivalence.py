"""Property: event-driven grid maintenance ≡ re-evaluating every tick.

The production :class:`~repro.net.adhoc.AdHocWirelessNetwork`, which
advances its snapshot incrementally, and the
:class:`~tests.oracles.adhoc.ReferenceAdHocNetwork`, which evaluates every
position from the mobility models at each query, over the same placements
and mobility schedules must agree on every position, neighbour set, link
epoch, reachability answer, and connectivity verdict at every sampled
instant of an increasing time schedule, in multi-hop and single-hop mode.
Mixed populations (static hosts, scripted waypoint walkers,
random-waypoint wanderers) exercise both the skip path (hosts provably at
rest) and the move path (re-evaluation, grid relocation, memo
invalidation).  Mobility models memoize internally, so each network gets
its own instances built from the same declarative spec.
"""

from hypothesis import given, settings, strategies as st

from repro.mobility.geometry import Point, Rectangle
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.net.adhoc import AdHocWirelessNetwork
from repro.sim.events import EventScheduler
from tests.oracles.adhoc import ReferenceAdHocNetwork

SETTINGS = settings(max_examples=30, deadline=None)

SITE = Rectangle(0.0, 0.0, 300.0, 300.0)

coordinates = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
points = st.builds(Point, coordinates, coordinates)

# Declarative mobility specs: one spec builds any number of identical,
# independently-memoizing model instances.
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

populations = st.lists(mobility_specs, min_size=0, max_size=10)
schedules = st.lists(
    st.floats(min_value=0.01, max_value=60.0, allow_nan=False), min_size=1, max_size=8
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


def build_network(specs, network_class=AdHocWirelessNetwork, multi_hop=True):
    scheduler = EventScheduler()
    network = network_class(scheduler, radio_range=100.0, multi_hop=multi_hop)
    for index, spec in enumerate(specs):
        host = f"h{index}"
        network.register(host, lambda m: None)
        network.place_host(host, make_model(spec))
    return network, scheduler


@given(populations, schedules)
@SETTINGS
def test_incremental_maintenance_equivalent_to_rebuild(specs, deltas):
    incremental, inc_scheduler = build_network(specs)
    rebuilt, reb_scheduler = build_network(specs, ReferenceAdHocNetwork)

    hosts = sorted(incremental.host_ids)
    for delta in deltas:
        inc_scheduler.clock.advance(delta)
        reb_scheduler.clock.advance(delta)
        assert dict(incremental.positions()) == dict(rebuilt.positions())
        for host in hosts:
            assert incremental.neighbours_of(host) == rebuilt.neighbours_of(host), host
            assert incremental.link_epoch(host) == rebuilt.link_epoch(host), host
        for a in hosts:
            for b in hosts:
                assert incremental.is_reachable(a, b) == rebuilt.is_reachable(a, b)
        assert incremental.is_connected() == rebuilt.is_connected()
    # The incremental network may only have rebuilt its very first snapshot.
    if hosts:
        assert incremental.grid_rebuilds <= 1


@given(populations, schedules)
@SETTINGS
def test_incremental_maintenance_matches_brute_force(specs, deltas):
    """Single-hop mode: "connected" means a complete radio graph."""

    incremental, inc_scheduler = build_network(specs, multi_hop=False)
    brute, brute_scheduler = build_network(
        specs, ReferenceAdHocNetwork, multi_hop=False
    )

    hosts = sorted(incremental.host_ids)
    for delta in deltas:
        inc_scheduler.clock.advance(delta)
        brute_scheduler.clock.advance(delta)
        for host in hosts:
            assert incremental.neighbours_of(host) == brute.neighbours_of(host), host
        for a in hosts:
            for b in hosts:
                assert incremental.is_reachable(a, b) == brute.is_reachable(a, b)
        assert incremental.is_connected() == brute.is_connected()
