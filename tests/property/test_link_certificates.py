"""Property: link certificates never change an answer.

After each real snapshot advance, :class:`~repro.net.adhoc.AdHocWirelessNetwork`
certifies an instant before which no pair of hosts can cross the radio
boundary, and ticks inside it move only the snapshot's clock.  These tests
place hosts right at the boundary — converging onto it, diverging across
it, and resting beside it before a faster leg — and sample instants a few
ulps to a microsecond either side of each analytic crossing.  At every
instant, on the NumPy kernels and on the scalar paths, neighbour sets, link
epochs, reachability and positions must equal the brute-force
:class:`~tests.oracles.adhoc.ReferenceAdHocNetwork`'s.

A certificate that ignored the next leg of a resting host, or trusted
slacks within float rounding of zero, would answer from a stale snapshot at
one of these instants.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mobility.geometry import Point
from repro.mobility.models import WaypointMobility
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.spatial import link_crossing_time
from repro.sim.events import EventScheduler
from tests.oracles.adhoc import ReferenceAdHocNetwork

RADIUS = 100.0
LEG_START = 1.0  # every leg but a resting host's starts here

SETTINGS = settings(max_examples=60, deadline=None)

coordinates = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)
centres = st.builds(Point, coordinates, coordinates)
offsets = st.one_of(
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
satellites = st.tuples(
    st.sampled_from(["converging", "diverging", "resting"]),
    st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
    offsets,
    st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
)


def satellite_model(centre, kind, angle, offset, speed):
    """A host on the line through ``centre`` at ``angle``, near the radius.

    ``converging`` starts ``offset`` outside the range and walks through
    the centre; ``diverging`` starts ``offset`` inside and walks away;
    ``resting`` waits ``offset`` outside until a second after the others
    set off, then walks through the centre four times as fast.
    """

    ux, uy = math.cos(angle), math.sin(angle)

    def at(distance):
        return Point(centre.x + ux * distance, centre.y + uy * distance)

    if kind == "converging":
        return WaypointMobility(
            [at(RADIUS + offset), at(-RADIUS - 50.0)], speed=speed, pause=LEG_START
        )
    if kind == "diverging":
        return WaypointMobility(
            [at(RADIUS - offset), at(RADIUS + 300.0)], speed=speed, pause=LEG_START
        )
    return WaypointMobility(
        [at(RADIUS + offset), at(-RADIUS - 50.0)],
        speed=4.0 * speed,
        pause=LEG_START + 1.0,
    )


def boundary_crossings(model, centre):
    """Absolute instants at which the model's first leg crosses the radius
    around ``centre``: entry (the smaller root) and
    :func:`~repro.net.spatial.link_crossing_time`'s exit."""

    start = model.next_move_time(0.0)
    _, position, velocity = model.leg_at(start)
    roots = [link_crossing_time(position, velocity, centre, (0.0, 0.0), RADIUS)]
    dx, dy = position.x - centre.x, position.y - centre.y
    a = velocity[0] ** 2 + velocity[1] ** 2
    b = 2.0 * (dx * velocity[0] + dy * velocity[1])
    c = dx * dx + dy * dy - RADIUS * RADIUS
    discriminant = b * b - 4.0 * a * c
    if a > 0.0 and discriminant >= 0.0:
        roots.append((-b - math.sqrt(discriminant)) / (2.0 * a))
    return [start + root for root in roots if math.isfinite(root) and root > 0.0]


def instants_around(crossing):
    """Instants a few ulps, a part in 1e9 and a microsecond either side."""

    instants = {crossing, crossing - 1e-6, crossing + 1e-6}
    instants |= {crossing * (1.0 - 1e-9), crossing * (1.0 + 1e-9)}
    for direction in (-math.inf, math.inf):
        instant = crossing
        for step in range(1, 65):
            instant = math.nextafter(instant, direction)
            if step in (1, 2, 8, 64):
                instants.add(instant)
    return instants


def build(network_class, placements, scalar=False):
    scheduler = EventScheduler()
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            patch.setattr(kernels, "np", None)
        network = network_class(scheduler, radio_range=RADIUS)
    for host, model in placements:
        network.register(host, lambda m: None)
        network.place_host(host, model)
    return network, scheduler


def networks_for(centre, specs):
    """Production on both geometry paths and the oracle, same placements
    (fresh models each, so no model memo is shared)."""

    def placements():
        return [("centre", Point(centre.x, centre.y))] + [
            (f"s{index}", satellite_model(centre, *spec))
            for index, spec in enumerate(specs)
        ]

    built = [build(AdHocWirelessNetwork, placements())]
    if kernels.numpy_available():
        built.append(build(AdHocWirelessNetwork, placements(), scalar=True))
    built.append(build(ReferenceAdHocNetwork, placements()))
    return built


def assert_matches_oracle(production, oracle):
    hosts = sorted(oracle.host_ids)
    assert dict(production.positions()) == oracle.positions()
    for host in hosts:
        assert production.neighbours_of(host) == oracle.neighbours_of(host), host
        assert production.link_epoch(host) == oracle.link_epoch(host), host
    for a in hosts:
        for b in hosts:
            assert production.in_radio_range(a, b) == oracle.in_radio_range(a, b)
            assert production.is_reachable(a, b) == oracle.is_reachable(a, b), (a, b)


def sample_and_compare(centre, specs):
    built = networks_for(centre, specs)
    crossings = []
    for index, spec in enumerate(specs):
        crossings += boundary_crossings(satellite_model(centre, *spec), centre)
    # The first query builds the snapshot and the second advances it and
    # takes a certificate, so later instants can fall inside one.
    instants = {0.0, LEG_START / 2, LEG_START + 1e-3}
    for crossing in crossings:
        instants |= instants_around(crossing)
    for instant in sorted(t for t in instants if t >= 0.0):
        for _, scheduler in built:
            scheduler.clock.advance_to(instant)
        oracle = built[-1][0]
        for production, _ in built[:-1]:
            assert_matches_oracle(production, oracle)
    return [network for network, _ in built[:-1]]


@given(centres, st.lists(satellites, min_size=1, max_size=4))
@example(Point(0.0, 0.0), [("resting", 0.0, 5.0, 0.5)])
@example(Point(0.0, 0.0), [("converging", 0.3, 1e-3, 2.0), ("resting", 2.0, 1.0, 4.0)])
@SETTINGS
def test_certified_ticks_match_the_oracle_at_every_crossing(centre, specs):
    sample_and_compare(centre, specs)


def test_resting_host_that_resumes_faster_ends_the_certificate():
    """A slow walker far out certifies a long quiet spell; the host resting
    5 m outside the range sets off at 8 m/s a second later and enters at
    2.625 s.  The certificate must end at its rest, not at the walker's
    horizon."""

    specs = [("converging", 1.0, 40.0, 0.5), ("resting", 2.5, 5.0, 2.0)]
    networks = sample_and_compare(Point(10.0, -20.0), specs)
    for network in networks:
        assert network.certified_ticks > 0


def test_quiet_stretch_ticks_on_the_certificate_and_stays_exact():
    """Walkers far from every boundary: after one advance, every later tick
    is certified, and positions still come out exact at each instant."""

    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(scheduler, radio_range=RADIUS)
    oracle_scheduler = EventScheduler()
    oracle = ReferenceAdHocNetwork(oracle_scheduler, radio_range=RADIUS)
    for target in (network, oracle):
        for host, waypoints in {
            "a": [Point(0, 0), Point(0, 400)],
            "b": [Point(50, 0), Point(50, 400)],
            "c": [Point(400, 0), Point(400, 400)],
        }.items():
            target.register(host, lambda m: None)
            target.place_host(host, WaypointMobility(waypoints, speed=1.0))
    for step in range(1, 12):
        scheduler.clock.advance_to(step * 0.5)
        oracle_scheduler.clock.advance_to(step * 0.5)
        assert_matches_oracle(network, oracle)
    assert network.snapshots_built == 11
    assert network.certified_ticks == 9  # all but the build and one advance
    assert network.grid_rebuilds == 1
