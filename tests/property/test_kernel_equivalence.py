"""Property: vectorized geometry kernels ≡ scalar reference paths.

Three layers of the same contract:

* two :class:`~repro.net.adhoc.AdHocWirelessNetwork` instances over the
  same placements — one on the batched NumPy kernels, one built with NumPy
  hidden from :mod:`repro.net.kernels` and so on the scalar per-host
  loops — must agree on every position, neighbour set,
  link epoch, reachability answer, and connectivity verdict at every
  sampled instant, and on the maintenance counters (the vectorized
  advance must pop, re-evaluate, and move exactly the hosts the scalar
  one does);
* :class:`~repro.net.kernels.LegTable` replay must be *bit-identical* to
  the mobility models' scalar ``position_at``, including degenerate legs
  (zero velocity, single-waypoint rests, ``inf`` validity horizons);
* :func:`~repro.net.kernels.crossing_times` must reproduce
  :func:`~repro.net.spatial.link_crossing_time` root-for-root, bit-exact,
  across zero relative velocity, tangent, and receding geometries.

On top of the three layers, a whole seeded mobile multi-hop allocation
trial must produce a byte-identical deterministic result on either path.

The near-radius ulp regression (exact separation beyond the radius,
rounded distance on it) is pinned in ``tests/unit/test_kernels.py``; the
coordinate strategies here include the sub-metre cluster scale where
boundary ties actually occur.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.experiments.trials import adhoc_network_factory, run_allocation_trial
from repro.mobility.geometry import Point, Rectangle, square_site
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.spatial import link_crossing_time
from repro.sim.events import EventScheduler
from repro.sim.randomness import derive_rng, derive_seed
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

SETTINGS = settings(max_examples=30, deadline=None)

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


def build_network(specs, vectorized):
    scheduler = EventScheduler()
    with pytest.MonkeyPatch.context() as patch:
        if not vectorized:
            patch.setattr(kernels, "np", None)  # the platform has no NumPy
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
    assert network.vectorized == vectorized
    for index, spec in enumerate(specs):
        host = f"h{index}"
        network.register(host, lambda m: None)
        network.place_host(host, make_model(spec))
    return network, scheduler


@given(populations, schedules)
@SETTINGS
def test_vectorized_network_equivalent_to_scalar(specs, deltas):
    batched, batched_scheduler = build_network(specs, vectorized=True)
    scalar, scalar_scheduler = build_network(specs, vectorized=False)

    hosts = sorted(batched.host_ids)
    for delta in deltas:
        batched_scheduler.clock.advance(delta)
        scalar_scheduler.clock.advance(delta)
        assert dict(batched.positions()) == dict(scalar.positions())
        for host in hosts:
            assert batched.neighbours_of(host) == scalar.neighbours_of(host), host
            assert batched.link_epoch(host) == scalar.link_epoch(host), host
        for a in hosts:
            for b in hosts:
                assert batched.is_reachable(a, b) == scalar.is_reachable(a, b)
        assert batched.is_connected() == scalar.is_connected()
    # The batched maintenance must do exactly the scalar path's work: same
    # snapshots, same heap pops, same applied moves.
    for counter in (
        "snapshots_built",
        "grid_rebuilds",
        "hosts_reevaluated",
        "hosts_moved",
    ):
        assert getattr(batched, counter) == getattr(scalar, counter), counter


@given(populations, schedules)
@SETTINGS
def test_leg_table_replay_is_bit_identical(specs, deltas):
    table_models = [make_model(spec) for spec in specs]
    reference_models = [make_model(spec) for spec in specs]
    table = kernels.LegTable(table_models)

    time = 0.0
    for delta in deltas:
        time += delta
        xs, ys = table.positions_at(time)
        for index, model in enumerate(reference_models):
            expected = model.position_at(time)
            assert Point(xs[index], ys[index]) == expected, (index, time)
        move_times = table.next_move_times(time, range(len(specs)))
        for index, model in enumerate(reference_models):
            assert move_times[index] == model.next_move_time(time), (index, time)


leg_coordinates = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
velocities = st.one_of(
    st.just(0.0), st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
)
links = st.tuples(
    leg_coordinates, leg_coordinates, velocities, velocities,
    leg_coordinates, leg_coordinates, velocities, velocities,
)


@given(
    st.lists(links, min_size=1, max_size=40),
    st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
)
@SETTINGS
def test_crossing_times_bit_identical_to_scalar(batch, radius):
    columns = list(zip(*batch))
    batched = kernels.crossing_times(*columns, radius)
    for row, (ax, ay, avx, avy, bx, by, bvx, bvy) in zip(batched.tolist(), batch):
        expected = link_crossing_time(
            Point(ax, ay), (avx, avy), Point(bx, by), (bvx, bvy), radius
        )
        assert row == expected or (math.isinf(row) and math.isinf(expected))


def test_scalar_and_vectorized_trials_byte_identical(monkeypatch):
    """One seeded mobile multi-hop trial, run on the kernels and then with
    NumPy hidden, yields the same ``deterministic_copy()``."""

    seed, num_hosts = 20090514, 40
    workload = RandomSupergraphWorkload(seed=seed).generate(50)
    specification = workload.path_specification(4, derive_rng(seed, "kernel-trial"))
    assert specification is not None
    site = square_site(60.0 * math.sqrt(num_hosts))
    networks = []

    def network_factory(scheduler):
        network = adhoc_network_factory(seed, multi_hop=True)(scheduler)
        networks.append(network)
        return network

    def trial():
        return run_allocation_trial(
            workload,
            num_hosts,
            specification,
            seed=seed,
            network_factory=network_factory,
            mobility_factory=lambda index: RandomWaypointMobility(
                site, seed=derive_seed(seed, "kernel-trial", index)
            ),
        ).deterministic_copy()

    vectorized = trial()
    monkeypatch.setattr(kernels, "np", None)
    scalar = trial()
    assert [network.vectorized for network in networks] == [True, False]
    assert scalar == vectorized
    assert vectorized.succeeded
    for network in networks:
        # Hosts moved and messages crossed multi-hop routes on both paths.
        assert network.hosts_moved > 0
        assert network.router.discoveries > 0
