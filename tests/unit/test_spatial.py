"""Unit tests for the spatial grid index and the indexed ad hoc network.

Covers the per-tick snapshot (positions evaluated once per instant), the
grid-backed neighbour/connectivity queries, link-epoch route revalidation,
and the loopback-jitter fix.
"""

import pytest

from repro.mobility.geometry import Point
from repro.mobility.models import WaypointMobility
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.messages import Message
from repro.net.spatial import SpatialGridIndex
from repro.sim.events import EventScheduler
from tests.oracles.adhoc import ReferenceAdHocNetwork


class TestSpatialGridIndex:
    def test_neighbours_within_radius_inclusive(self):
        grid = SpatialGridIndex(
            {"a": Point(0, 0), "b": Point(100, 0), "c": Point(100.0001, 0)},
            cell_size=100.0,
        )
        assert grid.neighbours_of("a", 100.0) == {"b"}
        assert grid.near(Point(0, 0), 100.0) == {"a", "b"}

    def test_negative_coordinates(self):
        grid = SpatialGridIndex(
            {"a": Point(-250, -250), "b": Point(-260, -250), "c": Point(250, 250)},
            cell_size=50.0,
        )
        assert grid.neighbours_of("a", 50.0) == {"b"}
        assert grid.neighbours_of("c", 50.0) == frozenset()

    def test_radius_larger_than_cell(self):
        grid = SpatialGridIndex(
            {"a": Point(0, 0), "b": Point(90, 0), "c": Point(240, 0)},
            cell_size=30.0,
        )
        assert grid.neighbours_of("a", 100.0) == {"b"}
        assert grid.neighbours_of("a", 250.0) == {"b", "c"}

    def test_connected_components(self):
        grid = SpatialGridIndex(
            {
                "a": Point(0, 0),
                "b": Point(50, 0),
                "c": Point(100, 0),
                "x": Point(500, 500),
                "y": Point(540, 500),
            },
            cell_size=60.0,
        )
        components = {frozenset(c) for c in grid.connected_components(60.0)}
        assert components == {frozenset({"a", "b", "c"}), frozenset({"x", "y"})}
        labels = grid.component_labels(60.0)
        assert labels["a"] == labels["c"] != labels["x"]
        assert not grid.is_single_component(60.0)
        assert grid.is_single_component(1000.0)

    def test_empty_and_singleton(self):
        empty = SpatialGridIndex({}, cell_size=10.0)
        assert empty.near(Point(0, 0), 5.0) == frozenset()
        assert empty.connected_components(5.0) == []
        assert empty.is_single_component(5.0)
        single = SpatialGridIndex({"a": Point(1, 1)}, cell_size=10.0)
        assert single.is_single_component(5.0)
        assert single.neighbours_of("a", 5.0) == frozenset()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpatialGridIndex({}, cell_size=0.0)
        grid = SpatialGridIndex({"a": Point(0, 0)}, cell_size=10.0)
        with pytest.raises(ValueError):
            grid.near(Point(0, 0), -1.0)


def make_network(network_class=AdHocWirelessNetwork, **kwargs):
    scheduler = EventScheduler()
    network = network_class(scheduler, radio_range=100.0, **kwargs)
    positions = {"a": Point(0, 0), "b": Point(80, 0), "c": Point(160, 0)}
    for host, position in positions.items():
        network.register(host, lambda m: None)
        network.place_host(host, position)
    return network, scheduler


class TestSnapshotReuse:
    def test_queries_share_one_snapshot_per_instant(self):
        network, scheduler = make_network()
        network.positions()
        network.neighbours_of("a")
        network.is_connected()
        network.is_reachable("a", "c")
        assert network.snapshots_built == 1
        scheduler.clock.advance(1.0)
        network.positions()
        assert network.snapshots_built == 2

    def test_snapshot_invalidated_by_membership_changes(self):
        network, _ = make_network()
        assert network.neighbours_of("b") == {"a", "c"}
        network.register("d", lambda m: None)
        network.place_host("d", Point(80, 60))
        assert network.neighbours_of("b") == {"a", "c", "d"}
        network.unregister("d")
        assert network.neighbours_of("b") == {"a", "c"}

    def test_positions_reuse_snapshot(self):
        network, _ = make_network()
        first = network.positions()
        second = network.positions()
        assert first == second
        assert network.snapshots_built == 1


class TestGridBruteForceParity:
    def test_modes_agree_on_small_topology(self):
        indexed, _ = make_network(multi_hop=True)
        brute, _ = make_network(ReferenceAdHocNetwork, multi_hop=True)
        for host in ("a", "b", "c"):
            assert indexed.neighbours_of(host) == brute.neighbours_of(host)
        assert indexed.is_connected() == brute.is_connected()
        assert indexed.is_reachable("a", "c") == brute.is_reachable("a", "c")

    def test_single_hop_connected_means_complete_graph(self):
        network, _ = make_network(multi_hop=False)
        assert not network.is_connected()  # a-c not in direct range
        brute, _ = make_network(ReferenceAdHocNetwork, multi_hop=False)
        assert network.is_connected() == brute.is_connected()

    def test_rounded_boundary_distance_is_not_missed(self):
        # Regression: the exact coordinate delta (1.0 + 1e-158) exceeds the
        # radius, putting the hosts in cells *two* apart, but the float
        # distance rounds to exactly 1.0 <= radius, so brute force finds the
        # pair.  The padded cell scan must find it too.
        from repro.mobility.geometry import Point
        from repro.net.spatial import SpatialGridIndex, padded_cell_size

        positions = {"top": Point(0.0, 1.0), "bottom": Point(0.0, -1e-158)}
        assert positions["top"].distance_to(positions["bottom"]) == 1.0
        for cell_size in (1.0, padded_cell_size(1.0), 0.3, 7.0):
            grid = SpatialGridIndex(positions, cell_size=cell_size)
            assert grid.neighbours_of("top", 1.0) == {"bottom"}, cell_size
            assert grid.neighbours_of("bottom", 1.0) == {"top"}, cell_size
        # The padded cell size keeps the scan on the minimal 3x3 block.
        import math
        from repro.net.spatial import _RADIUS_SLOP

        assert math.ceil(1.0 * _RADIUS_SLOP / padded_cell_size(1.0)) == 1


class TestLinkEpochs:
    def test_epoch_stable_while_stationary(self):
        network, scheduler = make_network()
        first = network.link_epoch("a")
        scheduler.clock.advance(5.0)
        assert network.link_epoch("a") == first

    def test_epoch_bumps_when_links_change(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("base", lambda m: None)
        network.register("mobile", lambda m: None)
        network.place_host("base", Point(0, 0))
        network.place_host(
            "mobile", WaypointMobility([Point(50, 0), Point(500, 0)], speed=10.0)
        )
        before = network.link_epoch("base")
        scheduler.clock.advance(40.0)  # mobile walked out of range
        assert network.link_epoch("base") == before + 1

    def test_routes_survive_unrelated_movement(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        for host, place in {
            "a": Point(0, 0),
            "b": Point(80, 0),
            "c": Point(160, 0),
        }.items():
            network.register(host, lambda m: None)
            network.place_host(host, place)
        network.register("walker", lambda m: None)
        # The walker wanders far outside everyone's range the whole time.
        network.place_host(
            "walker", WaypointMobility([Point(1000, 1000), Point(2000, 1000)], speed=5.0)
        )
        route = network.router.route("a", "c")
        assert route.hop_count == 2
        assert network.router.discoveries == 1
        scheduler.clock.advance(10.0)
        network.invalidate_routes()  # soft: epochs revalidate lazily
        again = network.router.route("a", "c")
        assert again.hops == route.hops
        assert network.router.discoveries == 1  # no rediscovery
        assert network.router.epoch_hits >= 1

    def test_routes_break_when_their_links_break(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("a", lambda m: None)
        network.register("b", lambda m: None)
        network.register("c", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.place_host(
            "b", WaypointMobility([Point(80, 0), Point(80, 500)], speed=10.0)
        )
        network.place_host("c", Point(160, 0))
        assert network.router.route("a", "c").hop_count == 2
        scheduler.clock.advance(45.0)  # b walked away; the a-b-c chain broke
        assert not network.is_reachable("a", "c")

    def test_flush_forces_rediscovery(self):
        network, _ = make_network()
        network.router.route("a", "c")
        network.invalidate_routes(flush=True)
        assert network.router.cached_route_count == 0
        network.router.route("a", "c")
        assert network.router.discoveries == 2


class TestLoopbackJitter:
    def test_self_delivery_is_free_and_draws_no_jitter(self):
        def build():
            scheduler = EventScheduler()
            network = AdHocWirelessNetwork(
                scheduler, radio_range=100.0, jitter=0.01, seed=42
            )
            for host, place in {"a": Point(0, 0), "b": Point(50, 0)}.items():
                network.register(host, lambda m: None)
                network.place_host(host, place)
            return network

        with_loopback = build()
        without_loopback = build()
        assert with_loopback.latency_for(Message(sender="a", recipient="a")) == 0.0
        # The loopback delivery must not have consumed a jitter draw: the
        # next real transmission sees the identical seeded stream.
        first = with_loopback.latency_for(Message(sender="a", recipient="b"))
        second = without_loopback.latency_for(Message(sender="a", recipient="b"))
        assert first == second


class TestIncrementalMaintenance:
    """Event-driven snapshot advances (PR 4): O(moved hosts) per tick."""

    def test_static_population_never_rebuilds_after_first_snapshot(self):
        network, scheduler = make_network()
        network.neighbours_of("a")
        assert network.grid_rebuilds == 1
        for _ in range(5):
            scheduler.clock.advance(1.0)
            network.neighbours_of("a")
        assert network.grid_rebuilds == 1  # advances only
        assert network.snapshots_built == 6
        assert network.hosts_reevaluated == 0  # everyone is provably at rest

    def test_only_the_moving_host_is_reevaluated(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        for host, place in {"a": Point(0, 0), "b": Point(80, 0)}.items():
            network.register(host, lambda m: None)
            network.place_host(host, place)
        network.register("walker", lambda m: None)
        network.place_host(
            "walker", WaypointMobility([Point(0, 300), Point(300, 300)], speed=10.0)
        )
        network.neighbours_of("a")
        scheduler.clock.advance(1.0)
        network.neighbours_of("a")
        assert network.grid_rebuilds == 1
        assert network.hosts_reevaluated == 1  # just the walker
        assert network.hosts_moved == 1

    def test_paused_walker_is_skipped_until_its_leg_starts(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("anchor", lambda m: None)
        network.place_host("anchor", Point(0, 0))
        network.register("walker", lambda m: None)
        # Pauses 50 s at the first waypoint before walking away.
        network.place_host(
            "walker",
            WaypointMobility([Point(80, 0), Point(400, 0)], speed=10.0, pause=50.0),
        )
        assert network.neighbours_of("anchor") == {"walker"}
        for _ in range(4):
            scheduler.clock.advance(10.0)
            network.neighbours_of("anchor")
        assert network.hosts_reevaluated == 0  # pause end is still ahead
        scheduler.clock.advance(50.0)  # now inside the leg (t=90)
        assert network.neighbours_of("anchor") == frozenset()
        assert network.hosts_reevaluated >= 1

    def test_membership_change_forces_full_rebuild(self):
        network, scheduler = make_network()
        network.neighbours_of("a")
        scheduler.clock.advance(1.0)
        network.register("d", lambda m: None)
        network.place_host("d", Point(80, 60))
        assert network.neighbours_of("b") == {"a", "c", "d"}
        assert network.grid_rebuilds == 2

    def test_epoch_bump_detected_across_incremental_advance(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("base", lambda m: None)
        network.place_host("base", Point(0, 0))
        network.register("mobile", lambda m: None)
        network.place_host(
            "mobile", WaypointMobility([Point(50, 0), Point(500, 0)], speed=10.0)
        )
        before = network.link_epoch("base")
        scheduler.clock.advance(40.0)  # mobile walked out of range
        assert network.grid_rebuilds == 1  # advanced, not rebuilt
        assert network.link_epoch("base") == before + 1

    def test_grid_move_rehashes_only_on_cell_change(self):
        grid = SpatialGridIndex({"a": Point(0, 0), "b": Point(50, 0)}, cell_size=100.0)
        cells_before = grid.occupied_cells
        grid.move("a", Point(10, 10))  # same cell
        assert grid.occupied_cells == cells_before
        assert grid.position_of("a") == Point(10, 10)
        grid.move("a", Point(250, 250))  # new cell; old one still holds b
        assert grid.near(Point(250, 250), 10.0) == {"a"}
        grid.move("b", Point(260, 260))  # empties and deletes the old cell
        assert grid.occupied_cells == 1
        assert grid.near(Point(255, 255), 20.0) == {"a", "b"}


class TestLinkCertificates:
    """Ticks inside a link certificate only move the snapshot's clock."""

    def test_departed_host_is_compared_with_positions_at_now(self):
        """A placed but unregistered host is outside the grid and outside the
        certificate: its links must be taken against where the grid hosts
        are now, not where they were when the certificate began."""

        networks = []
        for network_class in (AdHocWirelessNetwork, ReferenceAdHocNetwork):
            scheduler = EventScheduler()
            network = network_class(scheduler, radio_range=100.0)
            network.register("a", lambda m: None)
            network.place_host("a", Point(0, 0))
            network.register("b", lambda m: None)
            network.place_host(
                "b", WaypointMobility([Point(300, 0), Point(600, 0)], speed=2.0)
            )
            network.register("w", lambda m: None)
            network.place_host("w", Point(410, 0))
            network.unregister("w")  # departed, still placed
            networks.append((network, scheduler))
        (network, scheduler), (oracle, oracle_scheduler) = networks
        network.neighbours_of("a")
        scheduler.clock.advance_to(1.0)  # b at x=302: advance, certificate
        network.neighbours_of("a")
        for instant in (10.0, 12.0, 60.0, 100.0, 110.0):
            scheduler.clock.advance_to(instant)
            oracle_scheduler.clock.advance_to(instant)
            certified = network.certified_ticks
            network.neighbours_of("a")
            if instant == 10.0:
                # b (x=320) is 90 m from w now but was 108 m away when the
                # certificate began, and this tick is certified.
                assert network.certified_ticks == certified + 1
            for host, other in (("w", "b"), ("b", "w"), ("w", "a")):
                assert network.in_radio_range(host, other) == oracle.in_radio_range(
                    host, other
                ), (instant, host, other)
            assert network.neighbours_of("w") == oracle.neighbours_of("w"), instant
            assert network.position_of("b") == oracle.position_of("b")

    def test_certified_tick_keeps_memos_and_moves_only_the_clock(self):
        network, scheduler = make_network()
        network.register("walker", lambda m: None)
        network.place_host(
            "walker", WaypointMobility([Point(0, 400), Point(400, 400)], speed=1.0)
        )
        network.neighbours_of("a")
        scheduler.clock.advance(1.0)
        network.neighbours_of("a")  # the advance that takes the certificate
        reevaluated = network.hosts_reevaluated
        memo = network.neighbours_of("b")
        scheduler.clock.advance(1.0)
        assert network.neighbours_of("b") is memo
        assert network.certified_ticks == 1
        assert network.hosts_reevaluated == reevaluated
        assert network.position_of("walker") == Point(2.0, 400.0)


class TestLinkCrossingTime:
    """Closed-form boundary-crossing instants for linearly moving points."""

    def test_receding_pair_crosses_at_exact_instant(self):
        from repro.net.spatial import link_crossing_time

        # b moves away from a at 2 m/s starting 90 m apart: crosses 100 m
        # after exactly 5 seconds.
        crossing = link_crossing_time(
            Point(0, 0), (0.0, 0.0), Point(90, 0), (2.0, 0.0), 100.0
        )
        assert crossing == pytest.approx(5.0)

    def test_relative_rest_never_crosses(self):
        import math

        from repro.net.spatial import link_crossing_time

        crossing = link_crossing_time(
            Point(0, 0), (1.0, 1.0), Point(50, 0), (1.0, 1.0), 100.0
        )
        assert crossing == math.inf

    def test_approaching_pair_crosses_on_the_far_side(self):
        from repro.net.spatial import link_crossing_time

        # b approaches a, passes it, and leaves range on the far side: the
        # crossing is the *larger* root.
        crossing = link_crossing_time(
            Point(0, 0), (0.0, 0.0), Point(50, 0), (-1.0, 0.0), 100.0
        )
        assert crossing == pytest.approx(150.0)

    def test_outside_and_receding_is_never(self):
        import math

        from repro.net.spatial import link_crossing_time

        crossing = link_crossing_time(
            Point(0, 0), (0.0, 0.0), Point(150, 0), (1.0, 0.0), 100.0
        )
        assert crossing == math.inf


class TestPredictiveLinkBreaks:
    """Route use arms epoch-bump events at exact link-crossing instants."""

    def walker_network(self, network_class=AdHocWirelessNetwork):
        scheduler = EventScheduler()
        network = network_class(scheduler, radio_range=100.0)
        network.register("a", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.register("b", lambda m: None)
        # b walks away from a at 2 m/s from 90 m: the a-b link breaks at t=5.
        network.place_host(
            "b", WaypointMobility([Point(90, 0), Point(1090, 0)], speed=2.0)
        )
        return network, scheduler

    def test_message_over_link_arms_break_event(self):
        network, scheduler = self.walker_network()
        network.latency_for(Message(sender="a", recipient="b"))
        assert network.link_breaks_predicted == 1
        [event_time] = [e for e in (scheduler.peek_time(),) if e is not None]
        assert event_time == pytest.approx(5.0, abs=1e-6)

    def test_break_event_bumps_epochs_at_crossing_instant(self):
        network, scheduler = self.walker_network()
        epoch_a = network.link_epoch("a")
        network.latency_for(Message(sender="a", recipient="b"))
        scheduler.run(until=10.0)
        assert scheduler.clock.now() == pytest.approx(5.0, abs=1e-6)
        assert network.predicted_epoch_bumps == 2
        assert network.link_epoch("a") > epoch_a
        assert "b" not in network.neighbours_of("a")

    def test_lazy_mode_never_schedules_events(self):
        """The lazy reference sees the same break, only later, at a query."""

        network, scheduler = self.walker_network(ReferenceAdHocNetwork)
        epoch_a = network.link_epoch("a")
        network.latency_for(Message(sender="a", recipient="b"))
        assert scheduler.peek_time() is None
        scheduler.clock.advance(10.0)
        assert "b" not in network.neighbours_of("a")
        assert network.link_epoch("a") == epoch_a + 1

    def test_static_pair_arms_nothing(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        for host, position in (("a", Point(0, 0)), ("b", Point(50, 0))):
            network.register(host, lambda m: None)
            network.place_host(host, position)
        network.latency_for(Message(sender="a", recipient="b"))
        assert network.link_breaks_predicted == 0
        assert scheduler.peek_time() is None
