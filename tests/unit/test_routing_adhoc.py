"""Unit tests for AODV-style routing and the ad hoc wireless network model."""

import pytest

from repro.core.errors import HostUnreachableError
from repro.mobility.geometry import Point
from repro.mobility.models import WaypointMobility
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.messages import Message
from repro.net.routing import AodvRouter, Route, RouteNotFound
from repro.sim.events import EventScheduler


class TestRoute:
    def test_hop_count_and_links(self):
        route = Route("a", "c", ("a", "b", "c"))
        assert route.hop_count == 2
        assert route.uses_link("a", "b") and route.uses_link("c", "b")
        assert not route.uses_link("a", "c")


class TestAodvRouter:
    def make_router(self, adjacency: dict[str, set[str]]) -> AodvRouter:
        return AodvRouter(lambda host: frozenset(adjacency.get(host, set())))

    def test_direct_and_multi_hop_routes(self):
        router = self.make_router({"a": {"b"}, "b": {"a", "c"}, "c": {"b"}})
        assert router.route("a", "b").hop_count == 1
        assert router.route("a", "c").hops == ("a", "b", "c")
        assert router.route("a", "a").hop_count == 0

    def test_shortest_route_selected(self):
        adjacency = {
            "a": {"b", "x"},
            "b": {"a", "c"},
            "x": {"a", "y"},
            "y": {"x", "c"},
            "c": {"b", "y"},
        }
        router = self.make_router(adjacency)
        assert router.route("a", "c").hop_count == 2

    def test_route_caching_and_reverse_install(self):
        router = self.make_router({"a": {"b"}, "b": {"a", "c"}, "c": {"b"}})
        router.route("a", "c")
        assert router.was_cached("a", "c")
        assert router.was_cached("c", "a")
        assert router.discoveries == 1
        router.route("a", "c")
        assert router.cache_hits == 1

    def test_route_not_found(self):
        router = self.make_router({"a": set(), "b": set()})
        with pytest.raises(RouteNotFound):
            router.route("a", "b")

    def test_invalidation_on_link_break(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        router = self.make_router(adjacency)
        router.route("a", "c")
        dropped = router.invalidate("b", "c")
        assert dropped == 2  # forward and reverse cached routes
        assert not router.was_cached("a", "c")

    def test_stale_cache_detected_via_neighbour_callback(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        router = self.make_router(adjacency)
        router.route("a", "c")
        adjacency["b"].discard("c")
        adjacency["c"].discard("b")
        assert not router.was_cached("a", "c")

    def test_was_cached_is_a_pure_peek(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        epochs = {"a": 0, "b": 0, "c": 0}
        router = AodvRouter(
            lambda host: frozenset(adjacency[host]), epoch_of=epochs.__getitem__
        )
        router.route("a", "c")
        epochs["b"] += 1  # b's neighbourhood changed; the route's links did not
        assert router.was_cached("a", "c")
        assert (router.cache_hits, router.epoch_hits, router.revalidations) == (0, 0, 0)
        # The peek left the stored epochs alone, so the lookup re-checks the
        # links itself and only then refreshes them.
        router.route("a", "c")
        assert (router.epoch_hits, router.revalidations) == (0, 1)
        router.route("a", "c")
        assert (router.epoch_hits, router.revalidations) == (1, 1)
        assert router.discoveries == 1


def make_adhoc(**kwargs):
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(scheduler, radio_range=100.0, **kwargs)
    inboxes: dict[str, list[Message]] = {}
    positions = {"a": Point(0, 0), "b": Point(80, 0), "c": Point(160, 0)}
    for host, position in positions.items():
        inboxes[host] = []
        network.register(host, inboxes[host].append)
        network.place_host(host, position)
    return network, scheduler, inboxes


class TestAdHocNetwork:
    def test_radio_range_defines_neighbours(self):
        network, _, _ = make_adhoc()
        assert network.in_radio_range("a", "b")
        assert not network.in_radio_range("a", "c")
        assert network.neighbours_of("b") == {"a", "c"}

    def test_multi_hop_reachability_and_latency(self):
        network, _, _ = make_adhoc(multi_hop=True)
        assert network.is_reachable("a", "c")
        message = Message(sender="a", recipient="c")
        two_hop = network.latency_for(message)
        one_hop = network.latency_for(Message(sender="a", recipient="b"))
        assert two_hop > one_hop

    def test_single_hop_mode_rejects_distant_hosts(self):
        network, _, _ = make_adhoc(multi_hop=False)
        assert not network.is_reachable("a", "c")
        with pytest.raises(HostUnreachableError):
            network.send(Message(sender="a", recipient="c"))

    def test_delivery_over_two_hops(self):
        network, scheduler, inboxes = make_adhoc(multi_hop=True)
        network.send(Message(sender="a", recipient="c"))
        scheduler.run()
        assert len(inboxes["c"]) == 1

    def test_latency_scales_with_message_size(self):
        network, _, _ = make_adhoc()
        small = Message(sender="a", recipient="b")

        class Big(Message):
            def size_bytes(self) -> int:  # noqa: D401 - simple override
                return 1_000_000

        big = Big(sender="a", recipient="b")
        assert network.latency_for(big) > network.latency_for(small)

    def test_positions_follow_mobility(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=50.0)
        network.register("mobile", lambda m: None)
        network.register("base", lambda m: None)
        network.place_host("base", Point(0, 0))
        network.place_host(
            "mobile", WaypointMobility([Point(0, 0), Point(200, 0)], speed=10.0)
        )
        assert network.in_radio_range("base", "mobile")
        scheduler.clock.advance(20.0)  # mobile has walked 200 m
        assert not network.in_radio_range("base", "mobile")
        assert not network.is_connected()

    def test_is_reachable_only_peeks_at_the_route_cache(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        placements = {
            "a": Point(0, 0),
            "b": Point(80, 0),
            # c drifts away from b, so using the a-b-c route arms a
            # link-break prediction; d walks into c's range at t = 1.
            "c": WaypointMobility([Point(160, 0), Point(400, 0)], speed=1.0),
            "d": WaypointMobility([Point(262, 0), Point(240, 0)], speed=1.0),
        }
        for host, placement in placements.items():
            network.register(host, lambda m: None)
            network.place_host(host, placement)
        network.latency_for(Message(sender="a", recipient="c"))  # warm a-b-c
        router = network.router
        assert network.link_breaks_predicted == 1

        def router_state():
            return (
                set(router._cache),
                router.discoveries,
                router.cache_hits,
                router.epoch_hits,
                router.revalidations,
                network.link_breaks_predicted,
                scheduler.pending,
            )

        scheduler.clock.advance(3.0)  # c's link set changed; a-b-c still holds
        before = router_state()
        assert network.is_reachable("a", "c")  # answered by the cached route
        assert network.is_reachable("a", "d")  # no cached route: labels
        assert network.is_reachable("d", "a")
        assert router_state() == before
        message = Message(sender="a", recipient="d")
        per_hop = network.per_hop_overhead + message.size_bytes() / network.bytes_per_second
        assert network.latency_for(message) == pytest.approx(
            3 * per_hop + 3 * network.route_discovery_cost
        )

    def test_departed_sender_is_unreachable_despite_its_cached_route(self):
        network, _, _ = make_adhoc(multi_hop=True)
        network.latency_for(Message(sender="a", recipient="c"))  # caches a-b-c
        network.unregister("a")
        assert not network.is_reachable("a", "c")
        assert not network.is_reachable("c", "a")

    def test_is_connected(self):
        network, _, _ = make_adhoc(multi_hop=True)
        assert network.is_connected()

    def test_parameter_validation(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            AdHocWirelessNetwork(scheduler, radio_range=0)
        with pytest.raises(ValueError):
            AdHocWirelessNetwork(scheduler, goodput_fraction=0)
