"""Reference model of the ad hoc wireless network.

:class:`~repro.net.adhoc.AdHocWirelessNetwork` answers geometry from a grid
snapshot it advances incrementally across ticks (and not at all while a link
certificate holds), arms link-break events ahead of time, and runs its
sweeps through NumPy kernels when it can.  This model does none of that:

* every query evaluates each host's position from its mobility model;
* neighbours come from an O(n²) ``distance <= radio_range`` scan;
* reachability is a breadth-first search over those neighbour sets;
* link epochs are established lazily on query, and no prediction event is
  ever scheduled.

Latency uses the production :class:`~repro.net.routing.AodvRouter`, the same
802.11g cost formula and the same seeded jitter stream, so a whole trial run
over this model must agree with one over the production network byte for
byte.
"""

from __future__ import annotations

from collections import deque

from repro.core.errors import HostUnreachableError
from repro.mobility.geometry import Point
from repro.mobility.models import MobilityModel, StaticMobility
from repro.net.adhoc import (
    DEFAULT_GOODPUT_FRACTION,
    DEFAULT_PER_HOP_OVERHEAD,
    DEFAULT_RADIO_RANGE,
    DEFAULT_ROUTE_DISCOVERY_COST,
    NOMINAL_80211G_BITRATE,
)
from repro.net.messages import Message
from repro.net.routing import AodvRouter, RouteNotFound
from repro.net.transport import CommunicationsLayer
from repro.sim.events import EventScheduler
from repro.sim.randomness import rng_from_seed


class ReferenceAdHocNetwork(CommunicationsLayer):
    """Brute-force, lazily maintained ad hoc network (the test oracle).

    Its parameters mean what they mean on
    :class:`~repro.net.adhoc.AdHocWirelessNetwork`; the 802.11g cost
    constants are the production defaults.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        radio_range: float = DEFAULT_RADIO_RANGE,
        jitter: float = 0.0,
        multi_hop: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(scheduler)
        self.radio_range = radio_range
        self.bytes_per_second = (
            NOMINAL_80211G_BITRATE * DEFAULT_GOODPUT_FRACTION / 8.0
        )
        self.per_hop_overhead = DEFAULT_PER_HOP_OVERHEAD
        self.route_discovery_cost = DEFAULT_ROUTE_DISCOVERY_COST
        self.jitter = jitter
        self.multi_hop = multi_hop
        self._rng = rng_from_seed(seed)
        self._mobility: dict[str, MobilityModel] = {}
        self._link_epochs: dict[str, int] = {}
        self._epoch_links: dict[str, frozenset[str]] = {}
        self.router = AodvRouter(self.neighbours_of, epoch_of=self.link_epoch)

    def place_host(self, host_id: str, mobility: MobilityModel | Point) -> None:
        if isinstance(mobility, Point):
            mobility = StaticMobility(mobility)
        self._mobility[host_id] = mobility

    # -- geometry ---------------------------------------------------------
    def position_of(self, host_id: str) -> Point:
        mobility = self._mobility.get(host_id)
        if mobility is None:
            return Point(0.0, 0.0)
        return mobility.position_at(self.scheduler.clock.now())

    def positions(self) -> dict[str, Point]:
        return {host: self.position_of(host) for host in sorted(self.host_ids)}

    def in_radio_range(self, host_a: str, host_b: str) -> bool:
        if host_a == host_b:
            return True
        distance = self.position_of(host_a).distance_to(self.position_of(host_b))
        return distance <= self.radio_range

    def _in_range_of(self, host_id: str, positions: dict[str, Point]) -> frozenset[str]:
        here = self.position_of(host_id)
        return frozenset(
            other
            for other, there in positions.items()
            if other != host_id and here.distance_to(there) <= self.radio_range
        )

    def neighbours_of(self, host_id: str) -> frozenset[str]:
        return self._in_range_of(host_id, self.positions())

    def link_epoch(self, host_id: str) -> int:
        links = self.neighbours_of(host_id)
        if self._epoch_links.get(host_id) != links:
            self._link_epochs[host_id] = self._link_epochs.get(host_id, 0) + 1
            self._epoch_links[host_id] = links
        return self._link_epochs[host_id]

    # -- connectivity -----------------------------------------------------
    def _component_of(self, host_id: str, positions: dict[str, Point]) -> set[str]:
        seen = {host_id}
        queue = deque([host_id])
        while queue:
            for neighbour in self._in_range_of(queue.popleft(), positions):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def is_reachable(self, sender: str, recipient: str) -> bool:
        if self.in_radio_range(sender, recipient):
            return True
        hosts = self.host_ids
        if not self.multi_hop or sender not in hosts or recipient not in hosts:
            return False
        return recipient in self._component_of(sender, self.positions())

    def is_connected(self) -> bool:
        positions = self.positions()
        if len(positions) <= 1:
            return True
        if not self.multi_hop:
            return all(
                len(self._in_range_of(host, positions)) == len(positions) - 1
                for host in positions
            )
        return len(self._component_of(next(iter(positions)), positions)) == len(positions)

    # -- latency ----------------------------------------------------------
    def latency_for(self, message: Message) -> float:
        hops, fresh_route = self._hops_for(message.sender, message.recipient)
        if hops == 0:
            return 0.0
        per_hop = self.per_hop_overhead + message.size_bytes() / self.bytes_per_second
        latency = hops * per_hop
        if fresh_route and hops > 1:
            latency += self.route_discovery_cost * hops
        if self.jitter > 0:
            latency += self._rng.uniform(0.0, self.jitter)
        return latency

    def _hops_for(self, sender: str, recipient: str) -> tuple[int, bool]:
        if sender == recipient:
            return 0, False
        if self.in_radio_range(sender, recipient):
            return 1, False
        if not self.multi_hop:
            raise HostUnreachableError(
                f"{recipient!r} is outside radio range of {sender!r}"
            )
        try:
            route, cached = self.router.lookup(sender, recipient)
        except RouteNotFound as exc:
            raise HostUnreachableError(str(exc)) from exc
        return route.hop_count, not cached


def reference_network_factory(seed: int = 0, multi_hop: bool = False):
    """The oracle's counterpart of
    :func:`~repro.experiments.trials.adhoc_network_factory` with its default
    150 m radio range and 0.5 ms jitter."""

    def factory(scheduler: EventScheduler) -> ReferenceAdHocNetwork:
        return ReferenceAdHocNetwork(
            scheduler, radio_range=150.0, jitter=0.0005, multi_hop=multi_hop, seed=seed
        )

    return factory
