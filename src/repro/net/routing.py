"""AODV-style multi-hop routing over the ad hoc connectivity graph.

The paper's construction algorithm "takes its inspiration from spanning tree
algorithms and routing algorithms such as AODV", and its empirical setup
assumes all hosts are mutually reachable.  When hosts move far enough apart
that direct radio contact is lost, messages must be relayed by intermediate
hosts.  This module implements the *route computation* part of AODV
(Ad hoc On-demand Distance Vector, Perkins & Belding-Royer 1999) over the
instantaneous connectivity graph:

* routes are discovered on demand (when a message needs one);
* discovery conceptually floods a route request (RREQ) and unicasts a route
  reply (RREP) back along the reverse path — we model the *cost* of that
  flood as extra latency charged to the first message using the route;
* discovered routes are cached and invalidated when any link on the path
  breaks.

Cache revalidation is *link-epoch* based when the network supplies an
``epoch_of`` callback: every host carries a counter that the network bumps
whenever that host's link set changes (it moved, or a neighbour moved in or
out of range).  A cached route whose hosts all report unchanged epochs is
known-good without touching a single link; only routes through hosts whose
neighbourhood actually changed pay a per-link re-check, and even then the
route survives when its own links are intact.  Mobile scenarios therefore
keep most of their routes across movement instead of rediscovering the
whole table.

The class operates purely on host positions and radio range supplied by the
ad hoc network; it has no dependency on the middleware above it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping


@dataclass(frozen=True)
class Route:
    """A discovered multi-hop route."""

    source: str
    destination: str
    hops: tuple[str, ...]
    """The full node sequence, source first and destination last."""

    @property
    def hop_count(self) -> int:
        """Number of radio transmissions needed to traverse the route."""

        return max(0, len(self.hops) - 1)

    def uses_link(self, host_a: str, host_b: str) -> bool:
        """True when the route traverses the (undirected) link a-b."""

        for first, second in zip(self.hops, self.hops[1:]):
            if {first, second} == {host_a, host_b}:
                return True
        return False

    def __repr__(self) -> str:
        return f"Route({' -> '.join(self.hops)})"


class RouteNotFound(Exception):
    """No path currently exists between the two hosts."""


class _CacheEntry:
    """A cached route plus the link epochs of its hosts at validation time."""

    __slots__ = ("route", "epochs")

    def __init__(self, route: Route, epochs: tuple[int, ...] | None) -> None:
        self.route = route
        self.epochs = epochs


class AodvRouter:
    """On-demand route discovery with caching over a dynamic neighbour graph.

    Parameters
    ----------
    neighbours_of:
        Callback returning the hosts currently within direct radio range of
        a given host.  The ad hoc network supplies this; the router never
        looks at positions itself.
    epoch_of:
        Optional callback returning a host's current *link epoch* — a
        counter the network bumps whenever the host's neighbour set
        changes.  When provided, cached routes whose hosts all report
        unchanged epochs are accepted without re-checking any link.
    """

    def __init__(
        self,
        neighbours_of: Callable[[str], frozenset[str]],
        epoch_of: Callable[[str], int] | None = None,
    ) -> None:
        self._neighbours_of = neighbours_of
        self._epoch_of = epoch_of
        self._cache: dict[tuple[str, str], _CacheEntry] = {}
        self.discoveries = 0
        self.cache_hits = 0
        self.epoch_hits = 0
        """Cache hits validated purely by unchanged link epochs."""
        self.revalidations = 0
        """Cached routes that survived a per-link re-check after epoch churn."""

    # -- route lookup -------------------------------------------------------
    def route(self, source: str, destination: str) -> Route:
        """Return a route from ``source`` to ``destination``.

        Uses the cached route when it is still valid, otherwise performs a
        breadth-first route discovery (the idealised outcome of an RREQ
        flood).  Raises :class:`RouteNotFound` when the hosts are currently
        partitioned.
        """

        return self.lookup(source, destination)[0]

    def lookup(self, source: str, destination: str) -> tuple[Route, bool]:
        """Like :meth:`route` but also reports whether the cache answered.

        Returns ``(route, was_cached)``; a single validation pass serves
        both, so callers that need the freshness bit (the latency model
        charges route discovery only to the first message) do not pay for
        validating the route twice.
        """

        if source == destination:
            return Route(source, destination, (source,)), True
        entry = self._cache.get((source, destination))
        if entry is not None:
            valid, refreshed = self._validity(entry)
            if valid:
                if refreshed is not None:
                    self.revalidations += 1
                    entry.epochs = refreshed
                elif entry.epochs is not None:
                    self.epoch_hits += 1
                self.cache_hits += 1
                return entry.route, True
        route = self._discover(source, destination)
        epochs = self._epochs_for(route.hops)
        self._cache[(source, destination)] = _CacheEntry(route, epochs)
        # AODV installs the reverse path for free as the RREP travels back.
        reverse = Route(destination, source, tuple(reversed(route.hops)))
        reverse_epochs = None if epochs is None else tuple(reversed(epochs))
        self._cache[(destination, source)] = _CacheEntry(reverse, reverse_epochs)
        return route, False

    def was_cached(self, source: str, destination: str) -> bool:
        """True when a still-valid route for the pair is in the cache.

        A pure peek: it adds no cache entry, refreshes no stored epochs and
        bumps no counter, so asking it cannot change what a later
        :meth:`lookup` reports.  The verdict is the one :meth:`lookup` would
        reach: the route's links all exist right now.
        """

        entry = self._cache.get((source, destination))
        return entry is not None and self._validity(entry)[0]

    def invalidate(self, host_a: str, host_b: str) -> int:
        """Drop every cached route using the (broken) link a-b; returns the count."""

        broken = [
            key
            for key, entry in self._cache.items()
            if entry.route.uses_link(host_a, host_b)
        ]
        for key in broken:
            del self._cache[key]
        return len(broken)

    def clear(self) -> None:
        """Drop the entire route cache (e.g. after large-scale movement)."""

        self._cache.clear()

    @property
    def cached_route_count(self) -> int:
        return len(self._cache)

    # -- internals ----------------------------------------------------------------
    def _epochs_for(self, hops: tuple[str, ...]) -> tuple[int, ...] | None:
        if self._epoch_of is None:
            return None
        return tuple(self._epoch_of(host) for host in hops)

    def _validity(self, entry: _CacheEntry) -> tuple[bool, tuple[int, ...] | None]:
        """``(valid, refreshed epochs)`` for a cached route, changing nothing.

        Refreshed epochs are returned only when some host's neighbourhood
        changed yet the route's own links survived a per-link re-check (an
        unrelated neighbour moved); :meth:`lookup` stores them.
        """

        if self._epoch_of is not None and entry.epochs is not None:
            current = self._epochs_for(entry.route.hops)
            if current == entry.epochs:
                return True, None
            if self._links_valid(entry.route):
                return True, current
            return False, None
        return self._links_valid(entry.route), None

    def _links_valid(self, route: Route) -> bool:
        for first, second in zip(route.hops, route.hops[1:]):
            if second not in self._neighbours_of(first):
                return False
        return True

    def _discover(self, source: str, destination: str) -> Route:
        self.discoveries += 1
        # Breadth-first search = minimum hop count, which is what AODV's
        # first-RREQ-wins behaviour converges to on an idle network.
        parents: dict[str, str] = {}
        visited = {source}
        queue: deque[str] = deque([source])
        while queue:
            current = queue.popleft()
            for neighbour in sorted(self._neighbours_of(current)):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                parents[neighbour] = current
                if neighbour == destination:
                    return Route(source, destination, self._unwind(parents, source, destination))
                queue.append(neighbour)
        raise RouteNotFound(f"no route from {source!r} to {destination!r}")

    @staticmethod
    def _unwind(parents: Mapping[str, str], source: str, destination: str) -> tuple[str, ...]:
        path = [destination]
        while path[-1] != source:
            path.append(parents[path[-1]])
        return tuple(reversed(path))

    def __repr__(self) -> str:
        return (
            f"AodvRouter(cached={len(self._cache)}, discoveries={self.discoveries}, "
            f"cache_hits={self.cache_hits})"
        )
