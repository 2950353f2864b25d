"""A uniform hash-grid spatial index over host positions.

The ad hoc wireless model answers two geometric questions constantly:
"which hosts are within radio range of this one?" (every routing step,
every broadcast) and "is the community currently partitioned?" (every
connectivity probe).  Answering them by scanning every host is O(n) and
O(n²) respectively, which caps simulations at a few dozen hosts.

:class:`SpatialGridIndex` hashes a positions snapshot into square cells of
``cell_size`` metres.  A range query around a point only has to look at the
cells overlapping the query circle — for ``cell_size == radius`` that is
the 3×3 block around the query cell — so ``neighbours_of`` costs O(k) in
the local host density k rather than O(n).  Connectivity becomes a single
breadth-first sweep over the grid (O(V + E) in the radio graph) instead of
all-pairs routing.

The index snapshots one instant of simulated time.  The network layer
builds one snapshot when the membership changes and then *advances* it in
place as the clock moves: :meth:`SpatialGridIndex.move` relocates a single
host and rehashes it only when its cell actually changed, so a tick in
which k hosts moved costs O(k) — not an O(n) rebuild.  Within one instant
the index is read-only, which matches how the discrete event simulation
batches many queries (one routing BFS, one broadcast fan-out) at the same
instant.

Choosing ``cell_size``: the query cost is (cells scanned) × (hosts per
cell).  ``cell_size == radius`` scans 9 cells and is the sweet spot when
hosts are spread over an area much larger than one radio footprint; larger
cells degrade towards the brute-force scan (everyone lands in one cell),
much smaller cells waste time visiting empty cells.  The default is
therefore the query radius itself.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, Mapping

from ..mobility.geometry import Point

_Cell = tuple[int, int]

#: Relative padding applied when converting a query radius into a cell scan
#: range.  Distances are computed through rounded float subtraction and
#: ``math.hypot`` (itself accurate to ~1 ulp), so a pair whose *exact*
#: coordinate delta is a few ulps beyond the radius can still report a
#: rounded distance <= radius — while their floor-quantised cells sit one
#: ring further apart than ``ceil(radius / cell_size)`` covers (e.g. y=1.0
#: vs y=-1e-158 at radius 1.0: distance rounds to exactly 1.0 but the cells
#: are two apart).  Padding the radius by a handful of ulps before the cell
#: arithmetic makes the scan range cover every such pair; callers that want
#: to keep the 3x3 scan of the ``cell_size == radius`` sweet spot should
#: apply the same factor to the cell size (see
#: :data:`padded_cell_size`).
_RADIUS_SLOP = 1.0 + 2.0**-48


def padded_cell_size(radius: float) -> float:
    """The cell size that keeps radius queries on the minimal scan block.

    ``SpatialGridIndex.near`` pads the radius by :data:`_RADIUS_SLOP` when
    sizing its cell scan; a grid built with exactly ``cell_size=radius``
    would therefore scan one extra ring of cells.  Building it with this
    slightly inflated size (a factor of ~3.6e-15 — sub-picometre at radio
    ranges) keeps the scan at ``ceil(padded/cell) == 1``, i.e. the 3x3
    block.
    """

    return radius * _RADIUS_SLOP


class SpatialGridIndex:
    """An immutable uniform-grid index over a ``{host_id: Point}`` snapshot.

    Parameters
    ----------
    positions:
        The positions of every indexed host at one instant.
    cell_size:
        Side length (metres) of the square grid cells.  Defaults should be
        the radius of the range queries the index will serve.
    """

    def __init__(self, positions: Mapping[str, Point], cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self._positions: dict[str, Point] = dict(positions)
        self._cells: dict[_Cell, list[str]] = {}
        for host, point in self._positions.items():
            self._cells.setdefault(self._cell_of(point), []).append(host)

    # -- basic views --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._positions

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self._positions)

    @property
    def occupied_cells(self) -> int:
        return len(self._cells)

    def position_of(self, host_id: str) -> Point:
        return self._positions[host_id]

    def _cell_of(self, point: Point) -> _Cell:
        return (int(point.x // self.cell_size), int(point.y // self.cell_size))

    # -- incremental maintenance --------------------------------------------
    def move(self, host_id: str, point: Point) -> None:
        """Relocate one indexed host, rehashing only when its cell changed.

        The common case under smooth mobility — a host drifting within its
        current cell — updates one dict entry and touches no bucket.  A
        bucket that empties is deleted so the cell table never outgrows the
        live population.
        """

        old_cell = self._cell_of(self._positions[host_id])
        self._positions[host_id] = point
        new_cell = self._cell_of(point)
        if new_cell == old_cell:
            return
        bucket = self._cells[old_cell]
        bucket.remove(host_id)
        if not bucket:
            del self._cells[old_cell]
        self._cells.setdefault(new_cell, []).append(host_id)

    # -- range queries ------------------------------------------------------
    def near(self, point: Point, radius: float) -> frozenset[str]:
        """Every indexed host within ``radius`` metres of ``point`` (inclusive)."""

        if radius < 0:
            raise ValueError("radius must be non-negative")
        reach = math.ceil(radius * _RADIUS_SLOP / self.cell_size)
        cx, cy = self._cell_of(point)
        found: list[str] = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                bucket = self._cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for host in bucket:
                    if self._positions[host].distance_to(point) <= radius:
                        found.append(host)
        return frozenset(found)

    def neighbours_of(self, host_id: str, radius: float) -> frozenset[str]:
        """Hosts within ``radius`` of ``host_id``, excluding ``host_id`` itself."""

        return self.near(self._positions[host_id], radius) - {host_id}

    def candidate_pairs(self, radius: float) -> Iterator[tuple[str, str]]:
        """Every unordered host pair whose cells lie within the scan range of
        a ``radius`` query — a superset of the pairs within ``radius``.

        Each pair comes out once: same-cell pairs, then one half-plane of
        cell offsets.
        """

        reach = math.ceil(radius * _RADIUS_SLOP / self.cell_size)
        offsets = [
            (dx, dy)
            for dx in range(reach + 1)
            for dy in range(-reach, reach + 1)
            if dx > 0 or dy > 0
        ]
        cells = self._cells
        for (cx, cy), bucket in cells.items():
            for index, host in enumerate(bucket):
                for other in bucket[index + 1 :]:
                    yield host, other
            for dx, dy in offsets:
                others = cells.get((cx + dx, cy + dy))
                if others:
                    for host in bucket:
                        for other in others:
                            yield host, other

    def link_certificate(
        self,
        speeds: Mapping[str, float],
        radius: float,
        margin_fraction: float,
        needed: float,
    ) -> float:
        """Seconds during which no pair of hosts can cross ``radius``, or
        ``0.0`` once that is shown to be at most ``needed`` seconds.

        ``speeds`` bounds each host's speed over that time.  Two hosts'
        separation changes no faster than the sum of their speeds, so a
        pair ``d`` apart keeps its side of the boundary for at least
        ``(|d - radius| - margin) / (v_a + v_b)``.  The margin, a
        ``margin_fraction`` of the radius plus the largest coordinate, stays
        far above the rounding of positions and distances; a moving pair
        within it of the boundary gets ``0.0``.  Pairs beyond the
        ``2 * radius`` candidate cells are more than ``2 * radius`` apart,
        so their slack exceeds the radius.  ``inf`` when nothing moves.
        """

        top = max(speeds.values(), default=0.0)
        if top == 0.0:
            return math.inf
        positions = self._positions
        extent = max(
            max(map(abs, [point.x for point in positions.values()])),
            max(map(abs, [point.y for point in positions.values()])),
        )
        margin = margin_fraction * (radius + extent)
        bound = (radius - margin) / (2.0 * top)
        if bound <= needed:
            return 0.0
        sqrt = math.sqrt
        for host, other in self.candidate_pairs(2.0 * radius):
            closing = speeds[host] + speeds[other]
            if closing == 0.0:
                continue
            a, b = positions[host], positions[other]
            dx = a.x - b.x
            dy = a.y - b.y
            time = (abs(sqrt(dx * dx + dy * dy) - radius) - margin) / closing
            if time <= needed:
                return 0.0
            bound = min(bound, time)
        return bound

    # -- connectivity -------------------------------------------------------
    def connected_components(self, radius: float) -> list[frozenset[str]]:
        """Partition the hosts into radio-connectivity components.

        Two hosts are connected when a chain of hops, each at most
        ``radius`` metres, links them.  One BFS sweep over the grid: every
        host is dequeued once and every radio link examined a constant
        number of times.
        """

        components: list[frozenset[str]] = []
        unvisited = set(self._positions)
        while unvisited:
            seed = unvisited.pop()
            component = {seed}
            frontier: deque[str] = deque([seed])
            while frontier:
                current = frontier.popleft()
                for neighbour in self.neighbours_of(current, radius):
                    if neighbour in unvisited:
                        unvisited.discard(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(frozenset(component))
        return components

    def component_labels(self, radius: float) -> dict[str, int]:
        """Map every host to the index of its connectivity component."""

        labels: dict[str, int] = {}
        for index, component in enumerate(self.connected_components(radius)):
            for host in component:
                labels[host] = index
        return labels

    def is_single_component(self, radius: float) -> bool:
        """True when every indexed host can reach every other via multi-hop."""

        if len(self._positions) <= 1:
            return True
        components = self.connected_components(radius)
        return len(components) == 1

    def __repr__(self) -> str:
        return (
            f"SpatialGridIndex(hosts={len(self._positions)}, "
            f"cells={len(self._cells)}, cell_size={self.cell_size})"
        )


def grid_from_items(
    items: Iterable[tuple[str, Point]], cell_size: float
) -> SpatialGridIndex:
    """Build an index from ``(host, point)`` pairs (convenience for tests)."""

    return SpatialGridIndex(dict(items), cell_size)


def link_crossing_time(
    position_a: Point,
    velocity_a: tuple[float, float],
    position_b: Point,
    velocity_b: tuple[float, float],
    radius: float,
) -> float:
    """Seconds until two linearly-moving points exceed ``radius`` apart.

    Both points move with constant velocity (metres/second), so the squared
    separation is a quadratic in time and the range boundary is crossed at
    its larger root — the closed form the predictive link-break scheduler
    uses to bump link epochs at the *exact* instant a live link breaks.
    Returns ``inf`` when the relative velocity is zero (the separation
    never changes on these legs) or when the points are already outside
    ``radius`` and receding.  The caller is responsible for only trusting
    the answer while both legs remain valid.
    """

    dx = position_a.x - position_b.x
    dy = position_a.y - position_b.y
    dvx = velocity_a[0] - velocity_b[0]
    dvy = velocity_a[1] - velocity_b[1]
    a = dvx * dvx + dvy * dvy
    if a == 0.0:
        return math.inf
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - radius * radius
    discriminant = b * b - 4.0 * a * c
    if discriminant < 0.0:
        # Never at exactly `radius`: starting inside this is impossible (the
        # parabola opens upward), so the pair is outside and stays outside.
        return math.inf
    crossing = (-b + math.sqrt(discriminant)) / (2.0 * a)
    return crossing if crossing > 0.0 else math.inf
