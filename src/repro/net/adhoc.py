"""An ad hoc wireless network model (802.11g-like).

Figure 6 of the paper reports the empirical performance of the system on
four laptops connected by an 802.11g ad hoc wireless network.  We do not
have four laptops and a radio; instead this module provides a network model
whose reachability comes from host positions and radio range and whose
per-message latency comes from an 802.11g-like cost model:

    latency = per_hop_overhead + size_bytes / effective_bandwidth   (per hop)

with nominal 802.11g figures (54 Mbit/s raw, roughly 40-50% of that
achievable as application goodput in ad hoc mode) and a per-hop MAC/queueing
overhead on the order of a millisecond or two.  Multi-hop delivery uses the
AODV-style router; the first message over a fresh route additionally pays a
route discovery cost proportional to the hop count, matching AODV's
on-demand behaviour.

The model intentionally keeps the same *shape* of costs as the real medium:
small control messages cost roughly the per-hop overhead while fragment
transfers scale with their payload, so protocol-level trade-offs (batch vs.
incremental discovery, number of participants) show up the same way they do
on real hardware.

Scaling architecture
--------------------
All geometry flows through a per-timestamp *snapshot*: the first query at a
simulated instant evaluates the host positions, indexes them in a
:class:`~repro.net.spatial.SpatialGridIndex`, and memoizes neighbour sets,
connectivity components, and link epochs against that snapshot.  Every
further query at the same instant — and the discrete event simulation
batches many (a routing BFS, a broadcast fan-out) at one instant — is a
dictionary lookup.  ``neighbours_of`` is an O(k) grid query,
``is_connected`` one O(V+E) component sweep, and cached routes revalidate
by comparing link epochs instead of walking links.

Reachability is route first.  Every send asks ``is_reachable`` just before
``latency_for`` looks up the AODV route for the same pair, so a multi-hop
verdict is answered by a direct link or by a still-valid cached route
(epoch-equal hops, or links re-checked one by one) — the same evidence the
send is about to use.  The peek writes no router state.  Only a pair with
no valid cached route falls back to the whole-fleet component labels
(which also answer ``is_connected``), and labels already computed for the
snapshot answer without a peek.  Under random-waypoint mobility almost
every real advance moves a quarter of the fleet or more, which drops the
labels; answering from routes keeps whole-fleet sweeps to a few per trial.

Event-driven link maintenance makes the *tick boundary* cheap as well.
Instead of discarding the whole
snapshot when the clock moves, the network keeps a heap of
``(next-possible-move time, host)`` entries fed by the mobility models'
``next_move_time`` (leg and pause boundaries straight from the trajectory
geometry).  Advancing to a new instant pops only the hosts that may have
moved, re-evaluates just those, relocates them in the grid
(:meth:`~repro.net.spatial.SpatialGridIndex.move` rehashes only on a cell
change), and compares each mover's radio disc before and after: when no
link changed — the overwhelmingly common tick under smooth mobility —
every memoized neighbour set, component label, and link epoch survives,
so the tick costs O(moved hosts) instead of an O(n) rebuild.  When links
did change, only the hosts touching a changed link have their memos
dropped (their epochs then bump lazily on the next query, exactly as a
full rebuild would).

Link certificates.  Most ticks need no advance at all.  This is the
kinetic-data-structure idea (Basch, Guibas and Hershberger, "Data
Structures for Mobile Data"): a certificate holds until it provably fails,
and nothing is recomputed before then.  Two hosts' separation changes no
faster than the sum of their speeds, so after an advance no pair can cross
the radio boundary before ``min((|d - r| - margin) / (v_a + v_b))`` over the
pairs within ``2r`` (found on the grid; farther pairs have more than ``r``
of slack), capped at the first leg boundary in the fleet, since the next
leg may be faster.  The margin covers float rounding; a moving pair inside
it, or a mobility model that reports no legs, gets no certificate.  A tick
before that instant only moves the snapshot's clock: the move heap, the
grid and every memo stay, and neighbour sets, epochs and components are
provably those at the new instant.  The grid keeps the positions of the
certificate's *anchor* (the last advance), so ``position_of`` and
``positions`` then ask the mobility models, which the leg replay matches
bit for bit, and ``in_radio_range`` between grid hosts answers from the
neighbour sets.  A host outside the grid (placed but not registered) is
not covered and its links are taken against a grid advanced to the current
instant.  The certificate is taken lazily, at the first tick after an
advance: when the clock moves in coarse steps a few pairs usually show that
it cannot reach that tick, and the advance runs as it would without one.
The first tick after a rebuild always advances.  A trial of the
``adhoc_mobile`` benchmark workload spans ~60 simulated milliseconds, in
which walkers move centimetres against a 150 m range: over 20 seeded
100-host trials of that shape, 3,906 of 4,020 ticks were certified.

Predictive link-break scheduling goes one step further for the links that
carry traffic: whenever a message
uses a link (directly or on a cached AODV route), the network derives — in
closed form, from the two endpoints' current trajectory legs
(:func:`~repro.net.spatial.link_crossing_time`) — the exact instant that
link will cross the range boundary, and schedules an epoch-bump event at
that instant on the shared event scheduler.  When the event fires the
endpoints' link epochs are re-established *at the crossing time* (the same
lazy comparison a query would run), so cached routes through the broken
link start revalidating from the moment the link actually breaks instead
of whenever the next query happens to land.  Arming is deliberately scoped
to links on used routes — watching every link of the radio graph would
cost an event per break across the whole site, almost all of them for
links no cached state depends on.  Predictions are advisory and bump-only:
a prediction invalidated by a leg change simply fires without effect (or
is never armed, when the crossing falls beyond the legs' validity), and
the lazy comparison at the next query remains the backstop that catches
every change — so observable geometry is identical to purely lazy epochs.

Vectorized geometry kernels (used whenever NumPy is importable, as
:attr:`AdHocWirelessNetwork.vectorized` reports) move the remaining
per-host Python loops into array code: the whole population's trajectory
legs live in a contiguous :class:`~repro.net.kernels.LegTable`, snapshot
builds and advances evaluate every requested position in one batched
replay, the grid is a :class:`~repro.net.kernels.VectorGridIndex` whose
whole-population disc sweeps come from one vectorized gather, and the
predictive scheduler solves all of a route's boundary-crossing quadratics
in a single :func:`~repro.net.kernels.crossing_times` call.  The kernels
run the exact float operation sequences of the scalar paths (boundary
pairs re-checked with scalar ``math.hypot``), so every neighbour set,
epoch, component verdict, and armed crossing instant is identical
bit-for-bit — pinned by the kernel equivalence property suite.  NumPy is
optional: without it the scalar paths below run untouched.

The reference model every optimisation above is checked against —
positions evaluated from the mobility models at each query, O(n²) neighbour
scans, BFS reachability, purely lazy link epochs — is
``tests/oracles/adhoc.py``.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping

from ..core.errors import HostUnreachableError
from ..mobility.geometry import Point
from ..mobility.models import MobilityModel, StaticMobility
from ..sim.events import EventScheduler
from ..sim.randomness import rng_from_seed
from . import kernels
from .messages import Message
from .routing import AodvRouter, RouteNotFound
from .spatial import SpatialGridIndex, link_crossing_time, padded_cell_size
from .transport import CommunicationsLayer

# 802.11g nominal characteristics.
NOMINAL_80211G_BITRATE = 54_000_000  # bits per second
DEFAULT_GOODPUT_FRACTION = 0.45
DEFAULT_PER_HOP_OVERHEAD = 0.0015  # seconds: MAC contention + protocol stack
DEFAULT_RADIO_RANGE = 100.0  # metres, typical outdoor 802.11g
DEFAULT_ROUTE_DISCOVERY_COST = 0.004  # seconds per hop of RREQ/RREP exchange

#: Link-certificate margin, as a fraction of the radio range plus the largest
#: coordinate: a pair closer to the boundary than this gets no certificate.
#: Positions and distances carry a few ulps (~1e-16 relative) of rounding.
_CERTIFICATE_MARGIN = 1e-9


class _Snapshot:
    """Everything the network knows about one simulated instant."""

    __slots__ = (
        "time",
        "anchor",
        "certified_until",
        "version",
        "radius",
        "positions",
        "grid",
        "neighbours",
        "epochs",
        "components",
    )

    def __init__(
        self,
        time: float,
        version: int,
        radius: float,
        positions: dict[str, Point] | kernels.LazyPositions,
        grid: SpatialGridIndex | kernels.VectorGridIndex,
    ) -> None:
        self.time = time
        # The instant ``positions`` and ``grid`` hold.  Certified ticks move
        # ``time`` on and leave the anchor behind (see the module notes).
        self.anchor = time
        # No link can change before this instant; ``None`` until taken.  A
        # fresh build starts uncertified, so its first tick advances.
        self.certified_until: float | None = time
        self.version = version
        self.radius = radius
        self.positions = positions
        self.grid = grid
        self.neighbours: dict[str, frozenset[str]] = {}
        self.epochs: dict[str, int] = {}
        self.components: dict[str, int] | None = None


class AdHocWirelessNetwork(CommunicationsLayer):
    """Range-limited wireless network with an 802.11g latency model.

    Parameters
    ----------
    scheduler:
        Shared event scheduler (supplies simulated time for positions).
    radio_range:
        Maximum distance (metres) at which two hosts can exchange messages
        directly.
    goodput_fraction:
        Fraction of the nominal 54 Mbit/s usable as application goodput.
    per_hop_overhead:
        Fixed per-hop latency (seconds).
    route_discovery_cost:
        Extra latency charged per hop the first time a route is used (the
        AODV RREQ/RREP exchange).
    jitter:
        Maximum uniform random extra latency per message, drawn from a
        seeded stream.
    multi_hop:
        When false (the paper's Figure 6 setup has all four laptops in
        mutual range), only direct neighbours can communicate.

    Geometry goes through the batched NumPy kernels exactly when NumPy is
    importable (:attr:`vectorized`); otherwise through the scalar per-host
    loops, with bit-identical results.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        radio_range: float = DEFAULT_RADIO_RANGE,
        goodput_fraction: float = DEFAULT_GOODPUT_FRACTION,
        per_hop_overhead: float = DEFAULT_PER_HOP_OVERHEAD,
        route_discovery_cost: float = DEFAULT_ROUTE_DISCOVERY_COST,
        jitter: float = 0.0,
        multi_hop: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(scheduler)
        if radio_range <= 0:
            raise ValueError("radio range must be positive")
        if not 0 < goodput_fraction <= 1:
            raise ValueError("goodput fraction must be in (0, 1]")
        self.radio_range = radio_range
        self.bytes_per_second = NOMINAL_80211G_BITRATE * goodput_fraction / 8.0
        self.per_hop_overhead = per_hop_overhead
        self.route_discovery_cost = route_discovery_cost
        self.jitter = jitter
        self.multi_hop = multi_hop
        self._vectorized = kernels.numpy_available()
        self._rng = rng_from_seed(seed)
        self._mobility: dict[str, MobilityModel] = {}
        # Vectorized mode: the population's trajectory legs in contiguous
        # arrays, rebuilt whenever membership or placements change.
        self._leg_table: kernels.LegTable | None = None
        self._leg_hosts: list[str] = []
        self._leg_table_version = -1
        # Scalar mode: (valid_until, speed, fetched_at) of each host's leg,
        # kept like the leg table's rows for the link certificate.
        self._motion_rows: dict[str, tuple[float, float, float]] = {}
        self._motion_rows_version = -1
        self._snapshot: _Snapshot | None = None
        self._version = 0  # bumped on membership / placement changes
        # Link epochs persist across snapshots: a host's epoch advances when
        # its neighbour set is observed to differ from the set recorded the
        # last time its epoch was established.
        self._link_epochs: dict[str, int] = {}
        self._epoch_links: dict[str, frozenset[str]] = {}
        # Event-driven maintenance: (next-possible-move time, host) entries.
        # A host paused until T (or static: never in the heap at all) is not
        # touched by any snapshot advance before T.
        self._move_heap: list[tuple[float, str]] = []
        # Predictive link-break scheduling: one armed epoch-bump event per
        # used link at a time, keyed by the sorted host pair.  The bump
        # handler never arms new predictions, so the event population is
        # bounded by the links message traffic actually crossed and the
        # scheduler always drains once the middleware goes quiet.
        # ``_no_break_until`` negative-caches the "cannot break on the
        # current legs" verdict per pair until the legs' validity horizon,
        # so repeat messages over a static or co-moving link (the common
        # case) skip the leg lookups and the quadratic entirely.
        self._armed_links: dict[tuple[str, str], float] = {}
        self._no_break_until: dict[tuple[str, str], float] = {}
        self.snapshots_built = 0  # snapshots established (rebuilt or advanced)
        self.certified_ticks = 0  # of which only moved the clock (certified)
        self.grid_rebuilds = 0  # full O(n) rebuilds among them
        self.hosts_reevaluated = 0  # mobility evaluations during advances
        self.hosts_moved = 0  # position changes applied incrementally
        self.link_breaks_predicted = 0  # epoch-bump events armed
        self.link_break_events = 0  # epoch-bump events fired
        self.predicted_epoch_bumps = 0  # fired events that advanced an epoch
        self._router = AodvRouter(self.neighbours_of, epoch_of=self.link_epoch)

    @property
    def vectorized(self) -> bool:
        """True when geometry runs on the NumPy kernels (NumPy importable)."""

        return self._vectorized

    # -- membership with positions -------------------------------------------
    def register(self, host_id: str, handler) -> None:  # type: ignore[override]
        super().register(host_id, handler)
        self._version += 1

    def unregister(self, host_id: str) -> None:
        super().unregister(host_id)
        self._version += 1
        self._forget_link_verdicts(host_id)

    def place_host(self, host_id: str, mobility: MobilityModel | Point) -> None:
        """Attach a mobility model (or a fixed position) to a registered host."""

        if isinstance(mobility, Point):
            mobility = StaticMobility(mobility)
        self._mobility[host_id] = mobility
        self._version += 1
        self._forget_link_verdicts(host_id)

    def _forget_link_verdicts(self, host_id: str) -> None:
        """Drop cached no-break verdicts involving ``host_id``.

        A re-placed (or departed) host's trajectory no longer backs them;
        armed events need no cleanup — they fire harmlessly.
        """

        if self._no_break_until:
            self._no_break_until = {
                pair: horizon
                for pair, horizon in self._no_break_until.items()
                if host_id not in pair
            }

    def _position_at(self, host_id: str, time: float) -> Point:
        mobility = self._mobility.get(host_id)
        if mobility is None:
            return Point(0.0, 0.0)
        return mobility.position_at(time)

    def _current_snapshot(self) -> _Snapshot:
        """The snapshot for the current instant.

        Within the link certificate only ``time`` moves: the grid, the move
        heap and every memo stay, because no link can have changed.  Past
        it the snapshot is advanced, and the first tick after an advance
        takes the next certificate.  A membership or placement change
        rebuilds the snapshot, which starts uncertified.
        """

        now = self.scheduler.clock.now()
        snapshot = self._snapshot
        if snapshot is not None and snapshot.version == self._version:
            if snapshot.time == now:
                return snapshot
            # Geometry memos only carry across ticks while the radio range
            # they were computed for still holds.
            if now > snapshot.time and snapshot.radius == self.radio_range:
                if snapshot.certified_until is None:
                    snapshot.certified_until = self._certificate(snapshot, now)
                if now < snapshot.certified_until:
                    snapshot.time = now
                    self.certified_ticks += 1
                else:
                    self._advance_snapshot(snapshot, now)
                self.snapshots_built += 1
                return snapshot
        if self._vectorized:
            snapshot = self._build_snapshot_vectorized(now)
        else:
            positions = {
                host: self._position_at(host, now) for host in sorted(self.host_ids)
            }
            # padded_cell_size keeps range queries on the 3x3 cell block
            # while covering float-rounding slop at exact-radius distances.
            grid = SpatialGridIndex(
                positions, cell_size=padded_cell_size(self.radio_range)
            )
            snapshot = _Snapshot(
                now, self._version, self.radio_range, positions, grid
            )
        self._snapshot = snapshot
        self.snapshots_built += 1
        self.grid_rebuilds += 1
        self._rebuild_move_heap(now)
        return snapshot

    def _certificate(self, snapshot: _Snapshot, now: float) -> float:
        """The instant before which no link can change, taken at the anchor.

        That is the earliest instant a pair of hosts could cross the radio
        boundary: the grid's
        :meth:`~repro.net.spatial.SpatialGridIndex.link_certificate` over
        the anchor's leg speeds, capped at the first leg boundary in the
        fleet (the next leg may be faster).  It is taken at ``now``, the
        first tick after the anchor, and a certificate that cannot reach
        ``now`` comes back as the anchor itself, often after a few pairs.
        A mobility model that reports no legs gets no certificate.
        """

        anchor = snapshot.anchor
        motion = self._fleet_motion(anchor)
        if motion is None:
            return anchor
        speeds, horizon = motion
        if horizon <= now:
            return horizon
        bound = snapshot.grid.link_certificate(
            speeds, self.radio_range, _CERTIFICATE_MARGIN, now - anchor
        )
        return min(horizon, anchor + bound)

    def _fleet_motion(
        self, now: float
    ) -> tuple[dict[str, float] | kernels.np.ndarray, float] | None:
        """``(speeds, first leg boundary)`` of the registered hosts at
        ``now``, or ``None`` when some model reports no legs.

        Speeds are aligned with the grid: an array on the vectorized path, a
        dict on the scalar one.
        """

        if self._vectorized:
            _, table = self._current_leg_table()
            if table.opaque.any():
                return None
            table.refresh(now)
            horizon = float(table.valid_until.min()) if len(table) else math.inf
            return table.speed, horizon
        rows = self._motion_rows
        if self._motion_rows_version != self._version:
            rows.clear()
            self._motion_rows_version = self._version
        for host in self.host_ids:
            row = rows.get(host)
            # LegTable's refresh rule: stale once the segment ended before now.
            if row is None or (row[0] <= now and row[2] < now):
                mobility = self._mobility.get(host)
                if mobility is None:
                    row = (math.inf, 0.0, now)  # never placed: pinned at the origin
                else:
                    motion_at = getattr(mobility, "motion_at", None)
                    if motion_at is None:
                        return None
                    valid_until, _, _, _, speed = motion_at(now)
                    row = (valid_until, speed, now)
                rows[host] = row
        speeds = {host: row[1] for host, row in rows.items()}
        return speeds, min((row[0] for row in rows.values()), default=math.inf)

    # -- vectorized geometry ------------------------------------------------
    def _current_leg_table(self) -> tuple[list[str], kernels.LegTable]:
        """The population's leg arrays, rebuilt on membership/placement
        changes (re-fetching rows is the only cost of a rebuild)."""

        if self._leg_table is None or self._leg_table_version != self._version:
            self._leg_hosts = sorted(self.host_ids)
            self._leg_table = kernels.LegTable(
                [self._mobility.get(host) for host in self._leg_hosts]
            )
            self._leg_table_version = self._version
        return self._leg_hosts, self._leg_table

    def _build_snapshot_vectorized(self, now: float) -> _Snapshot:
        """One batched leg replay instead of n ``position_at`` calls."""

        hosts, table = self._current_leg_table()
        xs, ys = table.positions_at(now)
        grid = kernels.VectorGridIndex(
            hosts, xs, ys, padded_cell_size(self.radio_range)
        )
        # Positions stay in the grid's arrays; the lazy view builds Points
        # only when somebody actually asks for one.
        return _Snapshot(
            now, self._version, self.radio_range, kernels.LazyPositions(grid), grid
        )

    # -- event-driven maintenance -------------------------------------------
    def _next_move_time(self, host_id: str, time: float) -> float:
        """When ``host_id`` may next change position (``inf`` = never).

        Comes straight from the mobility model's trajectory geometry
        (current leg / pause boundaries).  A model without
        ``next_move_time`` is conservatively treated as always moving.
        """

        mobility = self._mobility.get(host_id)
        if mobility is None:
            return math.inf  # never placed: pinned at the origin
        reporter = getattr(mobility, "next_move_time", None)
        if reporter is None:
            return time
        return reporter(time)

    def _rebuild_move_heap(self, now: float) -> None:
        if self._vectorized:
            hosts, table = self._current_leg_table()
            np = kernels.np
            move_times = table.next_move_times(now, np.arange(len(hosts)))
            heap = []
            for host, move_time in zip(hosts, move_times.tolist()):
                if math.isnan(move_time):  # opaque model: ask it directly
                    move_time = self._next_move_time(host, now)
                if move_time < math.inf:
                    heap.append((move_time, host))
        else:
            heap = [
                (move_time, host)
                for host in self.host_ids
                if (move_time := self._next_move_time(host, now)) < math.inf
            ]
        heapq.heapify(heap)
        self._move_heap = heap

    def _advance_snapshot(self, snapshot: _Snapshot, now: float) -> None:
        """Carry the snapshot forward to ``now``, touching only movable hosts.

        Runs once the link certificate has expired, or when a host outside
        the grid needs the grid at ``now``; ``now`` becomes the anchor of the
        next certificate.  Hosts whose next-possible-move time lies beyond
        ``now`` are provably where they were — their positions, neighbour
        memos, and epochs carry over untouched.  The hosts popped off the
        heap are re-evaluated; the ones that actually moved are relocated in
        the grid and their radio discs compared before/after.  Memos are
        dropped only for hosts incident to a link that appeared or
        disappeared, and the component labelling only when at least one
        such link exists.
        """

        snapshot.time = snapshot.anchor = now
        snapshot.certified_until = None
        if self._vectorized:
            self._advance_snapshot_vectorized(snapshot, now)
        else:
            self._advance_snapshot_scalar(snapshot, now)

    def _advance_snapshot_scalar(self, snapshot: _Snapshot, now: float) -> None:
        heap = self._move_heap
        if not heap or heap[0][0] >= now:
            return
        moved: list[tuple[str, Point]] = []
        while heap and heap[0][0] < now:
            _, host = heapq.heappop(heap)
            old = snapshot.positions.get(host)
            if old is None:
                continue  # stale entry from before a membership change
            self.hosts_reevaluated += 1
            new = self._position_at(host, now)
            next_time = self._next_move_time(host, now)
            if next_time < math.inf:
                heapq.heappush(heap, (next_time, host))
            if new != old:
                moved.append((host, new))
        if not moved:
            return
        self.hosts_moved += len(moved)
        grid = snapshot.grid
        if len(moved) * 4 >= len(snapshot.positions):
            # Most of the population moved: comparing every mover's radio
            # disc would cost more than the lazy recomputation it tries to
            # save.  Apply the moves (still O(moved) grid work, no O(n)
            # rebuild) and drop the geometry memos wholesale — queries then
            # recompute lazily, exactly as on the rebuild path.
            for host, new in moved:
                snapshot.positions[host] = new
                grid.move(host, new)
            snapshot.neighbours.clear()
            snapshot.epochs.clear()
            snapshot.components = None
            return
        radius = self.radio_range
        # Radio discs on the *old* positions (of every host) first, then
        # apply all moves, then discs on the new positions: the symmetric
        # differences are exactly the links that changed across the tick.
        old_discs = [grid.near(snapshot.positions[host], radius) for host, _ in moved]
        for host, new in moved:
            snapshot.positions[host] = new
            grid.move(host, new)
        changed: set[str] = set()
        for (host, new), old_disc in zip(moved, old_discs):
            delta = grid.near(new, radius) ^ old_disc
            if delta:
                changed.add(host)
                changed |= delta
        if not changed:
            return  # every mover kept its exact link set: all memos survive
        snapshot.components = None
        for host in changed:
            snapshot.neighbours.pop(host, None)
            snapshot.epochs.pop(host, None)

    def _advance_snapshot_vectorized(self, snapshot: _Snapshot, now: float) -> None:
        """The same advance, with every per-host loop batched: one leg
        replay for all popped hosts, one grid relocation, and the changed
        link set from a single symmetric difference over encoded disc
        pairs — exactly the scalar path's before/after-disc comparison.
        """

        heap = self._move_heap
        if not heap or heap[0][0] >= now:
            return
        grid: kernels.VectorGridIndex = snapshot.grid
        # Drain the due entries.  Sparse ticks (a few movers out of the
        # fleet) pop normally; once the tick proves dense the remaining due
        # entries are split off in one partition pass and the survivors
        # re-heapified — O(n) list work instead of O(n log n) sifts.
        popped: list[str] = []
        while heap and heap[0][0] < now:
            _, host = heapq.heappop(heap)
            if host in grid:  # else: stale pre-membership entry
                popped.append(host)
            if len(popped) >= 32 and heap and heap[0][0] < now:
                due = [entry[1] for entry in heap if entry[0] < now]
                heap[:] = [entry for entry in heap if entry[0] >= now]
                heapq.heapify(heap)
                popped.extend(host for host in due if host in grid)
                break
        if not popped:
            return
        self.hosts_reevaluated += len(popped)
        np = kernels.np
        _, table = self._current_leg_table()
        if len(popped) == len(grid):
            # The whole fleet is due (every heap entry is per-host unique):
            # take the rows in grid order and skip the id -> index lookups.
            popped = list(grid.ids)
            indices = np.arange(len(popped), dtype=np.intp)
        else:
            indices = np.fromiter(
                (grid.index_of(host) for host in popped),
                dtype=np.intp,
                count=len(popped),
            )
        new_xs, new_ys = table.positions_at(now, indices)
        move_times = table.next_move_times(now, indices)
        nan_mask = np.isnan(move_times)
        if nan_mask.any():  # opaque models: ask them directly
            move_times = move_times.copy()
            for row in np.nonzero(nan_mask)[0].tolist():
                move_times[row] = self._next_move_time(popped[row], now)
        finite = move_times < math.inf
        if finite.all():
            refills = list(zip(move_times.tolist(), popped))
        else:
            times = move_times.tolist()
            refills = [(times[row], popped[row]) for row in np.nonzero(finite)[0].tolist()]
        if len(refills) * 4 >= len(heap):
            heap.extend(refills)
            heapq.heapify(heap)
        else:
            for entry in refills:
                heapq.heappush(heap, entry)
        moved_mask = (new_xs != grid.xs[indices]) | (new_ys != grid.ys[indices])
        if not moved_mask.any():
            return
        moved_indices = indices[moved_mask]
        moved_xs = new_xs[moved_mask]
        moved_ys = new_ys[moved_mask]
        self.hosts_moved += len(moved_indices)
        ids = grid.ids
        radius = self.radio_range
        if len(moved_indices) * 4 >= len(snapshot.positions):
            # Same threshold as the scalar path: most of the population
            # moved, so drop the memos wholesale instead of diffing discs.
            # The lazy position view tracks the grid arrays by itself.
            grid.move_many(moved_indices, moved_xs, moved_ys)
            snapshot.neighbours.clear()
            snapshot.epochs.clear()
            snapshot.components = None
            return
        # Discs around the movers' old positions, then the new ones; encode
        # each (mover, member) pair as one integer so the links that changed
        # across the tick fall out of a single set symmetric difference.
        old_queries, old_members = grid.disc_pairs(moved_indices, radius)
        grid.move_many(moved_indices, moved_xs, moved_ys)
        new_queries, new_members = grid.disc_pairs(moved_indices, radius)
        size = len(grid)
        changed_codes = np.setxor1d(
            moved_indices[old_queries] * size + old_members,
            moved_indices[new_queries] * size + new_members,
        )
        if not changed_codes.size:
            return  # every mover kept its exact link set: all memos survive
        snapshot.components = None
        changed = np.unique(
            np.concatenate([changed_codes // size, changed_codes % size])
        )
        for index in changed.tolist():
            host = ids[index]
            snapshot.neighbours.pop(host, None)
            snapshot.epochs.pop(host, None)

    def position_of(self, host_id: str) -> Point:
        """Current position of ``host_id`` (origin when never placed)."""

        snapshot = self._current_snapshot()
        if snapshot.anchor == snapshot.time:
            position = snapshot.positions.get(host_id)
            if position is not None:
                return position
        # Placed but not (or no longer) registered, or a certified tick
        # (the grid holds the anchor's positions): ask the mobility model,
        # which the leg replay matches bit for bit.
        return self._position_at(host_id, snapshot.time)

    def positions(self) -> Mapping[str, Point]:
        """Snapshot of every attached host's current position (one evaluation
        of each mobility model per simulated instant, shared by all queries)."""

        snapshot = self._current_snapshot()
        if snapshot.anchor == snapshot.time:
            return dict(snapshot.positions)
        return {
            host: self._position_at(host, snapshot.time) for host in snapshot.positions
        }

    # -- connectivity -------------------------------------------------------------
    def in_radio_range(self, host_a: str, host_b: str) -> bool:
        """True when the two hosts can currently exchange frames directly.

        Between two grid hosts the answer is neighbour-set membership, the
        same ``hypot`` test with the operands swapped; otherwise both
        positions are taken at this instant.
        """

        if host_a == host_b:
            return True
        grid = self._current_snapshot().grid
        if host_a in grid and host_b in grid:
            return host_b in self.neighbours_of(host_a)
        distance = self.position_of(host_a).distance_to(self.position_of(host_b))
        return distance <= self.radio_range

    def neighbours_of(self, host_id: str) -> frozenset[str]:
        """Hosts currently within direct radio range of ``host_id``.

        O(k) in the local host density via the grid snapshot; memoized per
        snapshot for grid hosts.  A host outside the grid (placed but not
        registered) is not covered by the link certificate, so its set is
        computed afresh each time, against a grid brought to this instant.
        """

        snapshot = self._current_snapshot()
        cached = snapshot.neighbours.get(host_id)
        if cached is not None:
            return cached
        if host_id not in snapshot.grid:
            if snapshot.anchor != snapshot.time:
                self._advance_snapshot(snapshot, snapshot.time)
            position = self._position_at(host_id, snapshot.time)
            return snapshot.grid.near(position, self.radio_range) - {host_id}
        neighbours = snapshot.grid.neighbours_of(host_id, self.radio_range)
        snapshot.neighbours[host_id] = neighbours
        return neighbours

    # -- predictive link-break scheduling -----------------------------------
    def _current_leg(
        self, host_id: str
    ) -> tuple[float, Point, tuple[float, float]] | None:
        """The host's current trajectory leg, or ``None`` when unpredictable."""

        mobility = self._mobility.get(host_id)
        if mobility is None:
            # Never placed: pinned at the origin forever.
            return math.inf, Point(0.0, 0.0), (0.0, 0.0)
        reporter = getattr(mobility, "leg_at", None)
        if reporter is None:
            return None
        return reporter(self.scheduler.clock.now())

    def _predict_link_break(
        self, host_a: str, host_b: str, now: float
    ) -> tuple[float | None, float]:
        """``(exact break instant or None, no-break horizon)`` for link a-b.

        The instant is exact only while both endpoints stay on their
        current legs: a crossing that falls beyond either leg's validity is
        not armed (the lazy epoch comparison catches it at the next query
        instead), so every armed instant is a true boundary crossing under
        the geometry known at arming time.  When no crossing can be
        certified, the horizon is how long that verdict provably holds —
        the earlier leg boundary, or forever for models that report no
        legs at all.
        """

        leg_a = self._current_leg(host_a)
        leg_b = self._current_leg(host_b)
        if leg_a is None or leg_b is None:
            # Unpredictable mobility model: never a certified crossing
            # (the cache is reset if the host is re-placed).
            return None, math.inf
        end_a, position_a, velocity_a = leg_a
        end_b, position_b, velocity_b = leg_b
        valid_until = min(end_a, end_b)
        crossing = link_crossing_time(
            position_a, velocity_a, position_b, velocity_b, self.radio_range
        )
        if not math.isfinite(crossing) or now + crossing > valid_until:
            return None, valid_until
        # Nudge past the boundary so the endpoints are strictly out of range
        # when the event evaluates them (at the root itself the distance is
        # exactly the radius, which still counts as in range).
        instant = now + crossing
        return instant + max(1e-9, instant * 1e-12), valid_until

    def _arm_route_predictions(self, hops: tuple[str, ...]) -> None:
        """Schedule an epoch-bump at each used link's crossing instant.

        Called for the hop sequence a message just crossed; each link is
        watched by at most one in-flight event (re-armed on its next use
        after firing).
        """

        now = self.scheduler.clock.now()
        pending: list[tuple[str, str]] = []
        for first, second in zip(hops, hops[1:]):
            pair = (first, second) if first < second else (second, first)
            armed = self._armed_links.get(pair)
            if armed is not None and armed > now:
                continue  # an event for this link is already in flight
            horizon = self._no_break_until.get(pair)
            if horizon is not None and now < horizon:
                continue  # provably cannot break before `horizon`
            pending.append(pair)
        if not pending:
            return
        if self._vectorized and len(pending) > 1:
            predictions = self._predict_link_breaks_batched(pending, now)
        else:
            predictions = [
                self._predict_link_break(pair[0], pair[1], now)
                for pair in pending
            ]
        for pair, (instant, no_break_until) in zip(pending, predictions):
            if instant is None:
                if no_break_until > now:
                    self._no_break_until[pair] = no_break_until
                continue
            self._no_break_until.pop(pair, None)
            self._armed_links[pair] = instant
            self.link_breaks_predicted += 1
            self.scheduler.schedule_at(
                max(instant, now),
                lambda p=pair: self._on_predicted_break(p),
                description=f"link-break {pair[0]}~{pair[1]}",
            )

    def _predict_link_breaks_batched(
        self, pairs: list[tuple[str, str]], now: float
    ) -> list[tuple[float | None, float]]:
        """:meth:`_predict_link_break` over a route's links in one call.

        Legs are fetched once per distinct endpoint; all boundary-crossing
        quadratics are then solved in a single
        :func:`~repro.net.kernels.crossing_times` evaluation, whose roots
        are bit-identical to the scalar closed form.
        """

        legs: dict[str, tuple[float, Point, tuple[float, float]] | None] = {}
        for pair in pairs:
            for host in pair:
                if host not in legs:
                    legs[host] = self._current_leg(host)
        predictions: list[tuple[float | None, float] | None] = []
        solvable: list[int] = []
        columns: list[tuple[float, ...]] = []
        horizons: list[float] = []
        for index, pair in enumerate(pairs):
            leg_a, leg_b = legs[pair[0]], legs[pair[1]]
            if leg_a is None or leg_b is None:
                # Unpredictable mobility model: never a certified crossing.
                predictions.append((None, math.inf))
                continue
            end_a, position_a, velocity_a = leg_a
            end_b, position_b, velocity_b = leg_b
            predictions.append(None)  # placeholder: filled from the batch
            solvable.append(index)
            horizons.append(min(end_a, end_b))
            columns.append(
                (
                    position_a.x, position_a.y, velocity_a[0], velocity_a[1],
                    position_b.x, position_b.y, velocity_b[0], velocity_b[1],
                )
            )
        if solvable:
            crossings = kernels.crossing_times(
                *zip(*columns), self.radio_range
            )
            for index, valid_until, crossing in zip(
                solvable, horizons, crossings.tolist()
            ):
                if not math.isfinite(crossing) or now + crossing > valid_until:
                    predictions[index] = (None, valid_until)
                    continue
                # Same boundary nudge as the scalar path.
                instant = now + crossing
                predictions[index] = (
                    instant + max(1e-9, instant * 1e-12), valid_until
                )
        return predictions

    def _on_predicted_break(self, pair: tuple[str, str]) -> None:
        """Bump both endpoints' epochs at the predicted crossing instant.

        The bump is O(1) and *advisory*: the counters advance and the
        endpoints' established link sets are forgotten, so the next route
        validation through either host sees a changed epoch and re-checks
        its links — from exactly the instant the link broke, not from the
        next time a query happened to land.  A misprediction (a leg changed
        after arming) merely causes one spurious re-check; bumps are never
        destructive, and the handler arms no new predictions, so events
        cannot chain and cost nothing beyond the dictionary updates.
        """

        self._armed_links.pop(pair, None)
        self.link_break_events += 1
        hosts = self.host_ids
        for host in pair:
            if host not in hosts:
                continue
            self._link_epochs[host] = self._link_epochs.get(host, 0) + 1
            # Forget the set the epoch was established against: the next
            # query re-establishes it (and may bump again — harmless).
            self._epoch_links.pop(host, None)
            self.predicted_epoch_bumps += 1
            snapshot = self._snapshot
            if snapshot is not None:
                snapshot.epochs.pop(host, None)

    def link_epoch(self, host_id: str) -> int:
        """The host's link epoch: advances whenever its neighbour set changes.

        Evaluated lazily (and memoized per instant): the first query at a
        new instant compares the host's current neighbour set against the
        set recorded when its epoch was last established and bumps the
        counter on a difference.  Cached routes validate against these
        counters instead of re-walking their links.
        """

        snapshot = self._current_snapshot()
        cached = snapshot.epochs.get(host_id)
        if cached is not None:
            return cached
        current_links = self.neighbours_of(host_id)
        if self._epoch_links.get(host_id) != current_links:
            self._link_epochs[host_id] = self._link_epochs.get(host_id, 0) + 1
            self._epoch_links[host_id] = current_links
        epoch = self._link_epochs.get(host_id, 0)
        if host_id in snapshot.grid:  # see neighbours_of
            snapshot.epochs[host_id] = epoch
        return epoch

    def _component_labels(self) -> dict[str, int]:
        snapshot = self._current_snapshot()
        if snapshot.components is None:
            if self._vectorized:
                # One whole-population disc sweep yields every neighbour
                # set *and* the component partition: warm the per-host
                # memos as a side effect (the sets are exactly what the
                # per-host queries would compute).
                neighbour_sets, labels = snapshot.grid.neighbour_sets_and_labels(
                    self.radio_range
                )
                for host, neighbours in neighbour_sets.items():
                    snapshot.neighbours.setdefault(host, neighbours)
                snapshot.components = labels
            else:
                snapshot.components = snapshot.grid.component_labels(
                    self.radio_range
                )
        return snapshot.components

    def is_reachable(self, sender: str, recipient: str) -> bool:
        """True when ``sender`` can currently reach ``recipient``.

        Route first (see the module notes): a direct link, labels already
        computed at this instant, or a still-valid cached AODV route
        answers.  :meth:`AodvRouter.was_cached` only peeks, so discovery
        charges, router counters and link-break predictions stay exactly
        as ``latency_for`` leaves them.  Other pairs compute the labels.
        """

        if sender == recipient:
            return True
        if self.in_radio_range(sender, recipient):
            return True
        if not self.multi_hop:
            return False
        labels = self._current_snapshot().components
        if labels is None:
            # A departed sender's links are computed from its last position
            # and never change, so its route would stay valid; the labels,
            # which hold only attached hosts, answer for it instead.
            if self.is_registered(sender) and self._router.was_cached(
                sender, recipient
            ):
                return True
            labels = self._component_labels()
        sender_label = labels.get(sender)
        return sender_label is not None and sender_label == labels.get(recipient)

    def is_connected(self) -> bool:
        """True when every pair of attached hosts can currently communicate.

        A single connected-components sweep (multi-hop) or a neighbour-count
        check (single-hop, where "connected" means every pair is in direct
        range).
        """

        hosts = self.host_ids
        if len(hosts) <= 1:
            return True
        if not self.multi_hop:
            # Single-hop "connected" = complete radio graph.  Early-exits on
            # the first host missing a neighbour.
            expected = len(hosts) - 1
            return all(len(self.neighbours_of(host)) == expected for host in hosts)
        # Answer from the memoized component labelling: one BFS per snapshot,
        # shared with is_reachable — and, under event-driven maintenance,
        # carried across ticks in which no link changed.
        labels = self._component_labels()
        return len(set(labels.values())) <= 1

    # -- latency --------------------------------------------------------------------
    def latency_for(self, message: Message) -> float:
        hops, fresh_route = self._hops_for(message.sender, message.recipient)
        if hops == 0:
            # Local delivery never touches the radio: free, and — just as
            # important for reproducibility — no draw from the seeded jitter
            # stream, so loopback traffic cannot perturb the latency
            # sequence observed by real transmissions.
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
            self._arm_route_predictions((sender, recipient))
            return 1, False
        if not self.multi_hop:
            raise HostUnreachableError(
                f"{recipient!r} is outside radio range of {sender!r}"
            )
        try:
            route, cached = self._router.lookup(sender, recipient)
        except RouteNotFound as exc:
            raise HostUnreachableError(str(exc)) from exc
        self._arm_route_predictions(route.hops)
        return route.hop_count, not cached

    # -- maintenance ------------------------------------------------------------------
    def invalidate_routes(self, flush: bool = False) -> None:
        """Signal that hosts may have moved.

        With link-epoch validation this is a no-op: movement is detected
        lazily when a cached route's hosts report changed epochs, and only
        routes whose own links broke are dropped.  Pass ``flush=True`` to
        force the original flush-everything behaviour.
        """

        if flush:
            self._router.clear()

    @property
    def router(self) -> AodvRouter:
        return self._router

    def __repr__(self) -> str:
        return (
            f"AdHocWirelessNetwork(hosts={len(self.host_ids)}, "
            f"range={self.radio_range}m, goodput={self.bytes_per_second / 1e6:.1f} MB/s)"
        )
