"""Array-oriented geometry kernels for the wireless substrate (NumPy).

The scalar geometry plane answers every question host-by-host: the snapshot
advance evaluates one mobility model at a time, a neighbour sweep runs one
``near`` query per host, and the predictive scheduler solves one quadratic
per link.  Each answer is cheap, but at fleet scale (1000+ movers) the
interpreter overhead of the per-host loop dominates the arithmetic.

This module holds the whole mover set's leg parameters in contiguous NumPy
arrays and evaluates positions, pairwise radio-disc membership, and link
boundary crossings as *batched kernels over the entire population in one
call*:

* :class:`LegTable` — per-host ``(start, origin, destination, speed,
  valid_until)`` rows fetched from the mobility models'
  ``motion_at`` (see :class:`~repro.mobility.models.MobilityModel`) and
  replayed vectorized.  The replay performs *exactly* the float operations
  of ``Point.moved_towards`` — same products, same quotient, same sums —
  so batched positions are bit-identical to the scalar path.
* :class:`VectorGridIndex` — the array mirror of
  :class:`~repro.net.spatial.SpatialGridIndex`: hosts bucketed by the same
  floor-quantised cells (candidate pairs still come from the 3×3 cell
  blocks), with whole-population disc sweeps built by vectorized
  gather/expand instead of per-host scans.
* :func:`crossing_times` — the closed-form boundary crossing of
  :func:`~repro.net.spatial.link_crossing_time` over arrays of links, with
  the identical operation sequence (NumPy float64 arithmetic is IEEE-754
  double arithmetic, and ``np.sqrt`` is correctly rounded like
  ``math.sqrt``), so each batched root equals its scalar counterpart
  bit-for-bit.

Exact boundary semantics.  The scalar membership test is
``math.hypot(dx, dy) <= radius`` with a correctly-rounded hypot; a naive
vectorized squared-distance comparison can disagree at the boundary (the
PR-3 regression: a pair whose exact separation exceeds the radius by
~1e-158 still rounds to distance == radius).  The kernels therefore
compare squared distances only *outside* a generous relative band around
``radius²`` (the band is ~1e-12 wide, thousands of times the worst-case
rounding of the squared form) and re-check the handful of borderline pairs
with scalar ``math.hypot`` — vectorized throughput with scalar-exact
verdicts, pinned by the kernel↔scalar property suite.

NumPy is an *optional* dependency: importing this module without it leaves
:func:`numpy_available` false and every scalar path untouched (the network
layer picks its scalar paths, and CI runs a no-NumPy leg to keep it that way).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Sequence

from ..mobility.geometry import Point
from .spatial import _RADIUS_SLOP

try:  # pragma: no cover - exercised via both CI legs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]


def numpy_available() -> bool:
    """True when NumPy imported and the vectorized kernels can run."""

    return np is not None


def require_numpy() -> None:
    if np is None:
        raise RuntimeError(
            "the vectorized geometry kernels require NumPy; without it the "
            "network runs its scalar paths"
        )


#: Relative half-width of the squared-distance band inside which a pair is
#: re-checked with scalar ``math.hypot``.  ``dx*dx + dy*dy`` carries at most
#: ~3 ulp (~7e-16) of relative rounding, so a 1e-12 band decides every pair
#: outside it with certainty and routes only true boundary cases (exact
#: separation within ~5e-13 of the radius) through the scalar tie-break.
_BOUNDARY_BAND = 1e-12

#: Cell codes pack ``(cell_x, cell_y)`` into one int64 as ``x * 2**32 + y``.
#: Cells beyond ±2**31 are clamped first; clamping is a monotone map applied
#: identically to bucket and query cells, so it can only *merge* distant
#: cells (a superset of candidates — the exact distance test still decides
#: membership), never hide a reachable one.
_CODE_BASE = 2**32
_CELL_LIMIT = 2**31 - 2


def _within_radius(dx, dy, radius: float):
    """Element-wise exact ``math.hypot(dx, dy) <= radius`` over arrays."""

    d2 = dx * dx + dy * dy
    r2 = radius * radius
    lo = r2 * (1.0 - _BOUNDARY_BAND)
    hi = r2 * (1.0 + _BOUNDARY_BAND)
    inside = d2 <= lo
    border = np.nonzero((d2 > lo) & (d2 <= hi))[0]
    if border.size:
        for position in border.tolist():
            inside[position] = math.hypot(dx[position], dy[position]) <= radius
    return inside


class LegTable:
    """Contiguous leg parameters for an index-aligned host population.

    Row ``i`` describes host ``i``'s current trajectory segment as fetched
    from its mobility model's ``motion_at``; hosts whose model lacks the
    method (or that were never placed: pinned at the origin) are *opaque*
    and evaluated through the scalar ``position_at`` inside the batched
    call.  Rows refresh lazily: a batched evaluation at time ``t`` first
    re-fetches the (typically few) rows whose validity expired, then
    replays every requested row in one vectorized pass.
    """

    def __init__(self, models: Sequence[object | None]) -> None:
        require_numpy()
        size = len(models)
        self._models = list(models)
        self._fetchers = [getattr(model, "motion_at", None) for model in models]
        self.start = np.zeros(size)
        self.origin_x = np.zeros(size)
        self.origin_y = np.zeros(size)
        self.dest_x = np.zeros(size)
        self.dest_y = np.zeros(size)
        self.speed = np.zeros(size)
        self.total = np.zeros(size)  # origin→destination distance (hypot)
        self.valid_until = np.full(size, -math.inf)  # force first fetch
        self.fetched_at = np.full(size, -math.inf)
        self.opaque = np.array(
            [model is not None and fetcher is None
             for model, fetcher in zip(models, self._fetchers)],
            dtype=bool,
        )
        for index, model in enumerate(models):
            if model is None:
                # Never placed: the network pins such hosts at the origin.
                self.valid_until[index] = math.inf
                self.fetched_at[index] = 0.0

    def __len__(self) -> int:
        return len(self._models)

    def _refresh_stale(self, time: float, indices) -> None:
        # A row fetched at `time` is valid *at* `time` even when its
        # validity boundary equals `time` (motion_at's contract), so only
        # rows fetched strictly earlier are stale.
        stale = np.nonzero(
            (self.valid_until[indices] <= time) & (self.fetched_at[indices] < time)
        )[0]
        if not stale.size:
            return
        # Fetch the fresh rows into plain lists, then write each column in
        # one fancy-indexed assignment — bulk stores instead of eight
        # per-row scalar array writes.
        rows: list[int] = []
        columns: tuple[list[float], ...] = ([], [], [], [], [], [], [], [])
        starts, origin_xs, origin_ys, dest_xs, dest_ys, speeds, totals, until = columns
        hypot = math.hypot
        for position in stale.tolist():
            index = int(indices[position])
            if self.opaque[index] or self._models[index] is None:
                continue
            valid_until, start, origin, destination, speed = self._fetchers[index](time)
            rows.append(index)
            starts.append(start)
            origin_xs.append(origin.x)
            origin_ys.append(origin.y)
            dest_xs.append(destination.x)
            dest_ys.append(destination.y)
            speeds.append(speed)
            # Exactly the `total` that Point.moved_towards computes.
            totals.append(hypot(origin.x - destination.x, origin.y - destination.y))
            until.append(valid_until)
        if not rows:
            return
        self.start[rows] = starts
        self.origin_x[rows] = origin_xs
        self.origin_y[rows] = origin_ys
        self.dest_x[rows] = dest_xs
        self.dest_y[rows] = dest_ys
        self.speed[rows] = speeds
        self.total[rows] = totals
        self.valid_until[rows] = until
        self.fetched_at[rows] = time

    def refresh(self, time: float) -> None:
        """Bring every row to the leg its model reports at ``time``."""

        self._refresh_stale(time, np.arange(len(self._models)))

    def positions_at(self, time: float, indices=None):
        """``(xs, ys)`` of the requested hosts at ``time`` (all by default).

        Bit-identical to calling each model's scalar ``position_at``: the
        replay runs the exact operation sequence of ``moved_towards`` on
        the fetched leg parameters.
        """

        if indices is None:
            indices = np.arange(len(self._models))
        else:
            indices = np.asarray(indices, dtype=np.intp)
        self._refresh_stale(time, indices)
        travelled = (time - self.start[indices]) * self.speed[indices]
        total = self.total[indices]
        dest_x = self.dest_x[indices]
        dest_y = self.dest_y[indices]
        at_destination = (total == 0.0) | (travelled >= total)
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = travelled / total
        origin_x = self.origin_x[indices]
        origin_y = self.origin_y[indices]
        with np.errstate(invalid="ignore"):
            xs = np.where(
                at_destination, dest_x, origin_x + (dest_x - origin_x) * fraction
            )
            ys = np.where(
                at_destination, dest_y, origin_y + (dest_y - origin_y) * fraction
            )
        opaque = np.nonzero(self.opaque[indices])[0]
        for position in opaque.tolist():
            point = self._models[int(indices[position])].position_at(time)
            xs[position] = point.x
            ys[position] = point.y
        return xs, ys

    def next_move_times(self, time: float, indices):
        """When each host may next change position (see the mobility models'
        ``next_move_time``): ``time`` itself mid-leg, the current rest
        segment's end otherwise.  Opaque rows report ``nan`` and must be
        resolved through the model by the caller.
        """

        indices = np.asarray(indices, dtype=np.intp)
        self._refresh_stale(time, indices)
        moving = (self.speed[indices] != 0.0) & (time < self.valid_until[indices])
        times = np.where(moving, time, self.valid_until[indices])
        if self.opaque.any():
            times = np.where(self.opaque[indices], math.nan, times)
        return times


class VectorGridIndex:
    """Array mirror of :class:`~repro.net.spatial.SpatialGridIndex`.

    Same uniform floor-quantised cells, same padded scan range, same
    inclusive-radius membership — but positions live in contiguous arrays,
    buckets are a single argsort, and whole-population disc sweeps are one
    vectorized gather instead of n Python loops.  Single-host queries
    (``near`` / ``neighbours_of``) touch a few dozen candidates, too few to
    repay array set-up, so they scan the same 3×3 buckets in plain Python
    with the scalar grid's exact ``math.hypot`` test; the two index types
    are interchangeable behind ``AdHocWirelessNetwork``'s snapshot.
    """

    def __init__(self, ids: Sequence[str], xs, ys, cell_size: float) -> None:
        require_numpy()
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self.ids = tuple(ids)
        self._index = {host: i for i, host in enumerate(self.ids)}
        self._ids_array = np.array(self.ids, dtype=object)  # O(1) index→id gathers
        self.xs = np.ascontiguousarray(xs, dtype=float)
        self.ys = np.ascontiguousarray(ys, dtype=float)
        self._rebuild_buckets()

    # -- basic views --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._index

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self.ids)

    def index_of(self, host_id: str) -> int:
        return self._index[host_id]

    def position_of(self, host_id: str) -> Point:
        index = self._index[host_id]
        return Point(float(self.xs[index]), float(self.ys[index]))

    # -- bucket maintenance -------------------------------------------------
    def _rebuild_buckets(self) -> None:
        with np.errstate(invalid="ignore"):
            cell_x = np.clip(
                np.floor_divide(self.xs, self.cell_size), -_CELL_LIMIT, _CELL_LIMIT
            )
            cell_y = np.clip(
                np.floor_divide(self.ys, self.cell_size), -_CELL_LIMIT, _CELL_LIMIT
            )
        self._cell_x = cell_x.astype(np.int64)
        self._cell_y = cell_y.astype(np.int64)
        self._codes = self._cell_x * _CODE_BASE + self._cell_y
        self._order = np.argsort(self._codes, kind="stable")
        sorted_codes = self._codes[self._order]
        self._cell_codes, self._cell_starts = np.unique(
            sorted_codes, return_index=True
        )
        self._cell_counts = np.diff(
            np.append(self._cell_starts, len(sorted_codes))
        )
        self._scan_buckets: dict[int, list[tuple[str, float, float]]] | None = None

    def move_many(self, indices, xs, ys) -> None:
        """Relocate a batch of hosts and re-bucket in one vectorized pass."""

        self.xs[indices] = xs
        self.ys[indices] = ys
        self._rebuild_buckets()

    def _scalar_buckets(self) -> dict[int, list[tuple[str, float, float]]]:
        """``cell code -> [(host, x, y), ...]`` for single-host queries.

        Built on the first query after each re-bucketing, from the sorted
        bucket arrays, so a tick that runs no single-host query pays nothing.
        """

        buckets = self._scan_buckets
        if buckets is None:
            ids, xs, ys = self.ids, self.xs.tolist(), self.ys.tolist()
            members = [(ids[i], xs[i], ys[i]) for i in self._order.tolist()]
            buckets = {
                code: members[start : start + count]
                for code, start, count in zip(
                    self._cell_codes.tolist(),
                    self._cell_starts.tolist(),
                    self._cell_counts.tolist(),
                )
            }
            self._scan_buckets = buckets
        return buckets

    # -- candidate gathering ------------------------------------------------
    def _reach(self, radius: float) -> int:
        # Same padded scan range as SpatialGridIndex.near.
        return math.ceil(radius * _RADIUS_SLOP / self.cell_size)

    def _bucket_lookup(self, codes):
        """``(starts, counts)`` of the buckets holding each queried code."""

        if not len(self._cell_codes):
            zeros = np.zeros(len(codes), dtype=np.int64)
            return zeros, zeros
        locations = np.searchsorted(self._cell_codes, codes)
        locations = np.minimum(locations, len(self._cell_codes) - 1)
        found = self._cell_codes[locations] == codes
        starts = self._cell_starts[locations]
        counts = np.where(found, self._cell_counts[locations], 0)
        return starts, counts

    def _candidate_pairs(self, query_cell_x, query_cell_y, radius: float):
        """Expand every (query, bucket-member) candidate pair around the
        queried cells — the vectorized equivalent of the scalar 3×3 scan.

        Postcondition: pairs come out grouped by query, in nondecreasing
        query order (each query owns a contiguous block of offsets, and the
        expansions preserve that order); downstream per-query splits rely
        on it.
        """

        reach = self._reach(radius)
        num_queries = len(query_cell_x)
        if not num_queries:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        # Every query scans the same (2*reach+1)² block of offsets; shifting
        # all of them at once gives one code array — and one bucket lookup,
        # one expansion — for the whole scan instead of one per offset.
        deltas = np.arange(-reach, reach + 1, dtype=np.int64)
        shifted_x = np.clip(
            query_cell_x[:, None] + deltas, -_CELL_LIMIT, _CELL_LIMIT
        )
        shifted_y = np.clip(
            query_cell_y[:, None] + deltas, -_CELL_LIMIT, _CELL_LIMIT
        )
        codes = (
            shifted_x[:, :, None] * _CODE_BASE + shifted_y[:, None, :]
        ).reshape(-1)
        starts, counts = self._bucket_lookup(codes)
        total = int(counts.sum())
        if not total:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        span = len(deltas) * len(deltas)
        code_queries = np.repeat(np.arange(num_queries, dtype=np.intp), span)
        queries = np.repeat(code_queries, counts)
        ends = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(ends - counts, counts)
        candidates = self._order[np.repeat(starts, counts) + offsets]
        return queries, candidates

    # -- range queries ------------------------------------------------------
    def near(self, point: Point, radius: float) -> frozenset[str]:
        """Every indexed host within ``radius`` of ``point`` (inclusive) —
        exactly :meth:`SpatialGridIndex.near`, over the clamped cell codes."""

        if radius < 0:
            raise ValueError("radius must be non-negative")
        buckets = self._scalar_buckets()
        reach = self._reach(radius)
        x, y = point.x, point.y
        cell_x = int(min(max(x // self.cell_size, -_CELL_LIMIT), _CELL_LIMIT))
        cell_y = int(min(max(y // self.cell_size, -_CELL_LIMIT), _CELL_LIMIT))
        rows = [
            min(max(shifted, -_CELL_LIMIT), _CELL_LIMIT) * _CODE_BASE
            for shifted in range(cell_x - reach, cell_x + reach + 1)
        ]
        columns = [
            min(max(shifted, -_CELL_LIMIT), _CELL_LIMIT)
            for shifted in range(cell_y - reach, cell_y + reach + 1)
        ]
        hypot = math.hypot
        found: list[str] = []
        for row in rows:
            for column in columns:
                bucket = buckets.get(row + column)
                if bucket:
                    for host, host_x, host_y in bucket:
                        if hypot(host_x - x, host_y - y) <= radius:
                            found.append(host)
        return frozenset(found)

    def neighbours_of(self, host_id: str, radius: float) -> frozenset[str]:
        """Hosts within ``radius`` of ``host_id``, excluding itself."""

        return self.near(self.position_of(host_id), radius) - {host_id}

    def disc_pairs(self, indices, radius: float):
        """``(query_index, member_index)`` pairs of the radio discs around a
        subset of hosts, self-pairs included (as in the scalar ``near``).

        ``query_index`` values index into ``indices``' positions — i.e. the
        pair ``(q, m)`` says host ``indices[q]``'s disc contains host ``m``.
        """

        indices = np.asarray(indices, dtype=np.intp)
        queries, candidates = self._candidate_pairs(
            self._cell_x[indices], self._cell_y[indices], radius
        )
        if not queries.size:
            return queries, candidates
        inside = _within_radius(
            self.xs[indices[queries]] - self.xs[candidates],
            self.ys[indices[queries]] - self.ys[candidates],
            radius,
        )
        return queries[inside], candidates[inside]

    def all_neighbour_pairs(self, radius: float):
        """``(host, neighbour)`` index pairs over the whole population
        (self-pairs removed) — one batched sweep for every disc at once."""

        all_indices = np.arange(len(self.ids), dtype=np.intp)
        queries, members = self.disc_pairs(all_indices, radius)
        keep = queries != members
        return queries[keep], members[keep]

    def neighbour_sets_and_labels(
        self, radius: float
    ) -> tuple[dict[str, frozenset[str]], dict[str, int]]:
        """Every host's neighbour set and connectivity-component label from
        one whole-population sweep.

        The sets equal per-host ``neighbours_of`` answers exactly; the
        labels partition hosts identically to the scalar BFS (label values
        are arbitrary on both paths — only the partition is meaningful).
        """

        size = len(self.ids)
        neighbour_sets: dict[str, frozenset[str]] = {}
        labels: dict[str, int] = {}
        if not size:
            return neighbour_sets, labels
        # all_neighbour_pairs preserves _candidate_pairs' grouped-by-query
        # order, so the per-host rows are already contiguous runs.
        queries, members = self.all_neighbour_pairs(radius)
        counts = np.bincount(queries, minlength=size)
        boundaries = np.cumsum(counts)
        member_list = members.tolist()
        boundary_list = boundaries.tolist()
        ids = self.ids
        # One vectorized index→id gather, then C-level slice/frozenset maps:
        # no per-member Python frames anywhere in the translation.
        member_ids = self._ids_array[members].tolist()
        row_slices = list(map(slice, [0] + boundary_list[:-1], boundary_list))
        adjacency: list[list[int]] = list(map(member_list.__getitem__, row_slices))
        neighbour_sets.update(
            zip(ids, map(frozenset, map(member_ids.__getitem__, row_slices)))
        )
        # One BFS sweep over the int adjacency (no string or set churn).
        seen = [False] * size
        next_label = 0
        for seed in range(size):
            if seen[seed]:
                continue
            seen[seed] = True
            frontier = [seed]
            labels[ids[seed]] = next_label
            while frontier:
                current = frontier.pop()
                for member in adjacency[current]:
                    if not seen[member]:
                        seen[member] = True
                        labels[ids[member]] = next_label
                        frontier.append(member)
            next_label += 1
        return neighbour_sets, labels

    def component_labels(self, radius: float) -> dict[str, int]:
        """Map every host to a connectivity-component label (cf.
        :meth:`SpatialGridIndex.component_labels`)."""

        return self.neighbour_sets_and_labels(radius)[1]

    def link_certificate(
        self, speeds, radius: float, margin_fraction: float, needed: float
    ) -> float:
        """:meth:`SpatialGridIndex.link_certificate` with ``speeds`` an array
        aligned with :attr:`ids`: the same float operations, so the same
        answer bit for bit.

        Query hosts go in growing chunks, so a certificate that cannot reach
        ``needed`` is usually refuted by the first few dozen hosts' pairs.
        """

        top = float(speeds.max()) if len(speeds) else 0.0
        if top == 0.0:
            return math.inf
        extent = float(max(np.abs(self.xs).max(), np.abs(self.ys).max()))
        margin = margin_fraction * (radius + extent)
        bound = (radius - margin) / (2.0 * top)
        if bound <= needed:
            return 0.0
        size = len(self.ids)
        start, chunk = 0, 8
        while start < size:
            hosts = np.arange(start, min(start + chunk, size), dtype=np.intp)
            start += chunk
            chunk *= 4
            queries, candidates = self._candidate_pairs(
                self._cell_x[hosts], self._cell_y[hosts], 2.0 * radius
            )
            queries = hosts[queries]
            # Each unordered pair once (from its lower index), no self-pairs.
            keep = queries < candidates
            queries, candidates = queries[keep], candidates[keep]
            closing = speeds[queries] + speeds[candidates]
            moving = closing != 0.0
            if not moving.any():
                continue
            queries, candidates = queries[moving], candidates[moving]
            dx = self.xs[queries] - self.xs[candidates]
            dy = self.ys[queries] - self.ys[candidates]
            times = (
                np.abs(np.sqrt(dx * dx + dy * dy) - radius) - margin
            ) / closing[moving]
            smallest = float(times.min())
            if smallest <= needed:
                return 0.0
            bound = min(bound, smallest)
        return bound

    def __repr__(self) -> str:
        return (
            f"VectorGridIndex(hosts={len(self.ids)}, "
            f"cells={len(self._cell_codes)}, cell_size={self.cell_size})"
        )


class LazyPositions(Mapping):
    """Read-only ``host -> Point`` mapping view over a :class:`VectorGridIndex`.

    The vectorized snapshot keeps positions only as the grid's coordinate
    arrays; materialising a :class:`Point` per host per tick would cost
    more than the batched advance it accompanies.  This view constructs
    Points on access instead — membership, length, and iteration come
    straight from the grid, and after ``move_many`` the view reflects the
    new coordinates with no per-host work at all.
    """

    __slots__ = ("_grid",)

    def __init__(self, grid: VectorGridIndex) -> None:
        self._grid = grid

    def __getitem__(self, host_id: str) -> Point:
        if host_id not in self._grid:
            raise KeyError(host_id)
        return self._grid.position_of(host_id)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._grid

    def __iter__(self):
        return iter(self._grid.ids)

    def __len__(self) -> int:
        return len(self._grid)

    def __repr__(self) -> str:
        return f"LazyPositions({len(self._grid)} hosts)"


def crossing_times(
    position_x_a, position_y_a, velocity_x_a, velocity_y_a,
    position_x_b, position_y_b, velocity_x_b, velocity_y_b,
    radius: float,
):
    """Batched :func:`~repro.net.spatial.link_crossing_time` over link arrays.

    Identical operation sequence, therefore bit-identical roots: seconds
    until each linearly-moving pair exceeds ``radius`` apart, ``inf`` where
    the separation never changes or the pair is outside and receding.
    """

    require_numpy()
    dx = np.asarray(position_x_a, dtype=float) - position_x_b
    dy = np.asarray(position_y_a, dtype=float) - position_y_b
    dvx = np.asarray(velocity_x_a, dtype=float) - velocity_x_b
    dvy = np.asarray(velocity_y_a, dtype=float) - velocity_y_b
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - radius * radius
    discriminant = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = (-b + np.sqrt(discriminant)) / (2.0 * a)
        unusable = (a == 0.0) | (discriminant < 0.0) | ~(crossing > 0.0)
    return np.where(unusable, math.inf, crossing)
