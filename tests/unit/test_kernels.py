"""Unit tests for the vectorized geometry kernels (`repro.net.kernels`).

The property suite (`tests/property/test_kernel_equivalence.py`) pins the
batched↔scalar equivalence statistically; these tests pin the edges by
hand — the platform choice with and without NumPy, opaque mobility models,
degenerate legs, the near-radius ulp regression, and the exact scalar
crossing-time cases batched.
"""

import math

import pytest

from repro.mobility.geometry import Point
from repro.mobility.models import StaticMobility, WaypointMobility
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.spatial import (
    SpatialGridIndex,
    link_crossing_time,
    padded_cell_size,
)
from repro.sim.events import EventScheduler

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


class OpaquePath:
    """A mobility model exposing only ``position_at`` (no motion_at)."""

    def position_at(self, time: float) -> Point:
        return Point(time * 2.0, 1.0)


class TestFlagResolution:
    """``vectorized`` is chosen by the platform, never by the caller."""

    def test_auto_resolves_to_numpy_availability(self):
        network = AdHocWirelessNetwork(EventScheduler())
        assert network.vectorized == kernels.numpy_available()
        with pytest.raises(AttributeError):
            network.vectorized = not network.vectorized  # read-only

    def test_numpy_absence_falls_back_and_rejects_explicit_true(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        assert not kernels.numpy_available()
        network = AdHocWirelessNetwork(EventScheduler())
        assert not network.vectorized
        with pytest.raises(TypeError):  # no caller-side switch exists
            AdHocWirelessNetwork(EventScheduler(), vectorized=True)
        with pytest.raises(RuntimeError):
            kernels.require_numpy()

    @needs_numpy
    def test_scalar_flag_keeps_scalar_grid(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)  # hide NumPy from the network
        network = AdHocWirelessNetwork(EventScheduler())
        monkeypatch.undo()
        network.register("a", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.neighbours_of("a")
        assert isinstance(network._snapshot.grid, SpatialGridIndex)

    @needs_numpy
    def test_vectorized_flag_builds_vector_grid(self):
        network = AdHocWirelessNetwork(EventScheduler())
        network.register("a", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.neighbours_of("a")
        assert isinstance(network._snapshot.grid, kernels.VectorGridIndex)


@needs_numpy
class TestLegTable:
    def test_positions_match_models_exactly(self):
        models = [
            StaticMobility(Point(3, 4)),
            WaypointMobility([Point(0, 0), Point(10, 7)], speed=1.3, pause=2.0),
            None,  # never placed: pinned at the origin
        ]
        table = kernels.LegTable(models)
        for time in (0.0, 1.0, 2.5, 7.75, 40.0):
            xs, ys = table.positions_at(time)
            assert Point(xs[0], ys[0]) == Point(3, 4)
            assert Point(xs[1], ys[1]) == models[1].position_at(time)
            assert Point(xs[2], ys[2]) == Point(0, 0)

    def test_opaque_model_is_evaluated_through_position_at(self):
        table = kernels.LegTable([OpaquePath(), StaticMobility(Point(1, 1))])
        xs, ys = table.positions_at(3.0)
        assert Point(xs[0], ys[0]) == Point(6.0, 1.0)
        assert Point(xs[1], ys[1]) == Point(1, 1)
        # Opaque rows cannot be scheduled from the table.
        times = table.next_move_times(3.0, [0, 1])
        assert math.isnan(times[0])
        assert times[1] == math.inf

    def test_next_move_times_match_model_reports(self):
        walker = WaypointMobility(
            [Point(0, 0), Point(10, 0)], speed=2.0, pause=5.0
        )
        table = kernels.LegTable([walker, StaticMobility(Point(0, 0)), None])
        for time in (0.0, 2.0, 6.0, 30.0):
            times = table.next_move_times(time, [0, 1, 2])
            assert times[0] == walker.next_move_time(time)
            assert times[1] == math.inf
            assert times[2] == math.inf

    def test_subset_evaluation_refreshes_only_requested_rows(self):
        walkers = [
            WaypointMobility([Point(i, 0), Point(i, 50)], speed=1.0)
            for i in range(4)
        ]
        table = kernels.LegTable(walkers)
        xs, ys = table.positions_at(3.0, [1, 3])
        assert Point(xs[0], ys[0]) == walkers[1].position_at(3.0)
        assert Point(xs[1], ys[1]) == walkers[3].position_at(3.0)


@needs_numpy
class TestVectorGridIndex:
    def from_positions(self, positions, cell_size):
        ids = sorted(positions)
        xs = [positions[i].x for i in ids]
        ys = [positions[i].y for i in ids]
        return kernels.VectorGridIndex(ids, xs, ys, cell_size)

    def test_matches_scalar_grid_on_scatter(self):
        import random

        rng = random.Random(7)
        positions = {
            f"h{i}": Point(rng.uniform(-300, 300), rng.uniform(-300, 300))
            for i in range(60)
        }
        radius = 80.0
        scalar = SpatialGridIndex(positions, cell_size=padded_cell_size(radius))
        vector = self.from_positions(positions, padded_cell_size(radius))
        for host, point in positions.items():
            assert vector.near(point, radius) == scalar.near(point, radius)
            assert vector.neighbours_of(host, radius) == scalar.neighbours_of(
                host, radius
            )
        # Probe points that are not hosts, including far outside the site.
        for probe in (Point(0, 0), Point(1000, 1000), Point(-299.5, 299.5)):
            assert vector.near(probe, radius) == scalar.near(probe, radius)

    def test_component_partition_matches_scalar_grid(self):
        positions = {
            "a": Point(0, 0),
            "b": Point(50, 0),
            "c": Point(100, 0),
            "x": Point(500, 500),
            "y": Point(540, 500),
        }
        scalar = SpatialGridIndex(positions, cell_size=60.0)
        vector = self.from_positions(positions, 60.0)
        for radius in (60.0, 1000.0):
            scalar_labels = scalar.component_labels(radius)
            vector_labels = vector.component_labels(radius)
            partition = lambda labels: {
                frozenset(h for h in labels if labels[h] == label)
                for label in set(labels.values())
            }
            assert partition(scalar_labels) == partition(vector_labels)

    def test_neighbour_sets_and_labels_agree_with_queries(self):
        positions = {"a": Point(0, 0), "b": Point(30, 0), "c": Point(200, 0)}
        vector = self.from_positions(positions, 60.0)
        sets, labels = vector.neighbour_sets_and_labels(60.0)
        assert sets == {
            host: vector.neighbours_of(host, 60.0) for host in positions
        }
        assert labels["a"] == labels["b"] != labels["c"]

    def test_ulp_boundary_pair_is_found(self):
        # The PR-3 regression: the exact separation exceeds the radius but
        # the rounded distance is exactly 1.0, and the cells sit two apart.
        positions = {"top": Point(0.0, 1.0), "bottom": Point(0.0, -1e-158)}
        for cell_size in (1.0, padded_cell_size(1.0), 0.3, 7.0):
            vector = self.from_positions(positions, cell_size)
            assert vector.neighbours_of("top", 1.0) == {"bottom"}, cell_size
            assert vector.neighbours_of("bottom", 1.0) == {"top"}, cell_size

    def test_boundary_band_rechecks_with_scalar_hypot(self):
        # Two hosts exactly radius apart (inclusive) and two a hair outside.
        positions = {
            "a": Point(0, 0),
            "edge": Point(100.0, 0.0),
            "out": Point(math.nextafter(100.0, 200.0), 0.0),
        }
        vector = self.from_positions(positions, padded_cell_size(100.0))
        assert vector.neighbours_of("a", 100.0) == {"edge"}

    def test_move_many_rebuckets(self):
        positions = {"a": Point(0, 0), "b": Point(50, 0)}
        vector = self.from_positions(positions, 100.0)
        index = vector.index_of("a")
        vector.move_many([index], [250.0], [250.0])
        assert vector.near(Point(250, 250), 10.0) == {"a"}
        assert vector.near(Point(0, 0), 10.0) == frozenset()
        assert vector.position_of("a") == Point(250, 250)

    def test_empty_index(self):
        vector = kernels.VectorGridIndex([], [], [], 10.0)
        assert vector.near(Point(0, 0), 5.0) == frozenset()
        assert vector.component_labels(5.0) == {}
        assert len(vector) == 0

    def test_extreme_coordinates_do_not_overflow(self):
        positions = {"far": Point(1e300, -1e300), "near": Point(0, 0)}
        vector = self.from_positions(positions, 100.0)
        assert vector.neighbours_of("near", 50.0) == frozenset()
        assert vector.near(Point(1e300, -1e300), 1.0) == {"far"}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kernels.VectorGridIndex([], [], [], 0.0)
        vector = self.from_positions({"a": Point(0, 0)}, 10.0)
        with pytest.raises(ValueError):
            vector.near(Point(0, 0), -1.0)


@needs_numpy
class TestCrossingTimes:
    def test_batched_roots_equal_scalar_cases(self):
        # The four scalar unit cases (test_spatial.TestLinkCrossingTime),
        # solved in one batched call.
        legs = [
            (Point(0, 0), (0.0, 0.0), Point(90, 0), (2.0, 0.0)),  # recede
            (Point(0, 0), (1.0, 1.0), Point(50, 0), (1.0, 1.0)),  # co-move
            (Point(0, 0), (0.0, 0.0), Point(50, 0), (-1.0, 0.0)),  # pass by
            (Point(0, 0), (0.0, 0.0), Point(150, 0), (1.0, 0.0)),  # gone
        ]
        batched = kernels.crossing_times(
            [a.x for a, _, _, _ in legs],
            [a.y for a, _, _, _ in legs],
            [va[0] for _, va, _, _ in legs],
            [va[1] for _, va, _, _ in legs],
            [b.x for _, _, b, _ in legs],
            [b.y for _, _, b, _ in legs],
            [vb[0] for _, _, _, vb in legs],
            [vb[1] for _, _, _, vb in legs],
            100.0,
        )
        for row, (a, va, b, vb) in zip(batched.tolist(), legs):
            assert row == link_crossing_time(a, va, b, vb, 100.0)
