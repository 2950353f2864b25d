"""Whole-fleet connectivity sweeps stay rare on multi-hop mobile trials.

Every message on the multi-hop ad hoc network asks ``is_reachable`` first.
Pairs with a still-valid cached AODV route are answered from that route;
only the rest fall back to component labels, which cost one sweep over the
whole fleet per snapshot they are needed in.  Under random-waypoint mobility
nearly every snapshot moves a large share of the fleet, so labels rarely
survive from one instant to the next.  If reachability stopped asking the
route cache first, nearly every snapshot would sweep again.

The sweeps are counted by wrapping the grids' labelling entry points from
this test, on the NumPy kernels and on the scalar paths.

The same trials also pin the link certificate: over a trial's few tens of
simulated milliseconds no radio link can change, so most ticks only move
the snapshot's clock instead of advancing it.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import execute_trial, sweep_tasks
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.spatial import SpatialGridIndex

SEED = 20090514


@pytest.mark.parametrize("geometry", ["platform", "scalar"])
def test_mobile_trials_rarely_sweep_the_whole_fleet(monkeypatch, geometry):
    if geometry == "scalar":
        monkeypatch.setattr(kernels, "np", None)
    sweeps = 0

    def counting(sweep):
        def wrapper(self, radius):
            nonlocal sweeps
            sweeps += 1
            return sweep(self, radius)

        return wrapper

    monkeypatch.setattr(
        SpatialGridIndex,
        "component_labels",
        counting(SpatialGridIndex.component_labels),
    )
    if kernels.numpy_available():
        monkeypatch.setattr(
            kernels.VectorGridIndex,
            "neighbour_sets_and_labels",
            counting(kernels.VectorGridIndex.neighbour_sets_and_labels),
        )
    networks = run_mobile_trials(monkeypatch)
    snapshots = sum(network.snapshots_built for network in networks)
    assert snapshots > 0
    assert sweeps * 10 <= snapshots, (sweeps, snapshots)


@pytest.mark.parametrize("geometry", ["platform", "scalar"])
def test_mobile_trials_mostly_tick_on_certificates(monkeypatch, geometry):
    if geometry == "scalar":
        monkeypatch.setattr(kernels, "np", None)
    networks = run_mobile_trials(monkeypatch)
    snapshots = sum(network.snapshots_built for network in networks)
    certified = sum(network.certified_ticks for network in networks)
    assert snapshots > 0
    assert certified * 2 >= snapshots, (certified, snapshots)


def run_mobile_trials(monkeypatch) -> list[AdHocWirelessNetwork]:
    """Three 40-host random-waypoint multi-hop trials; returns their networks."""

    networks: list[AdHocWirelessNetwork] = []
    network_init = AdHocWirelessNetwork.__init__

    def recording_init(self, *args, **kwargs):
        network_init(self, *args, **kwargs)
        networks.append(self)

    monkeypatch.setattr(AdHocWirelessNetwork, "__init__", recording_init)

    tasks = sweep_tasks(
        "sweeps-40",
        num_tasks=50,
        num_hosts=40,
        path_lengths=(4,),
        runs=3,
        seed=SEED,
        network="adhoc-multihop",
        mobility="waypoint",
    )
    for task in tasks:
        assert execute_trial(task, timing="sim").result is not None
    assert len(networks) == len(tasks)
    assert all(network.multi_hop for network in networks)
    return networks
