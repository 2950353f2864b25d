"""Per-layer tracing from outside the library.

:class:`Tracer` wraps public functions of each package at class (or module)
level.  Every call becomes a span ``(name, start, end, parent, trial,
value)`` kept in memory and written once when the run ends.  A span's self
time is its duration minus what its child spans cover.  :func:`layer_metrics`
folds the spans and the trials' results into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from patching import Patches

# Span names, each a group of library functions.  ``value`` records a number
# taken from the call: the payload size of a journal append, or the cached
# flag of a route lookup.
SPAN_NAMES = (
    "experiments.run",
    "experiments.publish",
    "workloads.generate",
    "host.build",
    "host.on_message",
    "discovery.query",
    "discovery.response",
    "core.solve",
    "allocation.auction",
    "allocation.bid",
    "execution.label",
    "net.reachable",
    "net.latency",
    "net.route_lookup",
    "net.send",
    "net.intercept",
    "sim.step",
    "durability.append",
    "durability.snapshot",
    "durability.replay",
)
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "trial", "value")

# Per-layer metric units.  Counts and ``*_ms`` totals are per traced trial;
# ``*_p50`` and ``*_us_p50`` are medians over calls.
LAYER_UNITS = {
    "experiments.run_s": "s",
    "experiments.publish_ms": "ms",
    "experiments.segment_bytes": "bytes",
    "experiments.fallbacks": "count",
    "workloads.generate_ms": "ms",
    "host.build_ms_p50": "ms",
    "host.messages": "count",
    "host.dispatch_self_ms": "ms",
    "discovery.query_ms": "ms",
    "discovery.response_self_ms": "ms",
    "discovery.msgs": "count",
    "discovery.bytes": "bytes",
    "core.solve_ms_p50": "ms",
    "core.solve_ms_total": "ms",
    "core.nodes_recolored": "count",
    "core.cache_hit_ratio": "ratio",
    "allocation.auction_self_ms": "ms",
    "allocation.bid_ms": "ms",
    "allocation.retries": "count",
    "allocation.reauctions": "count",
    "execution.label_ms": "ms",
    "execution.labels_replayed": "count",
    "execution.invocations_resumed": "count",
    "net.reachable_ms": "ms",
    "net.reachable_calls": "count",
    "net.latency_ms": "ms",
    "net.route_lookups": "count",
    "net.route_cache_hit_ratio": "ratio",
    "net.sends": "count",
    "net.send_self_ms": "ms",
    "net.faults_intercepted": "count",
    "net.faulted": "count",
    "sim.events": "count",
    "sim.step_self_ms": "ms",
    "sim.host_us_per_event": "us",
    "durability.appends": "count",
    "durability.append_bytes": "bytes",
    "durability.append_ms_total": "ms",
    "durability.append_us_p50": "us",
    "durability.snapshot_ms": "ms",
    "durability.replay_ms": "ms",
    "trace.overhead": "fraction",
}


class Tracer:
    """Records spans for the functions it is told to wrap."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.trial = -1
        self._stack: list[int] = []
        self._ids = {name: index for index, name in enumerate(SPAN_NAMES)}
        self._patches = Patches()

    def wrap(self, owner: object, attr: str, name: str, value=None) -> None:
        name_id = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(original):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                result = None
                start = clock()
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    measured = value(args, result) if value is not None else 0
                    spans[index] = (name_id, start, end, parent, self.trial, measured)

            traced.__wrapped__ = original
            return traced

        self._patches.replace(owner, attr, wrapper)

    def install_experiments(self) -> None:
        """The parent-side runner calls (the untraced pool phase)."""

        from repro.experiments import runner

        self.wrap(runner.TrialRunner, "run", "experiments.run")
        self.wrap(runner, "publish_workloads", "experiments.publish")

    def install_generate(self) -> None:
        from repro.workloads.supergraph_gen import RandomSupergraphWorkload

        self.wrap(RandomSupergraphWorkload, "generate", "workloads.generate")

    def install_layers(self) -> None:
        """Every layer a trial crosses, for the inline traced phase."""

        from repro.allocation.auction import AuctionManager
        from repro.allocation.participation import AuctionParticipationManager
        from repro.core.solver import make_solver
        from repro.discovery.knowhow import FragmentManager
        from repro.durability.backend import FileJournal, InMemoryJournal, SQLiteJournal
        from repro.execution.engine import ExecutionManager
        from repro.experiments import runner, trials
        from repro.host.host import Host
        from repro.host.workflow_manager import WorkflowManager
        from repro.net.adhoc import AdHocWirelessNetwork
        from repro.net.faults import FaultPlane
        from repro.net.routing import AodvRouter
        from repro.net.simnet import SimulatedNetwork
        from repro.net.transport import CommunicationsLayer
        from repro.sim.events import EventScheduler

        for module in (runner, trials):
            self.wrap(module, "build_trial_community", "host.build")
        self.wrap(Host, "on_message", "host.on_message")
        self.wrap(FragmentManager, "handle_query", "discovery.query")
        self.wrap(WorkflowManager, "handle_fragment_response", "discovery.response")
        self.wrap(type(make_solver(None)), "solve", "core.solve")
        for attr in ("start_auction", "handle_bid_batch", "handle_award_ack"):
            self.wrap(AuctionManager, attr, "allocation.auction")
        for attr in ("handle_call_for_bids_batch", "handle_award_batch"):
            self.wrap(AuctionParticipationManager, attr, "allocation.bid")
        for attr in ("handle_label_batch", "deliver_label", "handle_replay_request"):
            self.wrap(ExecutionManager, attr, "execution.label")
        for network in (AdHocWirelessNetwork, SimulatedNetwork):
            self.wrap(network, "is_reachable", "net.reachable")
            self.wrap(network, "latency_for", "net.latency")
        self.wrap(
            AodvRouter,
            "lookup",
            "net.route_lookup",
            value=lambda args, result: int(result is not None and result[1]),
        )
        self.wrap(CommunicationsLayer, "send", "net.send")
        self.wrap(FaultPlane, "intercept", "net.intercept")
        self.wrap(EventScheduler, "step", "sim.step")
        for backend in (InMemoryJournal, FileJournal, SQLiteJournal):
            self.wrap(
                backend,
                "append",
                "durability.append",
                value=lambda args, result: len(args[1]),
            )
            self.wrap(backend, "write_snapshot", "durability.snapshot")
            self.wrap(backend, "payloads", "durability.replay")
            self.wrap(backend, "load_snapshot", "durability.replay")

    def uninstall(self) -> None:
        self._patches.restore()

    # -- analysis ------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: call count, inclusive and self ns, per-call ns, values.

        A span nested inside another of the same name (a handler calling a
        sibling handler) adds to the count and self time but not again to
        the inclusive time.
        """

        spans = self.spans
        child_ns = defaultdict(int)
        for name_id, start, end, parent, _trial, _value in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {
            name: {"calls": 0, "incl_ns": 0, "self_ns": 0, "per_call_ns": [], "value": 0}
            for name in SPAN_NAMES
        }
        for index, (name_id, start, end, parent, _trial, value) in enumerate(spans):
            entry = out[SPAN_NAMES[name_id]]
            duration = end - start
            entry["calls"] += 1
            entry["self_ns"] += duration - child_ns[index]
            entry["per_call_ns"].append(duration)
            entry["value"] += value
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name_id:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["incl_ns"] += duration
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: a header, then one array per span."""

        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS, "names": SPAN_NAMES}) + "\n")
            for index, (name_id, *rest) in enumerate(self.spans):
                handle.write(json.dumps([index, SPAN_NAMES[name_id], *rest]) + "\n")


def _median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def layer_metrics(
    summary: dict[str, dict],
    results: list,
    trials: int,
    experiments: dict[str, float],
    overhead: float,
) -> dict[str, float]:
    """The per-layer metrics, per traced trial unless the name says otherwise.

    ``results`` are the traced trials' ``TrialResult`` objects (``None`` for a
    trial that drew no specification); counts the library already keeps
    (fragment traffic, recolourings, retries) are read from them.
    ``experiments`` carries the runner's own counters from the pool phase.
    """

    per = max(trials, 1)

    def ms(name: str, kind: str = "incl_ns") -> float:
        return summary[name][kind] / 1e6 / per

    def calls(name: str) -> float:
        return summary[name]["calls"] / per

    def from_results(field: str) -> float:
        return sum(getattr(r, field) for r in results if r is not None) / per

    solves = summary["core.solve"]["calls"]
    lookups = summary["net.route_lookup"]["calls"]
    steps = summary["sim.step"]
    appends = summary["durability.append"]
    return {
        "experiments.run_s": _median_ms(summary["experiments.run"]["per_call_ns"]) / 1e3,
        "experiments.publish_ms": _median_ms(summary["experiments.publish"]["per_call_ns"]),
        "experiments.segment_bytes": experiments.get("segment_bytes", 0.0),
        "experiments.fallbacks": experiments.get("fallbacks", 0.0),
        "workloads.generate_ms": _median_ms(summary["workloads.generate"]["per_call_ns"]),
        "host.build_ms_p50": _median_ms(summary["host.build"]["per_call_ns"]),
        "host.messages": calls("host.on_message"),
        "host.dispatch_self_ms": ms("host.on_message", "self_ns"),
        "discovery.query_ms": ms("discovery.query"),
        "discovery.response_self_ms": ms("discovery.response", "self_ns"),
        "discovery.msgs": from_results("fragment_messages"),
        "discovery.bytes": from_results("fragment_bytes"),
        "core.solve_ms_p50": _median_ms(summary["core.solve"]["per_call_ns"]),
        "core.solve_ms_total": ms("core.solve"),
        "core.nodes_recolored": from_results("nodes_recolored"),
        "core.cache_hit_ratio": (
            sum(r.cache_hits for r in results if r is not None) / solves if solves else 0.0
        ),
        "allocation.auction_self_ms": ms("allocation.auction", "self_ns"),
        "allocation.bid_ms": ms("allocation.bid"),
        "allocation.retries": from_results("retries"),
        "allocation.reauctions": from_results("reauctions"),
        "execution.label_ms": ms("execution.label"),
        "execution.labels_replayed": from_results("labels_replayed"),
        "execution.invocations_resumed": from_results("invocations_resumed"),
        "net.reachable_ms": ms("net.reachable"),
        "net.reachable_calls": calls("net.reachable"),
        "net.latency_ms": ms("net.latency"),
        "net.route_lookups": calls("net.route_lookup"),
        "net.route_cache_hit_ratio": (
            summary["net.route_lookup"]["value"] / lookups if lookups else 0.0
        ),
        "net.sends": calls("net.send"),
        "net.send_self_ms": ms("net.send", "self_ns"),
        "net.faults_intercepted": calls("net.intercept"),
        "net.faulted": from_results("messages_faulted"),
        "sim.events": calls("sim.step"),
        "sim.step_self_ms": ms("sim.step", "self_ns"),
        "sim.host_us_per_event": (
            steps["incl_ns"] / 1e3 / steps["calls"] if steps["calls"] else 0.0
        ),
        "durability.appends": calls("durability.append"),
        "durability.append_bytes": appends["value"] / per,
        "durability.append_ms_total": ms("durability.append"),
        "durability.append_us_p50": (
            statistics.median(appends["per_call_ns"]) / 1e3 if appends["per_call_ns"] else 0.0
        ),
        "durability.snapshot_ms": ms("durability.snapshot"),
        "durability.replay_ms": ms("durability.replay"),
        "trace.overhead": overhead,
    }
