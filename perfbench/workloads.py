"""The benchmark's three workloads.

Each workload keeps one trial shape and derives trial ``i`` from the
benchmark seed alone, so a seed names the same inputs in every run and
every mode.  ``run_next(i, inline)`` runs the next trial (or, on the pool,
the next batch of trials) and returns one :class:`TrialRecord` per trial.

* ``paper_sweep`` — Fig. 6's largest point: 100-task supergraphs over 4
  hosts on the single-hop 802.11g model, path lengths 2..14, run through
  ``TrialRunner(max_workers=2)`` with shared inputs on, the way
  ``examples/run_experiments.py`` runs figures.
* ``adhoc_mobile`` — 100 random-waypoint hosts on the multi-hop AODV
  network, 50-task supergraphs, path length 4, run inline.
* ``churn_durable`` — ``run_churn_trial`` with 20 hosts, 30-task
  supergraphs, path length 4, 10% drop, 2% duplicate and two crash/restart
  cycles, every host journaling; run inline to quiescence.
"""

from __future__ import annotations

import multiprocessing
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.durability.backend import SQLiteJournal
from repro.experiments import runner as runner_module
from repro.experiments.runner import TrialRunner, TrialTask, execute_trial, workload_for
from repro.experiments.trials import run_churn_trial
from repro.sim.randomness import derive_rng, derive_seed
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

from checks import GateError, TrialObserver
from patching import Patches


@dataclass(frozen=True)
class TrialRecord:
    """One trial as the benchmark saw it."""

    index: int
    result: object | None
    """The trial's ``TrialResult``; ``None`` if it drew no specification or raised."""
    host_ms: float
    """Host time around the trial call."""
    sim_end_s: float | None
    """Simulated seconds from submission to the end of the trial's work:
    allocation on the allocation-only workloads, completion of the final
    revision on ``churn_durable``; ``None`` when that end was not reached."""
    ok: bool
    """Allocated (paper_sweep, adhoc_mobile) or completed (churn_durable)."""
    error: str = ""

    @property
    def operation_failed(self) -> bool:
        """The trial call itself failed: it raised or had no specification."""

        return self.result is None


def _peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set of this process plus the given processes, in MB."""

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb += int(line.split()[1])
        except OSError:
            pass
    return peak_kb / 1024.0


def reach_share(workload, length: int) -> float:
    """Share of start tasks with another task exactly ``length`` tasks downstream.

    ``path_specification`` tries 200 random start tasks, so a supergraph with
    a share of at least ``MIN_REACH_SHARE`` fails a draw with probability
    below 0.9 ** 200, about 1e-9.
    """

    successors = workload.task_successors
    hits = 0
    for start in range(workload.num_tasks):
        seen: set[int] = set()
        frontier = set(successors[start])
        for _ in range(length - 1):
            seen |= frontier
            frontier = {after for task in frontier for after in successors[task]} - seen
        hits += bool(frontier - {start})
    return hits / workload.num_tasks


MIN_REACH_SHARE = 0.1


class Workload:
    """Shared shape of the three workloads.

    Every set-up repetition generates ``NUM_SUPERGRAPHS`` fresh supergraphs
    of the workload's size; the timed phase uses the last repetition's, and
    trial ``i`` runs on supergraph ``i mod NUM_SUPERGRAPHS``.  Spreading a
    run over several supergraphs keeps one seed's supergraph from setting
    the run's numbers.
    """

    name = ""
    POOLED = False
    """Whether the untraced loop runs on the process pool."""
    NUM_TASKS = 0
    NUM_SUPERGRAPHS = 1
    DECK_TRIALS = (0, 0)
    """(full, tiny) count of first trials the deterministic metrics
    (``success_rate``, ``msgs_per_trial``, ``sim_*``) are computed over."""
    DIGEST_TRIALS = (0, 0)
    """(full, tiny) count of first trials in the digest; every phase of a
    traced run covers them."""
    TRACE_TRIALS = (0, 0)
    """(full, tiny) most trials a phase of a traced run takes."""
    CHECK_TRIALS = 2
    """The first trials compared against the library entry point."""

    def __init__(self, seed: int, tiny: bool, observer: TrialObserver, work_dir: Path):
        self.seed = seed
        self.tiny = tiny
        self.observer = observer
        self.work_dir = work_dir
        self.workload_seeds: list[int] = []

    @property
    def deck_trials(self) -> int:
        return self.DECK_TRIALS[self.tiny]

    @property
    def digest_trials(self) -> int:
        return self.DIGEST_TRIALS[self.tiny]

    @property
    def trace_trials(self) -> int:
        return self.TRACE_TRIALS[self.tiny]

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def run_next(self, index: int, inline: bool) -> list[TrialRecord]:
        raise NotImplementedError

    def library_mismatches(self, records: list[TrialRecord]) -> list[int]:
        """Indices among the first trials whose outcome the library disagrees with."""

        raise NotImplementedError

    def checks(self) -> list[str]:
        """Problems with how the run executed (not with a trial's output)."""

        return []

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb([])

    def close(self) -> None:
        pass

    def _generate(self, rep: int, longest_path: int) -> None:
        """Generate this repetition's supergraphs (into the runner's cache).

        Only supergraphs on which every trial can draw a specification up
        to ``longest_path`` are kept, so no trial fails for want of one.
        """

        self.workload_seeds = []
        for number in range(self.NUM_SUPERGRAPHS):
            attempt = 0
            while True:
                seed = derive_seed(self.seed, "perfbench", self.name, rep, number, attempt)
                candidate = RandomSupergraphWorkload(seed=seed).generate(self.NUM_TASKS)
                if reach_share(candidate, longest_path) >= MIN_REACH_SHARE:
                    break
                attempt += 1
            # Only kept supergraphs enter the runner's per-process cache (and
            # so every forked worker); generation is deterministic in the seed.
            workload_for(seed, self.NUM_TASKS)
            self.workload_seeds.append(seed)


def _task_record(index: int, outcome, host_ms: float) -> TrialRecord:
    result = outcome.result
    return TrialRecord(
        index=index,
        result=result,
        host_ms=host_ms,
        sim_end_s=result.sim_seconds if result is not None and result.succeeded else None,
        ok=result is not None and result.succeeded,
    )


class PaperSweep(Workload):
    name = "paper_sweep"
    POOLED = True
    NUM_TASKS = 100
    NUM_HOSTS = 4
    NUM_SUPERGRAPHS = 4
    PATH_LENGTHS = tuple(range(2, 15))
    WORKERS = 2
    DECK_TRIALS = DIGEST_TRIALS = (104, 52)
    TRACE_TRIALS = (208, 52)
    CHECK_TRIALS = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.runner: TrialRunner | None = None
        self.batch_size = len(self.PATH_LENGTHS) * self.NUM_SUPERGRAPHS
        self.timings = multiprocessing.RawArray("d", self.batch_size)
        self.slot_of: dict[tuple[int, int], int] = {}
        self.peak_mb = 0.0
        self._patches = Patches()
        self._patches.replace(
            runner_module, "execute_trial", lambda original: self._timed_execute_trial
        )

    def _timed_execute_trial(self, task: TrialTask, timing: str = "wall"):
        # Runs in the pool workers (they fork after this is installed) and
        # leaves each trial's host time in the shared array.
        start = time.perf_counter()
        outcome = execute_trial(task, timing=timing)
        self.timings[self.slot_of[task.workload_seed, task.path_length]] = (
            time.perf_counter() - start
        )
        return outcome

    def task(self, index: int) -> TrialTask:
        # A batch is every path length on every supergraph, once.
        repetition, slot = divmod(index, self.batch_size)
        number, position = divmod(slot, len(self.PATH_LENGTHS))
        path_length = self.PATH_LENGTHS[position]
        return TrialTask(
            series=f"{self.name}/{number}",
            x=path_length,
            num_tasks=self.NUM_TASKS,
            num_hosts=self.NUM_HOSTS,
            path_length=path_length,
            repetition=repetition,
            seed=self.seed,
            workload_seed=self.workload_seeds[number],
            network="adhoc",
            initiator_index=repetition,
        )

    def setup(self, rep: int) -> None:
        self._stop_pool()
        self._generate(rep, self.PATH_LENGTHS[-1])
        self.slot_of = {
            (self.task(slot).workload_seed, self.task(slot).path_length): slot
            for slot in range(self.batch_size)
        }
        self.runner = TrialRunner(max_workers=self.WORKERS, shared_inputs=True)
        # Warm-up: starts the pool, publishes the segment, workers attach.
        self.runner.run([self.task(0), self.task(1)])

    def run_next(self, index: int, inline: bool) -> list[TrialRecord]:
        if inline:
            start = time.perf_counter()
            outcome = execute_trial(self.task(index))
            return [_task_record(index, outcome, (time.perf_counter() - start) * 1e3)]
        indices = range(index, index + self.batch_size)
        outcomes = self.runner.run([self.task(i) for i in indices])
        return [
            _task_record(i, outcome, self.timings[i % self.batch_size] * 1e3)
            for i, outcome in zip(indices, outcomes)
        ]

    def library_mismatches(self, records: list[TrialRecord]) -> list[int]:
        return [
            record.index
            for record in records[: self.CHECK_TRIALS]
            if execute_trial(self.task(record.index), timing="sim").result
            != _view(record.result)
        ]

    def runner_counters(self) -> dict[str, float]:
        """The runner's own shared-segment and fallback counters."""

        runner = self.runner
        return {
            "segment_bytes": runner.bytes_shared_wire / max(runner.parallel_batches, 1),
            "fallbacks": float(runner.sequential_fallbacks),
        }

    def checks(self) -> list[str]:
        runner = self.runner
        problems = []
        if multiprocessing.get_start_method() != "fork":
            problems.append("pool workers do not fork, so the trial checks miss them")
        if runner.sequential_fallbacks:
            problems.append(f"pool fell back to inline {runner.sequential_fallbacks} times")
        if not runner.parallel_batches:
            problems.append("no batch ran on the pool")
        if not runner.workers_attached:
            problems.append("no pool worker attached the shared workload segment")
        return problems

    def peak_rss_mb(self) -> float:
        if self.runner is not None:
            self.peak_mb = max(
                self.peak_mb,
                _peak_rss_mb([child.pid for child in multiprocessing.active_children()]),
            )
        return self.peak_mb

    def _stop_pool(self) -> None:
        if self.runner is not None:
            self.peak_rss_mb()
            self.runner.shutdown()
            self.runner = None

    def close(self) -> None:
        self._stop_pool()
        self._patches.restore()


class AdhocMobile(Workload):
    name = "adhoc_mobile"
    NUM_TASKS = 50
    NUM_HOSTS = 100
    NUM_SUPERGRAPHS = 8
    PATH_LENGTH = 4
    DECK_TRIALS = (80, 3)
    DIGEST_TRIALS = (16, 3)
    TRACE_TRIALS = (40, 3)

    def task(self, index: int) -> TrialTask:
        return TrialTask(
            series=self.name,
            x=self.NUM_HOSTS,
            num_tasks=self.NUM_TASKS,
            num_hosts=self.NUM_HOSTS,
            path_length=self.PATH_LENGTH,
            repetition=index,
            seed=self.seed,
            workload_seed=self.workload_seeds[index % self.NUM_SUPERGRAPHS],
            network="adhoc-multihop",
            mobility="waypoint",
            initiator_index=index,
        )

    def setup(self, rep: int) -> None:
        self._generate(rep, self.PATH_LENGTH)
        self.run_next(0, inline=True)  # warm-up trial

    def run_next(self, index: int, inline: bool) -> list[TrialRecord]:
        start = time.perf_counter()
        outcome = execute_trial(self.task(index))
        return [_task_record(index, outcome, (time.perf_counter() - start) * 1e3)]

    def library_mismatches(self, records: list[TrialRecord]) -> list[int]:
        # The benchmark already calls the entry point; re-running the first
        # trials catches state leaking from one trial into the next.
        return [
            record.index
            for record in records[: self.CHECK_TRIALS]
            if execute_trial(self.task(record.index), timing="sim").result
            != _view(record.result)
        ]


class ChurnDurable(Workload):
    """Churn with every host journaling, run to quiescence.

    The timed loop journals to the in-memory backend (simulated flash):
    the whole durable write and replay path above the storage runs, but no
    fsync does.  On the shared disk this was tuned on, SQLite's fsync-bound
    trials moved by 2x between runs of identical code (see NOTE.md).  The
    first trials are re-run on SQLite, one directory per trial under the
    run's own directory, and must reach the same outcome.
    """

    name = "churn_durable"
    NUM_TASKS = 30
    NUM_HOSTS = 20
    NUM_SUPERGRAPHS = 16
    PATH_LENGTH = 4
    DECK_TRIALS = (960, 4)
    DIGEST_TRIALS = (64, 4)
    TRACE_TRIALS = (200, 4)
    TERMINAL_PHASES = ("completed", "failed")
    CHECK_TRIALS = 4

    def trial_input(self, index: int):
        workload = workload_for(self.workload_seeds[index % self.NUM_SUPERGRAPHS], self.NUM_TASKS)
        rng = derive_rng(self.seed, "perfbench", self.name, "spec", index)
        specification = workload.path_specification(self.PATH_LENGTH, rng)
        trial_seed = derive_seed(self.seed, "perfbench", self.name, "trial", index)
        return workload, specification, trial_seed

    def setup(self, rep: int) -> None:
        self._generate(rep, self.PATH_LENGTH)
        self.trials_dir = self.work_dir / f"churn-{rep}"
        self.trials_dir.mkdir()
        self.run_next(0, inline=True)  # warm-up trial

    def run_trial(self, index: int, durability):
        """One churn trial; ``None`` when no specification could be drawn."""

        workload, specification, trial_seed = self.trial_input(index)
        if specification is None:
            return None
        return run_churn_trial(
            workload, self.NUM_HOSTS, specification, seed=trial_seed, durability=durability
        )

    def run_next(self, index: int, inline: bool) -> list[TrialRecord]:
        start = time.perf_counter()
        result = self.run_trial(index, "memory")
        host_ms = (time.perf_counter() - start) * 1e3
        if result is None:
            return [TrialRecord(index, None, host_ms, None, False, "")]
        observed = self.observer.last
        if observed is None or observed.phase not in self.TERMINAL_PHASES:
            raise GateError(
                f"churn trial {index} ended in phase "
                f"{observed.phase if observed else None!r}, not completed or failed"
            )
        return [
            TrialRecord(
                index=index,
                result=result,
                host_ms=host_ms,
                sim_end_s=observed.completed_sim_s if result.succeeded else None,
                ok=result.succeeded,
            )
        ]

    def run_on_sqlite(self, index: int):
        """Trial ``index`` journaling to SQLite in a directory of its own."""

        directory = self.trials_dir / f"trial-{index}"
        directory.mkdir()
        backends: list[SQLiteJournal] = []

        def backend_for(host_id: str) -> SQLiteJournal:
            backend = SQLiteJournal(directory, host_id)
            backends.append(backend)
            return backend

        try:
            return self.run_trial(index, backend_for)
        finally:
            for backend in backends:
                backend.close()
            shutil.rmtree(directory)

    def library_mismatches(self, records: list[TrialRecord]) -> list[int]:
        return [
            record.index
            for record in records[: self.CHECK_TRIALS]
            if _view(self.run_on_sqlite(record.index)) != _view(record.result)
        ]


def _view(result):
    return None if result is None else result.deterministic_copy()


WORKLOADS = {cls.name: cls for cls in (PaperSweep, AdhocMobile, ChurnDurable)}
