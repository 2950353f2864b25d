#!/usr/bin/env python3
"""The repository benchmark: one command per workload, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload churn_durable --seed 1 --seconds 30 --trace 1

``--trace 0`` sets up the workload, runs a closed loop of trials for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs the
loop untraced, then again with every layer wrapped, and prints the
per-layer metrics with the tracing overhead; the spans are written to
``perfbench/.run/spans-<workload>.jsonl``.  Both modes check the trials'
outputs (see ``checks.py``) and print one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
carries the digest of the first trials' deterministic views, any problems
found, and the environment.  ``--tiny`` shrinks the run for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".run"
WORKLOAD_NAMES = ("paper_sweep", "adhoc_mobile", "churn_durable")
SETUP_REPS = 3
IMPORT_REPS = 3
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import repro.experiments, repro.durability; print(time.perf_counter() - start)"
)
LEAK_PREFIX = "repro-durability-"
METRIC_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "alloc_ms_p50": "ms",
    "alloc_ms_p90": "ms",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "sim_alloc_ms_p50": "sim_ms",
    "sim_complete_s_p50": "sim_s",
    "success_rate": "fraction",
    "msgs_per_trial": "count",
    "bytes_per_trial": "bytes",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a seconds-scale run for tests")
    return parser.parse_args(argv)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""

    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(share * len(ordered), 9))) - 1]


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


class Phase:
    """One closed loop of trials: the next starts when the previous ends."""

    def __init__(self, records: list, wall_s: float) -> None:
        self.records = records
        self.wall_s = wall_s

    @property
    def trials_per_s(self) -> float:
        return len(self.records) / self.wall_s


def timed_phase(
    bench, seconds: float, inline: bool, needed: int, cap: int | None = None, tracer=None
) -> Phase:
    """Run trials until ``seconds`` pass or ``cap`` trials are done.

    At least ``needed`` trials run either way.
    """

    from checks import GateError
    from workloads import TrialRecord

    records: list = []
    start = time.perf_counter()
    while len(records) < needed or (
        time.perf_counter() - start < seconds and (cap is None or len(records) < cap)
    ):
        index = len(records)
        if tracer is not None:
            tracer.trial = index
        try:
            batch = bench.run_next(index, inline)
        except GateError:
            raise
        except Exception as error:  # a trial that raises counts as failed
            print(f"perfbench: trial {index} raised {error!r}", file=sys.stderr)
            size = 1 if inline else bench.batch_size
            batch = [
                TrialRecord(i, None, 0.0, None, False, repr(error))
                for i in range(index, index + size)
            ]
        records.extend(batch)
    return Phase(records, time.perf_counter() - start)


def end_to_end(bench, phase: Phase, setup_s: float) -> dict[str, float]:
    records = phase.records
    deck = records[: bench.deck_trials]
    results = [record.result for record in deck if record.result is not None]
    allocated = [r for r in records if r.result is not None and r.result.wall_seconds > 0]
    called = [r.host_ms for r in records if r.result is not None]
    alloc_ms = [r.result.wall_seconds * 1e3 for r in allocated]
    sim_alloc = [r.result.sim_seconds * 1e3 for r in allocated if r.index < len(deck)]
    sim_end = [r.sim_end_s for r in deck if r.sim_end_s is not None]
    return {
        "setup_s": setup_s,
        "trials_per_s": phase.trials_per_s,
        "alloc_ms_p50": statistics.median(alloc_ms),
        "alloc_ms_p90": percentile(alloc_ms, 0.9),
        "trial_ms_p50": statistics.median(called),
        "trial_ms_p90": percentile(called, 0.9),
        "sim_alloc_ms_p50": statistics.median(sim_alloc),
        "sim_complete_s_p50": statistics.median(sim_end),
        "success_rate": sum(record.ok for record in deck) / len(deck),
        "msgs_per_trial": sum(r.messages_sent for r in results) / len(results),
        "bytes_per_trial": sum(r.bytes_sent for r in results) / len(results),
        "peak_rss_mb": bench.peak_rss_mb(),
    }


def import_seconds() -> float:
    """The library import, timed in a fresh interpreter."""

    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout)


def leaked_dirs() -> int:
    return sum(1 for entry in os.listdir(tempfile.gettempdir()) if entry.startswith(LEAK_PREFIX))


def run(args: argparse.Namespace, work_dir: Path) -> tuple[dict, dict]:
    """Set up, run the timed (and traced) phases, check; return info and result."""

    from checks import GateError, TrialObserver, digest
    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS

    observer = TrialObserver()
    observer.install()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install_generate()
    bench = WORKLOADS[args.workload](args.seed, args.tiny, observer, work_dir)
    pool = bench.POOLED
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    problems: list[str] = []
    records: list = []
    metrics: dict[str, float] = {}

    def deck_digest(phase: Phase) -> str:
        return digest(record.result for record in phase.records[: bench.digest_trials])

    try:
        # Set-up is the library import plus generating the supergraphs,
        # starting the pool or the durable run directory, and a warm-up
        # trial; each part is repeated and its median taken.
        imports = [import_seconds() for _ in range(1 if args.tiny else IMPORT_REPS)]
        reps = []
        for rep in range(2 if args.tiny else SETUP_REPS):
            start = time.perf_counter()
            bench.setup(rep)
            reps.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(reps)
        if not args.trace:
            needed = max(bench.deck_trials, bench.digest_trials)
            phase = timed_phase(bench, args.seconds, inline=not pool, needed=needed)
            metrics = end_to_end(bench, phase, setup_s)
        else:
            # Untraced, then traced, inline, over the same first trials;
            # paper_sweep first runs its pool with only the parent-side
            # runner calls wrapped.  The cap bounds the spans kept in memory.
            share = args.seconds / (3 if pool else 2)
            cap = bench.trace_trials
            phases = []
            experiments: dict[str, float] = {}
            if pool:
                tracer.install_experiments()
                phases.append(timed_phase(bench, share, False, bench.digest_trials))
                experiments = bench.runner_counters()
            untraced = timed_phase(bench, share, True, bench.digest_trials, cap)
            tracer.install_layers()
            try:
                phase = timed_phase(bench, share, True, bench.digest_trials, cap, tracer)
            finally:
                tracer.uninstall()
            phases += [untraced, phase]
            digests = sorted({deck_digest(p) for p in phases})
            if len(digests) != 1:
                problems.append(f"traced and untraced digests differ: {digests}")
            overhead = untraced.trials_per_s / phase.trials_per_s - 1.0
            metrics = layer_metrics(
                tracer.summary(),
                [record.result for record in phase.records],
                len(phase.records),
                experiments,
                overhead,
            )
            tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
            info["trials_per_s"] = {
                "untraced": untraced.trials_per_s,
                "traced": phase.trials_per_s,
            }
        records = phase.records
        problems += bench.checks()
        mismatched = bench.library_mismatches(records)
        if mismatched:
            problems.append(f"trials {mismatched} differ from the library entry point")
        errors = [record.error for record in records if record.error]
        if errors:
            problems.append(f"{len(errors)} trials raised, the first {errors[0]}")
        info["digest"] = deck_digest(phase)
        info["digest_trials"] = bench.digest_trials
        info["trials_checked"] = observer.checked
    except GateError as error:
        problems.append(f"correctness gate: {error}")
    finally:
        bench.close()
        observer.uninstall()
        leaked = leaked_dirs()
        if leaked:
            problems.append(f"{leaked} {LEAK_PREFIX}* directories leaked")
    info["problems"] = problems
    info["env"] = environment()
    result = {
        "correct": not problems,
        "attempted": max(len(records), 1),
        "failed": sum(record.operation_failed for record in records) if records else 1,
        "metrics": metrics,
    }
    return info, result


def child_pids() -> list[int]:
    """The processes whose parent is this one, from ``/proc``."""

    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                # The command name may hold spaces: the fields after it are
                # state, then the parent's pid.
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> list[int]:
    """Stop and reap every process this one started; return the strays.

    The shared-memory segment starts multiprocessing's resource tracker,
    which would otherwise outlive the benchmark until it reads end-of-file
    on its pipe.  It is stopped last, once no pool worker holds that pipe.
    A stray is any other child still running here: the pool and the
    subprocesses should all have ended already.
    """

    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    strays = [pid for pid in child_pids() if pid != tracker._pid]
    for pid in strays:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in strays:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)
    tracker._stop()
    return strays


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks: they stop the pool and remove
    # the run's directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    # Everything the library puts in the temp dir lands inside the run's own
    # directory, where the leak check counts it.
    tmp = work_dir / "tmp"
    tmp.mkdir()
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        info, result = run(args, work_dir)
    finally:
        strays = stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
    if strays:
        info["problems"].append(f"{len(strays)} child processes were still running")
        result["correct"] = False
    from layers import LAYER_UNITS

    units = LAYER_UNITS if args.trace else METRIC_UNITS
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    for problem in info["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
