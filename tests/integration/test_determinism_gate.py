"""Determinism gate: trial results are a pure function of their seeds.

Hashes the ``deterministic_copy()`` of three small sweeps — a fig6 sweep
(4 hosts, single-hop 802.11g), a 50-host multi-hop ad hoc sweep with
random-waypoint mobility, and four 20-host churn trials journaling to the
in-memory backend — and compares the hash with the digest pinned below.

The digest must not depend on the interpreter's hash seed or on the process
a trial runs in.  The CI ``determinism-gate`` job therefore runs this file
under ``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=12345``, and
``test_spawned_pool_matches_pinned_digest`` recomputes the digest in a new
interpreter whose 2-worker ``TrialRunner`` starts its workers with
``spawn`` (nothing inherited from the parent process).

A second digest covers three 100-host random-waypoint multi-hop trials
shaped like the ``adhoc_mobile`` benchmark workload.  The network's link
certificates expire five times across them, so the digest pins the
certified ticks, the real advances between them and the hand-over from one
to the other.

A change that alters a deterministic trial result on purpose updates
``PINNED_DIGEST`` (or ``PINNED_MOBILE_DIGEST``) and says why in its
description.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.runner import TrialRunner, sweep_tasks, workload_for
from repro.experiments.trials import run_churn_trial, simulated_network_factory
from repro.sim.randomness import derive_rng

SEED = 20090514
PINNED_DIGEST = "a1954217508079891e3cadcb25c3fed62dc4533e7b7d220ee5ca59ff0bb14092"
PINNED_MOBILE_DIGEST = (
    "f8c16a4de0e10cedd5ba4aa4bf8c6a1dd32c84802d0dfb1c777f0a0d9b8a8b42"
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def sweep():
    """The fig6 and 50-host ad hoc trials, as runner tasks."""

    return sweep_tasks(
        "fig6",
        num_tasks=100,
        num_hosts=4,
        path_lengths=(2, 4, 6, 8),
        runs=2,
        seed=SEED,
        network="adhoc",
    ) + sweep_tasks(
        "adhoc-50",
        num_tasks=50,
        num_hosts=50,
        path_lengths=(4,),
        runs=3,
        seed=SEED,
        network="adhoc-multihop",
        mobility="waypoint",
    )


def mobile_sweep():
    """Three 100-host random-waypoint multi-hop trials, as runner tasks."""

    return sweep_tasks(
        "adhoc-100",
        num_tasks=50,
        num_hosts=100,
        path_lengths=(4,),
        runs=3,
        seed=SEED,
        network="adhoc-multihop",
        mobility="waypoint",
    )


def churn_results():
    """Four seeded 20-host churn trials on the in-memory journal."""

    workload = workload_for(SEED, 30)
    rng = derive_rng(SEED, "determinism-gate", "churn")
    results = []
    for index in range(4):
        specification = workload.path_specification(4, rng)
        assert specification is not None
        results.append(
            run_churn_trial(
                workload,
                20,
                specification,
                seed=SEED + index,
                network_factory=simulated_network_factory(SEED + index),
                durability="memory",
            )
        )
    return results


def digest(runner: TrialRunner) -> str:
    """SHA-256 over every trial's deterministic result, in a fixed order."""

    hasher = hashlib.sha256()
    for outcome in runner.run(sweep()):
        hasher.update(repr(outcome.result).encode())
    for result in churn_results():
        hasher.update(repr(result.deterministic_copy()).encode())
    return hasher.hexdigest()


def mobile_digest(runner: TrialRunner) -> str:
    """SHA-256 over the 100-host trials' deterministic results, in order."""

    hasher = hashlib.sha256()
    for outcome in runner.run(mobile_sweep()):
        hasher.update(repr(outcome.result).encode())
    return hasher.hexdigest()


def test_trial_results_match_pinned_digest():
    runner = TrialRunner(parallel=False, timing="sim")
    assert digest(runner) == PINNED_DIGEST


def test_mobile_trials_match_pinned_digest():
    runner = TrialRunner(parallel=False, timing="sim")
    assert mobile_digest(runner) == PINNED_MOBILE_DIGEST


# TrialRunner's pool uses the default start method, so the fresh interpreter
# sets it to spawn before anything else runs.
SPAWNED_RUN = """
import multiprocessing

from repro.experiments.runner import TrialRunner
from tests.integration.test_determinism_gate import digest, mobile_digest

multiprocessing.set_start_method("spawn")
with TrialRunner(max_workers=2, parallel=True, timing="sim") as runner:
    print(digest(runner))
    print(mobile_digest(runner))
    print(runner.parallel_batches, runner.sequential_fallbacks)
"""


def test_spawned_pool_matches_pinned_digest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SPAWNED_RUN],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    spawned_digest, spawned_mobile_digest, counters = completed.stdout.split("\n")[:3]
    parallel_batches, fallbacks = map(int, counters.split())
    assert parallel_batches > 0 and fallbacks == 0  # the pool really ran
    assert spawned_digest == PINNED_DIGEST
    assert spawned_mobile_digest == PINNED_MOBILE_DIGEST
