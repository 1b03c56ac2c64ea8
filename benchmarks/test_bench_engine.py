"""P2 (performance): the async analysis engine vs the blocking protocol.

The ROADMAP's north star — heavy concurrent traffic — needs the backend to
keep answering while long sweeps run.  This benchmark drives the workload of
:func:`benchmarks.engine_workload.run_engine_benchmark`: four distinct comparison
sweeps on four sessions, submitted to a 4-worker pool, against two serialized
baselines (the one-shot comparison oracle run sweep after sweep, i.e. the
seed's blocking behaviour, and the same jobs on a 1-worker pool), timed in
paired rounds whose median ratios are gated.  It also verifies the two
correctness properties the engine may never trade for speed:

* every job payload is **bitwise identical** to the synchronous response for
  the same analysis — the chunked, checkpointed runners may not move a ulp;
* identical sensitivity submissions made while their session is busy
  **coalesce** onto one job and execute once.

The benchmark runs once per available executor: the thread pool, whose
``worker_speedup`` the GIL caps near 1x, and (where ``spawn`` exists) the
process pool, which escapes the GIL and must clear a real concurrency floor.
Floors are CPU-aware: each asserted floor scales with
``min(workers, available_cpus())``, and the pure-concurrency assertion is
skipped entirely when only one CPU is usable — there is no parallelism to
measure there, only scheduling overhead.

The headline ``speedup`` combines worker concurrency with the per-set
scoring win (the one-shot oracle stacks every perturbed matrix into one huge
full traversal; a job scores each one-driver set by re-walking only the lanes
that test its driver), so it holds even on one core.  Timings are written to
``BENCH_engine.json`` for the thread run and ``BENCH_engine_process.json`` for
the process run; CI uploads both files as workflow artifacts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import ProcessExecutor
from .conftest import print_table
from .engine_workload import available_cpus, run_engine_benchmark

USE_CASE = "deal_closing"
ROWS = 1000
N_JOBS = 4
WORKERS = 4
AMOUNTS_PER_JOB = 10
COALESCE_SUBMISSIONS = 6

#: Executors exercised by this benchmark; the process pool only where the
#: ``spawn`` start method exists (everywhere the engine itself would not
#: fall back to threads).
EXECUTORS = ["thread"] + (["process"] if ProcessExecutor.available() else [])

#: Output artifact per executor (thread keeps the historical name so the
#: regression baseline stays comparable across this change).
OUTPUT = {"thread": "BENCH_engine.json", "process": "BENCH_engine_process.json"}


def speedup_floor(executor: str) -> float:
    """Floor on the headline speedup (async pool vs the one-shot oracle run
    sweep after sweep).  On >=2 usable cores the per-set scoring plus real
    concurrency must clear 2x; on a single core only the scoring win remains
    (the process pool adds queue/IPC overhead on top, so its single-core
    floor is a looser overhead guard)."""
    if available_cpus() >= 2:
        return 2.0
    return 1.5 if executor == "thread" else 1.2


def worker_speedup_floor(executor: str) -> float | None:
    """Floor on pure worker concurrency (4 workers vs 1 worker, identical
    jobs), scaled by the CPUs the process may actually use.

    ``None`` skips the assertion: with one usable core there is no
    parallelism to measure.  With ``effective`` cores, threads must stay
    above a modest fraction (the GIL serializes the Python layers; numpy
    releases it inside kernels) while processes must realise most of the
    hardware: 0.625 x effective puts the ISSUE's >=2.5x at 4 cores.
    """
    effective = min(WORKERS, available_cpus())
    if effective <= 1:
        return None
    fraction = 0.625 if executor == "process" else 0.375
    return max(1.0, fraction * effective)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_concurrent_sweeps_speedup_coalescing_and_artifact(executor):
    summary = run_engine_benchmark(
        use_case=USE_CASE,
        rows=ROWS,
        n_jobs=N_JOBS,
        workers=WORKERS,
        amounts_per_job=AMOUNTS_PER_JOB,
        coalesce_submissions=COALESCE_SUBMISSIONS,
        seed=0,
        executor=executor,
    )
    min_speedup = speedup_floor(executor)
    min_worker_speedup = worker_speedup_floor(executor)
    summary["min_speedup_enforced"] = min_speedup
    summary["min_worker_speedup_enforced"] = min_worker_speedup

    print_table(
        f"Async engine ({executor}): 4 concurrent sweeps vs serialized execution",
        [
            {
                "executor": summary["executor"],
                "cpus": summary["cpu_count"],
                "serial_oracle_s": round(summary["serial_s"], 3),
                "sync_s": round(summary["sync_s"], 3),
                "serial_1worker_s": round(summary["engine_serial_s"], 3),
                "parallel_4worker_s": round(summary["parallel_s"], 3),
                "speedup": round(summary["speedup"], 2),
                "worker_speedup": round(summary["worker_speedup"], 2),
            }
        ],
    )

    assert summary["executor"] == executor

    # correctness first: payloads bitwise-equal to the synchronous path
    assert summary["bitwise_equal"], "job payloads diverged from sync responses"

    # coalescing: N identical submissions -> one job, one execution —
    # preserved across executors
    coalescing = summary["coalescing"]
    assert coalescing["distinct_jobs"] == 1, coalescing
    assert coalescing["attached"] == COALESCE_SUBMISSIONS, coalescing
    assert coalescing["coalesced_flags"] == [False] + [True] * (
        COALESCE_SUBMISSIONS - 1
    ), coalescing
    assert coalescing["result_matches_sync"], coalescing
    # one execution of the sensitivity analysis serves every submitter: the
    # engine ran exactly the 4 sweeps per round, 1 blocker, and 1 coalesced
    # job (plus the untimed async warm round on the process pool)
    warm_jobs = N_JOBS if executor == "process" else 0
    sweep_jobs = N_JOBS * summary["rounds"]
    assert summary["engine"]["executed_total"] == sweep_jobs + 2 + warm_jobs, (
        summary["engine"]
    )
    assert summary["engine"]["coalesced_total"] == COALESCE_SUBMISSIONS - 1

    # the stats block must report the executor actually in effect
    assert summary["engine"]["executor"]["kind"] == executor

    # wall-clock: materially faster than serialized execution
    assert summary["speedup"] >= min_speedup, (
        f"{executor} speedup {summary['speedup']:.2f}x below the "
        f"{min_speedup}x floor ({summary['cpu_count']} usable cpus)"
    )
    if min_worker_speedup is None:
        print(
            f"  (worker_speedup {summary['worker_speedup']:.2f}x recorded, "
            "not asserted: single usable CPU)"
        )
    else:
        assert summary["worker_speedup"] >= min_worker_speedup, (
            f"{executor} worker speedup {summary['worker_speedup']:.2f}x below "
            f"the {min_worker_speedup}x floor ({summary['cpu_count']} usable cpus)"
        )

    path = OUTPUT[executor]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    assert os.path.exists(path)
