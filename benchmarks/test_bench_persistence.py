"""Durable-state overhead: journaling writes must not tax interactivity.

The persistence layer (``repro.persist``) rides two hot paths: every job
submission journals a pending record, and every scenario append journals a
ledger event.  The paper's interactivity requirement means durability must be
effectively free at interaction rates, so this benchmark holds two invariants
the regression gate keeps forever:

* ``overhead_ok`` — job throughput (submit through result, so every
  journaling write on the job's path — pending record at submit, terminal
  snapshot before the done event — lands inside the timed window) with the
  durable store (``open_backend(dir)``, a WAL-mode file) is within
  :data:`OVERHEAD_BUDGET_PCT` (10%) of the default in-memory store's
  (``open_backend(None)``).  The design is paired and interleaved: each
  round times :data:`SUBMITS_PER_BATCH` round trips per store, the stores
  alternating job by job, and the gate is the *median of the per-round
  paired overheads*.  Interleaving at one job (a few ms) puts a burst of
  machine load on both stores alike, where batch-sized turns let it land
  on one; the median shrugs off a slow outlier round.  The cyclic garbage
  collector runs between rounds and is paused inside them: its pauses are
  tens of ms, and allocation is deterministic, so they land on the same
  store in every run.  An over-budget verdict is re-measured (up to
  :data:`MAX_BATCHES`, keeping every round) before it may fail.
* ``replay_bitwise`` — a 10k-event scenario ledger journaled through a
  durable store replays into a fresh manager bitwise-identical to the
  journaled events.  Replay speed is reported (``replay_events_per_s``) but
  informational: wall clock on shared runners is noise, correctness is not.

Results land in ``BENCH_persistence.json``.
"""

from __future__ import annotations

import gc
import json
import tempfile
import time
from pathlib import Path

from repro.core.scenario import Scenario, ScenarioManager
from repro.persist import StateBackend, open_backend
from repro.server import SystemDServer

from .conftest import print_table

USE_CASE = "deal_closing"
ROWS = 800
SUBMITS_PER_BATCH = 32
ROUNDS = 7
MAX_BATCHES = 3
OVERHEAD_BUDGET_PCT = 10.0
REPLAY_EVENTS = 10_000
OUTPUT = "BENCH_persistence.json"

DRIVER = "Open Marketing Email"


def make_server(backend) -> SystemDServer:
    # retention is sized above the total job count so LRU eviction (a
    # different backend path, benched by its own delete) never interleaves
    # with the throughput rounds
    server = SystemDServer(backend=backend, engine_workers=1, job_retention=4096)
    response = server.request(
        "load_use_case",
        use_case=USE_CASE,
        dataset_kwargs={"n_prospects": ROWS},
        random_state=0,
    )
    assert response.ok, response.error
    return server


def job_round_trip_s(server: SystemDServer, amount: float) -> float:
    """Seconds from submitting one sensitivity job to holding its result.

    Distinct perturbation amounts keep submissions from coalescing onto one
    job.
    """
    start = time.perf_counter()
    response = server.request(
        "submit",
        params={"action": "sensitivity", "params": {"perturbations": {DRIVER: amount}}},
    )
    assert response.ok, response.error
    job_id = response.data["job"]["job_id"]
    done = server.request("job_result", job_id=job_id, wait=True, timeout_s=120)
    assert done.ok, done.error
    return time.perf_counter() - start


def measure_round(servers: dict[str, SystemDServer], salt: int, first: int) -> dict[str, float]:
    """Seconds each store spent on :data:`SUBMITS_PER_BATCH` round trips,
    the stores alternating job by job (``first`` picks who opens)."""
    totals = dict.fromkeys(servers, 0.0)
    arms = list(servers.items())
    gc.collect()
    gc.disable()
    try:
        for i in range(SUBMITS_PER_BATCH):
            for kind, server in arms if (first + i) % 2 == 0 else reversed(arms):
                totals[kind] += job_round_trip_s(server, 1.0 + salt + i / 100.0)
    finally:
        gc.enable()
    return totals


def measure_rounds(servers: dict[str, SystemDServer], samples: dict[str, list[float]],
                   salt: int) -> None:
    for round_index in range(ROUNDS):
        totals = measure_round(servers, salt + round_index * SUBMITS_PER_BATCH, round_index)
        for kind, seconds in totals.items():
            samples[kind].append(seconds)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def bench_submit_overhead(tmp_dir: Path) -> dict:
    servers = {
        "memory": make_server(open_backend(None)),
        "sqlite": make_server(open_backend(tmp_dir / "bench-state")),
    }
    samples: dict[str, list[float]] = {"memory": [], "sqlite": []}
    try:
        measure_round(servers, 100_000, 0)  # warm the engine + model caches
        batches = 0
        while True:
            measure_rounds(servers, samples, salt=1_000_000 * (batches + 1))
            batches += 1
            paired = [
                (sq - mem) / mem * 100.0
                for mem, sq in zip(samples["memory"], samples["sqlite"])
            ]
            overhead_pct = median(paired)
            if overhead_pct < OVERHEAD_BUDGET_PCT or batches >= MAX_BATCHES:
                break
    finally:
        for server in servers.values():
            server.close()
    return {
        "batches": batches,
        "rounds_measured": len(paired),
        "memory_jobs_per_s": SUBMITS_PER_BATCH / min(samples["memory"]),
        "sqlite_jobs_per_s": SUBMITS_PER_BATCH / min(samples["sqlite"]),
        "overhead_pct": overhead_pct,
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "overhead_ok": overhead_pct < OVERHEAD_BUDGET_PCT,
    }


def bench_ledger_replay(tmp_dir: Path) -> dict:
    backend = StateBackend(tmp_dir / "bench-ledger.sqlite3")
    try:
        manager = ScenarioManager()
        manager.bind_backend(backend, "bench-ledger")
        journaled = []
        for i in range(1, REPLAY_EVENTS + 1):
            scenario = Scenario(
                scenario_id=i,
                name=f"option {i}",
                kind="sensitivity",
                kpi_value=0.5 + (i % 97) / 200.0,
                uplift=(i % 13) / 100.0,
                detail={"perturbations": {DRIVER: float(i % 40)}},
            )
            manager._record(scenario)
            journaled.append(scenario.to_dict())

        start = time.perf_counter()
        events = backend.load_scenarios("bench-ledger")
        fresh = ScenarioManager()
        replayed = fresh.replay(events)
        replay_seconds = time.perf_counter() - start
        replay_bitwise = [s.to_dict() for s in fresh.list()] == journaled
    finally:
        backend.close()
    return {
        "replay_events": replayed,
        "replay_seconds": replay_seconds,
        "replay_events_per_s": replayed / replay_seconds,
        "replay_bitwise": replay_bitwise,
    }


def test_persistence_overhead_and_replay():
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        summary = {
            "use_case": USE_CASE,
            "rows": ROWS,
            "submits_per_batch": SUBMITS_PER_BATCH,
            "rounds": ROUNDS,
            **bench_submit_overhead(tmp_dir),
            **bench_ledger_replay(tmp_dir),
        }

    print_table(
        f"durable-state job throughput, submit through result "
        f"(best of {summary['rounds_measured']} paired rounds)",
        [
            {"backend": "memory", "jobs_per_s": summary["memory_jobs_per_s"]},
            {"backend": "sqlite", "jobs_per_s": summary["sqlite_jobs_per_s"]},
        ],
    )
    print(
        f"overhead: {summary['overhead_pct']:+.2f}% "
        f"(budget {OVERHEAD_BUDGET_PCT}%), "
        f"replay: {summary['replay_events']} events in "
        f"{summary['replay_seconds']:.3f}s "
        f"({summary['replay_events_per_s']:,.0f}/s), "
        f"bitwise: {summary['replay_bitwise']}"
    )

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)

    assert summary["replay_bitwise"]
    assert summary["replay_events"] == REPLAY_EVENTS
    assert summary["overhead_ok"], (
        f"durable-state overhead {summary['overhead_pct']:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget "
        f"(memory {summary['memory_jobs_per_s']:.0f}/s vs "
        f"sqlite {summary['sqlite_jobs_per_s']:.0f}/s)"
    )
