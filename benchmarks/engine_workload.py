"""The engine benchmark workload behind ``test_bench_engine.py``.

The workload mirrors the paper's heavy interactive moment — several users
firing whole-dataset comparison sweeps at once — and answers three questions:

* **speedup** — N distinct sweeps on N sessions submitted to a worker pool
  versus the same sweeps dispatched synchronously one after another.  Two
  serialized baselines are timed so the gain decomposes honestly: the
  blocking synchronous protocol (``serial_s`` — what the seed backend did),
  and the same jobs on a 1-worker pool (``engine_serial_s`` — isolating
  worker concurrency from the chunked runners' cache-locality win, which is
  real even on one core: the one-shot sweep stacks every perturbed matrix
  into one huge kernel traversal whose working set falls out of cache);
* **equality** — every job payload must be bitwise identical to the
  synchronous response for the same analysis (the chunked checkpointed
  runners may not move a single ulp);
* **coalescing** — identical sensitivity submissions made while the pool is
  busy must collapse onto one job and one execution.

Thread-level speedup is bounded by the cores the process may use, so the
summary records ``cpu_count`` alongside the measured ratio; callers asserting
a floor should scale it accordingly (CI runners have ≥4 cores, dev sandboxes
sometimes 1).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

__all__ = ["run_engine_benchmark", "available_cpus"]


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _async_round(server, session_ids, sweeps) -> None:
    """Submit every sweep as a job and wait for all results (untimed warm
    round: starts worker processes and ships fitted models per fingerprint)."""
    job_ids = []
    for session_id, sweep in zip(session_ids, sweeps):
        response = server.request(
            "submit",
            {"action": "comparison", "params": dict(sweep), "session_id": session_id},
        )
        if not response.ok:
            raise RuntimeError(f"warm submit failed: {response.error}")
        job_ids.append(response.data["job"]["job_id"])
    for job_id in job_ids:
        response = server.request("job_result", job_id=job_id, timeout_s=600.0)
        if not response.ok:
            raise RuntimeError(f"warm job_result failed: {response.error}")


def _sweep_amounts(job_index: int, amounts_per_job: int) -> list[float]:
    """A distinct, zero-free amount grid per job (every point costs a matrix)."""
    base = [-40.0 + 80.0 * i / max(1, amounts_per_job - 1) for i in range(amounts_per_job)]
    return [round(a + 0.7 * (job_index + 1), 3) for a in base]


def run_engine_benchmark(
    *,
    use_case: str = "deal_closing",
    rows: int = 800,
    n_jobs: int = 4,
    workers: int = 4,
    amounts_per_job: int = 8,
    coalesce_submissions: int = 6,
    seed: int = 0,
    executor: str = "thread",
) -> dict[str, Any]:
    """Run the concurrent-sweep workload; returns a JSON-safe summary.

    Raises ``RuntimeError`` on any request failure or payload mismatch, so
    callers can trust every number in the summary.

    With ``executor="process"`` both servers (the measured pool and the
    1-worker serialized baseline) route the jobs through a process pool, and
    an extra *async* warm round runs on each before timing so process
    startup and the one-time model shipping don't pollute the measured
    ratios — the steady state is what users of a long-lived backend see.
    """
    from repro.datasets import get_use_case
    from repro.server import SessionRegistry, SystemDServer

    server = SystemDServer(
        registry=SessionRegistry(capacity=max(64, n_jobs)),
        engine_workers=workers,
        executor=executor,
    )
    dataset_kwargs = get_use_case(use_case).size_kwargs(rows)

    session_ids: list[str] = []
    for _ in range(n_jobs):
        response = server.request(
            "create_session",
            use_case=use_case,
            dataset_kwargs=dataset_kwargs,
            random_state=seed,
        )
        if not response.ok:
            raise RuntimeError(f"create_session failed: {response.error}")
        session_ids.append(response.data["session_id"])

    sweeps = [
        {"amounts": _sweep_amounts(index, amounts_per_job)}
        for index in range(n_jobs)
    ]

    def sync_once(index: int):
        response = server.request(
            "comparison", session_id=session_ids[index], **sweeps[index]
        )
        if not response.ok:
            raise RuntimeError(f"comparison failed: {response.error}")
        return response.data

    # warm-up: trains the (shared) model, memoises baselines, and yields the
    # synchronous reference payloads the job results must match bitwise
    references = [sync_once(index) for index in range(n_jobs)]

    if executor == "process":
        _async_round(server, session_ids, sweeps)

    started = time.perf_counter()
    for index in range(n_jobs):
        sync_once(index)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    job_ids: list[str] = []
    for index in range(n_jobs):
        response = server.request(
            "submit",
            {
                "action": "comparison",
                "params": dict(sweeps[index]),
                "session_id": session_ids[index],
            },
        )
        if not response.ok:
            raise RuntimeError(f"submit failed: {response.error}")
        job_ids.append(response.data["job"]["job_id"])

    results = []
    for job_id in job_ids:
        response = server.request("job_result", job_id=job_id, timeout_s=600.0)
        if not response.ok:
            raise RuntimeError(f"job_result failed: {response.error}")
        results.append(response.data["result"])
    parallel_s = time.perf_counter() - started

    bitwise_equal = all(
        json.dumps(result, sort_keys=True) == json.dumps(reference, sort_keys=True)
        for result, reference in zip(results, references)
    )
    if not bitwise_equal:
        raise RuntimeError("async job payloads diverged from the synchronous path")

    # serialized-engine baseline: the identical jobs on a 1-worker pool
    # (sessions share the trained models through the same model cache)
    serial_server = SystemDServer(
        registry=SessionRegistry(capacity=max(64, n_jobs)),
        model_cache=server.model_cache,
        engine_workers=1,
        executor=executor,
    )
    serial_session_ids = []
    for _ in range(n_jobs):
        response = serial_server.request(
            "create_session",
            use_case=use_case,
            dataset_kwargs=dataset_kwargs,
            random_state=seed,
        )
        if not response.ok:
            raise RuntimeError(f"create_session failed: {response.error}")
        serial_session_ids.append(response.data["session_id"])
    for index in range(n_jobs):  # warm the per-session baselines
        response = serial_server.request(
            "comparison", session_id=serial_session_ids[index], **sweeps[index]
        )
        if not response.ok:
            raise RuntimeError(f"warm-up comparison failed: {response.error}")
    if executor == "process":
        _async_round(serial_server, serial_session_ids, sweeps)
    started = time.perf_counter()
    serial_job_ids = []
    for index in range(n_jobs):
        response = serial_server.request(
            "submit",
            {
                "action": "comparison",
                "params": dict(sweeps[index]),
                "session_id": serial_session_ids[index],
            },
        )
        if not response.ok:
            raise RuntimeError(f"submit failed: {response.error}")
        serial_job_ids.append(response.data["job"]["job_id"])
    for job_id in serial_job_ids:
        response = serial_server.request("job_result", job_id=job_id, timeout_s=600.0)
        if not response.ok:
            raise RuntimeError(f"job_result failed: {response.error}")
    engine_serial_s = time.perf_counter() - started
    serial_server.close()

    # coalescing: park a sweep on session 0 (its job holds the session lock),
    # so identical sensitivity submissions cannot complete mid-loop — they
    # must attach to one in-flight job and run once when the blocker ends
    blocker = server.request(
        "submit",
        {
            "action": "comparison",
            "params": dict(sweeps[0]),
            "session_id": session_ids[0],
        },
    )
    if not blocker.ok:
        raise RuntimeError(f"blocker submit failed: {blocker.error}")
    blocker_id = blocker.data["job"]["job_id"]
    for _ in range(5000):
        status = server.request("job_status", job_id=blocker_id)
        if status.ok and status.data["job"]["state"] != "pending":
            break
        time.sleep(0.001)
    driver = server.request("describe_dataset", session_id=session_ids[1]).data["drivers"][0]
    sensitivity_params = {"perturbations": {driver: 25.0}}
    coalesce_ids = set()
    coalesced_flags = []
    for _ in range(max(1, coalesce_submissions)):
        response = server.request(
            "submit",
            {
                "action": "sensitivity",
                "params": sensitivity_params,
                "session_id": session_ids[0],
            },
        )
        if not response.ok:
            raise RuntimeError(f"coalescing submit failed: {response.error}")
        coalesce_ids.add(response.data["job"]["job_id"])
        coalesced_flags.append(bool(response.data["coalesced"]))

    coalesce_job_id = next(iter(coalesce_ids))
    coalesce_result = server.request("job_result", job_id=coalesce_job_id, timeout_s=600.0)
    if not coalesce_result.ok:
        raise RuntimeError(f"coalesced job failed: {coalesce_result.error}")
    sensitivity_sync = server.request(
        "sensitivity", session_id=session_ids[0], **sensitivity_params
    )
    coalesced_equal = json.dumps(coalesce_result.data["result"], sort_keys=True) == json.dumps(
        sensitivity_sync.data, sort_keys=True
    )

    engine_stats = server.engine.stats()
    server.close()
    return {
        "use_case": use_case,
        "rows": rows,
        "n_jobs": n_jobs,
        "executor": executor,
        "workers": workers,
        "amounts_per_job": amounts_per_job,
        "cpu_count": available_cpus(),
        "serial_s": serial_s,
        "engine_serial_s": engine_serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "worker_speedup": engine_serial_s / parallel_s if parallel_s else float("inf"),
        "bitwise_equal": bitwise_equal,
        "coalescing": {
            "submissions": max(1, coalesce_submissions),
            "distinct_jobs": len(coalesce_ids),
            "coalesced_flags": coalesced_flags,
            "attached": coalesce_result.data["job"]["attached"],
            "result_matches_sync": coalesced_equal,
        },
        "engine": engine_stats,
    }
