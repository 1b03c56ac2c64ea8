"""Process-boundary lifecycle tests for the :class:`ProcessExecutor`.

The races a process pool must survive are different from a thread pool's:
the shared cancel flag crosses an OS boundary, a worker can be SIGKILLed by
the kernel mid-unit, and shutdown must not leak child processes.  These
tests drive those paths deterministically — cancellation via a checkpoint
that raises at a controlled moment, worker death via an explicit ``SIGKILL``
on the worker's pid (taken from :meth:`ProcessExecutor.stats`), so nothing
here depends on winning a timing race.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.goal_inversion import goal_inversion_unit
from repro.core.sensitivity import sensitivity_rows_unit, split_ranges
from repro.engine import JobCancelled, ProcessExecutor, WorkerUnitError
from repro.server import SystemDServer

pytestmark = pytest.mark.skipif(
    not ProcessExecutor.available(), reason="spawn start method unavailable"
)


def sensitivity_units(manager, parts=4):
    """Row-range sensitivity units over the deal dataset (the real unit the
    sweep runners dispatch, so these tests exercise the production codec)."""
    wire = [{"driver": manager.drivers[0], "amount": 25.0, "mode": "percentage"}]
    return [
        (sensitivity_rows_unit, {"perturbations": wire, "rows": [start, stop]})
        for start, stop in split_ranges(manager.frame.n_rows, parts)
    ]


@pytest.fixture(scope="module")
def pool():
    executor = ProcessExecutor(workers=2, name="repro-test")
    yield executor
    executor.shutdown(wait=True)


@pytest.fixture(scope="module")
def manager(deal_manager):
    deal_manager.fit()  # ship a fitted model, as the engine's sessions do
    return deal_manager


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestExecution:
    def test_results_match_in_process_units(self, pool, manager):
        units = sensitivity_units(manager)
        parallel = pool.run_units(manager, units)
        serial = [
            function(manager, payload, lambda _f: None) for function, payload in units
        ]
        for got, expected in zip(parallel, serial):
            assert np.array_equal(np.asarray(got), np.asarray(expected))

    def test_models_ship_once_per_fingerprint(self, pool, manager):
        pool.run_units(manager, sensitivity_units(manager))
        shipped_before = pool.stats()["models_shipped_total"]
        pool.run_units(manager, sensitivity_units(manager))
        assert pool.stats()["models_shipped_total"] == shipped_before

    def test_empty_units_returns_empty(self, pool, manager):
        assert pool.run_units(manager, []) == []

    def test_progress_reaches_completion(self, pool, manager):
        seen = []
        pool.run_units(
            manager,
            sensitivity_units(manager),
            checkpoint=seen.append,
            progress=(0.25, 0.75),
        )
        assert seen[0] == pytest.approx(0.25)
        assert seen == sorted(seen)
        assert seen[-1] == pytest.approx(0.75)


class TestCancellation:
    def test_cancel_before_start(self, pool, manager):
        # a job cancelled while still queued: its checkpoint raises on the
        # very first publish, before any unit result is consumed
        def checkpoint(_fraction):
            raise JobCancelled("j-cancelled-before-start")

        with pytest.raises(JobCancelled):
            pool.run_units(manager, sensitivity_units(manager), checkpoint=checkpoint)
        # the pool must fully release the group and stay usable
        assert wait_for(lambda: pool.stats()["groups_active"] == 0)
        assert pool.run_units(manager, sensitivity_units(manager))

    def test_cancel_mid_run_via_shared_flag(self, pool, manager):
        # let real progress flow, then cancel: the shared flag must stop the
        # remaining in-flight units inside the workers (they report
        # "cancelled", not "done")
        cancelled_before = pool.stats()["units_cancelled_total"]
        state = {"progressed": False}

        def checkpoint(fraction):
            if fraction > 0.0:
                state["progressed"] = True
                raise JobCancelled("j-cancelled-mid-run")

        # goal-inversion units are slow enough (30 optimizer calls each, a
        # checkpoint per call) that the first progress message arrives while
        # later units are still queued or mid-run on the workers
        payload = {
            "goal": "maximize",
            "target_value": None,
            "drivers": manager.drivers[:2],
            "bounds": {driver: [-50.0, 100.0] for driver in manager.drivers[:2]},
            "mode": "percentage",
            "default_range": [-50.0, 100.0],
            "n_calls": 30,
            "optimizer": "random",
            "random_state": 0,
        }
        units = [(goal_inversion_unit, dict(payload, random_state=i)) for i in range(8)]
        with pytest.raises(JobCancelled):
            pool.run_units(manager, units, checkpoint=checkpoint)
        assert state["progressed"]
        assert wait_for(lambda: pool.stats()["groups_active"] == 0)
        assert wait_for(
            lambda: pool.stats()["units_cancelled_total"] > cancelled_before
        )
        # the flag was reset with the slot: the next group runs to completion
        assert pool.run_units(manager, sensitivity_units(manager))


class TestWorkerDeath:
    def test_dead_worker_surfaces_as_error_not_hang(self, pool, manager):
        pool.run_units(manager, sensitivity_units(manager))  # pool warm
        victim = pool.stats()["per_worker"][0]
        assert victim["alive"]
        os.kill(victim["pid"], signal.SIGKILL)
        wait_for(lambda: not pool.stats()["per_worker"][0]["alive"], timeout=10.0)
        # units round-robin across both workers, so some land on the corpse;
        # the waiter must reap it and fail the group instead of hanging
        with pytest.raises(WorkerUnitError, match="died mid-job"):
            pool.run_units(manager, sensitivity_units(manager))
        stats = pool.stats()
        assert stats["respawns"] >= 1
        # the respawned worker needs the model re-shipped, then works again
        results = pool.run_units(manager, sensitivity_units(manager))
        assert len(results) == 4

    def test_lost_dispatch_trips_stall_watchdog(self, manager):
        """A swallowed task (queue feeder failure) fails the job, never hangs."""

        class _BlackHole:
            def put(self, task):
                pass  # the task vanishes: no worker ever sees it

        executor = ProcessExecutor(workers=1, name="repro-test-stall")
        try:
            executor.run_units(manager, sensitivity_units(manager))  # pool warm
            real_queue = executor._task_queues[0]
            executor._task_queues[0] = _BlackHole()
            # tighten only now: a cold spawn + model shipping can itself
            # exceed a short timeout, which is legitimate silence
            executor._stall_timeout = 1.0
            with pytest.raises(WorkerUnitError, match="dispatch lost"):
                executor.run_units(manager, sensitivity_units(manager))
            executor._task_queues[0] = real_queue
        finally:
            executor.shutdown(wait=True)


class TestShutdown:
    def test_shutdown_leaves_no_orphans(self, deal_manager):
        executor = ProcessExecutor(workers=2, name="repro-test-shutdown")
        executor.run_units(deal_manager, sensitivity_units(deal_manager))
        pids = [worker["pid"] for worker in executor.stats()["per_worker"]]
        assert all(pid for pid in pids)
        executor.shutdown(wait=True)
        for pid in pids:
            assert wait_for(lambda: not _alive(pid), timeout=10.0), (
                f"worker {pid} survived shutdown"
            )
        with pytest.raises(RuntimeError, match="shut down"):
            executor.run_units(deal_manager, sensitivity_units(deal_manager))

    def test_shutdown_before_start_is_noop(self):
        executor = ProcessExecutor(workers=2)
        executor.shutdown(wait=True)
        assert executor.stats()["started"] is False


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    return True


class TestEngineIntegration:
    @pytest.fixture()
    def server(self):
        server = SystemDServer(executor="process", engine_workers=2)
        response = server.request(
            "load_use_case",
            use_case="deal_closing",
            dataset_kwargs={"n_prospects": 200},
            random_state=0,
        )
        assert response.ok, response.error
        yield server
        server.close()

    def test_worker_death_fails_job_cleanly(self, server):
        # warm: starts the pool and ships the model
        params = {"perturbations": {"Open Marketing Email": 25.0}}
        warm = server.request("submit", {"action": "sensitivity", "params": params})
        assert warm.ok, warm.error
        result = server.request(
            "job_result", job_id=warm.data["job"]["job_id"], timeout_s=120.0
        )
        assert result.ok and result.data["job"]["state"] == "done"

        pool = server.engine.process_executor
        for worker in pool.stats()["per_worker"]:
            os.kill(worker["pid"], signal.SIGKILL)
        submitted = server.request(
            "submit",
            {"action": "sensitivity", "params": {"perturbations": {"Call": 10.0}}},
        )
        assert submitted.ok, submitted.error
        job_id = submitted.data["job"]["job_id"]
        # job_result refuses failed jobs with a structured error (never a hang)
        outcome = server.request("job_result", job_id=job_id, timeout_s=120.0)
        assert not outcome.ok
        assert "died mid-job" in outcome.error, outcome.error
        status = server.request("job_status", job_id=job_id)
        assert status.ok, status.error
        job = status.data["job"]
        assert job["state"] == "failed", job
        assert "died mid-job" in job["error"], job
        # let the respawned workers finish bootstrapping so the fixture's
        # close() shuts them down cleanly instead of mid-spawn
        wait_for(
            lambda: all(w["alive"] for w in pool.stats()["per_worker"]), timeout=30.0
        )

    def test_server_stats_reports_executor(self, server):
        executor_stats = server.stats()["engine"]["executor"]
        assert executor_stats["kind"] == "process"
        assert executor_stats["requested"] == "process"
        process = executor_stats["process"]
        assert process["workers"] == 2
        assert len(process["per_worker"]) == 2
        for worker in process["per_worker"]:
            assert set(worker) >= {
                "worker",
                "pid",
                "alive",
                "units_done",
                "models_shipped",
            }

    def test_thread_fallback_when_spawn_unavailable(self, monkeypatch):
        monkeypatch.setattr(ProcessExecutor, "available", staticmethod(lambda: False))
        server = SystemDServer(executor="process")
        try:
            assert server.engine.executor_kind == "thread"
            stats = server.stats()["engine"]["executor"]
            assert stats["requested"] == "process"
            assert stats["kind"] == "thread"
            assert "spawn" in stats["fallback_reason"]
            assert server.engine.executor_for("sensitivity") is None
        finally:
            server.close()

    def test_thread_engine_has_no_process_block(self):
        server = SystemDServer()
        try:
            stats = server.stats()["engine"]["executor"]
            assert stats == {"kind": "thread", "requested": "thread"}
        finally:
            server.close()
