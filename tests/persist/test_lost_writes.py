"""A journal write that fails loses nothing a client has seen.

The fault is injected inside SQLite: a ``TEMP`` trigger on the server's own
connection aborts the chosen job writes, so the error comes up through the
store's one write path the way a failing disk's would, and disappears with
the connection (the restarted server opens the file cleanly).
"""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.persist import JOB_INTERRUPTED_REASON, StateBackend
from repro.server import SystemDServer

PARAMS = {"perturbations": {"Open Marketing Email": 10.0}}


def fail_job_writes(backend: StateBackend, states: str) -> None:
    """Make every write of a job record in one of ``states`` raise."""
    backend._conn.execute(
        "CREATE TEMP TRIGGER lose_job_writes BEFORE INSERT ON main.jobs "
        f"WHEN NEW.state IN ({states}) "
        "BEGIN SELECT RAISE(ABORT, 'injected write failure'); END"
    )


def job_failures() -> float:
    return metrics.counter("repro_persist_failures_total").labels("job").value


@pytest.fixture
def server(tmp_path):
    server = SystemDServer(backend=StateBackend(tmp_path / "state.sqlite3"), engine_workers=1)
    loaded = server.request(
        "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 60}
    )
    assert loaded.ok, loaded.error
    yield server
    server.close()
    server.registry.backend.close()


def test_lost_terminal_write_fails_the_job_and_a_restart_agrees(server, tmp_path):
    fail_job_writes(server.registry.backend, "'done', 'failed', 'cancelled'")
    before = job_failures()
    submitted = server.request("submit", {"action": "sensitivity", "params": PARAMS})
    assert submitted.ok, submitted.error
    job_id = submitted.data["job"]["job_id"]

    result = server.request("job_result", job_id=job_id, wait=True, timeout_s=60)
    assert not result.ok
    assert "journal write failed" in result.error
    job = server.request("job_status", job_id=job_id).data["job"]
    assert job["state"] == "failed" and "injected write failure" in job["error"]
    # the one terminal publisher ends the stream in the same state
    events = [event.type for event in server.engine.subscribe(job_id)]
    assert events[-1] == "failed" and "done" not in events
    assert job_failures() == before + 1

    server.close()
    server.registry.backend.close()
    restarted = SystemDServer(backend=StateBackend(tmp_path / "state.sqlite3"))
    try:
        job = restarted.request("job_status", job_id=job_id).data["job"]
        assert job["state"] == "failed"
        assert job["error"] == JOB_INTERRUPTED_REASON
    finally:
        restarted.close()
        restarted.registry.backend.close()


def test_lost_pending_write_refuses_the_submit_and_queues_nothing(server):
    fail_job_writes(server.registry.backend, "'pending'")
    before = job_failures()
    submitted = server.request("submit", {"action": "sensitivity", "params": PARAMS})
    assert not submitted.ok
    assert "injected write failure" in submitted.error
    assert job_failures() == before + 1
    assert server.engine.store.stats()["tracked"] == 0
    assert server.engine.pool.stats()["queue_depth"] == 0
