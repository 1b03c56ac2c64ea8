"""Protocol-level sweep-job tests: coalescing, cancellation, progress.

Every sweep is a ``run_sweep`` job submitted through ``submit``, whose space
is canonicalised before the engine hashes the params.  Deterministic
concurrency control mirrors ``test_engine``: the sweep's batched scoring is
forced onto the chunked fallback path (tiny chunks) and
``ModelManager.predict_kpi_batch`` is wrapped with an event barrier, so
"cancel mid-chunk" and "inspect progress mid-run" never race the worker.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.scenarios.planner as planner
from repro.core import WhatIfSession
from repro.core.model_manager import ModelManager
from repro.scenarios import ScenarioSpace
from repro.server import SystemDServer
from repro.server.serialization import to_json_safe

ROWS = 80

SPACE = {
    "axes": [
        {"driver": "Call", "start": -40, "stop": 40, "step": 20},
        {"driver": "Renewal", "amounts": [0, 20, 40]},
    ]
}

#: The same space with its axes listed in the opposite order.
SPACE_REVERSED = {"axes": list(reversed(SPACE["axes"]))}

#: Spaces the wire parsers reject; each must be a protocol error, not a crash.
INVALID_SPACES = (
    {},
    {"space": "not an object"},
    {"space": {"axes": []}},
    {"space": {"axes": [{"driver": "Call"}]}},
    {"space": {"axes": [{"driver": "Call", "amounts": [1], "mode": "typo"}]}},
    {"space": {"axes": [5]}},
    {"space": {"axes": "abc"}},
    {"space": {"axes": [{"driver": "Call", "amounts": [0]}], "sample": [1]}},
    {"space": {"axes": [{"driver": "Call", "amounts": "12345"}]}},
    {
        "space": {
            "axes": [{"driver": "Call", "amounts": [0]}],
            "constraints": [{"kind": "budget", "limit": 1, "weights": [1]}],
        }
    },
    {"space": {"axes": [{"driver": "Call", "amounts": [0]}], "sample": {"n": 2, "seed": 1e999}}},
)


def make_server(workers: int = 1) -> SystemDServer:
    server = SystemDServer(engine_workers=workers)
    loaded = server.request(
        "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": ROWS}
    )
    assert loaded.ok, loaded.error
    return server


def submit_sweep(server: SystemDServer, session_id: str = "", **params):
    """Submit a ``run_sweep`` job with ``params``; returns the response."""
    return server.request(
        "submit", {"action": "run_sweep", "params": params}, session_id=session_id
    )


def fetch_result(server: SystemDServer, submitted, timeout_s: float = 120):
    """Wait for a submitted sweep job and return the ``job_result`` response."""
    return server.request("job_result", job_id=submitted.data["job"]["job_id"], timeout_s=timeout_s)


def in_process_sweep(space: dict, **kwargs) -> str:
    """``WhatIfSession.sweep`` on a fresh session, as canonical JSON text."""
    session = WhatIfSession.from_use_case(
        "deal_closing", dataset_kwargs={"n_prospects": ROWS}, random_state=0
    )
    result = session.sweep(ScenarioSpace.from_dict(space), **kwargs)
    return json.dumps(to_json_safe(result), sort_keys=True)


class Barrier:
    """Wraps predict_kpi_batch: lets one chunk through, then blocks."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self.original = ModelManager.predict_kpi_batch

    def handle(self, manager, matrices):
        self.calls += 1
        if self.calls > 1:
            self.started.set()
            assert self.release.wait(30), "barrier was never released"
        return self.original(manager, matrices)


@pytest.fixture
def barrier(monkeypatch):
    """Force the chunked path (2 scenarios per chunk) behind a barrier."""
    instance = Barrier()

    def wrapped(manager, matrices):
        return instance.handle(manager, matrices)

    monkeypatch.setattr(planner, "grid_sweep_kpis", lambda *a, **k: None)
    monkeypatch.setattr(planner, "SWEEP_CHUNK_SCENARIOS", 2)
    monkeypatch.setattr(ModelManager, "predict_kpi_batch", wrapped)
    yield instance
    instance.release.set()  # never leave a worker blocked


class TestSweepSubmission:
    def test_async_result_matches_sync_run_sweep(self):
        server = make_server(workers=2)
        submitted = submit_sweep(server, space=SPACE, top_k=3)
        assert submitted.ok, submitted.error
        assert submitted.data["job"]["action"] == "run_sweep"
        fetched = fetch_result(server, submitted)
        assert fetched.ok, fetched.error
        assert fetched.data["result"]["n_space"] == 15
        sync = server.request("run_sweep", space=SPACE, top_k=3)
        assert sync.ok, sync.error
        assert json.dumps(fetched.data["result"], sort_keys=True) == json.dumps(
            sync.data, sort_keys=True
        )
        # both runs auto-recorded into the ledger as sweep scenarios
        ledger = server.request("list_scenarios")
        assert [s["kind"] for s in ledger.data["scenarios"]] == ["sweep", "sweep"]
        server.close()

    def test_same_space_in_two_sessions_runs_one_job_each(self):
        # the coalesce key covers the session: the same space submitted from
        # two sessions runs two jobs, each scoring its own session's rows
        server = make_server()
        other = server.request(
            "create_session", use_case="deal_closing", dataset_kwargs={"n_prospects": 60}
        )
        assert other.ok, other.error
        other_id = other.data["session_id"]
        mine = submit_sweep(server, space=SPACE)
        theirs = submit_sweep(server, session_id=other_id, space=SPACE)
        assert not theirs.data["coalesced"]
        assert mine.data["job"]["job_id"] != theirs.data["job"]["job_id"]
        assert theirs.data["job"]["session_id"] == other_id
        assert fetch_result(server, mine).ok
        fetched = fetch_result(server, theirs)
        assert fetched.ok, fetched.error
        scoped = server.request("run_sweep", space=SPACE, session_id=other_id)
        assert fetched.data["result"] == scoped.data
        server.close()

    def test_invalid_spaces_are_protocol_errors(self):
        server = make_server()
        for params in INVALID_SPACES:
            # in process, and at submission: nothing is queued
            for response in (
                server.request("run_sweep", params),
                server.request("submit", {"action": "run_sweep", "params": params}),
            ):
                assert not response.ok, params
                # every failure is a structured protocol error, not a crash
                assert response.error_kind == "protocol", (params, response.error)
                assert "space" in response.error or "invalid" in response.error
        assert server.request("list_jobs").data["total"] == 0
        server.close()


class TestSweepCoalescing:
    def test_identical_spaces_coalesce_across_axis_order(self, barrier):
        server = make_server(workers=1)
        first = submit_sweep(server, space=SPACE)
        assert first.ok, first.error
        assert barrier.started.wait(10)
        # same space, different listing order: canonicalisation makes the
        # submissions byte-identical, so they attach to the in-flight job
        second = submit_sweep(server, space=SPACE_REVERSED)
        assert second.ok, second.error
        assert second.data["coalesced"]
        assert second.data["job"]["job_id"] == first.data["job"]["job_id"]
        assert second.data["job"]["attached"] == 2
        # a different space must not coalesce
        other = submit_sweep(server, space={"axes": [{"driver": "Call", "amounts": [5.0]}]})
        assert not other.data["coalesced"]
        barrier.release.set()
        # drain every job before the patched scoring path is restored
        results = [fetch_result(server, data) for data in (first, second, other)]
        for result in results:
            assert result.ok, result.error
        assert server.engine.stats()["executed_total"] == 2
        expected = in_process_sweep(SPACE)
        for result in results[:2]:
            assert json.dumps(result.data["result"], sort_keys=True) == expected
        server.close()

    def test_different_top_k_does_not_coalesce(self, barrier):
        server = make_server(workers=1)
        first = submit_sweep(server, space=SPACE, top_k=3)
        assert barrier.started.wait(10)
        second = submit_sweep(server, space=SPACE_REVERSED, top_k=5)
        assert not second.data["coalesced"]
        assert second.data["job"]["job_id"] != first.data["job"]["job_id"]
        barrier.release.set()
        # drain every job before the patched scoring path is restored
        for data, top_k in ((first, 3), (second, 5)):
            result = fetch_result(server, data)
            assert result.ok, result.error
            assert json.dumps(result.data["result"], sort_keys=True) == in_process_sweep(
                SPACE, top_k=top_k
            )
        server.close()


class TestSweepCancellationAndProgress:
    def test_cancel_mid_chunk_stops_at_next_checkpoint(self, barrier):
        server = make_server(workers=1)
        submitted = submit_sweep(server, space=SPACE)
        assert submitted.ok, submitted.error
        job_id = submitted.data["job"]["job_id"]
        assert barrier.started.wait(10)
        cancelled = server.request("cancel_job", job_id=job_id)
        assert cancelled.ok
        barrier.release.set()
        result = fetch_result(server, submitted, timeout_s=60)
        assert not result.ok
        assert "cancelled" in result.error
        status = server.request("job_status", job_id=job_id)
        assert status.data["job"]["state"] == "cancelled"
        assert status.data["job"]["progress"] < 1.0
        server.close()

    def test_list_jobs_surfaces_sweep_progress_fraction(self, barrier):
        server = make_server(workers=1)
        submitted = submit_sweep(server, space=SPACE)
        assert submitted.ok, submitted.error
        assert barrier.started.wait(10)
        # one of eight 2-scenario chunks finished and checkpointed
        listing = server.request("list_jobs", states=["running"])
        assert listing.ok
        jobs = listing.data["jobs"]
        assert len(jobs) == 1
        assert jobs[0]["action"] == "run_sweep"
        assert 0.0 < jobs[0]["progress"] < 1.0
        barrier.release.set()
        done = fetch_result(server, submitted)
        assert done.ok, done.error
        assert done.data["job"]["progress"] == 1.0
        server.close()
