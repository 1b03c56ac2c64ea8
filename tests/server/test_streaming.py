"""End-to-end SSE streaming tests over a real socket.

The acceptance bar for the streaming subsystem, asserted here:

* a subscriber attached to a *running* sweep job receives at least one
  incremental frontier chunk before the job finishes (proved with a barrier
  that holds the job mid-run until the chunk has been read live);
* after a dropped connection, reconnecting with ``Last-Event-ID`` resumes
  with no missing and no duplicated events;
* ``?cancel_on_disconnect=1`` transitions the job to ``cancelled`` when the
  client vanishes — under both the thread and the process executor;
* the ``done`` event's embedded result is bitwise-identical to the polled
  ``job_result`` payload;
* a finished job whose bus channel is gone (evicted LRU, or restored from
  durable state after a restart) still streams its terminal event and ends.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.scenarios.planner as planner
import repro.server.app as app_module
from repro.core.model_manager import ModelManager
from repro.server import DEFAULT_SESSION_ID, serve_http
from repro.server.stream import StreamClient, StreamError, parse_sse

SESSION = f"/api/v1/sessions/{DEFAULT_SESSION_ID}"

SPACE = {
    "axes": [
        {"driver": "Call", "start": -40, "stop": 40, "step": 20},
        {"driver": "Renewal", "amounts": [0, 20, 40]},
    ]
}

#: Large enough that a process-executor sweep runs for many seconds.
BIG_SPACE = {
    "axes": [
        {"driver": "Call", "start": -40, "stop": 40, "step": 2},
        {"driver": "Renewal", "amounts": [0, 10, 20, 30, 40]},
    ]
}


def start_http(**kwargs):
    httpd = serve_http(port=0, **kwargs)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd


def stop_http(httpd):
    httpd.shutdown()
    httpd.backend.close()
    httpd.server_close()


def call(httpd, method: str, path: str, body: dict | None = None, timeout=120.0) -> dict:
    """One ``/api/v1`` round trip; returns the decoded envelope (2xx only)."""
    host, port = httpd.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=None if body is None else json.dumps(body).encode("utf-8"),
        method=method,
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def load(httpd, rows: int) -> None:
    body = {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": rows}}
    envelope = call(httpd, "PUT", f"{SESSION}/dataset", body)
    assert envelope["ok"], envelope["error"]


def submit_sweep(httpd, space=SPACE) -> str:
    body = {"action": "run_sweep", "params": {"space": space}}
    envelope = call(httpd, "POST", f"{SESSION}/jobs", body)
    assert envelope["ok"], envelope["error"]
    return envelope["data"]["job"]["job_id"]


def job_result(httpd, job_id: str) -> dict:
    envelope = call(httpd, "GET", f"{SESSION}/jobs/{job_id}?result=1&timeout_s=60")
    assert envelope["ok"], envelope["error"]
    return envelope["data"]["result"]


def job_state(httpd, job_id: str) -> str:
    envelope = call(httpd, "GET", f"{SESSION}/jobs/{job_id}")
    assert envelope["ok"], envelope["error"]
    return envelope["data"]["job"]["state"]


def wait_terminal(httpd, job_id: str, timeout: float = 60.0) -> str:
    deadline = time.time() + timeout
    while time.time() < deadline:
        state = job_state(httpd, job_id)
        if state in ("done", "failed", "cancelled"):
            return state
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {state!r} after {timeout}s")


def make_client(httpd, **kwargs) -> StreamClient:
    host, port = httpd.server_address[:2]
    return StreamClient(host, port, **kwargs)


@pytest.fixture(scope="module")
def thread_httpd():
    httpd = start_http(workers=2)
    load(httpd, 80)
    yield httpd
    stop_http(httpd)


@pytest.fixture
def chunked(monkeypatch):
    """Force the sweep onto the chunked fallback (2 scenarios per chunk)."""
    monkeypatch.setattr(planner, "grid_sweep_kpis", lambda *a, **k: None)
    monkeypatch.setattr(planner, "SWEEP_CHUNK_SCENARIOS", 2)


class Gate:
    """Wraps ``predict_kpi_batch``: chunk 1 passes, later chunks block."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0
        self.original = ModelManager.predict_kpi_batch

    def handle(self, manager, matrices):
        self.calls += 1
        if self.calls > 1:
            assert self.release.wait(30), "gate was never released"
        return self.original(manager, matrices)


@pytest.fixture
def gate(monkeypatch, chunked):
    instance = Gate()
    monkeypatch.setattr(
        ModelManager, "predict_kpi_batch", lambda m, x: instance.handle(m, x)
    )
    yield instance
    instance.release.set()


#: A sweep space big enough that, at one slowed chunk per scenario, many
#: seconds of work remain after the first chunk — disconnect detection
#: (a couple of keepalive intervals) always lands well before completion.
SLOW_SPACE = {
    "axes": [
        {"driver": "Call", "start": -40, "stop": 40, "step": 5},
        {"driver": "Renewal", "amounts": [0, 20, 40]},
    ]
}


@pytest.fixture
def slow_chunks(monkeypatch):
    """One scenario per chunk, each slowed down: a sweep that takes ~15s."""
    monkeypatch.setattr(planner, "grid_sweep_kpis", lambda *a, **k: None)
    monkeypatch.setattr(planner, "SWEEP_CHUNK_SCENARIOS", 1)
    original = ModelManager.predict_kpi_batch

    def slowed(manager, matrices):
        time.sleep(0.3)
        return original(manager, matrices)

    monkeypatch.setattr(ModelManager, "predict_kpi_batch", slowed)


class TestLiveStreaming:
    def test_chunk_arrives_while_job_is_still_running(self, thread_httpd, gate):
        job_id = submit_sweep(thread_httpd)
        client = make_client(thread_httpd)
        stream = client.stream_job(DEFAULT_SESSION_ID, job_id)
        events = []
        first_chunk = None
        for event in stream:
            events.append(event)
            if event.type == "sweep_chunk":
                first_chunk = event
                break
        # the gate still holds chunk 2: the chunk was delivered mid-run
        assert first_chunk is not None
        assert first_chunk.payload["scored"] < first_chunk.payload["total"]
        assert first_chunk.payload["kpi_values"]
        assert job_state(thread_httpd, job_id) == "running"
        gate.release.set()
        events.extend(stream)
        types = [event.type for event in events]
        assert types[0] == "queued"
        assert "started" in types
        assert types[-1] == "done"
        assert types.count("sweep_chunk") == 8  # ceil(15 scenarios / 2 per chunk)
        seqs = [event.event_id for event in events]
        assert seqs == list(range(1, len(events) + 1))  # contiguous, no gaps

    def test_streamed_result_is_bitwise_identical_to_polled(self, thread_httpd, chunked):
        job_id = submit_sweep(thread_httpd)
        events = list(make_client(thread_httpd).stream_job(DEFAULT_SESSION_ID, job_id))
        assert events[-1].type == "done"
        streamed = events[-1].payload["result"]
        polled = job_result(thread_httpd, job_id)
        assert json.dumps(streamed, sort_keys=True) == json.dumps(polled, sort_keys=True)

    def test_resume_from_last_event_id_misses_and_duplicates_nothing(
        self, thread_httpd, chunked
    ):
        job_id = submit_sweep(thread_httpd)
        client = make_client(thread_httpd)
        # first connection drops after 4 events (no polite shutdown)
        first = list(
            client.stream_job(DEFAULT_SESSION_ID, job_id, max_events=4)
        )
        assert len(first) == 4
        assert client.last_event_id == first[-1].event_id
        # reconnect: the client resumes from its Last-Event-ID automatically
        second = list(client.stream_job(DEFAULT_SESSION_ID, job_id))
        seqs = [event.event_id for event in first + second]
        assert seqs == list(range(1, len(seqs) + 1))  # no misses, no duplicates
        assert (first + second)[-1].type == "done"
        assert all(event.type != "gap" for event in second)

    def test_late_subscriber_replays_a_finished_jobs_stream(
        self, thread_httpd, chunked
    ):
        job_id = submit_sweep(thread_httpd)
        assert wait_terminal(thread_httpd, job_id) == "done"
        events = list(make_client(thread_httpd).stream_job(DEFAULT_SESSION_ID, job_id))
        types = [event.type for event in events]
        assert types[0] == "queued" and types[-1] == "done"
        assert "sweep_chunk" in types


class TestStreamErrors:
    def test_unknown_job_stream_is_404(self, thread_httpd):
        with pytest.raises(StreamError) as excinfo:
            next(iter(make_client(thread_httpd).stream_job(DEFAULT_SESSION_ID, "nope")))
        assert excinfo.value.status == 404
        assert excinfo.value.body["error_kind"] == "not_found"

    def test_stream_from_wrong_session_is_404(self, thread_httpd, chunked):
        job_id = submit_sweep(thread_httpd)
        call(thread_httpd, "POST", "/api/v1/sessions", {"session_id": "bystander"})
        with pytest.raises(StreamError) as excinfo:
            next(iter(make_client(thread_httpd).stream_job("bystander", job_id)))
        assert excinfo.value.status == 404
        assert "does not belong" in excinfo.value.body["error"]

    def test_invalid_last_event_id_is_400(self, thread_httpd, chunked):
        job_id = submit_sweep(thread_httpd)
        host, port = thread_httpd.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/api/v1/sessions/{DEFAULT_SESSION_ID}/jobs/{job_id}/events",
            headers={"Last-Event-ID": "banana"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestCancelOnDisconnect:
    def test_disconnect_cancels_running_job_thread_executor(
        self, thread_httpd, slow_chunks, monkeypatch
    ):
        monkeypatch.setattr(app_module, "SSE_KEEPALIVE_S", 0.1)
        job_id = submit_sweep(thread_httpd, space=SLOW_SPACE)
        client = make_client(thread_httpd)
        for event in client.stream_job(
            DEFAULT_SESSION_ID, job_id, cancel_on_disconnect=True
        ):
            if event.type == "sweep_chunk":
                break  # drop the connection mid-run, no DELETE sent
        assert wait_terminal(thread_httpd, job_id, timeout=30.0) == "cancelled"

    def test_disconnect_cancels_running_job_process_executor(self, monkeypatch):
        monkeypatch.setattr(app_module, "SSE_KEEPALIVE_S", 0.1)
        httpd = start_http(workers=4, executor="process")
        try:
            load(httpd, 2000)
            job_id = submit_sweep(httpd, space=BIG_SPACE)
            client = make_client(httpd)
            for event in client.stream_job(
                DEFAULT_SESSION_ID, job_id, cancel_on_disconnect=True
            ):
                if event.type == "started":
                    break  # vanish as early as possible: maximal remaining work
            assert wait_terminal(httpd, job_id, timeout=60.0) == "cancelled"
        finally:
            stop_http(httpd)


def finished_job(httpd, amount: float) -> tuple[str, dict]:
    """Run one sensitivity job to completion; return its id and result."""
    body = {"action": "sensitivity", "params": {"perturbations": {"Call": amount}}}
    job_id = call(httpd, "POST", f"{SESSION}/jobs", body)["data"]["job"]["job_id"]
    return job_id, job_result(httpd, job_id)


def read_stream(httpd, job_id: str, deadline_s: float) -> tuple[bytes, float | None]:
    """A job's raw SSE stream, read until the server ends it or
    ``deadline_s`` passes; returns the body and the seconds the server took
    to end it (``None`` when it was still open at the deadline)."""
    host, port = httpd.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=deadline_s)
    started = time.monotonic()
    chunks = []
    try:
        connection.request("GET", f"{SESSION}/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.status == 200
        while time.monotonic() - started < deadline_s:
            try:
                chunk = response.read1(65536)
            except TimeoutError:
                break
            if not chunk:
                return b"".join(chunks), time.monotonic() - started
            chunks.append(chunk)
        return b"".join(chunks), None
    finally:
        connection.close()


def assert_ends_with_result(httpd, job_id: str, result: dict) -> None:
    """The stream ends within one keepalive interval on a ``done`` event
    carrying ``result``, and leaves the bus within its channel bound."""
    body, ended_after = read_stream(httpd, job_id, deadline_s=3 * app_module.SSE_KEEPALIVE_S)
    assert ended_after is not None, f"stream still open: {body[-200:]!r}"
    assert ended_after < app_module.SSE_KEEPALIVE_S
    events = list(parse_sse(io.StringIO(body.decode("utf-8"))))
    assert events and events[-1].type == "done"
    assert json.dumps(events[-1].payload["result"], sort_keys=True) == json.dumps(
        result, sort_keys=True
    )
    bus = httpd.backend.engine.events.stats()
    assert bus["channels"] <= bus["max_channels"]


class TestFinishedJobWithoutChannel:
    def test_evicted_channel_replays_the_terminal_event(self):
        httpd = start_http(workers=1)
        try:
            load(httpd, 80)
            httpd.backend.engine.events.max_channels = 2  # the store keeps 256
            job_id, result = finished_job(httpd, 10.0)
            finished_job(httpd, 20.0)
            finished_job(httpd, 30.0)
            assert httpd.backend.engine.events.stats()["evicted_channels"] == 1
            assert_ends_with_result(httpd, job_id, result)
        finally:
            stop_http(httpd)

    def test_job_restored_after_a_restart_replays_the_terminal_event(self, tmp_path):
        first = start_http(workers=1, state_dir=str(tmp_path))
        try:
            load(first, 80)
            job_id, result = finished_job(first, 10.0)
        finally:
            stop_http(first)
        second = start_http(workers=1, state_dir=str(tmp_path))
        try:
            assert second.backend.engine.store.stats()["restored_total"] == 1
            assert job_result(second, job_id) == result
            assert_ends_with_result(second, job_id, result)
        finally:
            stop_http(second)
