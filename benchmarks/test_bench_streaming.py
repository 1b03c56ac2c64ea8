"""P2 (interactivity): SSE event streaming vs poll-until-done.

The paper's requirement is *interactive* what-if analysis — an analyst
watching a sweep should see the frontier forming, not a spinner.  This
benchmark measures what the streaming subsystem buys over the polling
protocol on the same workload, over a real HTTP socket:

* **time-to-first-results**: a polling client owns nothing until
  ``job_result`` returns the finished payload; an SSE subscriber holds the
  first partial frontier as soon as the first chunk is scored.  The headline
  ``first_results_speedup`` is the ratio of the two (informational — wall
  clock on shared runners is too noisy to gate).
* **event-delivery latency**: per event, client receipt time minus the
  server's publication stamp (one host, one clock) — the push path must add
  milliseconds, not poll-interval quanta.
* the two invariants the regression gate holds forever
  (``benchmarks/check_regression.py``): the streamed terminal event's
  embedded result is **bitwise identical** to the polled ``job_result``
  payload, and at least one incremental chunk arrived **before** the job
  finished.

The sweep is pinned to the chunked scoring path (the grid kernel scores the
whole space inside one C call and so publishes no partial frontiers) with
a small chunk size, giving the stream ~8 incremental frontiers to carry.
Results land in ``BENCH_streaming.json``; CI uploads the file and gates on
the equality metrics only.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request

import pytest

import repro.scenarios.planner as planner
from repro.server import DEFAULT_SESSION_ID, serve_http
from repro.server.stream import StreamClient

from .conftest import print_table

USE_CASE = "deal_closing"
ROWS = 2000
WORKERS = 2
CHUNK_SCENARIOS = 4
POLL_INTERVAL_S = 0.05
OUTPUT = "BENCH_streaming.json"

#: Two equal-size spaces (27 scenarios each) so the polled and streamed runs
#: never coalesce onto one job.
POLL_SPACE = {
    "axes": [
        {"driver": "Call", "start": -40, "stop": 40, "step": 10},
        {"driver": "Renewal", "amounts": [0, 20, 40]},
    ]
}
STREAM_SPACE = {
    "axes": [
        {"driver": "Call", "start": -40, "stop": 40, "step": 10},
        {"driver": "Renewal", "amounts": [0, 25, 45]},
    ]
}


#: The default session's routes.
SESSION = f"/api/v1/sessions/{DEFAULT_SESSION_ID}"


def call(httpd, method: str, path: str, body: dict | None = None, timeout=180.0) -> dict:
    """One ``/api/v1`` round trip; returns the decoded envelope (2xx only)."""
    host, port = httpd.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=None if body is None else json.dumps(body).encode("utf-8"),
        method=method,
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def submit_sweep(httpd, space) -> str:
    body = {"action": "run_sweep", "params": {"space": space}}
    envelope = call(httpd, "POST", f"{SESSION}/jobs", body)
    assert envelope["ok"], envelope["error"]
    return envelope["data"]["job"]["job_id"]


def fetch_result(httpd, job_id: str) -> dict:
    envelope = call(httpd, "GET", f"{SESSION}/jobs/{job_id}?result=1&timeout_s=60")
    assert envelope["ok"], envelope["error"]
    return envelope["data"]["result"]


def poll_until_done(httpd, job_id: str) -> dict:
    """The polling client: wake every interval, fetch the result at the end."""
    timings: dict = {"polls": 0}
    start = time.perf_counter()
    while True:
        envelope = call(httpd, "GET", f"{SESSION}/jobs/{job_id}")
        timings["polls"] += 1
        state = envelope["data"]["job"]["state"]
        if state in ("done", "failed", "cancelled"):
            break
        time.sleep(POLL_INTERVAL_S)
    assert state == "done", envelope
    timings["result"] = fetch_result(httpd, job_id)
    timings["result_ms"] = (time.perf_counter() - start) * 1000.0
    return timings


def stream_until_done(httpd, job_id: str) -> dict:
    """The SSE client: one connection, events rendered as they arrive."""
    host, port = httpd.server_address[:2]
    client = StreamClient(host, port)
    timings: dict = {
        "first_event_ms": None,
        "first_chunk_ms": None,
        "first_chunk_scored": None,
        "first_chunk_total": None,
        "done_ms": None,
        "events": 0,
        "chunks": 0,
        "delivery_ms": [],
    }
    start = time.perf_counter()
    wall_start = time.time()
    for event in client.stream_job(DEFAULT_SESSION_ID, job_id):
        now_ms = (time.perf_counter() - start) * 1000.0
        timings["events"] += 1
        if timings["first_event_ms"] is None:
            timings["first_event_ms"] = now_ms
        published_ts = event.data.get("ts")
        if isinstance(published_ts, float) and published_ts >= wall_start:
            timings["delivery_ms"].append((time.time() - published_ts) * 1000.0)
        if event.type == "sweep_chunk":
            timings["chunks"] += 1
            if timings["first_chunk_ms"] is None:
                timings["first_chunk_ms"] = now_ms
                timings["first_chunk_scored"] = event.payload["scored"]
                timings["first_chunk_total"] = event.payload["total"]
        elif event.type == "done":
            timings["done_ms"] = now_ms
            timings["result"] = event.payload["result"]
    return timings


@pytest.fixture
def chunked_sweeps(monkeypatch):
    """Pin sweeps to the chunked scoring path with small chunks."""
    monkeypatch.setattr(planner, "grid_sweep_kpis", lambda *a, **k: None)
    monkeypatch.setattr(planner, "SWEEP_CHUNK_SCENARIOS", CHUNK_SCENARIOS)


def test_streaming_beats_polling_to_first_results(chunked_sweeps):
    httpd = serve_http(port=0, workers=WORKERS)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        body = {"use_case": USE_CASE, "dataset_kwargs": {"n_prospects": ROWS}}
        loaded = call(httpd, "PUT", f"{SESSION}/dataset", body)
        assert loaded["ok"], loaded["error"]

        poll_job_id = submit_sweep(httpd, POLL_SPACE)
        polled = poll_until_done(httpd, poll_job_id)
        space_size = polled["result"]["n_space"]

        stream_job_id = submit_sweep(httpd, STREAM_SPACE)
        streamed = stream_until_done(httpd, stream_job_id)
        polled_stream_job = fetch_result(httpd, stream_job_id)

        streamed_equals_polled = json.dumps(streamed["result"], sort_keys=True) == (
            json.dumps(polled_stream_job, sort_keys=True)
        )
        chunk_before_done = (
            streamed["first_chunk_ms"] is not None
            and streamed["first_chunk_ms"] < streamed["done_ms"]
            and streamed["first_chunk_scored"] < streamed["first_chunk_total"]
        )
        delivery = sorted(streamed["delivery_ms"])
        mean_delivery = sum(delivery) / len(delivery) if delivery else None
        p95_delivery = delivery[int(0.95 * (len(delivery) - 1))] if delivery else None

        summary = {
            "use_case": USE_CASE,
            "rows": ROWS,
            "workers": WORKERS,
            "executor": "thread",
            "chunk_scenarios": CHUNK_SCENARIOS,
            "space_size": space_size,
            "poll_interval_ms": POLL_INTERVAL_S * 1000.0,
            "poll_result_ms": polled["result_ms"],
            "polls": polled["polls"],
            "stream_first_event_ms": streamed["first_event_ms"],
            "stream_first_chunk_ms": streamed["first_chunk_ms"],
            "stream_done_ms": streamed["done_ms"],
            "stream_events": streamed["events"],
            "stream_chunks": streamed["chunks"],
            "first_results_speedup": (
                polled["result_ms"] / streamed["first_chunk_ms"]
                if streamed["first_chunk_ms"]
                else None
            ),
            "event_delivery_ms": {"mean": mean_delivery, "p95": p95_delivery},
            "streamed_equals_polled": streamed_equals_polled,
            "chunk_before_done": chunk_before_done,
        }

        print_table(
            f"SSE streaming vs poll-until-done ({space_size}-scenario chunked sweep)",
            [
                {
                    "poll_result_ms": round(summary["poll_result_ms"], 1),
                    "first_chunk_ms": round(summary["stream_first_chunk_ms"], 1),
                    "done_ms": round(summary["stream_done_ms"], 1),
                    "first_results_speedup": round(summary["first_results_speedup"], 2),
                    "delivery_p95_ms": (
                        round(p95_delivery, 2) if p95_delivery is not None else None
                    ),
                    "chunks": summary["stream_chunks"],
                }
            ],
        )

        # the two invariants the regression gate enforces forever
        assert streamed_equals_polled, "streamed result diverged from polled result"
        assert chunk_before_done, summary
        # sanity on the stream shape: every chunk arrived, in order
        assert streamed["chunks"] == -(-space_size // CHUNK_SCENARIOS)
        assert streamed["events"] >= streamed["chunks"] + 3  # queued/started/done

        with open(OUTPUT, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        assert os.path.exists(OUTPUT)
    finally:
        httpd.shutdown()
        httpd.backend.close()
        httpd.server_close()
