"""Cross-boundary observability: worker-process spans, bus lag, cache counters.

The headline guarantee of the tracing layer is that one trace stays
connected across the process boundary: the request span opened in the
server thread parents the job span, the job span's ``(trace_id, span_id)``
pair ships inside every work unit, and the worker's ship/score spans come
back stitched onto it.  Thread-executor jobs run the same units inline and
open the same unit/score spans.  These tests drive both executors through
``SystemDServer`` and assert on the assembled timeline.
"""

from __future__ import annotations

import pytest

from repro.core.cache import ModelCache
from repro.engine import ProcessExecutor
from repro.engine.events import JobEventBus
from repro.obs import metrics
from repro.server import SystemDServer


def counter_total(name: str, **labels: str) -> float:
    """Sum of a counter family's children matching the given label values."""
    family = metrics.counter(name)
    spec = family.spec
    total = 0.0
    for values, child in family.children():
        sample = dict(zip(spec.labels, values))
        if all(sample.get(key) == value for key, value in labels.items()):
            total += child.value
    return total


# --------------------------------------------------------------------------- #
# job timelines on both executors (process: across the process boundary)
# --------------------------------------------------------------------------- #
class TestJobTimeline:
    @pytest.fixture(
        scope="class",
        params=[
            "thread",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    not ProcessExecutor.available(),
                    reason="spawn start method unavailable",
                ),
            ),
        ],
    )
    def server(self, request):
        server = SystemDServer(executor=request.param, engine_workers=2)
        response = server.request(
            "load_use_case",
            use_case="deal_closing",
            dataset_kwargs={"n_prospects": 200},
            random_state=0,
        )
        assert response.ok, response.error
        yield server
        server.close()

    @pytest.fixture(scope="class")
    def timeline(self, server):
        ships_before = counter_total("repro_worker_model_ships_total")
        units_before = counter_total("repro_worker_units_total", outcome="done")
        params = {"perturbations": {"Open Marketing Email": 25.0}}
        submitted = server.request(
            "submit", {"action": "sensitivity", "params": params}
        )
        assert submitted.ok, submitted.error
        job_id = submitted.data["job"]["job_id"]
        result = server.request("job_result", job_id=job_id, timeout_s=120.0)
        assert result.ok and result.data["job"]["state"] == "done"
        status = server.request("job_status", job_id=job_id)
        assert status.ok, status.error
        return {
            "spans": status.data["trace"],
            "ships_delta": counter_total("repro_worker_model_ships_total")
            - ships_before,
            "units_delta": counter_total("repro_worker_units_total", outcome="done")
            - units_before,
        }

    def test_timeline_is_one_connected_trace(self, timeline):
        spans = timeline["spans"]
        assert spans, "job_status returned no trace"
        assert len({record["trace_id"] for record in spans}) == 1
        names = {record["name"] for record in spans}
        assert {"request", "job", "unit", "score"} <= names

    def test_worker_spans_parent_on_the_job_span(self, timeline):
        spans = timeline["spans"]
        (job,) = [record for record in spans if record["name"] == "job"]
        units = [record for record in spans if record["name"] == "unit"]
        assert units
        assert all(record["parent_span_id"] == job["span_id"] for record in units)
        by_id = {record["span_id"]: record for record in spans}
        scores = [record for record in spans if record["name"] == "score"]
        assert scores
        for record in scores:
            assert by_id[record["parent_span_id"]]["name"] == "unit"

    def test_request_span_roots_the_trace(self, timeline):
        spans = timeline["spans"]
        (request,) = [r for r in spans if r["name"] == "request"]
        (job,) = [r for r in spans if r["name"] == "job"]
        assert request["parent_span_id"] == ""
        assert job["parent_span_id"] == request["span_id"]

    def test_worker_counters_advance(self, server, timeline):
        if server.engine.executor_kind != "process":
            pytest.skip("worker counters exist only on the process executor")
        assert timeline["ships_delta"] >= 1.0  # the model shipped at least once
        assert timeline["units_delta"] >= 1.0


# --------------------------------------------------------------------------- #
# bus lag and cache counters
# --------------------------------------------------------------------------- #
def _lag_observations() -> int:
    family = metrics.histogram("repro_bus_deliver_lag_seconds")
    return sum(sum(child.snapshot()[0]) for _, child in family.children())


def test_bus_delivery_observes_lag():
    bus = JobEventBus()
    before = _lag_observations()
    with bus.subscribe("job-1") as subscription:
        bus.publish("job-1", "progress", {"fraction": 0.5})
        event = subscription.get(timeout=5.0)
    assert event is not None and event.type == "progress"
    assert _lag_observations() >= before + 1


def test_cache_counters_track_hit_miss_evict():
    hits = counter_total("repro_model_cache_events_total", event="hit")
    misses = counter_total("repro_model_cache_events_total", event="miss")
    evictions = counter_total("repro_model_cache_events_total", event="evict")
    cache = ModelCache(max_size=1)
    assert cache.get("a") is None  # miss
    cache.put("a", object())
    assert cache.get("a") is not None  # hit
    cache.put("b", object())  # evicts "a"
    assert counter_total("repro_model_cache_events_total", event="miss") == misses + 1
    assert counter_total("repro_model_cache_events_total", event="hit") == hits + 1
    assert (
        counter_total("repro_model_cache_events_total", event="evict")
        == evictions + 1
    )
