"""Hostile input over a real socket: a 4xx every time, never a 500 or
unbounded work.

Each case below used to come back 500 (or, for ``PUT``, be served as a
``GET``); over-cap sizes must be refused with 413 ``too_large`` before any
work is done, and an idle connection must not hold a handler thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server import app as app_module
from repro.server import handlers, serve_http


#: A step grid whose amounts would take terabytes to build.
HUGE_AXIS = {"driver": "Call", "start": 0, "stop": 1e12, "step": 1}
#: Rows and scenarios each under their own cap whose product is over
#: ``MAX_SCENARIO_ROWS``.
WIDE_ROWS, WIDE_SCENARIOS = 2_000, 6_000
WIDE_AXIS = {"driver": "Call", "start": 1, "stop": WIDE_SCENARIOS, "step": 1}


def start(httpd):
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    return f"http://{host}:{port}"


def stop(httpd):
    httpd.shutdown()
    httpd.backend.close()
    httpd.server_close()


@pytest.fixture(scope="module")
def httpd():
    httpd = serve_http(port=0)
    httpd.base_url = start(httpd)
    yield httpd
    stop(httpd)


def call(base_url, method, path, body=None, timeout=60.0):
    """One round trip; returns (status, decoded JSON envelope)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(base_url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def session_id(httpd):
    body = {
        "session_id": "hostile",
        "use_case": "deal_closing",
        "dataset_kwargs": {"n_prospects": 80},
    }
    status, envelope = call(httpd.base_url, "POST", "/api/v1/sessions", body)
    assert status == 201, envelope
    return "hostile"


def failed_job(httpd, session_id, action, params):
    """Submit a job and return its final snapshot and the result error."""
    path = f"/api/v1/sessions/{session_id}/jobs"
    status, submitted = call(httpd.base_url, "POST", path, {"action": action, "params": params})
    assert status == 201, submitted
    job_id = submitted["data"]["job"]["job_id"]
    status, result = call(httpd.base_url, "GET", f"{path}/{job_id}?result=1&timeout_s=60")
    assert status == 400, result
    _, snapshot = call(httpd.base_url, "GET", f"{path}/{job_id}")
    return snapshot["data"]["job"], result["error"]


class TestCreateSessionBadLoads:
    @pytest.mark.parametrize(
        "extra, parameter",
        [
            ({"dataset_kwargs": {"bogus": 1}}, "dataset_kwargs"),
            ({"dataset_kwargs": {"n_prospects": -5}}, "dataset_kwargs"),
            ({"dataset_kwargs": {"n_prospects": "x"}}, "dataset_kwargs"),
            ({"dataset_kwargs": {"n_prospects": 60}, "max_rows": "x"}, "max_rows"),
            ({"use_case": ["a"]}, "use_case"),
        ],
        ids=["unknown-kwarg", "negative-rows", "text-rows", "text-max-rows", "list-use-case"],
    )
    def test_is_400_naming_the_parameter(self, httpd, extra, parameter):
        body = {"use_case": "deal_closing", **extra}
        status, envelope = call(httpd.base_url, "POST", "/api/v1/sessions", body)
        assert status == 400, envelope
        assert envelope["error_kind"] == "protocol"
        assert parameter in envelope["error"]


class TestCaps:
    def test_rows_over_cap_is_413(self, httpd):
        rows = {"n_prospects": handlers.MAX_ROWS + 1}
        body = {"use_case": "deal_closing", "dataset_kwargs": rows}
        status, envelope = call(httpd.base_url, "POST", "/api/v1/sessions", body)
        assert status == 413, envelope
        assert envelope["error_kind"] == "too_large"
        assert "n_prospects" in envelope["error"]

    @pytest.mark.parametrize(
        "action, params, limit",
        [
            ("run_sweep", {"space": {"axes": [HUGE_AXIS]}}, "axis levels"),
            (
                "run_sweep",
                {
                    "space": {
                        "axes": [
                            {"driver": "Call", "start": -40, "stop": 40, "step": 1},
                            {"driver": "Renewal", "start": -40, "stop": 40, "step": 0.5},
                        ]
                    }
                },
                "scenario grid size",
            ),
            (
                "run_sweep",
                {"space": {"axes": [{"driver": "Call", "amounts": [0]}], "sample": {"n": 10**6}}},
                "sample.n",
            ),
            (
                "comparison",
                {"drivers": ["Call"], "amounts": list(range(20_000))},
                "drivers x amounts",
            ),
            ("goal_inversion", {"n_calls": 10**6}, "n_calls"),
            ("constrained", {"bounds": {"Call": [0, 10]}, "n_calls": 10**6}, "n_calls"),
        ],
        ids=["huge-axis", "grid", "sample-n", "comparison", "goal-inversion", "constrained"],
    )
    def test_over_cap_job_fails_before_any_scoring(self, httpd, session_id, action, params, limit):
        assert handlers.MAX_SCENARIOS < 20_000 and handlers.MAX_N_CALLS < 10**6
        if action == "run_sweep":
            # a sweep space's payload caps answer 413 at submission: nothing is queued
            path = f"/api/v1/sessions/{session_id}/jobs"
            jobs_before = call(httpd.base_url, "GET", path)[1]["data"]["total"]
            body = {"action": action, "params": params}
            status, envelope = call(httpd.base_url, "POST", path, body)
            assert status == 413, envelope
            assert envelope["error_kind"] == "too_large"
            error = envelope["error"]
            assert call(httpd.base_url, "GET", path)[1]["data"]["total"] == jobs_before
        else:
            job, error = failed_job(httpd, session_id, action, params)
            assert job["state"] == "failed"
            assert job["progress"] == 0.0
        assert limit in error and "exceeds the limit" in error

    def test_over_cap_sweep_submission_is_413(self, httpd, session_id):
        # the in-process dispatcher refuses an over-cap sweep at submission too
        assert handlers.MAX_SCENARIOS < HUGE_AXIS["stop"]
        response = httpd.backend.request(
            "submit",
            {"action": "run_sweep", "params": {"space": {"axes": [HUGE_AXIS]}}},
            session_id=session_id,
        )
        assert not response.ok and response.error_kind == "too_large"


class TestScenarioRowCap:
    @pytest.fixture(scope="class")
    def wide_session(self, httpd):
        assert WIDE_SCENARIOS <= handlers.MAX_SCENARIOS and WIDE_ROWS <= handlers.MAX_ROWS
        assert WIDE_SCENARIOS * WIDE_ROWS > handlers.MAX_SCENARIO_ROWS
        body = {
            "session_id": "wide",
            "use_case": "deal_closing",
            "dataset_kwargs": {"n_prospects": WIDE_ROWS},
        }
        status, envelope = call(httpd.base_url, "POST", "/api/v1/sessions", body)
        assert status == 201, envelope
        return "wide"

    @pytest.mark.parametrize(
        "action, params",
        [
            ("comparison", {"drivers": ["Call"], "amounts": list(range(WIDE_SCENARIOS))}),
            ("run_sweep", {"space": {"axes": [WIDE_AXIS]}}),
        ],
        ids=["comparison", "sweep"],
    )
    def test_over_cap_job_fails_before_any_scoring(self, httpd, wide_session, action, params):
        job, error = failed_job(httpd, wide_session, action, params)
        assert job["state"] == "failed"
        assert job["progress"] == 0.0
        assert "scenarios x rows" in error and "exceeds the limit" in error


class TestMalformedSpaces:
    @pytest.mark.parametrize(
        "space",
        [
            {"axes": [5]},
            {"axes": "abc"},
            {"axes": [{"driver": "Call", "amounts": [0]}], "sample": [1]},
            {"axes": [{"driver": "Call", "amounts": "12345"}]},
            {
                "axes": [{"driver": "Call", "amounts": [0]}],
                "constraints": [{"kind": "budget", "limit": 1, "weights": [1]}],
            },
            {"axes": [{"driver": "Call", "amounts": [0]}], "sample": {"n": 2, "seed": 1e999}},
        ],
        ids=[
            "axis-not-object",
            "axes-not-list",
            "sample-not-object",
            "amounts-text",
            "weights-not-object",
            "infinite-seed",
        ],
    )
    def test_submission_is_400(self, httpd, session_id, space):
        path = f"/api/v1/sessions/{session_id}/jobs"
        jobs_before = call(httpd.base_url, "GET", path)[1]["data"]["total"]
        body = {"action": "run_sweep", "params": {"space": space}}
        status, envelope = call(httpd.base_url, "POST", path, body)
        assert status == 400, envelope
        assert envelope["error_kind"] == "protocol"
        assert "invalid scenario space" in envelope["error"]
        assert call(httpd.base_url, "GET", path)[1]["data"]["total"] == jobs_before


class TestJobResultWait:
    @pytest.mark.parametrize("timeout_s", ["inf", "1e308", "nan"])
    def test_unbounded_timeout_is_400(self, httpd, session_id, timeout_s):
        path = f"/api/v1/sessions/{session_id}/jobs"
        body = {"action": "sensitivity", "params": {"perturbations": {"Call": 5.0}}}
        _, submitted = call(httpd.base_url, "POST", path, body)
        job_id = submitted["data"]["job"]["job_id"]
        status, envelope = call(
            httpd.base_url, "GET", f"{path}/{job_id}?result=1&timeout_s={timeout_s}"
        )
        assert status == 400, envelope
        assert "timeout_s" in envelope["error"]

    def test_cap_admits_the_longest_wait_any_client_sends(self):
        assert handlers.MAX_WAIT_S >= 600


class TestVerbsAndBodies:
    def test_put_is_not_served_as_get(self, httpd):
        status, envelope = call(httpd.base_url, "PUT", "/api/v1/sessions", {"session_id": "put"})
        assert status == 404, envelope
        assert envelope["error_kind"] == "not_found"
        assert "sessions" not in envelope["data"]

    def test_infinite_page_size_in_a_body_is_400(self, httpd):
        status, envelope = call(httpd.base_url, "GET", "/api/v1/sessions", {"limit": 1e999})
        assert status == 400, envelope
        assert "pagination" in envelope["error"]


def test_idle_connection_is_closed_while_requests_are_served(monkeypatch):
    monkeypatch.setattr(app_module, "HANDLER_TIMEOUT_S", 0.5)
    httpd = serve_http(port=0)
    base_url = start(httpd)
    try:
        idle = socket.create_connection(httpd.server_address[:2], timeout=10)
        with idle:
            status, _ = call(base_url, "GET", "/api/v1/sessions")
            assert status == 200  # served while the idle connection holds a thread
            started = time.monotonic()
            assert idle.recv(1) == b""  # the server hung up, well before our timeout
            assert time.monotonic() - started < 5
    finally:
        stop(httpd)
