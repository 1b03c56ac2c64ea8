"""HTTP round-trip regression tests for :func:`repro.server.app.serve_http`.

Malformed JSON, non-object bodies, unknown actions and unrouted requests
must come back as structured JSON error envelopes with 4xx status codes —
never bare 500s or HTML tracebacks — and the async engine actions must work
over the wire.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.server import serve_http
from repro.server.app import MAX_BODY_BYTES

JOBS = "/api/v1/sessions/default/jobs"


@pytest.fixture(scope="module")
def httpd():
    httpd = serve_http(port=0)  # port 0: the OS picks a free port
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    httpd.base_url = f"http://{host}:{port}"
    yield httpd
    httpd.shutdown()
    httpd.backend.close()
    httpd.server_close()


@pytest.fixture(scope="module")
def base_url(httpd):
    return httpd.base_url


def send(base_url: str, method: str, path: str, body: str | None = None, timeout=60.0):
    """One raw-body request; returns (status, decoded JSON envelope)."""
    data = None if body is None else body.encode("utf-8")
    request = urllib.request.Request(
        base_url + path, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def post_declaring(base_url: str, content_length: str, timeout: float = 10.0):
    """Send POST headers declaring ``content_length`` over a raw socket, with
    no body; returns (status, decoded JSON envelope)."""
    target = urlsplit(base_url)
    with socket.create_connection((target.hostname, target.port), timeout=timeout) as sock:
        sock.sendall(
            (
                f"POST /api/v1/sessions HTTP/1.1\r\nHost: {target.hostname}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
            ).encode("ascii")
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestBodyBounds:
    """``Content-Length`` is checked before any of the body is read."""

    def test_non_numeric_length_is_400(self, base_url):
        status, envelope = post_declaring(base_url, "banana")
        assert status == 400
        assert envelope["ok"] is False and envelope["error_kind"] == "protocol"
        assert "Content-Length" in envelope["error"]

    def test_negative_length_is_400_without_blocking(self, base_url):
        # the socket timeout fails the test if the handler waits for a body
        status, envelope = post_declaring(base_url, "-1")
        assert status == 400
        assert envelope["ok"] is False and envelope["error_kind"] == "protocol"

    def test_oversized_length_is_413(self, base_url):
        status, envelope = post_declaring(base_url, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert envelope["ok"] is False and envelope["error_kind"] == "protocol"
        assert str(MAX_BODY_BYTES) in envelope["error"]


class TestEnvelopeErrors:
    def test_valid_request_is_200(self, base_url):
        status, envelope = send(base_url, "GET", "/api/v1/use-cases")
        assert status == 200
        assert envelope["ok"]
        assert {u["key"] for u in envelope["data"]["use_cases"]} == {
            "marketing_mix",
            "customer_retention",
            "deal_closing",
        }

    def test_malformed_json_is_400_with_structured_body(self, base_url):
        status, envelope = send(base_url, "POST", "/api/v1/sessions", "{not json at all")
        assert status == 400
        assert envelope["ok"] is False
        assert "not valid JSON" in envelope["error"]

    def test_non_object_body_is_400(self, base_url):
        status, envelope = send(base_url, "POST", "/api/v1/sessions", json.dumps([1, 2, 3]))
        assert status == 400
        assert not envelope["ok"]
        assert "JSON object" in envelope["error"]

    def test_unknown_action_is_400(self, base_url):
        status, envelope = send(base_url, "POST", JOBS, json.dumps({"action": "weather_forecast"}))
        assert status == 400
        assert not envelope["ok"]
        assert "'weather_forecast' cannot run as a job" in envelope["error"]

    def test_missing_action_is_400(self, base_url):
        status, envelope = send(base_url, "POST", JOBS, json.dumps({"params": {}}))
        assert status == 400
        assert "'action' parameter is required" in envelope["error"]

    def test_empty_body_is_400(self, base_url):
        status, envelope = send(base_url, "POST", JOBS, "")
        assert status == 400
        assert not envelope["ok"]

    def test_envelope_posted_to_root_is_404_and_runs_nothing(self, base_url):
        _, before = send(base_url, "GET", "/api/v1/sessions")
        envelope = {"action": "create_session", "params": {"session_id": "via-root"}}
        status, answer = send(base_url, "POST", "/", json.dumps(envelope))
        assert status == 404
        assert answer["ok"] is False and answer["error_kind"] == "not_found"
        assert "no route for POST /" in answer["error"]
        _, after = send(base_url, "GET", "/api/v1/sessions")
        assert after["data"]["total"] == before["data"]["total"]

    def test_get_outside_the_api_is_404(self, base_url):
        status, envelope = send(base_url, "GET", "/")
        assert status == 404
        assert envelope["error_kind"] == "not_found"


class TestAsyncOverHttp:
    def test_submit_poll_fetch_round_trip(self, httpd):
        base_url = httpd.base_url
        load = {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": 150}}
        status, loaded = send(base_url, "PUT", "/api/v1/sessions/default/dataset", json.dumps(load))
        assert status == 200 and loaded["ok"], loaded
        perturbations = {"Open Marketing Email": 40.0}
        sync = httpd.backend.request("sensitivity", perturbations=perturbations)
        assert sync.ok, sync.error
        submit = {"action": "sensitivity", "params": {"perturbations": perturbations}}
        status, submitted = send(base_url, "POST", JOBS, json.dumps(submit))
        assert status == 201 and submitted["ok"], submitted
        job_id = submitted["data"]["job"]["job_id"]
        status, result = send(base_url, "GET", f"{JOBS}/{job_id}?result=1&timeout_s=60")
        assert status == 200 and result["ok"], result
        assert result["data"]["job"]["state"] == "done"
        assert result["data"]["result"] == sync.data
        _, stats = send(base_url, "GET", "/api/v1/stats")
        assert stats["data"]["engine"]["done_total"] >= 1
