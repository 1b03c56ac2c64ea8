"""HTTP round-trip regression tests for :func:`repro.server.app.serve_http`.

Malformed JSON, non-object bodies, and unknown actions must come back as
structured JSON error envelopes with 4xx status codes — never bare 500s or
HTML tracebacks — and the async engine actions must work over the wire.
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


@pytest.fixture(scope="module")
def base_url():
    httpd = serve_http(port=0)  # port 0: the OS picks a free port
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}/"
    httpd.shutdown()
    httpd.backend.close()
    httpd.server_close()


def post(base_url: str, body: str, timeout: float = 60.0):
    """POST a raw body; returns (status, decoded JSON envelope)."""
    request = urllib.request.Request(
        base_url, data=body.encode("utf-8"), headers={"Content-Type": "application/json"}
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
                f"POST / HTTP/1.1\r\nHost: {target.hostname}\r\n"
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
        status, envelope = post(base_url, json.dumps({"action": "list_use_cases"}))
        assert status == 200
        assert envelope["ok"]
        assert {u["key"] for u in envelope["data"]["use_cases"]} == {
            "marketing_mix",
            "customer_retention",
            "deal_closing",
        }

    def test_malformed_json_is_400_with_structured_body(self, base_url):
        status, envelope = post(base_url, "{not json at all")
        assert status == 400
        assert envelope["ok"] is False
        assert "not valid JSON" in envelope["error"]

    def test_non_object_body_is_400(self, base_url):
        status, envelope = post(base_url, json.dumps([1, 2, 3]))
        assert status == 400
        assert not envelope["ok"]
        assert "JSON object" in envelope["error"]

    def test_unknown_action_is_400(self, base_url):
        status, envelope = post(
            base_url, json.dumps({"action": "weather_forecast", "request_id": "r1"})
        )
        assert status == 400
        assert not envelope["ok"]
        assert "unknown action" in envelope["error"]
        assert envelope["request_id"] == "r1"

    def test_missing_action_is_400(self, base_url):
        status, envelope = post(base_url, json.dumps({"params": {}}))
        assert status == 400
        assert "missing the 'action' field" in envelope["error"]

    def test_empty_body_is_400(self, base_url):
        status, envelope = post(base_url, "")
        assert status == 400
        assert not envelope["ok"]

    def test_get_is_405_with_json_body(self, base_url):
        try:
            with urllib.request.urlopen(base_url, timeout=30) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, body = error.code, error.read()
        assert status == 405
        envelope = json.loads(body.decode("utf-8"))
        assert not envelope["ok"]
        assert "POST" in envelope["error"]

    def test_handler_level_failure_stays_200(self, base_url):
        # a well-formed envelope whose handler rejects the params: the
        # pre-existing behaviour (ok=false inside a 200) is preserved
        status, envelope = post(
            base_url, json.dumps({"action": "load_use_case", "params": {}})
        )
        assert status == 200
        assert not envelope["ok"]
        assert "'use_case' parameter is required" in envelope["error"]


class TestAsyncOverHttp:
    def test_submit_poll_fetch_round_trip(self, base_url):
        status, loaded = post(
            base_url,
            json.dumps(
                {
                    "action": "load_use_case",
                    "params": {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": 150}},
                }
            ),
        )
        assert status == 200 and loaded["ok"], loaded
        perturbations = {"Open Marketing Email": 40.0}
        _, sync = post(
            base_url,
            json.dumps({"action": "sensitivity", "params": {"perturbations": perturbations}}),
        )
        assert sync["ok"], sync
        status, submitted = post(
            base_url,
            json.dumps(
                {
                    "action": "submit",
                    "params": {"action": "sensitivity", "params": {"perturbations": perturbations}},
                }
            ),
        )
        assert status == 200 and submitted["ok"], submitted
        job_id = submitted["data"]["job"]["job_id"]
        _, result = post(
            base_url,
            json.dumps(
                {"action": "job_result", "params": {"job_id": job_id, "timeout_s": 60}}
            ),
        )
        assert result["ok"], result
        assert result["data"]["job"]["state"] == "done"
        assert result["data"]["result"] == sync["data"]
        _, stats = post(base_url, json.dumps({"action": "server_stats"}))
        assert stats["data"]["engine"]["done_total"] >= 1
