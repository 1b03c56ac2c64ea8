"""Protocol fuzzer for the ``/api/v1`` surface.

Routes are drawn from the operation table and filled with real and unknown
ids; query strings and JSON bodies mix well-formed values with hostile ones
(wrong types, negatives, NaN/inf, over-cap sizes).  Every response must come
back within the client timeout as a 4xx-or-better versioned JSON envelope —
or, on the two routes the HTTP adapter writes itself, as their stream — and
the server must still answer its metrics route afterwards.  The sizes a
request may ask for are drawn small or over their cap, so accepted work
stays small.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.server import API_VERSION, OPERATIONS, serve_http
from repro.server.handlers import MAX_N_CALLS, MAX_ROWS, MAX_SCENARIOS

CLIENT_TIMEOUT_S = 30.0
SESSION = "fz"
HELD = "held"

ROUTES = [op.route.split("?")[0] for op in OPERATIONS if op.route]
RAW_PATHS = ("/events", "/api/v1/metrics")
JOB_ACTIONS = [op.action for op in OPERATIONS if op.job] + ["submit", "sweep", "nope"]


@pytest.fixture(scope="module")
def server():
    httpd = serve_http(port=0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    backend = httpd.backend
    created = backend.request(
        "create_session",
        session_id=SESSION,
        use_case="deal_closing",
        dataset_kwargs={"n_prospects": 40},
    )
    assert created.ok, created.error
    submitted = backend.request(
        "submit",
        {"action": "sensitivity", "params": {"perturbations": {"Call": 10.0}}},
        session_id=SESSION,
    )
    job_id = submitted.data["job"]["job_id"]
    assert backend.request("job_result", job_id=job_id, timeout_s=60).ok
    space = {"axes": [{"driver": "Call", "amounts": [0, 10]}]}
    swept = backend.request(
        "submit", {"action": "run_sweep", "params": {"space": space}}, session_id=SESSION
    )
    assert backend.request("job_result", job_id=swept.data["job"]["job_id"], timeout_s=60).ok
    # a job on a session whose lock the test holds stays running until teardown
    assert backend.request("create_session", session_id=HELD).ok
    held = backend.registry.get(HELD).lock
    held.acquire()
    running = backend.request("submit", {"action": "sensitivity"}, session_id=HELD)
    ids = {
        "sid": SESSION,
        "jid": job_id,
        "share_id": created.data["share_id"],
        "running": running.data["job"]["job_id"],
    }
    yield httpd, ids
    held.release()
    httpd.shutdown()
    backend.close()
    httpd.server_close()


def send(httpd, method, path, query, body):
    """One request, read to the end within ``CLIENT_TIMEOUT_S`` in all
    (an SSE keepalive resets a socket timeout, so the deadline is explicit);
    returns (status, content type, body bytes)."""
    host, port = httpd.server_address[:2]
    target = path + ("?" + urlencode(query) if query else "")
    payload = None if body is None else json.dumps(body).encode("utf-8")
    deadline = time.monotonic() + CLIENT_TIMEOUT_S
    connection = http.client.HTTPConnection(host, port, timeout=CLIENT_TIMEOUT_S)
    try:
        connection.request(method, target, body=payload)
        response = connection.getresponse()
        chunks = []
        while chunk := response.read1(65536):
            chunks.append(chunk)
            assert time.monotonic() < deadline, f"{method} {target} outlived the client timeout"
        return response.status, response.getheader("Content-Type", ""), b"".join(chunks)
    finally:
        connection.close()


# -- strategies -------------------------------------------------------------
hostile_text = st.sampled_from(["", "0", "1", "-1", "x", "inf", "-inf", "nan", "1e308", "9" * 30])
hostile_number = st.sampled_from([0, 1, -1, -5, 10**30, 0.5, float("nan"), float("inf")])
json_scalars = st.none() | st.booleans() | hostile_number | st.integers() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner),
    max_leaves=8,
)


def small_or_over(limit):
    """A size that is either small or over its cap (never big but allowed)."""
    return st.sampled_from([1, 3, -2, limit + 1, 10**9]) | hostile_text | hostile_number


def grid_axis(driver):
    steps = st.sampled_from([10, 0, -1, 1e-9, "x"])
    return st.fixed_dictionaries(
        {"driver": st.just(driver), "start": st.just(-20), "stop": st.just(20)},
        optional={"step": steps, "num": small_or_over(MAX_SCENARIOS)},
    )


spaces = st.fixed_dictionaries(
    {"axes": st.lists(grid_axis("Call") | grid_axis("Renewal") | json_values, max_size=2)},
    optional={"sample": st.fixed_dictionaries({"n": small_or_over(MAX_SCENARIOS)})},
)
analysis_params = st.fixed_dictionaries(
    {},
    optional={
        "perturbations": st.just({"Call": 10.0}) | json_values,
        "drivers": st.just(["Call"]) | json_values,
        "amounts": st.just([0, 10]) | st.just(list(range(MAX_SCENARIOS + 1))) | json_values,
        "n_calls": small_or_over(MAX_N_CALLS),
        "optimizer": st.just("random"),
        "verify": st.sampled_from([False, "0", "no"]),
        "row_index": small_or_over(40),
        "bounds": st.just({"Call": [0, 10]}) | json_values,
        "space": spaces,
        "top_k": small_or_over(10),
    },
)
submit_bodies = st.fixed_dictionaries(
    {"action": st.sampled_from(JOB_ACTIONS)},
    optional={"params": analysis_params | json_values, "priority": small_or_over(10)},
)
create_bodies = st.fixed_dictionaries(
    {"use_case": st.sampled_from(["deal_closing", "customer_retention", "weather"]) | json_values},
    optional={
        "session_id": st.text(max_size=8) | json_values,
        "dataset_kwargs": st.fixed_dictionaries(
            {"n_prospects": small_or_over(MAX_ROWS), "n_customers": small_or_over(MAX_ROWS)}
        )
        | json_values,
        "max_rows": small_or_over(20),
        "random_state": hostile_number | hostile_text,
    },
)
generic_bodies = st.dictionaries(
    st.sampled_from(["limit", "offset", "states", "wait", "timeout_s", "name", "job_id", "x"]),
    json_values,
    max_size=4,
)
QUERY_KEYS = ["limit", "offset", "states", "result", "wait", "timeout_s", "format", "after"]
queries = st.dictionaries(
    st.sampled_from([*QUERY_KEYS, "cancel_on_disconnect"]),
    hostile_text | st.sampled_from(["done,failed", "json", "true"]),
    max_size=3,
)


@st.composite
def requests(draw):
    creates = ["POST /api/v1/sessions", "POST /api/v1/sessions/{sid}/jobs"] * 3
    extra = ["GET /api/v1/nonsense", "POST /api/v1/sessions/{sid}"]
    route = draw(st.sampled_from(ROUTES + creates + extra))
    method, path = route.split(" ", 1)
    method = draw(st.sampled_from([method, method, method, "GET", "POST", "PUT", "DELETE"]))
    sids = ["{sid}", "{sid}", "default", "ghost", "share", "%2e%2e", "x" * 200]
    ids = {
        "sid": draw(st.sampled_from(sids)),
        "jid": draw(st.sampled_from(["{jid}", "{jid}", "j-ghost", "0"])),
        "share_id": draw(st.sampled_from(["{share_id}", "sh-ghost"])),
    }
    for name, value in ids.items():
        path = path.replace("{" + name + "}", value)
    if method == "POST" and path.endswith("/jobs"):
        bodies = submit_bodies
    elif method == "POST" and path == "/api/v1/sessions":
        bodies = create_bodies
    else:
        bodies = st.none() | generic_bodies
    if draw(st.integers(0, 4)) == 0:  # now and then a body that is no JSON object
        bodies = st.lists(json_scalars, max_size=2) | json_scalars
    return method, path, draw(queries), draw(bodies)


def check(server, request):
    httpd, ids = server
    method, path, query, body = request
    for name, value in ids.items():
        path = path.replace("{" + name + "}", value)
    status, content_type, raw = send(httpd, method, path, query, body)
    assert status < 500, (request, status, raw[:300])
    if content_type.startswith("application/json"):
        envelope = json.loads(raw)
        assert envelope["api_version"] == API_VERSION
        assert isinstance(envelope["ok"], bool)
    else:  # only the adapter-written streams answer in another format
        assert status == 200 and path.endswith(RAW_PATHS), (request, content_type)


def create(**body):
    return ("POST", "/api/v1/sessions", {}, {"use_case": "deal_closing", **body})


def sweep(**space):
    body = {"action": "run_sweep", "params": {"space": space}}
    return ("POST", "/api/v1/sessions/{sid}/jobs", {}, body)


JOB = "/api/v1/sessions/{sid}/jobs/{jid}"
RUNNING = f"/api/v1/sessions/{HELD}/jobs/{{running}}"


# each example used to get a 500 (the malformed sweep spaces: on the sweeps
# route, now retired; their jobs failed internally), or (the resumed stream)
# to never end
@settings(
    max_examples=800,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(request=requests())
@example(request=create(dataset_kwargs={"bogus": 1}))
@example(request=create(dataset_kwargs={"n_prospects": -5}))
@example(request=create(dataset_kwargs={"n_prospects": "x"}))
@example(request=create(max_rows="x"))
@example(request=create(use_case=["a"]))
@example(request=("GET", RUNNING, {"result": "1", "timeout_s": "inf"}, None))
@example(request=("GET", RUNNING, {"result": "1", "timeout_s": "1e308"}, None))
@example(request=("GET", JOB + "/events", {"after": "999"}, None))
@example(request=sweep(axes=[5]))
@example(request=sweep(axes="abc"))
@example(request=sweep(axes=[{"driver": "Call", "amounts": [0]}], sample=[1]))
@example(request=sweep(axes=[{"driver": "Call", "amounts": "12345"}]))
@example(
    request=sweep(
        axes=[{"driver": "Call", "amounts": [0]}],
        constraints=[{"kind": "budget", "limit": 1, "weights": [1]}],
    )
)
@example(request=sweep(axes=[{"driver": "Call", "amounts": [0]}], sample={"n": 2, "seed": 1e999}))
def test_no_request_gets_a_5xx(server, request):
    check(server, request)


def test_metrics_still_answer_after_fuzzing(server):
    httpd, _ = server
    status, content_type, raw = send(httpd, "GET", "/api/v1/metrics", {}, None)
    assert status == 200
    assert content_type.startswith("text/plain")
    assert b"repro_requests_total" in raw
