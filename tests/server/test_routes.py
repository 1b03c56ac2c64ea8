"""HTTP round-trips for the resource-routed ``/api/v1`` surface.

Every route gets exercised over a real socket: verb→action mapping, the
versioned envelope (``api_version`` field + ``X-Repro-Api-Version`` header),
real status codes (201 created, 404 unknown resource, 409 duplicate, 400 bad
request) and pagination query params; every action in ``ACTIONS`` is shown
reachable over HTTP.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.server import ACTIONS, API_VERSION, OPERATIONS, SystemDServer, serve_http


@pytest.fixture(scope="module")
def httpd():
    httpd = serve_http(port=0)  # port 0: the OS picks a free port
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.backend.close()
    httpd.server_close()


@pytest.fixture(scope="module")
def base_url(httpd):
    host, port = httpd.server_address[:2]
    return f"http://{host}:{port}"


def call(base_url: str, method: str, path: str, body: dict | None = None, timeout=60.0):
    """One HTTP round-trip; returns (status, headers, decoded JSON envelope)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base_url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestSessionsRoutes:
    def test_create_session_is_201_with_envelope(self, base_url):
        status, headers, envelope = call(
            base_url, "POST", "/api/v1/sessions", {"session_id": "alpha"}
        )
        assert status == 201
        assert envelope["ok"]
        assert envelope["data"]["session_id"] == "alpha"
        assert envelope["api_version"] == API_VERSION
        assert headers["X-Repro-Api-Version"] == API_VERSION

    def test_duplicate_create_is_409_conflict(self, base_url):
        call(base_url, "POST", "/api/v1/sessions", {"session_id": "dup"})
        status, _, envelope = call(
            base_url, "POST", "/api/v1/sessions", {"session_id": "dup"}
        )
        assert status == 409
        assert not envelope["ok"]
        assert envelope["error_kind"] == "conflict"
        assert "already exists" in envelope["error"]

    def test_list_sessions(self, base_url):
        call(base_url, "POST", "/api/v1/sessions", {"session_id": "listed"})
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions")
        assert status == 200
        ids = {s["session_id"] for s in envelope["data"]["sessions"]}
        assert "listed" in ids

    def test_get_one_session(self, base_url):
        call(base_url, "POST", "/api/v1/sessions", {"session_id": "solo"})
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions/solo")
        assert status == 200
        assert envelope["data"]["session"]["session_id"] == "solo"

    def test_get_unknown_session_is_404(self, base_url):
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions/nope")
        assert status == 404
        assert envelope["error_kind"] == "not_found"
        assert "unknown session" in envelope["error"]

    def test_delete_session(self, base_url):
        call(base_url, "POST", "/api/v1/sessions", {"session_id": "doomed"})
        status, _, envelope = call(base_url, "DELETE", "/api/v1/sessions/doomed")
        assert status == 200
        assert envelope["data"]["closed"]["session_id"] == "doomed"
        status, _, envelope = call(base_url, "DELETE", "/api/v1/sessions/doomed")
        assert status == 404
        assert envelope["error_kind"] == "not_found"

    def test_unknown_api_path_is_404(self, base_url):
        status, _, envelope = call(base_url, "GET", "/api/v1/nonsense")
        assert status == 404
        assert envelope["error_kind"] == "not_found"
        assert "no route" in envelope["error"]

    def test_invalid_json_body_is_400(self, base_url):
        request = urllib.request.Request(
            base_url + "/api/v1/sessions",
            data=b"{broken",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, body = error.code, error.read()
        envelope = json.loads(body)
        assert status == 400
        assert envelope["error_kind"] == "protocol"


class TestJobsRoutes:
    @pytest.fixture(scope="class")
    def session_id(self, base_url):
        sid = "jobs-session"
        status, _, envelope = call(
            base_url,
            "POST",
            "/api/v1/sessions",
            {
                "session_id": sid,
                "use_case": "deal_closing",
                "dataset_kwargs": {"n_prospects": 120},
            },
        )
        assert status == 201, envelope
        return sid

    def submit(self, base_url, session_id):
        status, _, envelope = call(
            base_url,
            "POST",
            f"/api/v1/sessions/{session_id}/jobs",
            {
                "action": "sensitivity",
                "params": {"perturbations": {"Open Marketing Email": 20.0}},
            },
        )
        assert status == 201, envelope
        return envelope["data"]["job"]["job_id"]

    def test_submit_then_get_status_and_result(self, base_url, session_id):
        job_id = self.submit(base_url, session_id)
        status, _, envelope = call(
            base_url, "GET", f"/api/v1/sessions/{session_id}/jobs/{job_id}"
        )
        assert status == 200
        assert envelope["data"]["job"]["job_id"] == job_id
        status, _, envelope = call(
            base_url,
            "GET",
            f"/api/v1/sessions/{session_id}/jobs/{job_id}?result=1&timeout_s=60",
        )
        assert status == 200, envelope
        assert envelope["data"]["job"]["state"] == "done"
        assert envelope["data"]["result"]["original_kpi"]

    def test_submit_to_unknown_session_is_404(self, base_url):
        status, _, envelope = call(
            base_url,
            "POST",
            "/api/v1/sessions/ghost/jobs",
            {"action": "sensitivity", "params": {}},
        )
        assert status == 404
        assert envelope["error_kind"] == "not_found"

    def test_get_job_from_wrong_session_is_404(self, base_url, session_id):
        job_id = self.submit(base_url, session_id)
        call(base_url, "POST", "/api/v1/sessions", {"session_id": "other"})
        status, _, envelope = call(
            base_url, "GET", f"/api/v1/sessions/other/jobs/{job_id}"
        )
        assert status == 404
        assert "does not belong" in envelope["error"]

    def test_unknown_job_is_404(self, base_url, session_id):
        status, _, envelope = call(
            base_url, "GET", f"/api/v1/sessions/{session_id}/jobs/job-nope"
        )
        assert status == 404
        assert envelope["error_kind"] == "not_found"

    def test_list_jobs_paginates_with_stable_order(self, base_url, session_id):
        for _ in range(3):
            self.submit(base_url, session_id)
        status, _, unpaged = call(
            base_url, "GET", f"/api/v1/sessions/{session_id}/jobs"
        )
        assert status == 200
        all_ids = [job["job_id"] for job in unpaged["data"]["jobs"]]
        assert len(all_ids) >= 3
        assert unpaged["data"]["total"] == len(all_ids)
        paged: list[str] = []
        for offset in range(0, len(all_ids), 2):
            status, _, page = call(
                base_url,
                "GET",
                f"/api/v1/sessions/{session_id}/jobs?limit=2&offset={offset}",
            )
            assert page["data"]["limit"] == 2
            assert page["data"]["offset"] == offset
            paged.extend(job["job_id"] for job in page["data"]["jobs"])
        assert paged == all_ids  # pagination walks the same stable order

    def test_delete_cancels_job(self, base_url, session_id):
        job_id = self.submit(base_url, session_id)
        status, _, envelope = call(
            base_url, "DELETE", f"/api/v1/sessions/{session_id}/jobs/{job_id}"
        )
        assert status == 200
        assert envelope["data"]["job"]["state"] in ("cancelled", "running", "done")

    def test_bad_pagination_is_400(self, base_url, session_id):
        status, _, envelope = call(
            base_url, "GET", f"/api/v1/sessions/{session_id}/jobs?limit=banana"
        )
        assert status == 400
        assert envelope["error_kind"] == "protocol"


class TestScenariosRoute:
    def test_list_scenarios_paginated(self, base_url):
        sid = "scenario-session"
        call(
            base_url,
            "POST",
            "/api/v1/sessions",
            {
                "session_id": sid,
                "use_case": "deal_closing",
                "dataset_kwargs": {"n_prospects": 120},
            },
        )
        for i in range(3):  # tracked scenarios accrue via track_as on analyses
            params = {
                "perturbations": {"Open Marketing Email": 10.0 * (i + 1)},
                "track_as": f"option-{i}",
            }
            status, _, envelope = call(
                base_url,
                "POST",
                f"/api/v1/sessions/{sid}/jobs",
                {"action": "sensitivity", "params": params},
            )
            assert status == 201, envelope
            job = f"/api/v1/sessions/{sid}/jobs/{envelope['data']['job']['job_id']}"
            status, _, envelope = call(base_url, "GET", f"{job}?result=1&wait=1")
            assert status == 200, envelope
        status, _, envelope = call(
            base_url, "GET", f"/api/v1/sessions/{sid}/scenarios?limit=2&offset=1"
        )
        assert status == 200
        assert envelope["data"]["total"] == 3
        names = [s["name"] for s in envelope["data"]["scenarios"]]
        assert names == ["option-1", "option-2"]

    def test_scenarios_of_unknown_session_is_404(self, base_url):
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions/void/scenarios")
        assert status == 404
        assert envelope["error_kind"] == "not_found"
        assert "unknown session" in envelope["error"]


class TestMetricsRoute:
    def test_metrics_default_is_prometheus_text(self, base_url):
        call(base_url, "GET", "/api/v1/use-cases")  # record one request
        request = urllib.request.Request(base_url + "/api/v1/metrics")
        with urllib.request.urlopen(request, timeout=60.0) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            assert content_type == "text/plain; version=0.0.4; charset=utf-8"
            assert response.headers["X-Repro-Api-Version"] == API_VERSION
            text = response.read().decode("utf-8")
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_latency_ms histogram" in text
        assert 'repro_requests_total{action="list_use_cases",ok="true"}' in text

    def test_metrics_json_twin_matches_the_action(self, base_url):
        status, headers, envelope = call(
            base_url, "GET", "/api/v1/metrics?format=json"
        )
        assert status == 200
        assert headers["X-Repro-Api-Version"] == API_VERSION
        assert envelope["ok"]
        assert envelope["data"]["enabled"] is True
        assert "repro_requests_total" in envelope["data"]["metrics"]


class TestVersionsRoutes:
    @pytest.fixture(scope="class")
    def session_id(self, base_url):
        sid = "versions-sess"
        status, _, _ = call(base_url, "POST", "/api/v1/sessions", {"session_id": sid})
        assert status == 201
        status, _, envelope = call(
            base_url,
            "PUT",
            f"/api/v1/sessions/{sid}/dataset",
            {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": 60}},
        )
        assert status == 200 and envelope["ok"]
        return sid

    def test_create_version_is_201_and_ids_increment(self, base_url, session_id):
        status, _, envelope = call(
            base_url, "POST", f"/api/v1/sessions/{session_id}/versions", {"name": "v-one"}
        )
        assert status == 201, envelope
        assert envelope["data"]["version"]["version_id"] == 1
        assert envelope["data"]["version"]["name"] == "v-one"
        status, _, envelope = call(
            base_url, "POST", f"/api/v1/sessions/{session_id}/versions", {}
        )
        assert status == 201
        assert envelope["data"]["version"]["version_id"] == 2
        assert envelope["data"]["version"]["name"] == "v2"  # default name

    def test_duplicate_version_name_is_409(self, base_url, session_id):
        status, _, envelope = call(
            base_url, "POST", f"/api/v1/sessions/{session_id}/versions", {"name": "v-one"}
        )
        assert status == 409
        assert envelope["error_kind"] == "conflict"

    def test_list_versions_pages_uniformly(self, base_url, session_id):
        status, _, envelope = call(
            base_url, "GET", f"/api/v1/sessions/{session_id}/versions"
        )
        assert status == 200
        assert envelope["data"]["total"] >= 2
        assert [v["version_id"] for v in envelope["data"]["versions"]] == sorted(
            v["version_id"] for v in envelope["data"]["versions"]
        )
        status, _, page = call(
            base_url,
            "GET",
            f"/api/v1/sessions/{session_id}/versions?limit=1&offset=1",
        )
        assert status == 200
        assert page["data"]["limit"] == 1 and page["data"]["offset"] == 1
        assert len(page["data"]["versions"]) == 1
        assert page["data"]["versions"][0]["version_id"] == 2
        assert page["data"]["total"] == envelope["data"]["total"]

    def test_versions_of_unknown_session_is_404(self, base_url):
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions/ghost/versions")
        assert status == 404
        assert envelope["error_kind"] == "not_found"

    def test_create_version_without_loaded_analysis_is_400(self, base_url):
        status, _, _ = call(
            base_url, "POST", "/api/v1/sessions", {"session_id": "versions-empty"}
        )
        assert status == 201
        status, _, envelope = call(
            base_url, "POST", "/api/v1/sessions/versions-empty/versions", {"name": "x"}
        )
        assert status == 400
        assert not envelope["ok"]


class TestShareRoute:
    def test_share_id_resolves_read_only(self, base_url):
        status, _, created = call(
            base_url, "POST", "/api/v1/sessions", {"session_id": "share-sess"}
        )
        assert status == 201
        share_id = created["data"]["share_id"]
        assert share_id.startswith("sh-")
        status, _, envelope = call(base_url, "GET", f"/api/v1/sessions/share/{share_id}")
        assert status == 200, envelope
        assert envelope["data"]["session"]["session_id"] == "share-sess"
        assert envelope["data"]["read_only"] is True

    def test_unknown_share_is_404(self, base_url):
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions/share/sh-nope")
        assert status == 404
        assert envelope["error_kind"] == "not_found"

    def test_share_path_does_not_shadow_a_session_named_share(self, base_url):
        # the route table orders the share route before the single-session
        # route; a two-segment /sessions/share path must resolve shares
        status, _, envelope = call(base_url, "GET", "/api/v1/sessions/share")
        assert status == 404  # the *session* route: no session named 'share'


class TestPersistenceRoute:
    def test_persistence_stats_surface(self, base_url):
        status, _, envelope = call(base_url, "GET", "/api/v1/persistence")
        assert status == 200, envelope
        assert envelope["data"]["persistence"]["kind"] == "memory"
        assert envelope["data"]["persistence"]["durable"] is False
        assert envelope["data"]["recovered_sessions"] == 0
        jobs = envelope["data"]["jobs"]
        assert set(jobs) == {"restored_total", "interrupted_total"}


class TestDeprecationStage2:
    """The retired bare-POST surface's notice never reached ``/api/v1``
    envelopes, which stay as they were; list routes page uniformly."""

    def test_api_v1_responses_never_carry_the_notice(self, base_url):
        status, headers, envelope = call(base_url, "GET", "/api/v1/sessions")
        assert status == 200
        assert "deprecation" not in envelope
        assert "Warning" not in headers

    def test_sessions_listing_pages_uniformly(self, base_url):
        for sid in ("paging-a", "paging-b"):
            status, _, _ = call(base_url, "POST", "/api/v1/sessions", {"session_id": sid})
            assert status == 201
        status, _, full = call(base_url, "GET", "/api/v1/sessions")
        assert status == 200
        total = full["data"]["total"]
        assert total >= 2
        status, _, page = call(base_url, "GET", "/api/v1/sessions?limit=1&offset=1")
        assert status == 200
        assert page["data"]["total"] == total
        assert page["data"]["limit"] == 1 and page["data"]["offset"] == 1
        assert len(page["data"]["sessions"]) == 1
        # stable (created_at, session_id) ordering: page 2 is the full
        # listing's second row (age/idle tick live, so compare identities)
        assert (
            page["data"]["sessions"][0]["session_id"]
            == full["data"]["sessions"][1]["session_id"]
        )


SWEEP_SPACE = {"axes": [{"driver": "Call", "amounts": [0, 20]}]}
LOAD = {"use_case": "deal_closing", "dataset_kwargs": {"n_prospects": 80}}


class TestRouteMatrix:
    """The view, stats and sweep-job routes: status, the same ``data`` as the
    in-process dispatcher for the same parameters, and 404 for an unknown
    session or a retired route."""

    SID = "matrix"

    @pytest.fixture(scope="class")
    def backend(self, httpd, base_url):
        status, _, envelope = call(base_url, "POST", "/api/v1/sessions", {"session_id": self.SID})
        assert status == 201, envelope
        status, _, envelope = call(base_url, "PUT", f"/api/v1/sessions/{self.SID}/dataset", LOAD)
        assert status == 200, envelope
        return httpd.backend

    def route(self, base_url, method, path, body=None, status=200):
        """Call a route on the matrix session; return its ``data``."""
        code, _, envelope = call(base_url, method, path.format(sid=self.SID), body)
        assert code == status, envelope
        return envelope["data"]

    def test_list_use_cases(self, backend, base_url):
        data = self.route(base_url, "GET", "/api/v1/use-cases")
        assert data == backend.request("list_use_cases").data

    def test_list_use_cases_creates_no_session(self):
        # server-scoped: a catalogue read materialises no default session
        server = SystemDServer()
        assert server.request("list_use_cases").ok
        assert len(server.registry) == 0

    def test_load_use_case(self, backend, base_url):
        load = {**LOAD, "max_rows": 3}
        data = self.route(base_url, "PUT", "/api/v1/sessions/{sid}/dataset", load)
        assert len(data["table"]["rows"]) == 3
        assert data == backend.request("load_use_case", load, session_id=self.SID).data

    def test_describe_dataset(self, backend, base_url):
        data = self.route(base_url, "GET", "/api/v1/sessions/{sid}/dataset")
        assert data["shape"][0] == 80
        assert data == backend.request("describe_dataset", session_id=self.SID).data

    def test_set_kpi(self, backend, base_url):
        body = {"kpi": "Deal Closed?"}
        data = self.route(base_url, "PUT", "/api/v1/sessions/{sid}/kpi", body)
        assert data == backend.request("set_kpi", body, session_id=self.SID).data

    def test_set_drivers(self, backend, base_url):
        body = {"drivers": ["Call", "Renewal"]}
        data = self.route(base_url, "PUT", "/api/v1/sessions/{sid}/drivers", body)
        assert data["drivers"] == ["Call", "Renewal"]
        assert data == backend.request("set_drivers", body, session_id=self.SID).data

    def test_server_stats(self, backend, base_url):
        data = self.route(base_url, "GET", "/api/v1/stats")
        reference = backend.request("server_stats").data
        assert set(data) == set(reference)
        assert data["registry"] == reference["registry"]

    def test_run_sweep_job_then_result(self, backend, base_url):
        body = {"action": "run_sweep", "params": {"space": SWEEP_SPACE}}
        queued = self.route(base_url, "POST", "/api/v1/sessions/{sid}/jobs", body, 201)
        assert queued["job"]["action"] == "run_sweep"
        job_id = queued["job"]["job_id"]
        data = self.route(base_url, "GET", f"/api/v1/sessions/{{sid}}/jobs/{job_id}?result=1")
        assert data["job"]["state"] == "done"
        fetched = backend.request("job_result", session_id=self.SID, job_id=job_id)
        assert data == fetched.data
        reference = backend.request("run_sweep", {"space": SWEEP_SPACE}, session_id=self.SID)
        assert data["result"] == reference.data
        assert data["result"]["n_space"] == 2

    def test_retired_sweep_routes_are_404(self, backend, base_url):
        jobs_before = backend.request("list_jobs").data["total"]
        for method, path, body in (
            ("POST", "/api/v1/sessions/{sid}/sweeps", {"space": SWEEP_SPACE}),
            ("GET", "/api/v1/sessions/{sid}/sweeps/0123abcd", None),
        ):
            status, _, envelope = call(base_url, method, path.format(sid=self.SID), body)
            assert status == 404, envelope
            assert envelope["error_kind"] == "not_found"
            assert "no route" in envelope["error"]
        # a sweep is no job-able action: only run_sweep is
        for action in ("sweep", "sweep_result"):
            body = {"action": action, "params": {"space": SWEEP_SPACE}}
            status, _, envelope = call(base_url, "POST", f"/api/v1/sessions/{self.SID}/jobs", body)
            assert status == 400, envelope
            assert envelope["error_kind"] == "protocol"
            assert "cannot run as a job" in envelope["error"]
        assert backend.request("list_jobs").data["total"] == jobs_before
        assert not {"sweep", "sweep_result"} & {op.action for op in OPERATIONS}

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("PUT", "/dataset", {"use_case": "deal_closing"}),
            ("GET", "/dataset", None),
            ("PUT", "/kpi", {"kpi": "Deal Closed?"}),
            ("PUT", "/drivers", {"drivers": ["Call"]}),
            ("POST", "/sweeps", {"space": SWEEP_SPACE}),
            ("GET", "/sweeps/0123abcd", None),
        ],
    )
    def test_unknown_session_is_404(self, base_url, method, path, body):
        status, _, envelope = call(base_url, method, f"/api/v1/sessions/ghost{path}", body)
        assert status == 404, envelope
        assert envelope["error_kind"] == "not_found"
        # a live route matched and the session did not; a retired sweep route matches nothing
        retired = path.startswith("/sweeps")
        assert ("no route" in envelope["error"]) == retired


def test_every_action_is_reachable_over_http(httpd, base_url):
    """Each action is reached through its own route, through ``POST
    .../jobs`` when it is job-able, or — ``metrics`` — through the metrics
    route; the request log (or the job snapshot) names the action reached."""
    backend = httpd.backend
    sid = "reach"
    created = backend.request("create_session", LOAD, session_id=sid)
    assert created.ok, created.error
    sweep = backend.request(
        "submit", {"action": "run_sweep", "params": {"space": SWEEP_SPACE}}, session_id=sid
    ).data
    ids = {"sid": sid, "jid": sweep["job"]["job_id"], "share_id": created.data["share_id"]}
    # the params a job-able action needs to be accepted at submission
    job_params = {"run_sweep": {"space": SWEEP_SPACE}}
    jobs = f"/api/v1/sessions/{sid}/jobs"
    by_action = {op.action: op for op in OPERATIONS}
    # the session and its job are deleted last, once nothing else needs them
    for action in sorted(ACTIONS, key=lambda a: by_action[a].route.startswith("DELETE")):
        op = by_action[action]
        if op.route:
            method, target = op.route.split(" ", 1)
            status, _, envelope = call(base_url, method, target.format(**ids))
            assert backend.request_log[-1]["action"] == action, (op.route, envelope)
        elif op.job:
            body = {"action": action, "params": job_params.get(action, {})}
            status, _, envelope = call(base_url, "POST", jobs, body)
            assert status == 201, envelope
            assert envelope["data"]["job"]["action"] == action
            call(base_url, "DELETE", f"{jobs}/{envelope['data']['job']['job_id']}")
        else:
            assert action == "metrics", f"{action} has no route and is no job"
            status, _, envelope = call(base_url, "GET", "/api/v1/metrics?format=json")
            assert status == 200 and backend.request_log[-1]["action"] == "metrics"
