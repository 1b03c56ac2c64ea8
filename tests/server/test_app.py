"""Integration-style tests for the SystemD backend server."""

from __future__ import annotations

import json

import pytest

from repro.server import Request, SystemDServer


@pytest.fixture(scope="module")
def server():
    """A server with the deal-closing use case loaded (shared across tests)."""
    instance = SystemDServer()
    response = instance.request(
        "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 250}
    )
    assert response.ok, response.error
    return instance


class TestLifecycle:
    def test_list_use_cases(self):
        response = SystemDServer().request("list_use_cases")
        assert response.ok
        keys = {u["key"] for u in response.data["use_cases"]}
        assert keys == {"marketing_mix", "customer_retention", "deal_closing"}

    def test_analysis_before_load_fails_cleanly(self):
        response = SystemDServer().request("driver_importance")
        assert not response.ok
        assert "load_use_case" in response.error

    def test_load_returns_table_preview(self, server):
        response = server.request("describe_dataset")
        assert response.ok
        assert response.data["shape"][0] == 250

    def test_load_unknown_use_case(self):
        response = SystemDServer().request("load_use_case", use_case="weather")
        assert not response.ok
        assert "unknown use case" in response.error


class TestAnalysisActions:
    def test_driver_importance(self, server):
        response = server.request("driver_importance", verify=False)
        assert response.ok
        assert len(response.data["drivers"]) > 0
        assert response.data["model_kind"] == "random_forest_classifier"

    def test_sensitivity(self, server):
        response = server.request(
            "sensitivity", perturbations={"Open Marketing Email": 40.0}
        )
        assert response.ok
        assert response.data["perturbed_kpi"] != response.data["original_kpi"]

    def test_sensitivity_with_perturbation_list(self, server):
        response = server.request(
            "sensitivity",
            perturbations=[{"driver": "Call", "amount": 10.0, "mode": "percentage"}],
        )
        assert response.ok

    def test_sensitivity_missing_params(self, server):
        response = server.request("sensitivity")
        assert not response.ok

    def test_sensitivity_unknown_driver(self, server):
        response = server.request("sensitivity", perturbations={"Bogus": 1.0})
        assert not response.ok

    def test_comparison(self, server):
        response = server.request("comparison", drivers=["Call"], amounts=[0.0, 20.0])
        assert response.ok
        assert len(response.data["points"]) == 2

    def test_per_data(self, server):
        response = server.request("per_data", row_index=3, perturbations={"Call": 10.0})
        assert response.ok
        assert response.data["row_index"] == 3

    def test_per_data_missing_row_index(self, server):
        response = server.request("per_data", perturbations={"Call": 10.0})
        assert not response.ok

    def test_goal_inversion(self, server):
        response = server.request(
            "goal_inversion", goal="maximize", drivers=["Call"], n_calls=8, optimizer="random"
        )
        assert response.ok
        assert response.data["best_kpi"] >= response.data["original_kpi"]

    def test_constrained(self, server):
        response = server.request(
            "constrained",
            bounds={"Open Marketing Email": [40.0, 80.0]},
            n_calls=8,
            optimizer="random",
            track_as="constrained",
        )
        assert response.ok
        change = response.data["driver_changes"]["Open Marketing Email"]
        assert 40.0 <= change <= 80.0

    def test_constrained_requires_bounds(self, server):
        response = server.request("constrained")
        assert not response.ok

    def test_scenarios_accumulate(self, server):
        response = server.request("list_scenarios")
        assert response.ok
        assert len(response.data["scenarios"]) >= 1

    def test_set_drivers_exclude(self, server):
        response = server.request("set_drivers", exclude=["Webinar Attended"])
        assert response.ok
        assert "Webinar Attended" not in response.data["drivers"]

    def test_set_drivers_requires_parameters(self, server):
        response = server.request("set_drivers")
        assert not response.ok

    def test_set_kpi_invalid(self, server):
        response = server.request("set_kpi", kpi="Account")
        assert not response.ok


class TestWireFormat:
    def test_json_round_trip(self, server):
        request = Request("sensitivity", {"perturbations": {"Call": 15.0}}, request_id="r-9")
        payload = json.loads(json.dumps(server.handle(request).to_dict()))
        assert payload["ok"] is True
        assert payload["request_id"] == "r-9"

    def test_unknown_action_is_error_response(self, server):
        response = server.request("submit", {"action": "explode"})
        assert not response.ok
        assert "explode" in response.error

    def test_request_log_grows(self, server):
        before = len(server.request_log)
        server.request("list_use_cases")
        assert len(server.request_log) == before + 1
        assert {"action", "ok", "elapsed_ms"} <= set(server.request_log[-1])

    def test_internal_errors_do_not_crash(self, server, monkeypatch):
        from repro.server import handlers

        def boom(server, params):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(handlers.SERVER_HANDLERS, "list_use_cases", boom)
        response = server.request("list_use_cases")
        assert not response.ok
        assert "kaboom" in response.error


class TestHTTPWrapper:
    def test_http_round_trip(self):
        import http.client
        import threading

        from repro.server import serve_http

        httpd = serve_http(port=0)  # OS-assigned free port
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.handle_request)
        thread.start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            connection.request("GET", "/api/v1/use-cases")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["ok"] is True
        finally:
            thread.join(timeout=10)
            httpd.server_close()
