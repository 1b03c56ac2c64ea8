"""Multi-session serving: id-addressed routing, shared cache, concurrency."""

from __future__ import annotations

import threading


from repro.core.model_manager import ModelManager
from repro.server import DEFAULT_SESSION_ID, SessionRegistry, SystemDServer


def _create(server: SystemDServer, use_case: str = "deal_closing", **kwargs) -> str:
    response = server.request(
        "create_session",
        use_case=use_case,
        dataset_kwargs=kwargs or {"n_prospects": 150},
    )
    assert response.ok, response.error
    return response.data["session_id"]


class TestSessionActions:
    def test_create_session_returns_id_and_preview(self):
        server = SystemDServer()
        response = server.request(
            "create_session", use_case="deal_closing", dataset_kwargs={"n_prospects": 150}
        )
        assert response.ok, response.error
        assert response.data["session_id"]
        assert response.session_id == response.data["session_id"]
        assert response.data["use_case"] == "deal_closing"

    def test_create_session_without_use_case(self):
        server = SystemDServer()
        response = server.request("create_session")
        assert response.ok
        sid = response.data["session_id"]
        # the session exists but has no dataset yet
        analysis = server.request("driver_importance", session_id=sid)
        assert not analysis.ok
        assert "load_use_case" in analysis.error

    def test_failed_eager_load_leaves_no_orphan_session(self):
        server = SystemDServer()
        response = server.request("create_session", use_case="weather")
        assert not response.ok
        assert "unknown use case" in response.error
        assert server.request("list_sessions").data["sessions"] == []

    def test_unknown_session_is_protocol_error(self):
        server = SystemDServer()
        response = server.request("sensitivity", session_id="ghost", perturbations={"x": 1})
        assert not response.ok
        assert "unknown session" in response.error

    def test_close_session(self):
        server = SystemDServer()
        sid = _create(server)
        assert server.request("close_session", session_id=sid).ok
        assert not server.request("describe_dataset", session_id=sid).ok

    def test_list_sessions(self):
        server = SystemDServer()
        first = _create(server)
        second = _create(server)
        response = server.request("list_sessions")
        assert response.ok
        ids = {s["session_id"] for s in response.data["sessions"]}
        assert {first, second} <= ids

    def test_server_stats_shape(self):
        server = SystemDServer()
        _create(server)
        response = server.request("server_stats")
        assert response.ok
        assert {"registry", "model_cache", "requests"} <= set(response.data)
        assert response.data["registry"]["live_sessions"] >= 1

    def test_session_id_in_params_also_routes(self):
        server = SystemDServer()
        sid = _create(server)
        response = server.request("describe_dataset", {"session_id": sid})
        assert response.ok
        assert response.session_id == sid


class TestDefaultSessionCompat:
    def test_requests_without_session_id_use_default(self):
        server = SystemDServer()
        load = server.request(
            "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 150}
        )
        assert load.ok
        assert load.session_id == DEFAULT_SESSION_ID
        describe = server.request("describe_dataset")
        assert describe.ok
        assert describe.data["shape"][0] == 150

    def test_state_property_is_default_session(self):
        server = SystemDServer()
        server.request(
            "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 150}
        )
        assert server.state.use_case_key == "deal_closing"

    def test_named_sessions_do_not_disturb_default(self):
        server = SystemDServer()
        server.request(
            "load_use_case", use_case="deal_closing", dataset_kwargs={"n_prospects": 150}
        )
        sid = _create(server, use_case="customer_retention", n_customers=150)
        default_kpi = server.request("describe_dataset").data["kpi"]["name"]
        other_kpi = server.request("describe_dataset", session_id=sid).data["kpi"]["name"]
        assert default_kpi != other_kpi


class TestSharedModelCache:
    def test_same_configuration_fits_exactly_one_model(self, monkeypatch):
        fits = []
        original_fit = ModelManager.fit

        def counting_fit(self):
            fits.append(1)
            return original_fit(self)

        monkeypatch.setattr(ModelManager, "fit", counting_fit)
        server = SystemDServer()
        first = _create(server)
        second = _create(server)
        for sid in (first, second):
            response = server.request(
                "sensitivity", session_id=sid, perturbations={"Open Marketing Email": 40.0}
            )
            assert response.ok, response.error
        assert len(fits) == 1
        cache = server.stats()["model_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 1

    def test_driver_toggle_via_server_hits_cache(self, monkeypatch):
        fits = []
        original_fit = ModelManager.fit

        def counting_fit(self):
            fits.append(1)
            return original_fit(self)

        monkeypatch.setattr(ModelManager, "fit", counting_fit)
        server = SystemDServer()
        sid = _create(server)
        drivers = server.request("describe_dataset", session_id=sid).data["drivers"]
        perturb = {"Open Marketing Email": 40.0}
        assert server.request("sensitivity", session_id=sid, perturbations=perturb).ok
        assert len(fits) == 1
        # deselect one driver: new configuration, new fit
        assert server.request(
            "set_drivers", session_id=sid, exclude=["Webinar Attended"]
        ).ok
        assert server.request("sensitivity", session_id=sid, perturbations=perturb).ok
        assert len(fits) == 2
        # toggle it back on: cached configuration, no third fit
        assert server.request("set_drivers", session_id=sid, drivers=drivers).ok
        assert server.request("sensitivity", session_id=sid, perturbations=perturb).ok
        assert len(fits) == 2


class TestConcurrentSessions:
    def test_threads_on_distinct_sessions_do_not_interfere(self):
        server = SystemDServer()
        configs = {
            "deal": ("deal_closing", {"n_prospects": 150}, "Open Marketing Email"),
            "retention": ("customer_retention", {"n_customers": 150}, "Support Tickets"),
        }
        ids = {
            label: _create(server, use_case=use_case, **kwargs)
            for label, (use_case, kwargs, _) in configs.items()
        }
        results: dict[str, list] = {label: [] for label in configs}
        errors: list[str] = []
        barrier = threading.Barrier(len(configs))

        def worker(label: str) -> None:
            use_case, _, driver = configs[label]
            sid = ids[label]
            barrier.wait()
            for amount in (10.0, 20.0, 30.0):
                response = server.request(
                    "sensitivity", session_id=sid, perturbations={driver: amount}
                )
                if not response.ok:
                    errors.append(f"{label}: {response.error}")
                    return
                results[label].append(response.data["kpi"])
            describe = server.request("describe_dataset", session_id=sid)
            if describe.data["kpi"]["name"] not in describe.data["columns"]:
                errors.append(f"{label}: inconsistent session state")

        threads = [threading.Thread(target=worker, args=(label,)) for label in configs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors
        # each session only ever saw its own KPI
        assert set(results["deal"]) == {"Deal Closed?"}
        assert set(results["retention"]) == {"Retained After 6 Months"}

    def test_concurrent_same_session_requests_serialise(self):
        server = SystemDServer()
        sid = _create(server)
        errors: list[str] = []

        def worker() -> None:
            response = server.request(
                "sensitivity", session_id=sid, perturbations={"Open Marketing Email": 25.0}
            )
            if not response.ok:
                errors.append(response.error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

    def test_registry_eviction_surfaces_as_protocol_error(self):
        server = SystemDServer(registry=SessionRegistry(capacity=1, ttl_seconds=None))
        first = _create(server)
        _create(server)  # evicts `first` (capacity 1)
        response = server.request("describe_dataset", session_id=first)
        assert not response.ok
        assert "unknown session" in response.error
