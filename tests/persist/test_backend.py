"""State-store conformance suite: in memory and on a file, one behaviour.

Every test runs against :class:`~repro.persist.StateBackend` in both of its
modes — ``":memory:"`` (id ``memory``, the default without ``--state-dir``)
and a database file (id ``sqlite``) — the registry, scenario ledger, and
job store treat the store as a black box, so any semantic gap between the
two (ordering, JSON normalisation, cascade deletes) would surface as a
behaviour change only under ``--state-dir``.  Durable-only behaviour
(surviving a reopen) is covered separately at the bottom.
"""

from __future__ import annotations

import threading

import pytest

from repro.persist import (
    JOB_INTERRUPTED_REASON,
    PersistenceError,
    StateBackend,
    open_backend,
    sqlite_path,
)


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        backend = StateBackend(":memory:")
    else:
        backend = StateBackend(tmp_path / "state.sqlite3")
    yield backend
    backend.close()


def session_record(sid: str, share: str = "") -> dict:
    return {
        "session_id": sid,
        "share_id": share or f"sh-{sid}",
        "use_case": "deal_closing",
        "dataset_kwargs": {"n_prospects": 64},
        "random_state": 0,
        "created_at": 1.0,
        "last_used_at": 2.0,
    }


class TestSessions:
    def test_save_load_round_trip_is_json_normalised(self, backend):
        record = session_record("s-a")
        record["dataset_kwargs"]["nested"] = {"tuple_becomes": [1, 2]}
        backend.save_session(record)
        loaded = backend.load_session("s-a")
        assert loaded == record
        assert loaded is not record  # a stored copy, not an alias

    def test_load_unknown_session_is_none(self, backend):
        assert backend.load_session("s-missing") is None

    def test_save_requires_session_id(self, backend):
        with pytest.raises(PersistenceError):
            backend.save_session({"use_case": "x"})

    def test_list_sessions_returns_every_record(self, backend):
        backend.save_session(session_record("s-a"))
        backend.save_session(session_record("s-b"))
        listed = {r["session_id"] for r in backend.list_sessions()}
        assert listed == {"s-a", "s-b"}

    def test_save_overwrites_in_place(self, backend):
        backend.save_session(session_record("s-a"))
        updated = session_record("s-a")
        updated["last_used_at"] = 99.0
        backend.save_session(updated)
        assert backend.load_session("s-a")["last_used_at"] == 99.0
        assert len(backend.list_sessions()) == 1

    def test_find_share_resolves_and_misses(self, backend):
        backend.save_session(session_record("s-a", share="sh-abc"))
        assert backend.find_share("sh-abc")["session_id"] == "s-a"
        assert backend.find_share("sh-nope") is None

    def test_delete_cascades_scenarios_and_versions(self, backend):
        backend.save_session(session_record("s-a"))
        backend.append_scenario("s-a", {"scenario_id": 1})
        backend.save_version("s-a", {"version_id": 1, "events": []})
        backend.delete_session("s-a")
        assert backend.load_session("s-a") is None
        assert backend.load_scenarios("s-a") == []
        assert backend.load_versions("s-a") == []


class TestScenarios:
    def test_append_preserves_order(self, backend):
        for i in range(5):
            backend.append_scenario("s-a", {"scenario_id": i, "name": f"n{i}"})
        ids = [p["scenario_id"] for p in backend.load_scenarios("s-a")]
        assert ids == [0, 1, 2, 3, 4]

    def test_ledgers_are_per_session(self, backend):
        backend.append_scenario("s-a", {"scenario_id": 1})
        backend.append_scenario("s-b", {"scenario_id": 2})
        assert len(backend.load_scenarios("s-a")) == 1
        assert backend.load_scenarios("s-b")[0]["scenario_id"] == 2

    def test_clear_empties_one_ledger(self, backend):
        backend.append_scenario("s-a", {"scenario_id": 1})
        backend.append_scenario("s-b", {"scenario_id": 2})
        backend.clear_scenarios("s-a")
        assert backend.load_scenarios("s-a") == []
        assert len(backend.load_scenarios("s-b")) == 1


class TestVersions:
    def test_versions_sorted_by_id(self, backend):
        backend.save_version("s-a", {"version_id": 2, "name": "later"})
        backend.save_version("s-a", {"version_id": 1, "name": "earlier"})
        names = [v["name"] for v in backend.load_versions("s-a")]
        assert names == ["earlier", "later"]

    def test_version_requires_id(self, backend):
        with pytest.raises(PersistenceError):
            backend.save_version("s-a", {"name": "anonymous"})


class TestJobs:
    def test_job_round_trip(self, backend):
        backend.save_job("j-1", "done", {"job_id": "j-1", "state": "done", "result": {"x": 1}})
        records = backend.load_jobs()
        assert len(records) == 1
        assert records[0]["job_id"] == "j-1"
        assert records[0]["state"] == "done"
        assert records[0]["snapshot"]["result"] == {"x": 1}

    def test_delete_job(self, backend):
        backend.save_job("j-1", "done", {"job_id": "j-1", "state": "done"})
        backend.delete_job("j-1")
        assert backend.load_jobs() == []

    def test_mark_interrupted_fails_only_non_terminal(self, backend):
        backend.save_job("j-p", "pending", {"job_id": "j-p", "state": "pending"})
        backend.save_job("j-r", "running", {"job_id": "j-r", "state": "running"})
        backend.save_job("j-d", "done", {"job_id": "j-d", "state": "done", "result": {}})
        assert backend.mark_interrupted(JOB_INTERRUPTED_REASON) == 2
        by_id = {r["job_id"]: r for r in backend.load_jobs()}
        assert by_id["j-p"]["state"] == "failed"
        assert by_id["j-p"]["snapshot"]["error"] == JOB_INTERRUPTED_REASON
        assert by_id["j-r"]["state"] == "failed"
        assert by_id["j-d"]["state"] == "done"
        # idempotent: a second sweep finds nothing left to interrupt
        assert backend.mark_interrupted(JOB_INTERRUPTED_REASON) == 0


class TestTransactionsAndStats:
    def test_transaction_is_reentrant(self, backend):
        with backend.transaction():
            backend.save_session(session_record("s-a"))
            with backend.transaction():
                backend.append_scenario("s-a", {"scenario_id": 1})
        assert backend.load_session("s-a") is not None
        assert len(backend.load_scenarios("s-a")) == 1

    def test_stats_counts_rows(self, backend):
        backend.save_session(session_record("s-a"))
        backend.append_scenario("s-a", {"scenario_id": 1})
        backend.save_version("s-a", {"version_id": 1})
        backend.save_job("j-1", "done", {"job_id": "j-1", "state": "done"})
        stats = backend.stats()
        assert stats["sessions"] == 1
        assert stats["scenario_events"] == 1
        assert stats["versions"] == 1
        assert stats["jobs"] == 1
        assert stats["kind"] in ("memory", "sqlite")
        assert stats["durable"] is (stats["kind"] == "sqlite")

    def test_concurrent_appends_all_land(self, backend):
        def append_many(offset):
            for i in range(25):
                backend.append_scenario("s-a", {"scenario_id": offset + i})

        threads = [threading.Thread(target=append_many, args=(k * 25,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(backend.load_scenarios("s-a")) == 100


class TestDurability:
    def test_sqlite_survives_reopen(self, tmp_path):
        path = tmp_path / "state.sqlite3"
        first = StateBackend(path)
        first.save_session(session_record("s-a"))
        first.append_scenario("s-a", {"scenario_id": 1, "name": "kept"})
        first.save_job("j-1", "done", {"job_id": "j-1", "state": "done", "result": {"v": 7}})
        first.close()

        second = StateBackend(path)
        assert second.load_session("s-a")["use_case"] == "deal_closing"
        assert second.load_scenarios("s-a")[0]["name"] == "kept"
        assert second.load_jobs()[0]["snapshot"]["result"] == {"v": 7}
        second.close()

    def test_open_backend_dispatch(self, tmp_path):
        memory = open_backend(None)
        assert memory.kind == "memory" and not memory.durable
        durable = open_backend(tmp_path / "state")
        try:
            assert durable.kind == "sqlite" and durable.durable
            assert sqlite_path(tmp_path / "state").exists()
        finally:
            durable.close()
