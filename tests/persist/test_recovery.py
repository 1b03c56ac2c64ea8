"""In-process crash-recovery: a durable server's state survives a rebuild.

These tests simulate the restart boundary without a subprocess: server A
writes through a file-backed :class:`~repro.persist.StateBackend`, is discarded
(without closing its sessions — that is the crash), and server B opens a
fresh backend over the same file.  Everything authoritative must come back
bitwise: session registry entries, scenario ledgers (replayed), ledger
versions, and finished job results.  The true SIGKILL path over HTTP lives
in ``tests/server/test_crash_recovery.py``.
"""

from __future__ import annotations

import pytest

from repro.persist import JOB_INTERRUPTED_REASON, StateBackend
from repro.server import SystemDServer

USE_CASE = "deal_closing"
DRIVER = "Open Marketing Email"


def make_server(tmp_path):
    return SystemDServer(backend=StateBackend(tmp_path / "state.sqlite3"))


def populate(server, sid="s-alpha"):
    """Create a session, run an analysis, snapshot a version; return ids."""
    created = server.request("create_session", session_id=sid)
    assert created.ok
    loaded = server.request(
        "load_use_case",
        session_id=sid,
        use_case=USE_CASE,
        dataset_kwargs={"n_prospects": 80},
        random_state=3,
    )
    assert loaded.ok
    for pct in (10.0, 25.0):
        assert server.request(
            "sensitivity",
            session_id=sid,
            perturbations={DRIVER: pct},
            track_as=f"email +{pct:g}%",  # tracked runs land on the ledger
        ).ok
    version = server.request("create_version", session_id=sid, name="baseline")
    assert version.ok and version.data["version"]["version_id"] == 1
    return sid, created.data["share_id"]


class TestSessionRecovery:
    def test_ledger_replays_bitwise_on_lazy_first_touch(self, tmp_path):
        first = make_server(tmp_path)
        sid, _ = populate(first)
        before = first.request("list_scenarios", session_id=sid).data
        first.close()  # engine threads only; the crash leaves state behind

        second = make_server(tmp_path)
        after = second.request("list_scenarios", session_id=sid).data
        assert after == before
        assert second.registry.stats()["recovered_total"] == 1
        second.close()

    def test_recovered_session_keeps_analysing_with_fresh_ids(self, tmp_path):
        first = make_server(tmp_path)
        sid, _ = populate(first)
        first.close()

        second = make_server(tmp_path)
        response = second.request(
            "sensitivity",
            session_id=sid,
            perturbations={DRIVER: 40.0},
            track_as="email +40%",
        )
        assert response.ok
        ids = [
            s["scenario_id"]
            for s in second.request("list_scenarios", session_id=sid).data["scenarios"]
        ]
        assert ids == sorted(ids) and len(ids) == len(set(ids)) == 3
        second.close()

    def test_eager_recover_all_rebuilds_every_dormant_session(self, tmp_path):
        first = make_server(tmp_path)
        populate(first, sid="s-alpha")
        populate(first, sid="s-beta")
        first.close()

        second = make_server(tmp_path)
        assert second.recover_sessions() == ["s-alpha", "s-beta"]
        listing = second.request("list_sessions").data
        assert listing["total"] == 2
        assert all(row["loaded"] for row in listing["sessions"])
        second.close()

    def test_share_id_survives_restart(self, tmp_path):
        first = make_server(tmp_path)
        sid, share = populate(first)
        first.close()

        second = make_server(tmp_path)
        resolved = second.request("resolve_share", share_id=share)
        assert resolved.ok
        assert resolved.data["session"]["session_id"] == sid
        assert resolved.data["read_only"] is True
        second.close()

    def test_versions_survive_restart_and_ids_continue(self, tmp_path):
        first = make_server(tmp_path)
        sid, _ = populate(first)
        first.close()

        second = make_server(tmp_path)
        listed = second.request("list_versions", session_id=sid)
        assert listed.ok and listed.data["total"] == 1
        assert listed.data["versions"][0]["name"] == "baseline"
        again = second.request("create_version", session_id=sid, name="after-restart")
        assert again.ok and again.data["version"]["version_id"] == 2
        second.close()

    def test_close_session_deletes_the_durable_record(self, tmp_path):
        first = make_server(tmp_path)
        sid, _ = populate(first)
        assert first.request("close_session", session_id=sid).ok
        first.close()

        second = make_server(tmp_path)
        response = second.request("list_scenarios", session_id=sid)
        assert not response.ok and response.error_kind == "not_found"
        second.close()

    def test_dormant_close_works_without_recovery(self, tmp_path):
        first = make_server(tmp_path)
        sid, _ = populate(first)
        first.close()

        second = make_server(tmp_path)
        # close the still-dormant session: no recovery, record gone
        assert second.request("close_session", session_id=sid).ok
        assert second.registry.stats()["recovered_total"] == 0
        assert second.registry.backend.load_session(sid) is None
        second.close()


class TestJobRecovery:
    def test_finished_job_result_is_bitwise_after_restart(self, tmp_path):
        first = make_server(tmp_path)
        sid, _ = populate(first)
        submitted = first.request(
            "submit",
            session_id=sid,
            params={
                "action": "sensitivity",
                "params": {"perturbations": {DRIVER: 15.0}},
            },
        )
        assert submitted.ok
        job_id = submitted.data["job"]["job_id"]
        before = first.request("job_result", job_id=job_id, wait=True, timeout_s=60)
        assert before.ok
        first.close()

        second = make_server(tmp_path)
        after = second.request("job_result", job_id=job_id)
        assert after.ok
        assert after.data["result"] == before.data["result"]
        assert second.engine.store.stats()["restored_total"] >= 1
        second.close()

    def test_pending_job_is_failed_with_restart_reason(self, tmp_path):
        backend = StateBackend(tmp_path / "state.sqlite3")
        backend.save_job(
            "j-interrupted",
            "pending",
            {
                "job_id": "j-interrupted",
                "action": "sensitivity",
                "session_id": "s-alpha",
                "priority": 0,
                "state": "pending",
                "progress": 0.0,
                "attached": 1,
                "error": "",
                "params": {},
            },
        )
        backend.close()

        server = make_server(tmp_path)
        status = server.request("job_status", job_id="j-interrupted")
        assert status.ok
        assert status.data["job"]["state"] == "failed"
        assert status.data["job"]["error"] == JOB_INTERRUPTED_REASON
        result = server.request("job_result", job_id="j-interrupted")
        assert not result.ok
        stats = server.engine.store.stats()
        assert stats["interrupted_total"] == 1
        assert stats["restored_total"] == 1
        server.close()


class TestEvictionSemantics:
    def test_durable_eviction_keeps_the_record(self, tmp_path):
        from repro.server import SessionRegistry

        backend = StateBackend(tmp_path / "state.sqlite3")
        registry = SessionRegistry(capacity=1, backend=backend)
        registry.create("s-old")
        registry.create("s-new")  # LRU-evicts s-old from memory
        assert "s-old" not in registry
        # ...but the durable record remains, so first touch recovers it
        entry = registry.get("s-old")
        assert entry.session_id == "s-old"

    def test_memory_eviction_still_forgets_for_good(self):
        from repro.server import SessionRegistry, UnknownSessionError

        registry = SessionRegistry(capacity=1)
        registry.create("s-old")
        registry.create("s-new")
        with pytest.raises(UnknownSessionError):
            registry.get("s-old")
