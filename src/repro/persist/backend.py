"""The state store: one SQLite database, on a file or in memory.

A :class:`StateBackend` persists the three authoritative state stores of one
backend server:

* **session records** — one JSON document per registered session: its id,
  read-only ``share_id``, the load parameters needed to rebuild the analysis
  (``use_case`` / ``dataset_kwargs`` / ``random_state``), and wall-clock
  created/last-used timestamps (the in-memory registry clocks are monotonic
  and meaningless across restarts);
* **scenario ledgers** — an append-only event log per session, replayed in
  order on recovery (plus immutable named *versions*, snapshots of the
  ledger taken through the versions API);
* **job records** — a light ``pending`` record at submission and the full
  ``to_dict(include_result=True)`` snapshot at the terminal transition, so
  ``job_result`` payloads survive a restart bitwise; records still
  non-terminal at recovery time are re-marked ``failed`` with
  :data:`JOB_INTERRUPTED_REASON` rather than silently lost.

:func:`open_backend` picks where the database lives:

* with ``repro serve --state-dir DIR`` it is one WAL-mode file in ``DIR``
  (``kind`` ``"sqlite"``, :attr:`~StateBackend.durable`).  ``synchronous=
  NORMAL`` commits survive process crashes (the crash-recovery test SIGKILLs
  the server mid-flight); the power-loss window NORMAL accepts is the
  standard WAL trade;
* without one it is ``":memory:"`` (``kind`` ``"memory"``, not durable):
  the same schema and semantics, but the records die with the process.

Design notes:

* One connection, opened with ``check_same_thread=False`` and serialised by
  an ``RLock``: the server's write rate (a few records per request) is far
  below where per-thread connections would pay for their complexity, and a
  single writer sidesteps ``SQLITE_BUSY`` entirely.
* Every mutation goes through one write path (``_write``): it runs inside
  :meth:`~StateBackend.transaction` and feeds the ``repro_persist_*``
  metrics, counting a write that raises in ``repro_persist_failures_total``.
  The ``PER001`` check rule enforces the caller-side half of the contract:
  code mutating a ``_PERSISTED_FIELDS`` attribute must call through a
  backend/persist hook in the same method.
* Records are stored as JSON text columns keyed by their natural ids, so a
  loaded record is a fresh, JSON-normal copy (tuples become lists, keys
  become strings).  The ledger table's ``AUTOINCREMENT`` rowid preserves
  append order across deletes, which is what makes replay deterministic.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from ..obs import metrics

__all__ = [
    "JOB_INTERRUPTED_REASON",
    "PersistenceError",
    "StateBackend",
    "open_backend",
    "sqlite_path",
]

#: Error string stamped onto jobs found non-terminal during recovery: the
#: server restarted underneath them and their execution is gone.
JOB_INTERRUPTED_REASON = "server_restart"

#: File name used inside a ``--state-dir`` directory.
STATE_FILENAME = "repro-state.sqlite3"

#: The database name SQLite reads as "no file: this connection's memory".
MEMORY = ":memory:"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id TEXT PRIMARY KEY,
    share_id   TEXT UNIQUE,
    record     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scenarios (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    session_id TEXT NOT NULL,
    record     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_scenarios_session ON scenarios (session_id);
CREATE TABLE IF NOT EXISTS versions (
    session_id TEXT NOT NULL,
    version_id INTEGER NOT NULL,
    record     TEXT NOT NULL,
    PRIMARY KEY (session_id, version_id)
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    state  TEXT NOT NULL,
    record TEXT NOT NULL
);
"""

_WRITES = metrics.counter("repro_persist_writes_total")
_WRITE_LATENCY = metrics.histogram("repro_persist_write_latency_ms")
_FAILURES = metrics.counter("repro_persist_failures_total")
_REPLAYED = metrics.counter("repro_persist_records_replayed_total")
_REPLAY_LATENCY = metrics.histogram("repro_persist_replay_latency_ms")


class PersistenceError(RuntimeError):
    """Raised when a backend cannot read or write its durable store."""


def sqlite_path(state_dir: str | Path) -> Path:
    """The canonical database path inside a state directory."""
    return Path(state_dir) / STATE_FILENAME


def open_backend(state_dir: str | Path | None) -> "StateBackend":
    """The store the server/CLI layers use: ``None`` → in memory, a
    directory → durable (created if missing)."""
    if state_dir is None:
        return StateBackend()
    directory = Path(state_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return StateBackend(sqlite_path(directory))


def _record(row: tuple) -> Any:
    return json.loads(row[0])


class StateBackend:
    """Sessions, ledgers, versions and job records in one SQLite database.

    ``path`` is a database file, or :data:`MEMORY` (the default) for a
    process-local store; see the module docstring.
    """

    def __init__(self, path: str | Path = MEMORY) -> None:
        #: Whether records outlive the process.  Callers use this to decide
        #: eviction policy: a non-durable store's record is worthless once
        #: its in-memory twin is evicted (the process *is* the store), while
        #: a durable store keeps it for lazy recovery.
        self.durable = str(path) != MEMORY
        #: Store identity reported by ``persist_stats``.
        self.kind = "sqlite" if self.durable else "memory"
        self.path = Path(path)
        self._lock = threading.RLock()
        self._txn_depth = 0
        try:
            # autocommit mode (isolation_level=None): transaction boundaries
            # are explicit BEGIN/COMMIT issued by transaction() below
            self._conn = sqlite3.connect(str(path), check_same_thread=False, isolation_level=None)
            if self.durable:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise PersistenceError(f"cannot open state database at {path}: {exc}") from exc

    @contextmanager
    def transaction(self) -> Iterator["StateBackend"]:
        """Writes inside one ``with backend.transaction():`` block commit
        together.  Reentrant: the outermost entry issues ``BEGIN IMMEDIATE``
        and its exit commits (or rolls back on error); inner entries nest.
        A database error surfaces as :class:`PersistenceError`."""
        with self._lock:
            outermost = self._txn_depth == 0
            self._txn_depth += 1
            try:
                if outermost:
                    self._conn.execute("BEGIN IMMEDIATE")
                yield self
                if outermost:
                    self._conn.execute("COMMIT")
            except BaseException as exc:
                # a failed COMMIT can leave the transaction open; without the
                # rollback every later BEGIN on this connection would fail too
                if outermost and self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                if isinstance(exc, sqlite3.Error):
                    raise PersistenceError(f"state database write failed: {exc}") from exc
                raise
            finally:
                self._txn_depth -= 1

    def _write(self, kind: str, *statements: tuple[str, tuple[Any, ...]]) -> None:
        """The one write path: run ``(sql, params)`` statements in one
        transaction, counted as one ``kind`` write, or as one failure when
        anything raises."""
        started = time.perf_counter()
        try:
            with self.transaction():
                for sql, params in statements:
                    self._conn.execute(sql, params)
        except Exception:
            _FAILURES.labels(kind).inc()
            raise
        _WRITES.labels(kind).inc()
        _WRITE_LATENCY.labels(kind).observe((time.perf_counter() - started) * 1000.0)

    def _select(self, sql: str, *params: Any) -> list[tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def _replay(
        self, kind: str, sql: str, *params: Any, decode: Callable[[tuple], Any] = _record
    ) -> list[Any]:
        """Decoded rows of a recovery read, counted as replayed ``kind``
        records (records, not calls)."""
        started = time.perf_counter()
        records = [decode(row) for row in self._select(sql, *params)]
        if records:
            _REPLAYED.labels(kind).inc(len(records))
        _REPLAY_LATENCY.labels(kind).observe((time.perf_counter() - started) * 1000.0)
        return records

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def save_session(self, record: dict[str, Any]) -> None:
        """Insert or replace one session record (keyed by ``session_id``)."""
        if not record.get("session_id"):
            raise PersistenceError("session record must carry a 'session_id'")
        self._write(
            "session",
            (
                "INSERT OR REPLACE INTO sessions (session_id, share_id, record) VALUES (?, ?, ?)",
                (record["session_id"], record.get("share_id"), json.dumps(record)),
            ),
        )

    def load_session(self, session_id: str) -> dict[str, Any] | None:
        """The persisted record for ``session_id``, or ``None``."""
        records = self._replay(
            "session", "SELECT record FROM sessions WHERE session_id = ?", session_id
        )
        return records[0] if records else None

    def delete_session(self, session_id: str) -> None:
        """Drop a session record *and* its ledger and versions (cascade)."""
        tables = ("sessions", "scenarios", "versions")
        self._write(
            "session",
            *((f"DELETE FROM {table} WHERE session_id = ?", (session_id,)) for table in tables),
        )

    def list_sessions(self) -> list[dict[str, Any]]:
        """Every persisted session record (callers sort)."""
        return [_record(row) for row in self._select("SELECT record FROM sessions")]

    def find_share(self, share_id: str) -> dict[str, Any] | None:
        """Resolve a read-only share id to its session record, or ``None``."""
        rows = self._select("SELECT record FROM sessions WHERE share_id = ?", share_id)
        return _record(rows[0]) if rows else None

    # ------------------------------------------------------------------ #
    # scenario ledgers
    # ------------------------------------------------------------------ #
    def append_scenario(self, session_id: str, payload: dict[str, Any]) -> None:
        """Append one scenario event to a session's ledger."""
        self._write(
            "scenario",
            (
                "INSERT INTO scenarios (session_id, record) VALUES (?, ?)",
                (session_id, json.dumps(payload)),
            ),
        )

    def load_scenarios(self, session_id: str) -> list[dict[str, Any]]:
        """The session's ledger events, in append order."""
        return self._replay(
            "scenario",
            "SELECT record FROM scenarios WHERE session_id = ? ORDER BY seq",
            session_id,
        )

    def clear_scenarios(self, session_id: str) -> None:
        """Drop a session's ledger (a fresh ``load_use_case`` starts over)."""
        self._write("scenario", ("DELETE FROM scenarios WHERE session_id = ?", (session_id,)))

    # ------------------------------------------------------------------ #
    # ledger versions (immutable snapshots)
    # ------------------------------------------------------------------ #
    def save_version(self, session_id: str, record: dict[str, Any]) -> None:
        """Persist one immutable ledger snapshot (keyed by ``version_id``)."""
        if "version_id" not in record:
            raise PersistenceError("version record must carry a 'version_id'")
        self._write(
            "version",
            (
                "INSERT OR REPLACE INTO versions (session_id, version_id, record) VALUES (?, ?, ?)",
                (session_id, int(record["version_id"]), json.dumps(record)),
            ),
        )

    def load_versions(self, session_id: str) -> list[dict[str, Any]]:
        """A session's versions, oldest first (by ``version_id``)."""
        return self._replay(
            "version",
            "SELECT record FROM versions WHERE session_id = ? ORDER BY version_id",
            session_id,
        )

    # ------------------------------------------------------------------ #
    # job records
    # ------------------------------------------------------------------ #
    def save_job(self, job_id: str, state: str, snapshot: dict[str, Any]) -> None:
        """Insert or replace one job record (its current lifecycle snapshot)."""
        self._write(
            "job",
            (
                "INSERT OR REPLACE INTO jobs (job_id, state, record) VALUES (?, ?, ?)",
                (job_id, state, json.dumps(snapshot)),
            ),
        )

    def delete_job(self, job_id: str) -> None:
        """Drop a job record (LRU eviction of its in-memory twin)."""
        self._write("job", ("DELETE FROM jobs WHERE job_id = ?", (job_id,)))

    def load_jobs(self) -> list[dict[str, Any]]:
        """Every job record as ``{"job_id", "state", "snapshot"}`` dicts."""
        return self._replay(
            "job",
            "SELECT job_id, state, record FROM jobs ORDER BY job_id",
            decode=lambda row: {"job_id": row[0], "state": row[1], "snapshot": json.loads(row[2])},
        )

    def mark_interrupted(self, reason: str = JOB_INTERRUPTED_REASON) -> int:
        """Re-mark every non-terminal job record as ``failed(reason)``.

        Called once during recovery, before records are materialised: a job
        that was pending or running when the process died can never finish,
        and silently dropping it would leave clients polling forever.
        Returns the number of records rewritten.
        """
        with self.transaction():
            rows = self._select(
                "SELECT job_id, record FROM jobs "
                "WHERE state NOT IN ('done', 'failed', 'cancelled')"
            )
            for job_id, text in rows:
                snapshot = json.loads(text)
                snapshot["state"] = "failed"
                snapshot["error"] = reason
                self.save_job(job_id, "failed", snapshot)
        return len(rows)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Store identity and row counts for ``persist_stats``; ``path``
        only when the store is durable."""
        with self._lock:
            sessions, scenario_events, versions, jobs = (
                self._select(f"SELECT COUNT(*) FROM {table}")[0][0]  # noqa: S608 - fixed names
                for table in ("sessions", "scenarios", "versions", "jobs")
            )
        stats = {
            "kind": self.kind,
            "sessions": sessions,
            "scenario_events": scenario_events,
            "versions": versions,
            "jobs": jobs,
            "durable": self.durable,
        }
        if self.durable:
            stats["path"] = str(self.path)
        return stats

    def close(self) -> None:
        """Release the database connection (idempotent)."""
        with self._lock:
            self._conn.close()
