"""Thread-safe session registry: many concurrent, id-addressed analyses.

The seed backend held exactly one :class:`~repro.server.handlers.ServerState`
("the current analysis"), so a second user's ``load_use_case`` clobbered the
first.  :class:`SessionRegistry` replaces that with an id-addressed map of
sessions sharing one :class:`~repro.core.cache.ModelCache`:

* ``create`` / ``get`` / ``list_sessions`` / ``close`` — the lifecycle API the
  server actions (``create_session`` etc.) delegate to;
* LRU eviction beyond a capacity cap, and TTL eviction of sessions idle for
  longer than ``ttl_seconds``, so abandoned browser tabs cannot pin memory;
* a per-session :class:`threading.Lock` (``entry.lock``) the dispatcher holds
  while running a handler, serialising requests *within* a session while
  requests across sessions proceed in parallel.

The reserved id :data:`DEFAULT_SESSION_ID` backs requests that carry no
``session_id`` — the backward-compatible single-analysis behaviour.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..persist import StateBackend
from .handlers import ServerState

__all__ = ["SessionEntry", "SessionRegistry", "UnknownSessionError", "DEFAULT_SESSION_ID"]

#: Session id used when a request does not specify one.
DEFAULT_SESSION_ID = "default"


class UnknownSessionError(KeyError):
    """Raised when a session id is not (or no longer) registered."""


@dataclass
class SessionEntry:
    """One registered session: its state, lock, and bookkeeping timestamps.

    ``created_at`` / ``last_used_at`` are monotonic (age/idle arithmetic);
    ``created_wall`` is the wall-clock creation instant, which is what
    survives restarts and orders session listings stably.
    """

    session_id: str
    state: ServerState
    created_at: float
    last_used_at: float
    lock: threading.Lock = field(default_factory=threading.Lock)
    request_count: int = 0
    share_id: str = ""
    created_wall: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (timestamps as idle/age seconds are the
        registry's job, since only it knows the clock)."""
        return {
            "session_id": self.session_id,
            "share_id": self.share_id,
            "use_case": self.state.use_case_key,
            "loaded": self.state.session is not None,
            "request_count": self.request_count,
        }


class SessionRegistry:
    """Bounded, thread-safe map from session id to :class:`SessionEntry`.

    Parameters
    ----------
    capacity:
        Maximum number of live sessions; creating one more evicts the least
        recently used session.
    ttl_seconds:
        Sessions idle for longer than this are evicted lazily (on any
        create/get/list/stats call).  ``None`` disables TTL eviction.
    pinned:
        Session ids exempt from TTL and LRU eviction (and not counted
        against ``capacity``).  Defaults to the default session, so seed-style
        clients that never send a ``session_id`` keep their analysis for the
        life of the process.
    clock:
        Monotonic time source, injectable for tests.
    backend:
        State store session records are journaled to.  Defaults to a
        private in-memory :class:`~repro.persist.StateBackend`, whose
        records die with the process; a durable backend
        additionally keeps records of evicted sessions so they recover
        lazily (:meth:`get` rebuilds the analysis from its journaled load
        parameters and replays the scenario ledger) or eagerly via
        :meth:`recover_all`.
    """

    #: Attributes whose mutations must flow through a persistence hook —
    #: the PER001 check rule enforces this contract statically.
    _PERSISTED_FIELDS = ("_entries",)

    def __init__(
        self,
        *,
        capacity: int = 64,
        ttl_seconds: float | None = 3600.0,
        pinned: tuple[str, ...] = (DEFAULT_SESSION_ID,),
        clock: Callable[[], float] = time.monotonic,
        backend: StateBackend | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.pinned = frozenset(pinned)
        self._clock = clock
        self.backend = backend if backend is not None else StateBackend()
        #: Shared model cache injected by the server; recovery threads it
        #: into rebuilt sessions so refits hit the fingerprint-keyed cache.
        self.model_cache = None
        self._entries: OrderedDict[str, SessionEntry] = OrderedDict()
        self._lock = threading.RLock()
        self._created_total = 0
        self._closed_total = 0
        self._evicted_lru = 0
        self._evicted_ttl = 0
        self._recovered_total = 0

    # ------------------------------------------------------------------ #
    # persistence plumbing
    # ------------------------------------------------------------------ #
    def _entry_record(self, entry: SessionEntry) -> dict[str, Any]:
        """The durable session record: identity, share id, and the load
        parameters needed to rebuild the analysis after a restart."""
        state = entry.state
        return {
            "session_id": entry.session_id,
            "share_id": entry.share_id,
            "use_case": state.use_case_key,
            "dataset_kwargs": state.options.get("dataset_kwargs", {}),
            "random_state": state.options.get("random_state", 0),
            "created_at": entry.created_wall,
            "last_used_at": time.time(),
        }

    def _bind_persistence(self, entry: SessionEntry) -> None:
        """Give the entry's state a persist hook and journal its ledger.

        ``handle_load_use_case`` calls the hook after swapping in a fresh
        :class:`~repro.core.WhatIfSession`; the hook journals the new load
        parameters, drops the now-stale ledger journal, and binds the fresh
        scenario manager to the backend.
        """
        backend = self.backend
        sid = entry.session_id

        def persist_load(state: ServerState) -> None:
            with backend.transaction():
                backend.clear_scenarios(sid)
                backend.save_session(self._entry_record(entry))
            if state.session is not None:
                state.session.scenarios.bind_backend(backend, sid)

        entry.state.persist_hook = persist_load

    def _install_locked(
        self,
        sid: str,
        *,
        share_id: str,
        created_wall: float,
        persist_record: bool,
    ) -> SessionEntry:
        """Insert a fresh entry (caller holds the lock), journaling it and
        evicting over-capacity LRU sessions."""
        now = self._clock()
        entry = SessionEntry(
            session_id=sid,
            state=ServerState(),
            created_at=now,
            last_used_at=now,
            share_id=share_id,
            created_wall=created_wall,
        )
        entry.state.model_cache = self.model_cache
        self._bind_persistence(entry)
        if persist_record:
            self.backend.save_session(self._entry_record(entry))
        self._entries[sid] = entry
        while self._unpinned_count() > self.capacity:
            lru_id = next(eid for eid in self._entries if eid not in self.pinned)
            self._evict_entry(lru_id)
            self._evicted_lru += 1
        return entry

    def _evict_entry(self, sid: str) -> None:
        """Drop one in-memory entry.  The durable record stays behind for
        lazy recovery; a non-durable backend's record dies with the entry
        (the process is the store, so there is nothing to recover into)."""
        del self._entries[sid]
        if not self.backend.durable:
            self.backend.delete_session(sid)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def create(self, session_id: str | None = None) -> SessionEntry:
        """Register a new session and return its entry.

        A fresh uuid-based id is generated unless ``session_id`` is given;
        reusing a live (or durably recorded) id raises :class:`ValueError`.
        Every session is minted a read-only ``share_id`` resolvable through
        :meth:`find_share`.
        """
        with self._lock:
            self._evict_expired()
            sid = session_id or f"s-{uuid.uuid4().hex[:12]}"
            if sid in self._entries or self.backend.load_session(sid) is not None:
                raise ValueError(f"session {sid!r} already exists")
            entry = self._install_locked(
                sid,
                share_id=f"sh-{uuid.uuid4().hex[:12]}",
                created_wall=time.time(),
                persist_record=True,
            )
            self._created_total += 1
            return entry

    def _unpinned_count(self) -> int:
        return sum(1 for sid in self._entries if sid not in self.pinned)

    def get(self, session_id: str) -> SessionEntry:
        """Return a live session entry, refreshing its LRU position and
        last-used timestamp; unknown or expired ids raise
        :class:`UnknownSessionError`.

        A session that is not live but has a durable record is recovered
        transparently: the analysis rebuilds from its journaled load
        parameters (model refits hit the fingerprint-keyed cache) and the
        scenario ledger replays from the journal.
        """
        with self._lock:
            self._evict_expired()
            entry = self._entries.get(session_id)
            if entry is None:
                entry = self._recover_locked(session_id)
            if entry is None:
                raise UnknownSessionError(session_id)
            entry.last_used_at = self._clock()
            self._entries.move_to_end(session_id)  # LRU refresh, not a mutation
            return entry

    def _recover_locked(self, session_id: str) -> SessionEntry | None:
        """Rebuild a session from its durable record (caller holds the lock).

        Returns ``None`` when the backend has no record.  The rebuild runs
        under the registry lock — recovery is rare (first touch after a
        restart or eviction) and correctness beats concurrency here.
        """
        record = self.backend.load_session(session_id)
        if record is None:
            return None
        entry = self._install_locked(
            session_id,
            share_id=str(record.get("share_id") or ""),
            created_wall=float(record.get("created_at") or 0.0),
            persist_record=False,
        )
        use_case = record.get("use_case")
        if use_case:
            from ..core import WhatIfSession

            state = entry.state
            state.session = WhatIfSession.from_use_case(
                use_case,
                dataset_kwargs=record.get("dataset_kwargs") or {},
                random_state=record.get("random_state", 0),
                model_cache=state.model_cache,
            )
            state.use_case_key = use_case
            state.options["dataset_kwargs"] = record.get("dataset_kwargs") or {}
            state.options["random_state"] = record.get("random_state", 0)
            manager = state.session.scenarios
            manager.replay(self.backend.load_scenarios(session_id))
            manager.bind_backend(self.backend, session_id)
        self._recovered_total += 1
        return entry

    def recover_all(self) -> list[str]:
        """Eagerly recover every dormant durable session (``--recover``).

        Returns the recovered session ids, sorted.  Sessions already live
        are skipped; capacity still applies, so recovering more sessions
        than ``capacity`` LRU-evicts back to dormant (their records stay).
        """
        recovered = []
        for record in self.backend.list_sessions():
            sid = record["session_id"]
            with self._lock:
                if sid in self._entries:
                    continue
                if self._recover_locked(sid) is not None:
                    recovered.append(sid)
        return sorted(recovered)

    def find_share(self, share_id: str) -> dict[str, Any] | None:
        """Resolve a read-only share id to a session summary, or ``None``.

        Resolution is durable-record based and does *not* recover or touch
        the session (shares are read-only views; recovery happens when the
        shared session is actually read through :meth:`get`).
        """
        record = self.backend.find_share(share_id)
        if record is None:
            return None
        sid = record["session_id"]
        with self._lock:
            entry = self._entries.get(sid)
            loaded = entry is not None and entry.state.session is not None
        return {
            "session_id": sid,
            "share_id": record.get("share_id", ""),
            "use_case": record.get("use_case", ""),
            "created_at": record.get("created_at", 0.0),
            "loaded": loaded,
        }

    def get_or_create(self, session_id: str) -> SessionEntry:
        """Like :meth:`get`, but registers the session if absent (used for
        the default session, which materialises lazily)."""
        with self._lock:
            try:
                return self.get(session_id)
            except UnknownSessionError:
                return self.create(session_id)

    def close(self, session_id: str) -> SessionEntry:
        """Unregister a session, returning its final entry.

        Closing is the one lifecycle step that *removes* the durable record
        (and its ledger/versions): unlike eviction, close is an explicit
        "this analysis is over".  A dormant session — durable record, no
        live entry — closes without being recovered first.
        """
        with self._lock:
            entry = self._entries.pop(session_id, None)
            if entry is None:
                record = self.backend.load_session(session_id)
                if record is None:
                    raise UnknownSessionError(session_id)
                # synthesise a final entry for the response payload; the
                # analysis itself was never rebuilt, so state stays empty
                now = self._clock()
                entry = SessionEntry(
                    session_id=session_id,
                    state=ServerState(),
                    created_at=now,
                    last_used_at=now,
                    share_id=str(record.get("share_id") or ""),
                    created_wall=float(record.get("created_at") or 0.0),
                )
                entry.state.use_case_key = str(record.get("use_case") or "")
            self.backend.delete_session(session_id)
            self._closed_total += 1
            return entry

    def list_sessions(self) -> list[dict[str, Any]]:
        """JSON-safe summaries of every session, live and dormant.

        Live entries report in-process counters (request count, age/idle
        from the monotonic clock); dormant durable records — sessions that
        survived a restart or an eviction but have not been touched yet —
        report ``loaded: false`` and ``dormant: true``.  Ordering is stable
        across processes: ``(created_at, session_id)`` on the wall clock.
        """
        with self._lock:
            self._evict_expired()
            now = self._clock()
            wall_now = time.time()
            rows: dict[str, dict[str, Any]] = {}
            for record in self.backend.list_sessions():
                sid = record["session_id"]
                created = float(record.get("created_at") or 0.0)
                last_used = float(record.get("last_used_at") or created)
                rows[sid] = {
                    "session_id": sid,
                    "share_id": record.get("share_id", ""),
                    "use_case": record.get("use_case", ""),
                    "loaded": False,
                    "request_count": 0,
                    "age_seconds": max(0.0, wall_now - created),
                    "idle_seconds": max(0.0, wall_now - last_used),
                    "created_at": created,
                    "dormant": True,
                }
            for entry in self._entries.values():
                rows[entry.session_id] = {
                    **entry.to_dict(),
                    "age_seconds": now - entry.created_at,
                    "idle_seconds": now - entry.last_used_at,
                    "created_at": entry.created_wall,
                    "dormant": False,
                }
            return sorted(
                rows.values(), key=lambda r: (r["created_at"], r["session_id"])
            )

    # ------------------------------------------------------------------ #
    def _evict_expired(self) -> None:
        if self.ttl_seconds is None:
            return
        now = self._clock()
        expired = [
            sid
            for sid, entry in self._entries.items()
            if sid not in self.pinned and now - entry.last_used_at > self.ttl_seconds
        ]
        for sid in expired:
            self._evict_entry(sid)
            self._evicted_ttl += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: object) -> bool:
        with self._lock:
            return session_id in self._entries

    def stats(self) -> dict[str, Any]:
        """Registry-level counters for the ``server_stats`` action."""
        with self._lock:
            self._evict_expired()
            return {
                "live_sessions": len(self._entries),
                "capacity": self.capacity,
                "ttl_seconds": self.ttl_seconds,
                "created_total": self._created_total,
                "closed_total": self._closed_total,
                "evicted_lru": self._evicted_lru,
                "evicted_ttl": self._evicted_ttl,
                "recovered_total": self._recovered_total,
                "backend": self.backend.stats(),
            }
