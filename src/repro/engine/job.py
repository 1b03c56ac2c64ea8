"""Job lifecycle: the unit of asynchronous analysis execution.

A :class:`Job` is one queued analysis request — the action and params of an
ordinary protocol request, plus everything the engine needs to run it off the
request thread: a lifecycle state machine (``pending → running →
done/failed/cancelled``), a priority, monotonic timestamps for queue/run
durations, a progress fraction updated from inside the chunked analysis
runners, and the synchronisation primitives for cooperative cancellation and
result waiting.

:class:`JobContext` is the slice of a job handed to the analysis code: its
bound :meth:`~JobContext.checkpoint` is passed as the ``checkpoint=`` callable
of the core runners (see :mod:`repro.core.sensitivity`), so every chunk
boundary both publishes partial progress and raises :class:`JobCancelled`
promptly once cancellation has been requested.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Job",
    "JobContext",
    "JobCancelled",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every lifecycle state, in forward order.
JOB_STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class JobCancelled(Exception):
    """Raised inside an analysis runner when its job's cancellation was
    requested; the worker converts it into the ``cancelled`` terminal state."""


@dataclass
class Job:
    """One asynchronous analysis job.

    Attributes
    ----------
    job_id:
        Engine-assigned identifier (``j-<hex>``).
    action:
        The analysis action to run (a key of
        :data:`repro.server.handlers.JOB_HANDLERS`).
    params:
        The action's parameters, exactly as a synchronous request would carry
        them.
    session_id:
        The session the analysis runs against (the worker acquires that
        session's lock for the duration of the run).
    priority:
        Higher values are dequeued first; ties run in submission order.
    coalesce_key:
        Deduplication key (session + model fingerprint + action + params);
        identical in-flight submissions attach to one job.
    attached:
        How many submissions this job serves (1 + coalesced duplicates).
    trace_id / parent_span_id:
        The trace context captured at submission (the submitting request's
        span), so the job's execution spans parent onto the request that
        caused it — see :mod:`repro.obs.trace`.
    """

    job_id: str
    action: str
    params: dict[str, Any]
    session_id: str
    priority: int = 0
    coalesce_key: str = ""
    state: str = PENDING
    progress: float = 0.0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cancel_requested_at: float | None = None
    result: dict[str, Any] | None = None
    error: str = ""
    attached: int = 1
    trace_id: str = ""
    parent_span_id: str = ""
    #: Set on jobs recovered from a durable backend: the exact ``to_dict``
    #: payload persisted at the terminal transition.  A frozen job reports
    #: that payload verbatim — durations included — so recovered
    #: ``job_result`` responses are bitwise-identical to pre-restart ones
    #: (live monotonic clocks are meaningless across processes).
    frozen: dict[str, Any] | None = field(default=None, repr=False)
    #: Terminal-journal hook bound by the :class:`~repro.engine.store.JobStore`
    #: at registration.  It runs on the terminal transition *before* the done
    #: event releases result waiters — the crash-safety ordering ``job_result``
    #: relies on: once a waiter observes a result, its durable record exists
    #: (a hook that raises fails the job instead).
    journal: Callable[["Job"], None] | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    _done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    # ------------------------------------------------------------------ #
    # state transitions (all thread-safe)
    # ------------------------------------------------------------------ #
    def try_start(self, now: float) -> bool:
        """Move ``pending → running``; False if the job is already terminal
        (e.g. cancelled while still queued)."""
        with self._lock:
            if self.state != PENDING:
                return False
            self.state = RUNNING
            self.started_at = now
            return True

    def request_cancel(self, now: float) -> bool:
        """Ask the job to stop.

        A still-pending job is cancelled immediately (returns True: the caller
        must finalise it in the store); a running job only gets its cancel
        flag raised — the next :meth:`JobContext.checkpoint` inside the
        analysis raises :class:`JobCancelled` and the worker finalises it.
        Terminal jobs are left untouched.
        """
        with self._lock:
            self._cancel_event.set()
            if self.cancel_requested_at is None:
                self.cancel_requested_at = now
            cancelled_pending = self.state == PENDING
            if cancelled_pending:
                self.state = CANCELLED
                self.error = "cancelled before start"
                self.finished_at = now
        if cancelled_pending:
            self._publish_terminal()
        return cancelled_pending

    def finish(self, state: str, now: float, *, result: dict[str, Any] | None = None,
               error: str = "") -> None:
        """Move a running job into a terminal state (no-op when already
        terminal, so a late worker cannot overwrite a cancellation)."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() requires a terminal state, got {state!r}")
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self.finished_at = now
            if state == DONE:
                self.result = result
                self.progress = 1.0
            else:
                self.error = error
        self._publish_terminal()

    def finish_success(self, result: dict[str, Any], now: float) -> None:
        """Complete the job — as ``done``, unless cancellation was requested
        while the final chunk ran, in which case the cancel wins so that
        ``cancel_job`` behaves deterministically."""
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            if self._cancel_event.is_set():
                self.state = CANCELLED
                self.error = "cancelled"
            else:
                self.state = DONE
                self.result = result
                self.progress = 1.0
            self.finished_at = now
        self._publish_terminal()

    def _publish_terminal(self) -> None:
        """Journal the terminal snapshot, then release result waiters.

        Runs outside the state lock (the journal hook re-reads the job via
        :meth:`to_dict`, which takes it).  Exactly one thread gets here per
        job — every terminal transition above is guarded by the
        already-terminal check.  The ordering is the durable store's
        crash-safety contract: by the time a ``job_result`` wait returns,
        the result-bearing record has been journaled, so a crash right
        after the client sees the result cannot lose it.  A journal write
        that raises turns the job ``failed`` and drops its result: the
        journal still holds the ``pending`` record, which a restart re-marks
        ``failed`` too, so no waiter is handed a result the journal lacks.
        The done event is set either way — a persistence error must never
        leave waiters blocked.
        """
        try:
            if self.journal is not None:
                self.journal(self)
        except Exception as exc:  # noqa: BLE001 - whatever the write raised, it was lost
            with self._lock:
                self.state = FAILED
                self.result = None
                self.error = f"journal write failed: {type(exc).__name__}: {exc}"
        finally:
            self._done_event.set()

    def set_progress(self, fraction: float) -> bool:
        """Publish a progress checkpoint (clamped to [0, 1], never moving
        backwards so readers see a monotone fraction).  Returns whether the
        fraction actually advanced (event publication keys off this so
        out-of-order process-executor ticks never emit regressions)."""
        fraction = min(1.0, max(0.0, float(fraction)))
        with self._lock:
            if fraction > self.progress:
                self.progress = fraction
                return True
            return False

    # ------------------------------------------------------------------ #
    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`request_cancel` has been called."""
        return self._cancel_event.is_set()

    @property
    def is_terminal(self) -> bool:
        """Whether the job reached ``done``/``failed``/``cancelled``."""
        with self._lock:
            return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal (True) or ``timeout`` elapses."""
        return self._done_event.wait(timeout)

    def to_dict(self, *, now: float | None = None,
                include_result: bool = False) -> dict[str, Any]:
        """JSON-safe snapshot.

        Timestamps are monotonic, so they are reported as durations: how long
        the job waited in the queue and how long it has been (or was)
        running.  ``include_result`` additionally embeds the payload of a
        finished job (``job_result`` uses it; ``list_jobs`` stays light).

        A recovered (:attr:`frozen`) job returns its persisted snapshot
        verbatim instead of recomputing durations.
        """
        with self._lock:
            if self.frozen is not None:
                payload = dict(self.frozen)
                if not (include_result and self.state == DONE):
                    payload.pop("result", None)
                return payload
            reference = self.finished_at if self.finished_at is not None else now
            started_ref = self.started_at if self.started_at is not None else reference
            payload: dict[str, Any] = {
                "job_id": self.job_id,
                "action": self.action,
                "session_id": self.session_id,
                "priority": self.priority,
                "state": self.state,
                "progress": round(self.progress, 6),
                "attached": self.attached,
                "error": self.error,
                "wait_seconds": (
                    max(0.0, started_ref - self.submitted_at)
                    if started_ref is not None
                    else None
                ),
                "run_seconds": (
                    max(0.0, reference - self.started_at)
                    if self.started_at is not None and reference is not None
                    else None
                ),
            }
            if include_result and self.state == DONE:
                payload["result"] = self.result
            return payload

    def attach(self) -> None:
        """Count one more coalesced submission served by this job."""
        with self._lock:
            self.attached += 1

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "Job":
        """Rebuild a terminal job from its persisted ``to_dict`` snapshot.

        The snapshot becomes the job's :attr:`frozen` payload; lifecycle
        fields are mirrored out of it so filters (state, session) and
        ``job_result`` semantics keep working, and the done event is
        pre-set so result waits return immediately.
        """
        state = str(snapshot.get("state", FAILED))
        if state not in TERMINAL_STATES:
            raise ValueError(
                f"from_snapshot() requires a terminal snapshot, got {state!r}"
            )
        job = cls(
            job_id=str(snapshot["job_id"]),
            action=str(snapshot.get("action", "")),
            params={},
            session_id=str(snapshot.get("session_id", "")),
            priority=int(snapshot.get("priority", 0)),
            state=state,
            progress=float(snapshot.get("progress", 0.0)),
            result=snapshot.get("result"),
            error=str(snapshot.get("error", "")),
            attached=int(snapshot.get("attached", 1)),
            frozen=dict(snapshot),
        )
        job._done_event.set()
        return job


class JobContext:
    """The cooperative-execution face of a job, handed to analysis runners.

    Besides progress/cancellation (:meth:`checkpoint`), the context carries
    the job's event publisher: :meth:`emit` appends typed events (sweep
    frontier chunks, sensitivity row-chunk deltas, ...) to the engine's
    :class:`~repro.engine.events.JobEventBus`, and every advancing
    checkpoint publishes a ``progress`` event.  With ``events=None`` (e.g.
    a context built outside an engine) both are silent no-ops, so runners
    never special-case the wiring.
    """

    def __init__(self, job: Job, *, executor: Any = None, events: Any = None) -> None:
        self._job = job
        self._executor = executor
        self._events = events

    @property
    def job(self) -> Job:
        """The underlying job."""
        return self._job

    @property
    def executor(self) -> Any:
        """The process executor this job's runner should fan work out to
        (``None`` for thread jobs, whose runners use the inline executor)."""
        return self._executor

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._job.cancel_requested

    def checkpoint(self, fraction: float) -> None:
        """Publish progress and honour cancellation.

        The chunked analysis runners call this between chunks; it records the
        completed fraction and raises :class:`JobCancelled` as soon as the
        job's cancellation was requested, so long sweeps stop promptly without
        the runners polling any engine state themselves.
        """
        if self._job.cancel_requested:
            raise JobCancelled(self._job.job_id)
        if self._job.set_progress(fraction) and self._events is not None:
            self._events.publish(
                self._job.job_id,
                "progress",
                {"progress": round(self._job.progress, 6)},
            )

    def emit(self, type_: str, data: dict[str, Any] | None = None) -> None:
        """Publish a typed event on the job's stream (no-op without a bus).

        Analysis runners call this for incremental payloads — a scored sweep
        chunk, a sensitivity row-chunk delta — so streaming clients see
        partial results long before the terminal ``done`` event.
        """
        if self._events is not None:
            # repro: ignore[REG004] -- runners emit incremental kinds; the bus drops post-terminal publishes
            self._events.publish(self._job.job_id, type_, data)
