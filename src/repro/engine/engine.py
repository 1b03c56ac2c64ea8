"""The analysis engine: non-blocking execution of long-running analyses.

:class:`AnalysisEngine` ties the job primitives together for one
:class:`~repro.server.app.SystemDServer`:

* :meth:`~AnalysisEngine.submit` turns any job-able analysis action (the
  operations declared ``job`` in :data:`repro.server.handlers.OPERATIONS`,
  run through :data:`~repro.server.handlers.JOB_HANDLERS`) into a
  :class:`~repro.engine.job.Job` on the worker pool's priority queue —
  unless an identical analysis is already in flight for the same session and
  model fingerprint, in which case the submission *coalesces* onto that job
  and the analysis runs once for all submitters;
* workers execute jobs under the target session's lock (the same mutual
  exclusion the synchronous dispatcher uses), threading a
  :class:`~repro.engine.job.JobContext` checkpoint through the chunked
  analysis runners so long sweeps publish partial progress and honour
  cancellation between chunks;
* :meth:`~AnalysisEngine.status` / :meth:`~AnalysisEngine.result` /
  :meth:`~AnalysisEngine.cancel` / :meth:`~AnalysisEngine.list_jobs` back
  the ``job_status`` / ``job_result`` / ``cancel_job`` / ``list_jobs``
  protocol actions, and :meth:`~AnalysisEngine.stats` feeds the ``engine``
  block of ``server_stats``.

The coalesce key hashes the session id, the session's *model fingerprint*
(dataset content + KPI + drivers + model params + seed — see
:func:`repro.core.cache.model_fingerprint`), the action, and the canonical
JSON of the params.  Fingerprinting is best-effort: if the session is mid
mutation or unloaded, the submission simply gets a unique key and runs
unshared, which is always correct — coalescing is an optimisation, never a
correctness dependency.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..obs import metrics, trace
from ..server.handlers import JOB_HANDLERS, PROCESS_ACTIONS
from ..server.protocol import ProtocolError
from ..server.registry import DEFAULT_SESSION_ID
from ..server.serialization import to_json_safe
from .events import JobEventBus
from .job import CANCELLED, DONE, FAILED, Job, JobCancelled, JobContext
from .pool import WorkerPool
from .process import ProcessExecutor
from .store import JobStore, UnknownJobError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server.app import SystemDServer

__all__ = ["AnalysisEngine", "PROCESS_ACTIONS"]

_QUEUE_WAIT = metrics.histogram("repro_job_queue_wait_seconds")
_RUN_SECONDS = metrics.histogram("repro_job_run_seconds")
_CANCEL_LATENCY = metrics.histogram("repro_job_cancel_latency_seconds")
_JOBS_FINISHED = metrics.counter("repro_jobs_finished_total")


class AnalysisEngine:
    """Job queue + worker pool + job store for one backend server.

    Parameters
    ----------
    server:
        The owning :class:`~repro.server.app.SystemDServer`; jobs resolve
        their session through its registry and run under that session's lock.
    workers:
        Worker threads in the pool (threads start lazily on first submit).
        With ``executor="process"`` the same count sizes the process pool.
    max_finished:
        Finished jobs retained by the store before LRU eviction.
    executor:
        ``"thread"`` (default) runs every job's analysis on the worker
        thread; ``"process"`` additionally fans the CPU-bound actions (those
        declared ``pool`` in the operation table, :data:`PROCESS_ACTIONS`)
        out to a lazy-started
        :class:`~repro.engine.process.ProcessExecutor`, escaping the GIL.
        Where the ``spawn`` start method is unavailable the engine falls
        back to threads and records the fallback in :meth:`stats`.
    clock:
        Monotonic time source, injectable for tests.
    backend:
        Durable-state backend the job store journals into (``None`` keeps
        the process-local default).  With a durable backend, construction
        eagerly restores journaled jobs: terminal records come back frozen
        (bitwise-identical ``job_result`` payloads) and records the previous
        process left non-terminal are re-marked
        ``failed(server_restart)``.
    """

    def __init__(
        self,
        server: "SystemDServer",
        *,
        workers: int = 4,
        max_finished: int = 256,
        executor: str = "thread",
        clock: Callable[[], float] = time.monotonic,
        backend: Any = None,
    ) -> None:
        self._server = server
        self._clock = clock
        self.store = JobStore(max_finished=max_finished, backend=backend)
        if backend is not None and backend.durable:
            self.store.restore()
        # every job's lifecycle + incremental payloads stream through here
        # (SSE subscribers replay/follow per-job channels — see events.py)
        self.events = JobEventBus(max_channels=max_finished)
        self.pool = WorkerPool(self._run, workers=workers)
        self._lock = threading.Lock()
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self._executor_requested = executor
        self._executor_fallback = ""
        self.process_executor: ProcessExecutor | None = None
        if executor == "process":
            if ProcessExecutor.available():
                # lazy pool: no process is spawned until the first routed job
                self.process_executor = ProcessExecutor(workers=workers)
            else:  # pragma: no cover - platform without spawn
                self._executor_fallback = (
                    "the 'spawn' start method is unavailable on this platform"
                )
        # submission/coalescing totals live in the store (which decides them
        # under its own lock); the engine only counts what the store cannot
        # know — executions and terminal outcomes
        self._executed_total = 0
        self._finished_by_state = {DONE: 0, FAILED: 0, CANCELLED: 0}

    # ------------------------------------------------------------------ #
    # submission and coalescing
    # ------------------------------------------------------------------ #
    def submit(
        self,
        action: str,
        params: dict[str, Any] | None = None,
        *,
        session_id: str = "",
        priority: int = 0,
    ) -> tuple[Job, bool]:
        """Queue an analysis job; returns ``(job, coalesced)``.

        ``coalesced`` is True when the submission attached to an identical
        in-flight job instead of enqueuing a new execution.  Unknown sessions
        and non-job-able actions raise
        :class:`~repro.server.protocol.ProtocolError` so the dispatcher turns
        them into ordinary error responses.
        """
        if action not in JOB_HANDLERS:
            raise ProtocolError(
                f"action {action!r} cannot run as a job; job-able actions: "
                f"{', '.join(sorted(JOB_HANDLERS))}"
            )
        resolved_session = session_id or DEFAULT_SESSION_ID
        # fail fast on unknown sessions (also materialises the default one)
        self._server._entry_for(resolved_session)
        job_params = dict(params or {})
        key = self._coalesce_key(resolved_session, action, job_params)

        # capture the submitting request's trace context so the job's spans
        # parent onto it (a fresh trace id when submitted outside any span)
        trace_context = trace.current_context()

        def factory() -> Job:
            return Job(
                job_id=f"j-{uuid.uuid4().hex[:12]}",
                action=action,
                params=job_params,
                session_id=resolved_session,
                priority=int(priority),
                coalesce_key=key,
                submitted_at=self._clock(),
                trace_id=(
                    trace_context.trace_id if trace_context else trace.new_id()
                ),
                parent_span_id=(
                    trace_context.span_id if trace_context else ""
                ),
            )

        job, attached = self.store.coalesce_or_add(key, factory)
        if not attached:
            self.events.publish(
                job.job_id,
                "queued",
                {"action": job.action, "session_id": job.session_id},
            )
            self.pool.submit(job)
        return job, attached

    def _coalesce_key(self, session_id: str, action: str, params: dict[str, Any]) -> str:
        """Hash of (session, model fingerprint, action, canonical params).

        Best-effort: any failure (unloaded session, concurrent mutation)
        yields an empty key, which disables coalescing for this submission.
        """
        try:
            entry = self._server.registry.get(session_id)
            session = entry.state.session
            fingerprint = session.model_key() if session is not None else "unloaded"
            canonical = json.dumps(
                {
                    "session": session_id,
                    "fingerprint": fingerprint,
                    "action": action,
                    "params": params,
                },
                sort_keys=True,
                default=repr,
            )
        except Exception:  # noqa: BLE001 - coalescing must never block a submit
            return ""
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()

    # ------------------------------------------------------------------ #
    # execution (worker callback)
    # ------------------------------------------------------------------ #
    def _run(self, job: Job) -> None:
        if not job.try_start(self._clock()):
            # cancelled while queued; request_cancel already finalised it
            return
        with self._lock:
            self._executed_total += 1
        self.events.publish(job.job_id, "started", {"action": job.action})
        if job.started_at is not None:
            _QUEUE_WAIT.labels(job.action).observe(
                max(0.0, job.started_at - job.submitted_at)
            )
        context = JobContext(
            job, executor=self.executor_for(job.action), events=self.events
        )
        job_trace = (
            trace.TraceContext(job.trace_id, job.parent_span_id)
            if job.trace_id
            else None
        )
        try:
            entry = self._server._entry_for(job.session_id)
            handler = JOB_HANDLERS[job.action]
            # the job span closes before _finalize, so terminal events carry
            # the complete timeline; worker-side spans parent onto it
            with trace.activate(job_trace), trace.span(
                "job", job_id=job.job_id, action=job.action
            ):
                with entry.lock:
                    entry.request_count += 1
                    data = handler(entry.state, dict(job.params), context)
            job.finish_success(to_json_safe(data), self._clock())
        except JobCancelled:
            job.finish(CANCELLED, self._clock(), error="cancelled")
        except ProtocolError as exc:
            job.finish(FAILED, self._clock(), error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a job failure must not kill the worker
            job.finish(
                FAILED,
                self._clock(),
                error=f"internal error: {type(exc).__name__}: {exc}",
            )
        self._finalize(job)

    def _finalize(self, job: Job) -> None:
        self.store.mark_finished(job)
        with self._lock:
            self._finished_by_state[job.state] = (
                self._finished_by_state.get(job.state, 0) + 1
            )
        _JOBS_FINISHED.labels(job.state).inc()
        if job.started_at is not None and job.finished_at is not None:
            _RUN_SECONDS.labels(job.action).observe(
                max(0.0, job.finished_at - job.started_at)
            )
        if (
            job.state == CANCELLED
            and job.cancel_requested_at is not None
            and job.finished_at is not None
        ):
            _CANCEL_LATENCY.observe(
                max(0.0, job.finished_at - job.cancel_requested_at)
            )
        # exactly one terminal event per job: _finalize runs once, from the
        # worker (_run) or from a pending-job cancel; the bus additionally
        # drops any publish after a terminal event as a backstop.  ``done``
        # embeds the full result payload so a streaming client's final event
        # is byte-identical to the polled ``job_result`` blob (the span
        # timeline rides alongside, never inside, the result).
        timeline = self.trace_timeline(job.job_id)
        if job.state == DONE:
            self.events.publish(
                job.job_id,
                "done",
                {"progress": 1.0, "result": job.result, "trace": timeline},
            )
        else:
            self.events.publish(
                job.job_id, job.state, {"error": job.error, "trace": timeline}
            )

    # ------------------------------------------------------------------ #
    # executor routing
    # ------------------------------------------------------------------ #
    @property
    def executor_kind(self) -> str:
        """The executor actually in effect (after any spawn fallback)."""
        return "process" if self.process_executor is not None else "thread"

    def executor_for(self, action: str) -> ProcessExecutor | None:
        """The process executor a job of ``action`` should fan out to, or
        ``None`` when the action (or the engine) runs thread-local."""
        if self.process_executor is not None and action in PROCESS_ACTIONS:
            return self.process_executor
        return None

    # ------------------------------------------------------------------ #
    # inspection and control
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        """Current engine clock reading (for in-flight duration reporting)."""
        return self._clock()

    def status(self, job_id: str) -> Job:
        """The job for ``job_id`` (raises :class:`UnknownJobError`)."""
        return self.store.get(job_id)

    def trace_timeline(self, job_id: str) -> list[dict[str, Any]]:
        """The recorded span timeline of ``job_id``'s trace (possibly [])."""
        try:
            job = self.store.get(job_id)
        except UnknownJobError:
            return []
        if not job.trace_id:
            return []
        return trace.trace_store().timeline(job.trace_id)

    def result(self, job_id: str, *, wait: bool = True, timeout: float | None = None) -> Job:
        """The job, optionally blocking until it reaches a terminal state."""
        job = self.store.get(job_id)
        if wait:
            job.wait(timeout)
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation of a pending or running job.

        Pending jobs flip to ``cancelled`` immediately; running jobs stop at
        their next progress checkpoint.  Cancelling a terminal job is a
        no-op (its state is returned unchanged).
        """
        job = self.store.get(job_id)
        if job.request_cancel(self._clock()):
            self._finalize(job)
        return job

    def list_jobs(
        self,
        *,
        session_id: str | None = None,
        states: Iterable[str] | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[dict[str, Any]]:
        """JSON-safe snapshots of tracked jobs, oldest first.

        ``limit``/``offset`` paginate over the stable
        ``(submitted_at, job_id)`` ordering the store guarantees.
        """
        now = self._clock()
        return [
            job.to_dict(now=now)
            for job in self.store.list_jobs(
                session_id=session_id, states=states, limit=limit, offset=offset
            )
        ]

    def count_jobs(
        self,
        *,
        session_id: str | None = None,
        states: Iterable[str] | None = None,
    ) -> int:
        """Total tracked jobs matching the filters (pagination's ``total``)."""
        return self.store.count(session_id=session_id, states=states)

    def stats(self) -> dict[str, Any]:
        """Engine counters for the ``server_stats`` action."""
        store_stats = self.store.stats()
        with self._lock:
            counters = {
                "submitted_total": store_stats["added_total"] + store_stats["coalesced_total"],
                "coalesced_total": store_stats["coalesced_total"],
                "executed_total": self._executed_total,
                "done_total": self._finished_by_state.get(DONE, 0),
                "failed_total": self._finished_by_state.get(FAILED, 0),
                "cancelled_total": self._finished_by_state.get(CANCELLED, 0),
            }
        executor_stats: dict[str, Any] = {
            "kind": self.executor_kind,
            "requested": self._executor_requested,
        }
        if self._executor_fallback:
            executor_stats["fallback_reason"] = self._executor_fallback
        if self.process_executor is not None:
            executor_stats["process"] = self.process_executor.stats()
        return {
            **counters,
            "executor": executor_stats,
            "pool": self.pool.stats(),
            "store": store_stats,
            "events": self.events.stats(),
        }

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the worker pool and any process executor (pending jobs stay
        pending)."""
        self.pool.shutdown(wait=wait)
        if self.process_executor is not None:
            self.process_executor.shutdown(wait=wait)
