"""Bounded job store: every tracked job, with LRU retention of finished ones.

The store answers three questions the engine asks constantly:

* *is an identical analysis already in flight?* — the coalescing index maps a
  submission's coalesce key to its pending/running job, so duplicate
  submissions attach to one execution instead of recomputing
  (:meth:`JobStore.coalesce_or_add` makes that find-or-create atomic);
* *what is job X?* — id lookup for ``job_status`` / ``job_result`` /
  ``cancel_job``, touching the LRU order of finished jobs so recently polled
  results stay retained;
* *what jobs exist?* — filtered listings for ``list_jobs``.

Finished jobs (done/failed/cancelled) are retained up to ``max_finished``;
beyond that the least recently touched finished job is forgotten entirely, so
a long-lived server cannot pin unbounded result payloads.  In-flight jobs are
never evicted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable

from ..persist import JOB_INTERRUPTED_REASON, StateBackend
from .job import Job

__all__ = ["JobStore", "UnknownJobError"]


class UnknownJobError(KeyError):
    """Raised when a job id is not (or no longer) tracked by the store."""


class JobStore:
    """Thread-safe map from job id to :class:`~repro.engine.job.Job`.

    Every tracked job is journaled to a :class:`~repro.persist.StateBackend`
    — a light ``pending`` record at registration, the full result-bearing
    snapshot at the terminal transition — so ``job_result`` payloads survive
    a restart when the backend is durable (:meth:`restore`).  The default
    in-memory store keeps records only for the life of the process.

    Parameters
    ----------
    max_finished:
        Finished jobs retained before LRU eviction; ``0`` forgets every job
        the moment it finishes (status polls then report it unknown).
        Retention is durable: evicting a finished job deletes its journal
        record too, so a restart never resurrects evicted results.
    backend:
        The durable-state backend to journal into.
    """

    #: Attributes whose mutations must flow through a persistence hook —
    #: the PER001 check rule enforces this contract statically.
    _PERSISTED_FIELDS = ("_jobs",)

    def __init__(
        self, max_finished: int = 256, *, backend: StateBackend | None = None
    ) -> None:
        if max_finished < 0:
            raise ValueError("max_finished must be >= 0")
        self.max_finished = max_finished
        self.backend = backend if backend is not None else StateBackend()
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._finished_order: OrderedDict[str, None] = OrderedDict()
        self._inflight: dict[str, str] = {}
        self._added_total = 0
        self._coalesced_total = 0
        self._evicted_total = 0
        self._restored_total = 0
        self._interrupted_total = 0

    # ------------------------------------------------------------------ #
    def _job_record(self, job: Job, *, include_result: bool) -> dict[str, Any]:
        """The journaled form of a job: its snapshot plus the raw params
        (``to_dict`` omits params, but restore needs them for filters like
        ``sweep_result``'s space-hash lookup)."""
        record = job.to_dict(include_result=include_result)
        record["params"] = job.params
        return record

    def restore(self) -> int:
        """Materialise journaled jobs at engine startup.

        Non-terminal records are first re-marked ``failed`` with
        :data:`~repro.persist.JOB_INTERRUPTED_REASON` — their execution died
        with the previous process and silently dropping them would leave
        clients polling forever.  Every record then becomes a frozen
        :class:`Job` whose snapshot (durations and results included) is
        reported verbatim, so recovered ``job_result`` payloads are
        bitwise-identical to pre-restart ones.  Recovered jobs enrol in the
        finished-retention LRU as the oldest entries (their monotonic
        submission clocks did not survive; they order by job id at epoch 0).
        Returns the number of jobs restored.
        """
        with self._lock:
            self._interrupted_total += self.backend.mark_interrupted(
                JOB_INTERRUPTED_REASON
            )
            records = sorted(self.backend.load_jobs(), key=lambda r: r["job_id"])
            for record in records:
                snapshot = dict(record["snapshot"])
                params = snapshot.pop("params", {})
                job = Job.from_snapshot(snapshot, params=params)
                self._jobs[job.job_id] = job
                self._finished_order[job.job_id] = None
                self._restored_total += 1
            while len(self._finished_order) > self.max_finished:
                self._evict_one_finished()
            return self._restored_total

    # ------------------------------------------------------------------ #
    def coalesce_or_add(self, key: str, factory: Callable[[], Job]) -> tuple[Job, bool]:
        """Attach to the in-flight job for ``key``, or register a new one.

        Returns ``(job, attached)``; ``attached`` is True when the submission
        coalesced onto an existing pending/running job (whose ``attached``
        count is incremented) instead of creating one.  An empty key never
        coalesces.  The check-and-register is atomic, so two racing identical
        submissions cannot both create a job.
        """
        with self._lock:
            if key:
                inflight_id = self._inflight.get(key)
                if inflight_id is not None:
                    job = self._jobs.get(inflight_id)
                    if job is not None and not job.is_terminal and not job.cancel_requested:
                        job.attach()
                        self._coalesced_total += 1
                        return job, True
            job = factory()
            job.journal = self._journal_terminal
            self.backend.save_job(
                job.job_id, job.state, self._job_record(job, include_result=False)
            )
            self._jobs[job.job_id] = job
            if key:
                self._inflight[key] = job.job_id
            self._added_total += 1
            return job, False

    def get(self, job_id: str) -> Job:
        """Return a tracked job (refreshing its retention recency when it is
        finished); unknown or evicted ids raise :class:`UnknownJobError`."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job_id in self._finished_order:
                self._finished_order.move_to_end(job_id)
            return job

    def _journal_terminal(self, job: Job) -> None:
        """Persist a job's result-bearing terminal snapshot.

        Bound as the job's ``journal`` hook at registration, so it runs on
        the terminal transition *before* the done event releases result
        waiters (see ``Job._publish_terminal``): a client that observed a
        ``job_result`` is guaranteed the record already hit the backend, and
        a write that raises turns the job ``failed`` instead.
        """
        with self._lock:
            self.backend.save_job(
                job.job_id, job.state, self._job_record(job, include_result=True)
            )

    def mark_finished(self, job: Job) -> None:
        """Record that ``job`` reached a terminal state: release its coalesce
        key and enrol it in the bounded finished-retention set.

        Nothing is journaled here: every tracked job was registered by
        :meth:`coalesce_or_add`, which binds the ``journal`` hook that
        ``Job._publish_terminal`` runs before any waiter is released, or was
        restored already terminal.
        """
        with self._lock:
            if self._inflight.get(job.coalesce_key) == job.job_id:
                del self._inflight[job.coalesce_key]
            if job.job_id not in self._jobs:
                return
            self._finished_order[job.job_id] = None
            self._finished_order.move_to_end(job.job_id)
            while len(self._finished_order) > self.max_finished:
                self._evict_one_finished()

    def _evict_one_finished(self) -> None:
        """Forget the least recently touched finished job, journal included
        (callers hold the lock)."""
        evicted_id, _ = self._finished_order.popitem(last=False)
        self._jobs.pop(evicted_id, None)
        self.backend.delete_job(evicted_id)
        self._evicted_total += 1

    def list_jobs(
        self,
        *,
        session_id: str | None = None,
        states: Iterable[str] | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[Job]:
        """Tracked jobs, oldest submission first, optionally filtered.

        Ordering is stable — ``(submitted_at, job_id)`` — so ``limit`` /
        ``offset`` windows partition the listing consistently across calls
        (new arrivals only ever append past the cursor).
        """
        wanted = frozenset(states) if states is not None else None
        with self._lock:
            jobs = [
                job
                for job in self._jobs.values()
                if (session_id is None or job.session_id == session_id)
                and (wanted is None or job.state in wanted)
            ]
        jobs = sorted(jobs, key=lambda job: (job.submitted_at, job.job_id))
        offset = max(0, int(offset))
        if offset:
            jobs = jobs[offset:]
        if limit is not None:
            jobs = jobs[: max(0, int(limit))]
        return jobs

    def count(
        self,
        *,
        session_id: str | None = None,
        states: Iterable[str] | None = None,
    ) -> int:
        """Number of tracked jobs matching the filters (ignores pagination)."""
        wanted = frozenset(states) if states is not None else None
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if (session_id is None or job.session_id == session_id)
                and (wanted is None or job.state in wanted)
            )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __contains__(self, job_id: object) -> bool:
        with self._lock:
            return job_id in self._jobs

    def stats(self) -> dict[str, Any]:
        """Store-level counters for the engine's ``server_stats`` block."""
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "tracked": len(self._jobs),
                "inflight_keys": len(self._inflight),
                "finished_retained": len(self._finished_order),
                "max_finished": self.max_finished,
                "by_state": by_state,
                "added_total": self._added_total,
                "coalesced_total": self._coalesced_total,
                "evicted_total": self._evicted_total,
                "restored_total": self._restored_total,
                "interrupted_total": self._interrupted_total,
            }
