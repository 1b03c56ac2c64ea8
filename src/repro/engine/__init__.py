"""Asynchronous job-execution subsystem for long-running analyses.

The interactive protocol must stay responsive while heavy analyses
(sensitivity sweeps, goal inversion, driver importance) run; this package
decouples request handling from analysis execution:

* :mod:`~repro.engine.job` — the :class:`Job` lifecycle (``pending → running
  → done/failed/cancelled``) with priorities, progress fractions, and
  cooperative cancellation via :class:`JobContext` checkpoints;
* :mod:`~repro.engine.pool` — a thread-based :class:`WorkerPool` draining a
  priority queue;
* :mod:`~repro.engine.process` — a spawn-safe :class:`ProcessExecutor` that
  fans the CPU-bound job kinds' work units out across persistent worker
  processes (escaping the GIL), shipping fitted models once per fingerprint
  and threading cancellation/progress over the process boundary;
* :mod:`~repro.engine.events` — a per-job :class:`JobEventBus` (bounded
  ring buffers, monotonic sequence ids, replay-from-seq, multi-subscriber
  fan-out) that jobs publish progress ticks, incremental result chunks, and
  terminal events to — the backbone of the SSE streaming endpoint;
* :mod:`~repro.engine.store` — a bounded :class:`JobStore` with LRU
  retention of finished results and the coalescing index that lets identical
  in-flight submissions share one execution;
* :mod:`~repro.engine.engine` — :class:`AnalysisEngine`, the facade the
  server's ``submit`` / ``job_status`` / ``job_result`` / ``cancel_job`` /
  ``list_jobs`` actions delegate to.
"""

from .engine import PROCESS_ACTIONS, AnalysisEngine
from .events import TERMINAL_EVENTS, JobEvent, JobEventBus, Subscription
from .job import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobCancelled,
    JobContext,
)
from .pool import WorkerPool
from .process import ProcessExecutor, WorkerUnitError
from .store import JobStore, UnknownJobError

__all__ = [
    "AnalysisEngine",
    "Job",
    "JobContext",
    "JobCancelled",
    "JobEvent",
    "JobEventBus",
    "Subscription",
    "TERMINAL_EVENTS",
    "JobStore",
    "PROCESS_ACTIONS",
    "ProcessExecutor",
    "UnknownJobError",
    "WorkerPool",
    "WorkerUnitError",
    "JOB_STATES",
    "TERMINAL_STATES",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
]
