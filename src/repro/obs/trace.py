"""Trace/span ids, the context-manager ``span()`` API, and the trace store.

A *trace* is one user-visible interaction (an HTTP request and everything it
caused); a *span* is one named segment of it.  Spans nest through a
contextvar, so the active span is per-thread and per-task with no plumbing:

    with span("request", action="submit"):
        ...
        with span("job", job_id=job_id):   # parents onto "request"
            ...

Spans may only be opened through ``with span(...)`` — the paired
:func:`start_span`/:func:`finish_span` escape hatch exists for the context
manager itself, and ``repro check`` rule ``OBS003`` flags any bare
``start_span`` call outside this module (an unclosed span corrupts both the
contextvar stack and the timeline).

Crossing the process boundary: the active context is a picklable
``(trace_id, span_id)`` pair; ``ProcessExecutor`` ships it inside each work
unit, the worker re-roots its spans on it under :func:`activate`, collects
them with :func:`capture`, and ships the finished records back over the
result queue.  The parent feeds them into the process-global
:class:`TraceStore`, so one connected timeline covers request → job →
per-worker ship/score → reduce. ``repro jobs --status JOB_ID`` renders it.

Timestamps: ``start_ts`` is wall-clock (comparable across processes on one
host), ``duration_ms`` comes from ``perf_counter``.  The wall-clock reads
live only here, keeping the DET-scoped result-producing modules clean —
span records never flow into analysis payloads.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .metrics import enabled

__all__ = [
    "TraceContext",
    "TraceStore",
    "activate",
    "capture",
    "current_context",
    "finish_span",
    "new_id",
    "span",
    "start_span",
    "trace_store",
]


@dataclass(frozen=True)
class TraceContext:
    """The picklable address of an open span: which trace, which parent."""

    trace_id: str
    span_id: str


_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_current", default=None
)
_sink: contextvars.ContextVar[list[dict[str, Any]] | None] = contextvars.ContextVar(
    "repro_trace_sink", default=None
)


def new_id() -> str:
    """A fresh 16-hex-char trace/span id."""
    return uuid.uuid4().hex[:16]


def current_context() -> TraceContext | None:
    """The innermost active span's context, or ``None`` outside any span."""
    return _current.get()


@contextmanager
def activate(context: TraceContext | None) -> Iterator[None]:
    """Re-root subsequent spans under ``context`` (no-op when ``None``).

    Used where a trace hops an execution boundary: the engine worker thread
    adopting a job's request context, and worker processes adopting the
    shipped ``(trace_id, span_id)`` pair.
    """
    if context is None:
        yield
        return
    token = _current.set(context)
    try:
        yield
    finally:
        _current.reset(token)


class _OpenSpan:
    """Bookkeeping for one in-flight span (returned by :func:`start_span`)."""

    __slots__ = ("record", "started", "token")

    def __init__(
        self,
        record: dict[str, Any],
        token: contextvars.Token,
        started: float,
    ) -> None:
        self.record = record
        self.token = token
        self.started = started


def start_span(name: str, **tags: Any) -> _OpenSpan | None:
    """Open a span (internal — call through ``with span(...)``, see OBS003)."""
    if not enabled():
        return None
    parent = _current.get()
    trace_id = parent.trace_id if parent is not None else new_id()
    record: dict[str, Any] = {
        "trace_id": trace_id,
        "span_id": new_id(),
        "parent_span_id": parent.span_id if parent is not None else "",
        "name": name,
        "start_ts": time.time(),
        "duration_ms": None,
        "tags": tags,
    }
    token = _current.set(TraceContext(trace_id, record["span_id"]))
    return _OpenSpan(record, token, time.perf_counter())


def finish_span(open_span: _OpenSpan | None) -> None:
    """Close a span opened by :func:`start_span` and record it."""
    if open_span is None:
        return
    _current.reset(open_span.token)
    record = open_span.record
    record["duration_ms"] = (time.perf_counter() - open_span.started) * 1000.0
    sink = _sink.get()
    if sink is not None:
        sink.append(record)
    else:
        _STORE.record(record)


@contextmanager
def span(name: str, **tags: Any) -> Iterator[dict[str, Any] | None]:
    """One named, timed segment of the current trace (the only public way
    to open a span).  Yields the mutable record so callers can add tags."""
    open_span = start_span(name, **tags)
    try:
        yield open_span.record if open_span is not None else None
    finally:
        finish_span(open_span)


@contextmanager
def capture() -> Iterator[list[dict[str, Any]]]:
    """Divert spans finished in this context into the yielded list.

    Worker processes run each unit under ``capture()`` and ship the
    collected records back instead of writing to their own (unreachable)
    process-local store.
    """
    spans: list[dict[str, Any]] = []
    token = _sink.set(spans)
    try:
        yield spans
    finally:
        _sink.reset(token)


class TraceStore:
    """Bounded LRU of finished spans, grouped by trace id.

    Newest traces win: once ``max_traces`` distinct traces are resident the
    least-recently-touched one is forgotten, and one trace holds at most
    ``max_spans`` records (a runaway sweep cannot grow memory unboundedly).
    """

    def __init__(self, max_traces: int = 256, max_spans: int = 2048):
        self.max_traces = max_traces
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[dict[str, Any]]] = OrderedDict()

    def record(self, record: dict[str, Any]) -> None:
        """File one finished span record under its trace."""
        trace_id = record.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                while len(self._traces) >= self.max_traces:
                    self._traces.popitem(last=False)
                spans = []
                self._traces[trace_id] = spans
            else:
                self._traces.move_to_end(trace_id)
            if len(spans) < self.max_spans:
                spans.append(dict(record))

    def record_many(self, records: list[dict[str, Any]]) -> None:
        for record in records:
            self.record(record)

    def timeline(self, trace_id: str) -> list[dict[str, Any]]:
        """Every recorded span of ``trace_id``, ordered by start time."""
        with self._lock:
            spans = [dict(record) for record in self._traces.get(trace_id, ())]
        spans.sort(key=lambda record: (record["start_ts"], record["span_id"]))
        return spans

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


#: The process-global store ``finish_span`` writes to outside ``capture()``.
_STORE = TraceStore()


def trace_store() -> TraceStore:
    """The process-global :class:`TraceStore`."""
    return _STORE
