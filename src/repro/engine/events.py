"""Per-job event bus: the server-push backbone of the streaming API.

Polling ``job_status`` answers "is it done yet"; the event bus answers "what
just happened" — progress ticks, incremental sweep-frontier chunks,
sensitivity row-chunk deltas, and the terminal outcome — as they occur, so an
SSE subscriber renders a sweep's frontier while the job is still scoring (the
paper's analysts watch results arrive, they don't refresh).

Design, in one paragraph: every job owns a *channel* holding a bounded ring
buffer (``deque(maxlen=...)``) of :class:`JobEvent` records stamped with a
per-job **monotonic sequence id** (1, 2, 3, ...).  Publishing appends to the
ring and fans the event out to every live :class:`Subscription` (an unbounded
per-subscriber queue, so one slow reader never blocks the publisher or other
subscribers).  Subscribing with ``after_seq=N`` atomically **replays** the
retained events with ``seq > N`` before going live — a reconnecting SSE
client passes its ``Last-Event-ID`` and misses nothing, duplicates nothing.
When the ring has already evicted events the subscriber needed, a synthetic
``gap`` event reports exactly how many were lost instead of silently skipping
them.  Terminal events (``done``/``failed``/``cancelled``) close the channel:
subscribers drain and stop, and terminal channels are retained LRU (bounded
by ``max_channels``) so late reconnects can still replay a finished job's
stream.

The bus never blocks and never raises into the publisher: jobs publish from
inside analysis runners, and a streaming subsystem must not be able to fail
an analysis.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..obs import metrics

__all__ = [
    "JobEvent",
    "JobEventBus",
    "Subscription",
    "EVENT_QUEUED",
    "EVENT_STARTED",
    "EVENT_PROGRESS",
    "EVENT_GAP",
    "EVENT_DONE",
    "EVENT_FAILED",
    "EVENT_CANCELLED",
    "TERMINAL_EVENTS",
]

EVENT_QUEUED = "queued"
EVENT_STARTED = "started"
EVENT_PROGRESS = "progress"
#: Synthetic event delivered on replay when the ring evicted needed events.
EVENT_GAP = "gap"
EVENT_DONE = "done"
EVENT_FAILED = "failed"
EVENT_CANCELLED = "cancelled"

#: Event types that end a job's stream (mirror the job's terminal states).
TERMINAL_EVENTS = frozenset({EVENT_DONE, EVENT_FAILED, EVENT_CANCELLED})

#: Events retained per job before the ring starts evicting the oldest.
DEFAULT_BUFFER_SIZE = 512

#: Terminal-job channels retained (LRU) for late replay before eviction.
DEFAULT_MAX_CHANNELS = 256

_RING_EVICTIONS = metrics.counter("repro_bus_ring_evictions_total")
_DELIVER_LAG = metrics.histogram("repro_bus_deliver_lag_seconds")


@dataclass(frozen=True)
class JobEvent:
    """One event on a job's stream.

    Attributes
    ----------
    seq:
        Per-job monotonic sequence id starting at 1 (``0`` only for the
        synthetic ``gap`` event, which is never stored in the ring).
    job_id:
        The job the event belongs to.
    type:
        Event kind — lifecycle (``queued``/``started``/``progress``/
        ``done``/``failed``/``cancelled``), an incremental payload kind
        (``sweep_chunk``, ``sensitivity_chunk``, ``comparison_chunk``), or
        the synthetic ``gap``.
    data:
        JSON-safe payload (progress fraction, chunk contents, final result,
        error message, ...).
    ts:
        Wall-clock publication time (``time.time()``).
    """

    seq: int
    job_id: str
    type: str
    data: dict[str, Any]
    ts: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (the SSE ``data:`` payload)."""
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "type": self.type,
            "data": dict(self.data),
            "ts": self.ts,
        }


class _Channel:
    """Per-job ring buffer + live subscriber set (guarded by the bus lock)."""

    __slots__ = ("events", "next_seq", "subscribers", "terminal", "dropped")

    def __init__(self, buffer_size: int) -> None:
        self.events: deque[JobEvent] = deque(maxlen=buffer_size)
        self.next_seq = 1
        self.subscribers: list[Subscription] = []
        self.terminal = False
        self.dropped = 0


@dataclass
class Subscription:
    """One subscriber's view of a job's event stream.

    Events (replayed + live) arrive on an unbounded private queue;
    :meth:`get` pops one with an optional timeout, and iterating yields
    events until a terminal one has been delivered.  :meth:`close`
    unregisters from the channel (idempotent; iteration stops).
    """

    job_id: str
    _bus: "JobEventBus" = field(repr=False)
    _queue: "queue.SimpleQueue[JobEvent]" = field(
        default_factory=queue.SimpleQueue, repr=False
    )
    _closed: bool = field(default=False, repr=False)
    _finished: bool = field(default=False, repr=False)
    #: False when the job's terminal event was published before this
    #: subscription: the replay queued at subscribe time is all it will get.
    live: bool = field(default=True, repr=False)

    def _deliver(self, event: JobEvent) -> None:
        self._queue.put(event)

    def _observe_lag(self, event: JobEvent) -> None:
        # publish→deliver lag against the bus's own clock, so injected fake
        # clocks stay self-consistent and real ones compare one host's wall
        # clock with itself
        lag = float(self._bus._clock()) - event.ts
        if lag >= 0.0:
            _DELIVER_LAG.observe(lag)

    def get(self, timeout: float | None = None) -> JobEvent | None:
        """Next event, or ``None`` when ``timeout`` elapses first."""
        try:
            event = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        self._observe_lag(event)
        return event

    def __iter__(self) -> Iterator[JobEvent]:
        while not self._finished:
            event = self._queue.get()
            self._observe_lag(event)
            if event.type in TERMINAL_EVENTS:
                self._finished = True
            yield event

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Unregister from the channel (queued events remain readable)."""
        if not self._closed:
            self._closed = True
            self._bus._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class JobEventBus:
    """Bounded, replayable fan-out of job events to concurrent subscribers.

    Parameters
    ----------
    buffer_size:
        Events retained per job; older events are evicted (subscribers that
        reconnect past the horizon receive a ``gap`` event).
    max_channels:
        Terminal-job channels retained LRU for late replay; in-flight jobs
        are never evicted.
    clock:
        Wall-clock source stamping ``JobEvent.ts`` (injectable for tests).
    """

    def __init__(
        self,
        *,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        max_channels: int = DEFAULT_MAX_CHANNELS,
        clock: Any = time.time,
    ) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if max_channels < 0:
            raise ValueError("max_channels must be >= 0")
        self.buffer_size = int(buffer_size)
        self.max_channels = int(max_channels)
        self._clock = clock
        self._lock = threading.Lock()
        self._channels: dict[str, _Channel] = {}
        self._terminal_order: OrderedDict[str, None] = OrderedDict()
        self._published_total = 0
        self._dropped_total = 0
        self._evicted_channels = 0

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def publish(
        self, job_id: str, type_: str, data: dict[str, Any] | None = None
    ) -> JobEvent | None:
        """Append one event to ``job_id``'s stream and fan it out.

        Returns the stamped event, or ``None`` when the channel is already
        terminal (a late publisher after ``done``/``cancelled`` — dropped so
        every stream ends with exactly one terminal event).
        """
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is None:
                channel = _Channel(self.buffer_size)
                self._channels[job_id] = channel
            if channel.terminal:
                return None
            event = JobEvent(
                seq=channel.next_seq,
                job_id=job_id,
                type=str(type_),
                data=dict(data) if data else {},
                ts=float(self._clock()),
            )
            channel.next_seq += 1
            if len(channel.events) == channel.events.maxlen:
                channel.dropped += 1
                self._dropped_total += 1
                _RING_EVICTIONS.inc()
            channel.events.append(event)
            self._published_total += 1
            if event.type in TERMINAL_EVENTS:
                channel.terminal = True
                self._terminal_order[job_id] = None
                self._terminal_order.move_to_end(job_id)
                while len(self._terminal_order) > self.max_channels:
                    evicted_id, _ = self._terminal_order.popitem(last=False)
                    self._channels.pop(evicted_id, None)
                    self._evicted_channels += 1
            subscribers = list(channel.subscribers)
        for subscription in subscribers:
            subscription._deliver(event)
        return event

    # ------------------------------------------------------------------ #
    # subscribing and replay
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        job_id: str,
        *,
        after_seq: int = 0,
        ended: tuple[str, dict[str, Any]] | None = None,
    ) -> Subscription:
        """Subscribe to ``job_id``'s stream, replaying retained events first.

        Atomically queues every retained event with ``seq > after_seq`` onto
        the new subscription, then registers it for live delivery — no event
        published concurrently can be missed or duplicated.  When the ring
        has already evicted events in ``(after_seq, oldest_retained)``, a
        synthetic ``gap`` event (``seq=0``) reporting the missed count is
        queued first.  Subscribing to a job that has not published yet (or at
        all) is allowed: the channel materialises empty and goes live.

        ``ended`` is the terminal ``(type, data)`` of a job known to be
        finished.  When the bus holds no channel for it (evicted, or never
        published in this process), no channel is created: the subscription
        gets that one event (``seq=0``) and is not live.
        """
        after_seq = max(0, int(after_seq))
        subscription = Subscription(job_id=job_id, _bus=self)
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is None and ended is not None:
                kind, data = ended
                subscription._deliver(JobEvent(0, job_id, kind, dict(data), float(self._clock())))
                subscription.live = False
                return subscription
            if channel is None:
                channel = _Channel(self.buffer_size)
                self._channels[job_id] = channel
            first_retained = (
                channel.events[0].seq if channel.events else channel.next_seq
            )
            missed = max(0, first_retained - 1 - after_seq)
            if missed:
                subscription._deliver(
                    JobEvent(
                        seq=0,
                        job_id=job_id,
                        type=EVENT_GAP,
                        data={
                            "missed": missed,
                            "from_seq": after_seq + 1,
                            "to_seq": first_retained - 1,
                        },
                        ts=float(self._clock()),
                    )
                )
            for event in channel.events:
                if event.seq > after_seq:
                    subscription._deliver(event)
            if channel.terminal:
                subscription.live = False
            else:
                channel.subscribers.append(subscription)
            if job_id in self._terminal_order:
                self._terminal_order.move_to_end(job_id)
        return subscription

    def _unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            channel = self._channels.get(subscription.job_id)
            if channel is not None:
                try:
                    channel.subscribers.remove(subscription)
                except ValueError:
                    pass

    def events(self, job_id: str, *, after_seq: int = 0) -> list[JobEvent]:
        """Snapshot of the retained events with ``seq > after_seq``."""
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is None:
                return []
            return [event for event in channel.events if event.seq > int(after_seq)]

    def last_seq(self, job_id: str) -> int:
        """Highest sequence id published for ``job_id`` (0 when none)."""
        with self._lock:
            channel = self._channels.get(job_id)
            return channel.next_seq - 1 if channel is not None else 0

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Bus counters for the engine's ``server_stats`` block."""
        with self._lock:
            return {
                "channels": len(self._channels),
                "terminal_retained": len(self._terminal_order),
                "max_channels": self.max_channels,
                "buffer_size": self.buffer_size,
                "subscribers": sum(
                    len(channel.subscribers) for channel in self._channels.values()
                ),
                "published_total": self._published_total,
                "dropped_total": self._dropped_total,
                "evicted_channels": self._evicted_channels,
            }
