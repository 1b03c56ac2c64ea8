"""Spawn-safe persistent process pool: escape the GIL for CPU-bound jobs.

The threaded :class:`~repro.engine.pool.WorkerPool` keeps the protocol
responsive but cannot parallelise CPU-bound analysis — the GIL serialises
model scoring, so ``worker_speedup`` sits near 1.0 however many threads run.
:class:`ProcessExecutor` runs work units in a persistent pool of
``spawn``-ed worker processes instead.  A unit is a ``(function, payload)``
pair: a module-level function beside the algorithm it splits (sensitivity
rows and perturbation sets in :mod:`repro.core.sensitivity`, grid blocks in
:mod:`repro.scenarios.planner`, whole goal inversions and driver-importance
runs in their own modules) and a payload of plain values.  Pickle ships the
function by reference; a worker calls ``function(manager, payload,
checkpoint)`` exactly as :class:`~repro.core.sensitivity.InlineExecutor`
does on the calling thread, so both executors run the same decomposition:

* **Fingerprint-keyed model shipping.**  Each worker holds a per-process
  mirror of the parent's model cache keyed by
  :meth:`ModelManager.fingerprint`.  The fitted manager (model, kernel
  arrays, memoised matrices) is pickled once, on the calling thread, and its
  bytes go onto a worker's task queue only the first time that (worker,
  fingerprint) pair meets; every later unit for the same fingerprint reuses
  the hydrated mirror — never re-pickled per chunk.
* **Cooperative cancellation.**  Every in-flight ``run_units`` group owns a
  slot in a shared ``RawArray`` of cancel flags (inherited by workers at
  spawn; shared ctypes cannot travel through queues).  The parent flips the
  flag when the job's :class:`JobCancelled` fires; worker checkpoints poll it
  between chunks and abandon the unit.
* **Progress over a queue.**  Workers post throttled per-unit fractions to a
  shared result queue; a parent-side dispatcher thread routes them to the
  waiting group, which folds them into the job's existing checkpoint
  lifecycle (weighted by unit size, monotone at the ``Job`` level).
* **Crash containment.**  Worker incarnations are tracked so a process that
  dies mid-job surfaces as a ``failed`` job (never a hang): the waiter
  detects the dead pid on its poll tick and synthetic errors are posted for
  every outstanding unit.  Recovery then rebuilds the *entire* pool — fresh
  queues, fresh workers, fresh dispatcher — because a killed worker may die
  holding the shared result queue's cross-process write lock (POSIX
  semaphores are not robust to holder death), which would silently wedge
  every surviving sibling's feeder thread.

The pool starts lazily on the first ``run_units`` call, so constructing a
server with ``executor="process"`` costs nothing until a CPU-heavy job
actually arrives.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue
import threading
import time
from collections.abc import Callable, Sequence
from typing import Any

from ..core.sensitivity import ignore
from ..obs import metrics, trace

__all__ = ["ProcessExecutor", "UnitCancelled", "WorkerUnitError"]

#: Maximum number of concurrently-active ``run_units`` groups (cancel slots).
_MAX_GROUPS = 64

#: Only ``spawn`` is safe here: forked children would inherit live locks and
#: the parent's fitted-model heap, defeating explicit fingerprint shipping.
_START_METHOD = "spawn"

#: Minimum per-unit progress delta a worker posts (keeps the queue quiet).
_PROGRESS_DELTA = 0.01

#: How long the parent waits on a group's queue before it reaps dead workers
#: and republishes progress.
_POLL_INTERVAL_S = 0.05

#: Silence from every worker of a group for this long fails the group.
_STALL_TIMEOUT_S = 300.0

_WORKER_UNITS = metrics.counter("repro_worker_units_total")
_WORKER_SHIPS = metrics.counter("repro_worker_model_ships_total")

#: Serialises every manager pickle in the process.  CPython builds an
#: instance's ``__dict__`` lazily, on first request, and two threads pickling
#: one freshly fitted model at once can each build it for the same tree node:
#: the loser's dict leaks still aliasing the node's attribute storage, which
#: the garbage collector later reads after the node is freed.
_PICKLE_LOCK = threading.Lock()


def _pickle_manager(manager) -> bytes:
    """The bytes shipped to a worker for ``manager`` (one thread at a time)."""
    with _PICKLE_LOCK:
        return pickle.dumps(manager, protocol=pickle.HIGHEST_PROTOCOL)


class WorkerUnitError(RuntimeError):
    """A work unit raised inside a worker, or its worker process died."""


class UnitCancelled(Exception):
    """Raised inside a worker checkpoint when the unit's group was cancelled
    via the shared flag; the worker loop reports the unit as ``cancelled``."""


def _worker_main(worker_index, task_queue, result_queue, cancel_flags):
    """Worker-process entry point (module-level so ``spawn`` can import it).

    Hydrates shipped managers into a per-process ``{fingerprint: manager}``
    mirror and executes units against it, posting ``("done" | "cancelled" |
    "error" | "progress", worker, group, unit, value)`` messages back.  Each
    unit runs re-rooted on the shipped trace context; its finished span
    records travel back as one ``("spans", ...)`` message posted just before
    the unit's terminal message, so the parent's timeline is complete by the
    time the group's last result lands.
    """
    models: dict[str, Any] = {}
    result_queue.put(("ready", worker_index, None, None, None))
    while True:
        task = task_queue.get()
        if task is None:
            break
        group_id, unit_index, slot, fingerprint, function, payload, shipped, ctx = task
        spans: list[dict[str, Any]] = []
        try:
            with trace.capture() as spans, trace.activate(
                trace.TraceContext(*ctx) if ctx is not None else None
            ):
                with trace.span("unit", worker=worker_index, unit=unit_index):
                    if shipped is not None:
                        with trace.span("ship", fingerprint=fingerprint[:12]):
                            models[fingerprint] = pickle.loads(shipped)
                    manager = models.get(fingerprint)
                    if manager is None:
                        raise RuntimeError(
                            f"worker {worker_index} has no hydrated model for "
                            f"fingerprint {fingerprint[:12]}…"
                        )
                    if cancel_flags[slot]:
                        raise UnitCancelled(unit_index)
                    posted = [0.0]

                    def checkpoint(fraction: float) -> None:
                        if cancel_flags[slot]:
                            raise UnitCancelled(unit_index)
                        fraction = min(1.0, max(0.0, float(fraction)))
                        if fraction - posted[0] >= _PROGRESS_DELTA or fraction >= 1.0:
                            posted[0] = fraction
                            result_queue.put(
                                ("progress", worker_index, group_id, unit_index, fraction)
                            )

                    with trace.span("score", unit_kind=function.__name__):
                        result = function(manager, payload, checkpoint)
            outcome = ("done", result)
        except UnitCancelled:
            outcome = ("cancelled", None)
        except BaseException as exc:  # noqa: BLE001 - report, don't kill the worker
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        try:
            if spans:
                result_queue.put(("spans", worker_index, group_id, unit_index, spans))
            result_queue.put((outcome[0], worker_index, group_id, unit_index, outcome[1]))
        except Exception:  # pragma: no cover - result queue gone at shutdown
            break


class _Group:
    """Parent-side state of one in-flight ``run_units`` call."""

    __slots__ = ("queue", "outstanding", "slot", "closed")

    def __init__(self, slot: int) -> None:
        self.queue: queue.Queue = queue.Queue()
        self.outstanding: dict[int, tuple[int, int]] = {}  # unit -> (worker, incarnation)
        self.slot = slot
        self.closed = False


class ProcessExecutor:
    """Persistent spawn-based process pool executing ``(function, payload)``
    work units."""

    kind = "process"

    def __init__(
        self,
        *,
        workers: int = 4,
        name: str = "repro-proc",
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._name = name
        self._stall_timeout = _STALL_TIMEOUT_S
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._ctx: multiprocessing.context.BaseContext | None = None
        self._cancel_flags = None
        self._result_queue = None
        self._task_queues: list[Any] = [None] * self.workers
        self._processes: list[Any] = [None] * self.workers
        self._ready = [threading.Event() for _ in range(self.workers)]
        self._incarnations = [0] * self.workers
        self._shipped: list[set[str]] = [set() for _ in range(self.workers)]
        self._groups: dict[int, _Group] = {}
        self._group_counter = itertools.count()
        self._free_slots = list(range(_MAX_GROUPS - 1, -1, -1))
        self._dispatcher: threading.Thread | None = None
        self._units_done = [0] * self.workers
        self._units_failed = [0] * self.workers
        self._units_cancelled = [0] * self.workers
        self._ships = [0] * self.workers
        self._respawns = 0
        self._groups_total = 0

    # -- lifecycle -------------------------------------------------------

    @staticmethod
    def available() -> bool:
        """Whether this platform supports the ``spawn`` start method."""
        try:
            return _START_METHOD in multiprocessing.get_all_start_methods()
        except Exception:  # pragma: no cover - defensive
            return False

    def ensure_started(self, *, wait: bool = False, timeout: float = 60.0) -> None:
        """Start the pool if needed; optionally block until workers report in."""
        with self._lock:
            if self._stopping:
                raise RuntimeError("process executor has been shut down")
            if not self._started:
                self._started = True
                self._ctx = multiprocessing.get_context(_START_METHOD)
                self._cancel_flags = self._ctx.RawArray("b", _MAX_GROUPS)
                self._result_queue = self._ctx.Queue()
                for index in range(self.workers):
                    self._spawn_worker_locked(index)
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"{self._name}-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
        if wait:
            deadline = time.monotonic() + timeout
            for event in self._ready:
                event.wait(max(0.0, deadline - time.monotonic()))

    def _spawn_worker_locked(self, index: int) -> None:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, task_queue, self._result_queue, self._cancel_flags),
            name=f"{self._name}-{index}",
            daemon=True,
        )
        process.start()
        self._task_queues[index] = task_queue
        self._processes[index] = process

    def shutdown(self, *, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop workers and the dispatcher; with ``wait`` join (then terminate
        stragglers) so no orphaned processes outlive the pool."""
        with self._lock:
            already_stopping = self._stopping
            self._stopping = True
            started = self._started
            processes = [p for p in self._processes if p is not None]
            task_queues = [q for q in self._task_queues if q is not None]
        if not started:
            return
        if not already_stopping:
            for task_queue in task_queues:
                try:
                    task_queue.put(None)
                except Exception:  # pragma: no cover - queue already closed
                    pass
                # a worker terminated before reading its tasks leaves the
                # feeder blocked on a full pipe: never join it at exit
                task_queue.cancel_join_thread()
        if wait:
            deadline = time.monotonic() + timeout
            for process in processes:
                process.join(max(0.0, deadline - time.monotonic()))
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                if not process.is_alive() and process.exitcode is not None:
                    process.join(0.1)
        dispatcher = self._dispatcher
        if wait and dispatcher is not None:
            dispatcher.join(timeout)

    # -- execution -------------------------------------------------------

    def run_units(
        self,
        manager,
        units: Sequence[tuple[Callable[..., Any], dict[str, Any]]],
        *,
        checkpoint: Callable[[float], None] | None = None,
        progress: tuple[float, float] = (0.0, 1.0),
        weights: Sequence[float] | None = None,
        on_unit_done: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Execute ``units`` across the pool; return results in unit order.

        Units are assigned round-robin; the fitted ``manager`` ships to a
        worker only on its first unit for that fingerprint.  ``checkpoint``
        (the job's cancel/progress callback) is fed the weighted completed
        fraction mapped onto the ``progress`` interval and may raise
        :class:`~repro.engine.job.JobCancelled` — the shared cancel flag then
        aborts every in-flight unit of this group cooperatively.
        ``on_unit_done(unit_index, result)`` fires on the waiting job thread
        the moment each unit's result arrives (units complete in any order) —
        the streaming layer uses it to publish incremental chunk events while
        the group is still running.  Raises :class:`WorkerUnitError` when a
        unit fails or its worker dies.
        """
        if not units:
            return []
        tick = checkpoint or ignore
        tick(progress[0])  # honours cancel-before-start: nothing is enqueued
        self.ensure_started()
        fingerprint = manager.fingerprint()
        # The job span's picklable address: workers re-root their unit spans
        # on it so the sweep timeline stays one connected trace.
        ctx = trace.current_context()
        trace_ctx = (ctx.trace_id, ctx.span_id) if ctx is not None else None
        n_units = len(units)
        unit_weights = [float(w) for w in weights] if weights is not None else [1.0] * n_units
        if len(unit_weights) != n_units:
            raise ValueError("weights must align with units")
        total_weight = sum(unit_weights) or 1.0
        base, top = progress
        span = top - base
        # Pickle the manager here, once, rather than leave it to the task
        # queues' feeder threads: they would pickle it once per shipped
        # worker, concurrently (see _PICKLE_LOCK).
        with self._lock:
            must_ship = any(
                fingerprint not in shipped
                for shipped in self._shipped[: min(n_units, self.workers)]
            )
        blob = _pickle_manager(manager) if must_ship else None

        with self._lock:
            if self._stopping:
                raise RuntimeError("process executor has been shut down")
            if not self._free_slots:
                raise RuntimeError(
                    f"process executor exhausted its {_MAX_GROUPS} cancel slots"
                )
            slot = self._free_slots.pop()
            self._cancel_flags[slot] = 0
            group_id = next(self._group_counter)
            group = _Group(slot)
            self._groups[group_id] = group
            self._groups_total += 1
            # Enqueue under the lock: mp.Queue.put only hands off to the
            # feeder thread, and this keeps (incarnation, shipped, queue)
            # consistent against a concurrent worker respawn.
            for unit_index, (function, payload) in enumerate(units):
                worker_index = unit_index % self.workers
                ship = fingerprint not in self._shipped[worker_index]
                if ship:
                    if blob is None:  # the worker respawned since the check above
                        blob = _pickle_manager(manager)
                    self._shipped[worker_index].add(fingerprint)
                    self._ships[worker_index] += 1
                    _WORKER_SHIPS.labels(worker_index).inc()
                group.outstanding[unit_index] = (
                    worker_index,
                    self._incarnations[worker_index],
                )
                # repro: ignore[LCK002] -- unbounded mp.Queue: put hands off to the feeder thread
                self._task_queues[worker_index].put(
                    (
                        group_id,
                        unit_index,
                        slot,
                        fingerprint,
                        function,
                        payload,
                        blob if ship else None,
                        trace_ctx,
                    )
                )

        fractions = [0.0] * n_units
        results: dict[int, Any] = {}

        def publish() -> None:
            done_weight = sum(f * w for f, w in zip(fractions, unit_weights))
            tick(base + span * (done_weight / total_weight))

        try:
            last_message = time.monotonic()
            while len(results) < n_units:
                try:
                    message = group.queue.get(timeout=_POLL_INTERVAL_S)
                except queue.Empty:
                    self._reap_dead_workers(group)
                    publish()
                    # Workers checkpoint progress as they go, so a group that
                    # hears *nothing* for this long has lost its dispatch (a
                    # queue feeder dropped a task) or its workers are wedged.
                    # Fail the job — a terminal event must always arrive.
                    if time.monotonic() - last_message > self._stall_timeout:
                        raise WorkerUnitError(
                            f"no message from workers in {self._stall_timeout:.0f}s "
                            f"({n_units - len(results)} of {n_units} units "
                            "outstanding); dispatch lost or workers wedged"
                        ) from None
                    continue
                last_message = time.monotonic()
                kind, unit_index, value = message
                if kind == "spans":
                    trace.trace_store().record_many(value)
                    continue
                if kind == "progress":
                    fractions[unit_index] = max(fractions[unit_index], float(value))
                elif kind == "done":
                    fractions[unit_index] = 1.0
                    results[unit_index] = value
                    if on_unit_done is not None:
                        on_unit_done(unit_index, value)
                elif kind == "error":
                    raise WorkerUnitError(str(value))
                else:  # "cancelled" without a parent-side cancel: treat as failure
                    raise WorkerUnitError(
                        f"unit {unit_index} reported cancelled without a cancel request"
                    )
                publish()
        except BaseException:
            with self._lock:
                self._cancel_flags[slot] = 1
            raise
        finally:
            with self._lock:
                group.closed = True
                self._maybe_release_locked(group_id, group)
        with trace.span("reduce", units=n_units):
            return [results[index] for index in range(n_units)]

    # -- parent-side bookkeeping ------------------------------------------

    def _dispatch_loop(self) -> None:
        """Route messages from the shared result queue to waiting groups."""
        # Bind the queue at thread start: a pool rebuild installs a fresh
        # result queue and dispatcher, and this stale one must retire the
        # moment it notices instead of stealing messages from its successor.
        result_queue = self._result_queue
        while True:
            try:
                message = result_queue.get(timeout=0.2)
            except queue.Empty:
                if self._stopping or result_queue is not self._result_queue:
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            except Exception:  # pragma: no cover - corrupted stream
                # A worker SIGKILLed mid-write leaves a truncated pickle on
                # the shared queue; a dead dispatcher would wedge every later
                # group, so skip the garbage (the reaper fails the unit).
                continue
            try:
                kind, worker_index, group_id, unit_index, value = message
            except (TypeError, ValueError):  # pragma: no cover - malformed
                continue
            if kind == "ready":
                self._ready[worker_index].set()
                continue
            with self._lock:
                if kind == "done":
                    self._units_done[worker_index] += 1
                elif kind == "error":
                    self._units_failed[worker_index] += 1
                elif kind == "cancelled":
                    self._units_cancelled[worker_index] += 1
                if kind in ("done", "error", "cancelled"):
                    _WORKER_UNITS.labels(worker_index, kind).inc()
                group = self._groups.get(group_id)
                if group is None:
                    continue  # stale message for an already-released group
                if kind not in ("progress", "spans"):
                    group.outstanding.pop(unit_index, None)
                if not group.closed:
                    # repro: ignore[LCK002] -- group.queue is unbounded, put cannot block
                    group.queue.put((kind, unit_index, value))
                self._maybe_release_locked(group_id, group)

    def _maybe_release_locked(self, group_id: int, group: _Group) -> None:
        if group.closed and not group.outstanding and group_id in self._groups:
            del self._groups[group_id]
            self._cancel_flags[group.slot] = 0
            self._free_slots.append(group.slot)

    def _reap_dead_workers(self, group: _Group) -> None:
        """Poll-tick check: turn a dead worker's outstanding units into errors."""
        with self._lock:
            # sorted: reap in stable worker order so death handling (and the
            # synthetic-error sequence it posts) is deterministic
            for worker_index, incarnation in sorted(set(group.outstanding.values())):
                if incarnation != self._incarnations[worker_index]:
                    continue  # already handled; synthetic errors were posted
                process = self._processes[worker_index]
                if process is not None and not process.is_alive():
                    self._handle_worker_death_locked(worker_index)

    def _handle_worker_death_locked(self, worker_index: int) -> None:
        """Fail every in-flight unit, then rebuild the pool from scratch.

        An in-place respawn is not enough: a worker killed between acquiring
        and releasing the shared result queue's write lock (its feeder thread
        sits in that window whenever it loses the GIL after ``send_bytes``)
        leaves the semaphore locked forever, and every sibling's feeder then
        wedges silently on the next ``put``.  The queue cannot be repaired,
        so all workers, both queues, and the dispatcher are replaced; the
        model mirrors re-ship on the next unit per fingerprint.
        """
        pid = self._processes[worker_index].pid if self._processes[worker_index] else None
        for group_id, group in list(self._groups.items()):
            for unit_index in list(group.outstanding):
                owner_worker, _ = group.outstanding.pop(unit_index)
                self._units_failed[owner_worker] += 1
                _WORKER_UNITS.labels(owner_worker, "error").inc()
                if not group.closed:
                    # repro: ignore[LCK002] -- group.queue is unbounded, put cannot block
                    group.queue.put(
                        (
                            "error",
                            unit_index,
                            f"worker process {worker_index} (pid {pid}) died mid-job",
                        )
                    )
            self._maybe_release_locked(group_id, group)
        for process in self._processes:
            if process is not None and process.is_alive():
                process.kill()  # siblings may hold poisoned locks: no SIGTERM grace
        for process in self._processes:
            if process is not None:
                # repro: ignore[LCK002] -- bounded 5s join; pool is wedged, rebuild must finish under the lock
                process.join(5.0)
        for index in range(self.workers):
            self._incarnations[index] += 1
            self._shipped[index].clear()
            self._ready[index] = threading.Event()
            self._task_queues[index] = None
            self._processes[index] = None
        self._respawns += 1
        if not self._stopping:
            self._result_queue = self._ctx.Queue()
            for index in range(self.workers):
                self._spawn_worker_locked(index)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name=f"{self._name}-dispatch",
                daemon=True,
            )
            self._dispatcher.start()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Executor-level and per-worker counters for ``server_stats``."""
        with self._lock:
            per_worker = []
            for index in range(self.workers):
                process = self._processes[index]
                per_worker.append(
                    {
                        "worker": index,
                        "pid": process.pid if process is not None else None,
                        "alive": bool(process is not None and process.is_alive()),
                        "incarnation": self._incarnations[index],
                        "units_done": self._units_done[index],
                        "units_failed": self._units_failed[index],
                        "units_cancelled": self._units_cancelled[index],
                        "models_shipped": self._ships[index],
                        "fingerprints_resident": len(self._shipped[index]),
                    }
                )
            return {
                "kind": self.kind,
                "start_method": _START_METHOD,
                "workers": self.workers,
                "started": self._started,
                "stopping": self._stopping,
                "groups_total": self._groups_total,
                "groups_active": len(self._groups),
                "respawns": self._respawns,
                "models_shipped_total": sum(self._ships),
                "units_done_total": sum(self._units_done),
                "units_failed_total": sum(self._units_failed),
                "units_cancelled_total": sum(self._units_cancelled),
                "per_worker": per_worker,
            }
