"""The process-global metrics registry and its declarative ``METRICS`` table.

Every metric the package emits is declared once, here, in :data:`METRICS` —
name, type, help text, label names, and (for histograms) the fixed bucket
bounds.  Code obtains a metric through the module-level accessors::

    _HITS = metrics.counter("repro_model_cache_events_total").labels("hit")
    ...
    _HITS.inc()

``repro check`` holds the table and the call sites in lockstep (``OBS001``:
a name used in code but absent from the table; ``OBS002``: a declared name
nothing uses), so the inventory cannot drift.

Hot-path cost is one enabled-flag load, one tiny per-child lock, and one
float add (histograms add a ``bisect`` over a short tuple) — no numpy, no
per-request allocation once a labeled child exists.  ``set_enabled(False)``
turns every mutation into an early return; registration and rendering keep
working so scrapes stay valid while disabled.

Exposition: :func:`render_prometheus` emits the Prometheus text format
(``# HELP`` / ``# TYPE`` plus ``_bucket``/``_sum``/``_count`` series for
histograms); :meth:`MetricsRegistry.to_dict` is the JSON twin served by the
``metrics`` protocol action; :meth:`MetricsRegistry.percentile` estimates
quantiles from merged bucket counts (the ``server_stats`` p50/p95 now come
from here instead of ``np.percentile`` over a request log).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "METRICS",
    "MetricSpec",
    "MetricsRegistry",
    "counter",
    "enabled",
    "gauge",
    "histogram",
    "registry",
    "render_prometheus",
    "set_enabled",
]


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: type, help text, label names, bucket bounds."""

    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()


#: Upper bounds (ms) for request-latency histograms — spans the interactive
#: budget the paper cares about: sub-ms cache hits up to multi-second sweeps.
LATENCY_MS_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)  # fmt: skip

#: Upper bounds (s) for job-phase histograms (queue wait, run time, cancel).
SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)  # fmt: skip

#: Upper bounds (s) for event-bus publish→deliver lag — the push path must
#: add milliseconds, so most mass should land in the sub-ms buckets.
LAG_SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
)  # fmt: skip

#: The single declarative table of every metric this package emits.
METRICS = {
    "repro_requests_total": MetricSpec(
        "counter",
        "Protocol requests handled, by action and outcome.",
        labels=("action", "ok"),
    ),
    "repro_request_latency_ms": MetricSpec(
        "histogram",
        "Wall-clock request handling latency in milliseconds, per action.",
        labels=("action",),
        buckets=LATENCY_MS_BUCKETS,
    ),
    "repro_job_queue_wait_seconds": MetricSpec(
        "histogram",
        "Seconds a job spent queued before a worker started it, per action.",
        labels=("action",),
        buckets=SECONDS_BUCKETS,
    ),
    "repro_job_run_seconds": MetricSpec(
        "histogram",
        "Seconds a job spent executing its handler, per action.",
        labels=("action",),
        buckets=SECONDS_BUCKETS,
    ),
    "repro_job_cancel_latency_seconds": MetricSpec(
        "histogram",
        "Seconds from cancel_job to the job reaching its terminal state.",
        buckets=SECONDS_BUCKETS,
    ),
    "repro_jobs_finished_total": MetricSpec(
        "counter",
        "Jobs that reached a terminal state, by state (done/failed/cancelled).",
        labels=("state",),
    ),
    "repro_model_cache_events_total": MetricSpec(
        "counter",
        "ModelCache lookups and evictions, by event (hit/miss/evict).",
        labels=("event",),
    ),
    "repro_bus_deliver_lag_seconds": MetricSpec(
        "histogram",
        "Seconds between an event's publication stamp and a subscriber "
        "receiving it.",
        buckets=LAG_SECONDS_BUCKETS,
    ),
    "repro_bus_ring_evictions_total": MetricSpec(
        "counter",
        "Events evicted from per-job ring buffers before replay.",
    ),
    "repro_pool_queue_depth": MetricSpec(
        "gauge",
        "Jobs currently waiting in the worker pool's priority queue.",
    ),
    "repro_pool_dequeued_total": MetricSpec(
        "counter",
        "Jobs dequeued by worker-pool threads.",
    ),
    "repro_worker_model_ships_total": MetricSpec(
        "counter",
        "Fitted models pickled to a worker process, per worker index.",
        labels=("worker",),
    ),
    "repro_worker_units_total": MetricSpec(
        "counter",
        "Work units completed by worker processes, by worker index and "
        "outcome (done/error/cancelled).",
        labels=("worker", "outcome"),
    ),
    "repro_scoring_path_total": MetricSpec(
        "counter",
        "Analyses scored, by action and the kernel path chosen "
        "(sensitivity: incremental/full; run_sweep: grid/batch).",
        labels=("action", "path"),
    ),
    "repro_persist_writes_total": MetricSpec(
        "counter",
        "Durable-state backend writes, by record kind "
        "(session/scenario/version/job).",
        labels=("kind",),
    ),
    "repro_persist_write_latency_ms": MetricSpec(
        "histogram",
        "Wall-clock latency of one durable-state write in milliseconds, "
        "per record kind.",
        labels=("kind",),
        buckets=LATENCY_MS_BUCKETS,
    ),
    "repro_persist_failures_total": MetricSpec(
        "counter",
        "State-store writes that raised, by record kind "
        "(session/scenario/version/job); a lost terminal job write fails "
        "the job.",
        labels=("kind",),
    ),
    "repro_persist_records_replayed_total": MetricSpec(
        "counter",
        "Records read back from a durable-state backend during recovery "
        "or lazy load, by record kind.",
        labels=("kind",),
    ),
    "repro_persist_replay_latency_ms": MetricSpec(
        "histogram",
        "Wall-clock latency of one durable-state read/replay batch in "
        "milliseconds, per record kind.",
        labels=("kind",),
        buckets=LATENCY_MS_BUCKETS,
    ),
}


class _State:
    """Mutable module switch (a slotted object keeps the hot-path load cheap)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


_STATE = _State()


def set_enabled(value: bool) -> None:
    """Globally enable/disable metric mutation (and, via it, tracing)."""
    _STATE.enabled = bool(value)


def enabled() -> bool:
    """Whether the observability layer is currently recording."""
    return _STATE.enabled


class Counter:
    """A monotonically increasing value (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution (one labeled child).

    ``_counts`` has one slot per declared bound plus a final overflow slot
    (the ``+Inf`` bucket); ``observe`` is a bisect over the short bounds
    tuple plus two adds under a per-child lock.
    """

    __slots__ = ("_bounds", "_counts", "_lock", "_sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if not _STATE.enabled:
            return
        value = float(value)
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def snapshot(self) -> tuple[list[int], float]:
        """(per-bucket counts, sum) captured atomically."""
        with self._lock:
            return list(self._counts), self._sum


@dataclass
class Family:
    """All children of one declared metric; label values index into it."""

    name: str
    spec: MetricSpec
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _children: dict[tuple[str, ...], Any] = field(default_factory=dict, repr=False)

    def labels(self, *values: Any) -> Any:
        """The child for these label values (created on first use)."""
        if len(values) != len(self.spec.labels):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.spec.labels}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(value) for value in values)
        try:
            return self._children[key]
        except KeyError:
            with self._lock:
                return self._children.setdefault(key, self._new_child())

    def _new_child(self) -> Any:
        if self.spec.kind == "counter":
            return Counter()
        if self.spec.kind == "gauge":
            return Gauge()
        return Histogram(self.spec.buckets)

    # label-less families expose the child operations directly
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def children(self) -> list[tuple[tuple[str, ...], Any]]:
        """(label values, child) pairs in deterministic label order."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Families for every declared metric, plus exposition and estimation."""

    def __init__(self, specs: dict[str, MetricSpec]):
        self._specs = dict(specs)
        self._families = {name: Family(name, spec) for name, spec in specs.items()}

    def _family(self, name: str, kind: str) -> Family:
        family = self._families.get(name)
        if family is None:
            raise KeyError(f"metric {name!r} is not declared in METRICS")
        if family.spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {family.spec.kind}, not a {kind}"
            )
        return family

    def counter(self, name: str) -> Family:
        return self._family(name, "counter")

    def gauge(self, name: str) -> Family:
        return self._family(name, "gauge")

    def histogram(self, name: str) -> Family:
        return self._family(name, "histogram")

    def reset(self) -> None:
        """Drop every recorded sample (tests only — specs stay registered)."""
        self._families = {
            name: Family(name, spec) for name, spec in self._specs.items()
        }

    def percentile(self, name: str, quantile: float) -> float | None:
        """Estimate a quantile from bucket counts merged across children.

        Linear interpolation within the winning bucket, mirroring
        ``histogram_quantile``: values landing in the ``+Inf`` bucket clamp
        to the highest finite bound.  ``None`` when nothing was observed
        (the pre-registry behaviour for an empty request log).
        """
        family = self._family(name, "histogram")
        bounds = family.spec.buckets
        merged = [0] * (len(bounds) + 1)
        for _, child in family.children():
            counts, _ = child.snapshot()
            for index, count in enumerate(counts):
                merged[index] += count
        total = sum(merged)
        if total == 0:
            return None
        target = quantile * total
        cumulative = 0
        for index, count in enumerate(merged):
            if cumulative + count >= target and count > 0:
                if index >= len(bounds):  # +Inf bucket: clamp to last bound
                    return float(bounds[-1])
                lower = bounds[index - 1] if index > 0 else 0.0
                upper = bounds[index]
                fraction = (target - cumulative) / count
                return float(lower + fraction * (upper - lower))
            cumulative += count
        return float(bounds[-1]) if bounds else None

    def to_dict(self) -> dict[str, Any]:
        """JSON twin of the Prometheus exposition (the ``metrics`` action)."""
        payload: dict[str, Any] = {"enabled": _STATE.enabled, "metrics": {}}
        for name, family in self._families.items():
            spec = family.spec
            samples = []
            for label_values, child in family.children():
                labels = dict(zip(spec.labels, label_values))
                if spec.kind == "histogram":
                    counts, total = child.snapshot()
                    cumulative = 0
                    buckets = []
                    for bound, count in zip(spec.buckets, counts):
                        cumulative += count
                        buckets.append({"le": bound, "count": cumulative})
                    cumulative += counts[-1]
                    buckets.append({"le": "+Inf", "count": cumulative})
                    samples.append(
                        {
                            "labels": labels,
                            "count": cumulative,
                            "sum": total,
                            "buckets": buckets,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            payload["metrics"][name] = {
                "kind": spec.kind,
                "help": spec.help,
                "labels": list(spec.labels),
                "samples": samples,
            }
        return payload

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, family in self._families.items():
            spec = family.spec
            lines.append(f"# HELP {name} {_escape_help(spec.help)}")
            lines.append(f"# TYPE {name} {spec.kind}")
            for label_values, child in family.children():
                pairs = list(zip(spec.labels, label_values))
                if spec.kind == "histogram":
                    counts, total = child.snapshot()
                    cumulative = 0
                    for bound, count in zip(spec.buckets, counts):
                        cumulative += count
                        labels = _render_labels(pairs + [("le", _fmt(bound))])
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    cumulative += counts[-1]
                    labels = _render_labels(pairs + [("le", "+Inf")])
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                    base = _render_labels(pairs)
                    lines.append(f"{name}_sum{base} {_fmt(total)}")
                    lines.append(f"{name}_count{base} {cumulative}")
                else:
                    labels = _render_labels(pairs)
                    lines.append(f"{name}{labels} {_fmt(child.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in pairs)
    return "{" + inner + "}"


#: The process-global registry every accessor below resolves against.
_REGISTRY = MetricsRegistry(METRICS)


def registry() -> MetricsRegistry:
    """The process-global registry (exposition, percentiles, test resets)."""
    return _REGISTRY


def counter(name: str) -> Family:
    """The declared counter family ``name`` from the global registry."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Family:
    """The declared gauge family ``name`` from the global registry."""
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Family:
    """The declared histogram family ``name`` from the global registry."""
    return _REGISTRY.histogram(name)


def render_prometheus() -> str:
    """Prometheus text exposition of the global registry."""
    return _REGISTRY.render_prometheus()
