"""Unified observability: the process-global metrics registry and tracing.

``repro.obs`` is the one place the rest of the package reports what it is
doing: :mod:`repro.obs.metrics` holds the declarative ``METRICS`` table and
the registry of counters / gauges / histograms behind ``server_stats`` and
``GET /api/v1/metrics``; :mod:`repro.obs.trace` provides trace/span ids and
the context-manager ``span()`` API whose records cross the process boundary
with work units and come back as per-job timelines (``repro jobs --status JOB_ID``).

``set_enabled(False)`` turns the whole layer into no-ops — the overhead
benchmark (``benchmarks/test_bench_obs_overhead.py``) holds the instrumented
hot path within 3% of that baseline, with bitwise-identical results.
"""

from .metrics import (
    METRICS,
    MetricSpec,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    registry,
    set_enabled,
)
from .trace import (
    TraceContext,
    activate,
    capture,
    current_context,
    span,
    trace_store,
)

__all__ = [
    "METRICS",
    "MetricSpec",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "enabled",
    "set_enabled",
    "TraceContext",
    "activate",
    "capture",
    "current_context",
    "span",
    "trace_store",
]
