"""The per-layer table: self times and counts per interaction from a traced run.

A span's self time is its duration minus the durations of the spans it
directly encloses on the same thread.  Layer times are summed over the timed
phase and divided by the interactions attempted in it; ``core.fit_ms``,
``core.fits`` and ``core.confidence_ms`` cover the traced server's set-up
instead.  Spans under the traced run's auxiliary job-status fetches (which
read the program's own worker spans) are left out.

``trace.unattributed_ms`` is the client time no layer covers.  Along an
analysis' blocking path the client waits in ``AnalysisEngine.result`` while
the job runs on a worker thread; the part of that wait spent in the job
run's own code, outside every wrapped call, is the remainder.  Everything
else on the path is transport, a request-thread layer, queueing, or a layer
inside the run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any

NAME, START, END, ID, PARENT, THREAD, JOB, EXTRA = range(8)

#: metrics that are per traced set-up rather than per interaction
SETUP_LAYERS = ("core.fit", "core.confidence")

#: (metric, unit) of every per-layer figure, in table order
UNITS = {
    "server.transport_ms": "ms", "server.dispatch_ms": "ms", "server.serialize_ms": "ms",
    "server.http_requests": "count",
    "engine.submit_ms": "ms", "engine.queue_wait_ms": "ms", "engine.run_ms": "ms",
    "engine.result_wait_ms": "ms", "engine.coalesced": "count", "engine.jobs_failed": "count",
    "engine.process.run_units_ms": "ms", "engine.process.worker_ms": "ms",
    "engine.process.ipc_ms": "ms", "engine.process.units": "count",
    "engine.process.ships": "count",
    "core.fingerprint_ms": "ms", "core.model_fetch_ms": "ms", "core.cache_hit_ratio": "ratio",
    "core.fit_ms": "ms", "core.fits": "count", "core.confidence_ms": "ms",
    "core.perturb_ms": "ms", "core.batch_ms": "ms", "core.aggregate_ms": "ms",
    "ml.traverse_ms": "ms", "ml.rows_scored": "count", "ml.ns_per_row_tree": "ns",
    "scenarios.grid_ms": "ms", "scenarios.grid_share": "ratio", "scenarios.plan_ms": "ms",
    "scenarios.scored": "count",
    "optimize.gp_fit_ms": "ms", "optimize.ask_ms": "ms", "optimize.loop_ms": "ms",
    "optimize.evals": "count",
    "stats.shapley_ms": "ms", "stats.permutation_ms": "ms", "stats.correlation_ms": "ms",
    "persist.writes": "count", "persist.write_ms": "ms", "persist.bytes_per_op": "B",
    "datasets.load_ms": "ms", "frame.preview_ms": "ms", "frame.to_matrix_ms": "ms",
    "trace.overhead": "ratio", "trace.unattributed_ms": "ms",
}  # fmt: skip


def _overlap(a0: int, a1: int, b0: int, b1: int) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


def _is_aux(span: list[Any]) -> bool:
    """A job-status fetch (``GET .../jobs/{jid}`` without ``result``)."""
    extra = span[EXTRA]
    return (
        span[NAME] == "server.dispatch"
        and extra is not None
        and extra[0] == "GET"
        and "/jobs/" in extra[1]
        and "result" not in extra[2]
    )


def layer_table(
    workload, spans: list[list[Any]], phase, plain_p50_ms: float, traced_p50_ms: float
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (only those the run reached) and missing-layer problems."""
    by_id = {span[ID]: span for span in spans}
    roots: dict[int, list[Any]] = {}

    def root(span: list[Any]) -> list[Any]:
        chain = []
        while span[PARENT] and span[PARENT] in by_id and span[ID] not in roots:
            chain.append(span)
            span = by_id[span[PARENT]]
        top = roots.get(span[ID], span)
        for member in chain + [span]:
            roots[member[ID]] = top
        return top

    timed = [s for s in spans if phase.start <= s[START] <= phase.end and not _is_aux(root(s))]
    setup = [s for s in spans if s[START] < phase.start]
    interactions = phase.interactions
    n = max(1, len(interactions))

    enclosed: Counter[int] = Counter()
    for span in timed:
        enclosed[span[PARENT]] += span[END] - span[START]
    self_ns: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span in timed:
        self_ns[span[NAME]] += span[END] - span[START] - enclosed[span[ID]]
        calls[span[NAME]] += 1

    def per(layer: str) -> float:
        return self_ns[layer] / 1e6 / n

    m: dict[str, float] = {}
    rtt = sum(end - start for it in interactions for start, end in it.requests)
    served = sum(s[END] - s[START] for s in timed if s[NAME] == "server.dispatch" and not s[PARENT])
    m["server.transport_ms"] = (rtt - served) / 1e6 / n
    m["server.dispatch_ms"] = per("server.dispatch")
    m["server.serialize_ms"] = per("server.serialize")
    m["server.http_requests"] = sum(len(it.requests) for it in interactions) / n
    m["engine.submit_ms"] = per("engine.submit")
    m["engine.queue_wait_ms"] = sum(it.wait_s for it in interactions) * 1e3 / n
    m["engine.run_ms"] = sum(it.run_s for it in interactions) * 1e3 / n
    m["engine.result_wait_ms"] = per("engine.result_wait")
    m["engine.coalesced"] = sum(it.coalesced for it in interactions) / n
    m["engine.jobs_failed"] = phase.counter("repro_jobs_finished_total", state="failed") / n

    if calls["engine.process.run_units"]:
        units = {it.job_id: it.units for it in interactions if it.job_id}
        wall: Counter[str] = Counter()
        for span in timed:
            if span[NAME] == "engine.process.run_units":
                wall[span[JOB]] += span[END] - span[START]
        m["engine.process.run_units_ms"] = per("engine.process.run_units")
        m["engine.process.worker_ms"] = sum(sum(u) for u in units.values()) / n
        m["engine.process.ipc_ms"] = sum(
            ns / 1e6 - max(units.get(job) or [0.0]) for job, ns in wall.items()
        ) / n
        m["engine.process.units"] = phase.counter("repro_worker_units_total") / n
        m["engine.process.ships"] = phase.counter("repro_worker_model_ships_total") / n

    m["core.fingerprint_ms"] = per("core.fingerprint")
    hits = phase.counter("repro_model_cache_events_total", event="hit")
    lookups = hits + phase.counter("repro_model_cache_events_total", event="miss")
    if calls["core.model_fetch"]:
        m["core.model_fetch_ms"] = per("core.model_fetch")
    if lookups:
        m["core.cache_hit_ratio"] = hits / lookups
    setup_calls = Counter(s[NAME] for s in setup)
    setup_ns = Counter()
    for span in setup:
        setup_ns[span[NAME]] += span[END] - span[START]
    m["core.fit_ms"] = setup_ns["core.fit"] / 1e6
    m["core.fits"] = float(setup_calls["core.fit"])
    if setup_calls["core.confidence"]:
        m["core.confidence_ms"] = setup_ns["core.confidence"] / 1e6

    for layer in (
        "core.perturb", "core.batch", "core.aggregate", "scenarios.grid", "scenarios.plan",
        "optimize.gp_fit", "optimize.ask", "optimize.loop", "stats.shapley", "stats.permutation",
        "stats.correlation", "datasets.load", "frame.preview", "frame.to_matrix",
    ):  # fmt: skip
        if calls[layer]:
            m[f"{layer}_ms"] = per(layer)

    if calls["ml.traverse"]:
        lanes = rows = 0
        for span in timed:
            outer = by_id.get(span[PARENT], [None])[NAME] != "ml.traverse"
            if span[NAME] == "ml.traverse" and outer:
                rows += span[EXTRA][0]
                lanes += span[EXTRA][0] * span[EXTRA][1]
        m["ml.traverse_ms"] = per("ml.traverse")
        m["ml.rows_scored"] = rows / n
        m["ml.ns_per_row_tree"] = self_ns["ml.traverse"] / max(1, lanes)
    if calls["scenarios.grid_check"]:
        checks = [s[EXTRA] for s in timed if s[NAME] == "scenarios.grid_check"]
        m["scenarios.grid_share"] = sum(checks) / len(checks)
    if calls["scenarios.plan"]:
        scored = [s[EXTRA] for s in timed if s[NAME] == "scenarios.plan" and s[EXTRA] is not None]
        m["scenarios.scored"] = sum(scored) / max(1, len(scored))
    if calls["optimize.loop"]:
        m["optimize.evals"] = sum(s[EXTRA] for s in timed if s[NAME] == "optimize.loop") / n

    m["persist.writes"] = calls["persist.write"] / n
    m["persist.write_ms"] = per("persist.write")
    if phase.state_growth is not None:
        m["persist.bytes_per_op"] = phase.state_growth / n

    m["trace.overhead"] = traced_p50_ms / plain_p50_ms
    m["trace.unattributed_ms"] = _unattributed(timed) / 1e6 / n

    problems = []
    for layer in workload.expected_layers:
        count = setup_calls[layer] if layer in SETUP_LAYERS else calls[layer]
        if not count:
            problems.append(f"layer {layer} recorded no calls in the traced {workload.name} run")
    return m, problems


def _unattributed(timed: list[list[Any]]) -> int:
    """Job-run self time that overlaps the client's wait for that job."""
    runs = {s[JOB]: s for s in timed if s[NAME] == "engine.run"}
    waits: defaultdict[str, list[list[Any]]] = defaultdict(list)
    for span in timed:
        if span[NAME] == "engine.result_wait":
            waits[span[JOB]].append(span)
    children: defaultdict[int, list[list[Any]]] = defaultdict(list)
    for span in timed:
        children[span[PARENT]].append(span)
    total = 0
    for job, run in runs.items():
        for wait in waits.get(job, ()):
            total += _overlap(run[START], run[END], wait[START], wait[END])
            for child in children[run[ID]]:
                total -= _overlap(child[START], child[END], wait[START], wait[END])
    return total
