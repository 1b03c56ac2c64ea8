"""Observability overhead: instrumented vs disabled, same workload.

The observability layer (``repro.obs``) rides the hot request path — a span
around every request, histogram observes on every latency sample, counters
on every cache lookup.  The paper's interactivity requirement means that
layer must be effectively free, so this benchmark holds it to two
invariants the regression gate keeps forever:

* ``overhead_ok`` — request latency with instrumentation enabled is within
  :data:`OVERHEAD_BUDGET_PCT` (3%) of the latency with ``obs`` globally
  disabled.  The design is paired: each pair times one enabled and one
  disabled sensitivity request back to back, alternating which goes first.
  A pair's two requests share the machine's load of that moment, so drift
  cancels inside the ratio, where the minima of two independent sample sets
  do not; a median ignores the few pairs a load burst lands on unevenly.
  The first request of a pair tends to run slower, and 7 × 7 pairs cannot
  split evenly between the two orders, so the overhead is the geometric
  mean of the two orders' median ratios, minus one: a factor the first
  position adds to one order's ratios divides the other's, and cancels.
  :data:`ROUNDS` rounds of :data:`PAIRS_PER_ROUND` pairs run with the
  cyclic garbage collector paused inside them and a collection between
  them, so its pauses never land on one arm.  An over-budget verdict is
  re-measured (up to :data:`MAX_BATCHES`, keeping every pair) before it may
  fail: the true per-request cost is ~15µs, so only a sustained regression
  survives.
* ``bitwise_identical`` — two same-seed servers, one instrumented and one
  disabled, return byte-identical sensitivity payloads.  Observability
  must observe, never perturb.

The raw millisecond numbers are informational (wall clock on shared runners
is noisy); only the two booleans gate.  Results land in
``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import gc
import json
import math
import time
from statistics import median

from repro.obs import metrics
from repro.server import SystemDServer

from .conftest import print_table

USE_CASE = "deal_closing"
ROWS = 4000
ROUNDS = 7
PAIRS_PER_ROUND = 7
MAX_BATCHES = 3
OVERHEAD_BUDGET_PCT = 3.0
OUTPUT = "BENCH_obs_overhead.json"

PARAMS = {"perturbations": {"Open Marketing Email": 25.0, "Call": -10.0}}


def make_server() -> SystemDServer:
    server = SystemDServer()
    response = server.request(
        "load_use_case",
        use_case=USE_CASE,
        dataset_kwargs={"n_prospects": ROWS},
        random_state=0,
    )
    assert response.ok, response.error
    return server


def one_request_ms(server: SystemDServer) -> float:
    start = time.perf_counter()
    response = server.request("sensitivity", **PARAMS)
    elapsed = (time.perf_counter() - start) * 1000.0
    assert response.ok, response.error
    return elapsed


def measure_round(
    server,
    enabled_ms: list[float],
    disabled_ms: list[float],
    enabled_first: list[bool],
    first: int,
) -> None:
    """Time :data:`PAIRS_PER_ROUND` adjacent (enabled, disabled) request
    pairs, alternating which arm opens each pair (``first`` picks the
    first pair's) and recording the order in ``enabled_first``."""
    gc.collect()
    gc.disable()
    try:
        for pair in range(PAIRS_PER_ROUND):
            enabled_first.append((first + pair) % 2 == 0)
            arms = [(True, enabled_ms), (False, disabled_ms)]
            for flag, samples in arms if enabled_first[-1] else reversed(arms):
                metrics.set_enabled(flag)
                samples.append(one_request_ms(server))
    finally:
        gc.enable()
        metrics.set_enabled(True)


def order_medians(
    enabled_ms: list[float], disabled_ms: list[float], enabled_first: list[bool]
) -> tuple[float, float]:
    """Median enabled/disabled ratio of the enabled-first pairs and of the
    disabled-first pairs."""
    ratios = list(zip(enabled_first, (on / off for on, off in zip(enabled_ms, disabled_ms))))
    return (
        median(ratio for first, ratio in ratios if first),
        median(ratio for first, ratio in ratios if not first),
    )


def test_observability_overhead_and_neutrality():
    server = make_server()
    enabled_ms: list[float] = []
    disabled_ms: list[float] = []
    enabled_first: list[bool] = []
    one_request_ms(server)  # warm the model and the request path
    batches = 0
    while True:
        for round_index in range(ROUNDS):
            measure_round(server, enabled_ms, disabled_ms, enabled_first, round_index)
        batches += 1
        on_first, off_first = order_medians(enabled_ms, disabled_ms, enabled_first)
        overhead_pct = (math.sqrt(on_first * off_first) - 1.0) * 100.0
        if overhead_pct < OVERHEAD_BUDGET_PCT or batches >= MAX_BATCHES:
            break
    server.close()

    # neutrality: a fresh instrumented server and a fresh disabled server
    # produce byte-identical sensitivity payloads from the same seed
    instrumented = make_server()
    payload_enabled = instrumented.request("sensitivity", **PARAMS).data
    instrumented.close()
    metrics.set_enabled(False)
    try:
        silent = make_server()
        payload_disabled = silent.request("sensitivity", **PARAMS).data
        silent.close()
    finally:
        metrics.set_enabled(True)
    bitwise_identical = json.dumps(payload_enabled, sort_keys=True) == json.dumps(
        payload_disabled, sort_keys=True
    )

    summary = {
        "use_case": USE_CASE,
        "rows": ROWS,
        "rounds": ROUNDS,
        "pairs_per_round": PAIRS_PER_ROUND,
        "batches": batches,
        "pairs_measured": len(enabled_first),
        "enabled_median_ms": median(enabled_ms),
        "disabled_median_ms": median(disabled_ms),
        "enabled_first_overhead_pct": (on_first - 1.0) * 100.0,
        "disabled_first_overhead_pct": (off_first - 1.0) * 100.0,
        "overhead_pct": overhead_pct,
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "overhead_ok": overhead_pct < OVERHEAD_BUDGET_PCT,
        "bitwise_identical": bitwise_identical,
    }
    print_table(
        f"observability overhead (sensitivity, {len(enabled_first)} paired ratios)",
        [
            {
                "arm": arm,
                "median_ms": median(samples),
                "fastest_ms": " ".join(f"{v:.1f}" for v in sorted(samples)[:5]),
            }
            for arm, samples in (("enabled", enabled_ms), ("disabled", disabled_ms))
        ],
    )
    print(
        f"overhead: {overhead_pct:+.2f}% (budget {OVERHEAD_BUDGET_PCT}%; enabled first "
        f"{summary['enabled_first_overhead_pct']:+.2f}%, disabled first "
        f"{summary['disabled_first_overhead_pct']:+.2f}%), bitwise_identical: {bitwise_identical}"
    )

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)

    assert bitwise_identical
    assert summary["overhead_ok"], (
        f"observability overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget (median enabled "
        f"{summary['enabled_median_ms']:.2f}ms vs disabled "
        f"{summary['disabled_median_ms']:.2f}ms)"
    )
