"""Bench-regression gate: compare fresh BENCH_*.json files against baselines.

The repo's benchmark trajectory (tree kernels, frame kernels, async engine,
scenario sweeps) is only worth anything if it cannot silently regress.  This
comparator runs in CI right after the ``bench`` job produces fresh
``BENCH_*.json`` files and fails the build when either of two things drifted
from the committed snapshots in ``benchmarks/baselines/``:

* **speedup regressions** — every metric named in :data:`RATIO_METRICS` is a
  *ratio* (batched vs looped, kernel vs recursive, parallel vs serial).
  Ratios compare the same workload on the same machine, so they transfer
  across hardware far better than raw seconds; a fresh value more than
  :data:`TOLERANCE` (25%) below its baseline fails the gate.
* **equality-check changes** — every metric named in
  :data:`EQUALITY_METRICS` is a correctness invariant (bitwise equality with
  a reference path, coalescing behaviour).  Any change at all fails the
  gate: a benchmark that stops being bitwise-identical is a correctness bug
  no matter how fast it got.

Metrics are addressed by dotted paths into the JSON.  A baseline file with
no fresh counterpart fails (a benchmark silently dropped is a regression
too), and a fresh file with no committed baseline *also* fails: a benchmark
that lands without a baseline is silently unguarded, so landing a bench and
committing its baseline (plus manifest entries here) are one change.

Ratios only transfer across machines when baseline and fresh run measured
the same *configuration*: a thread-pool ``worker_speedup`` captured on a
4-core runner says nothing about a 1-core sandbox, and vice versa.  Files
named in :data:`CONTEXT_KEYS` therefore carry their capture context
(executor kind, worker count, usable CPUs); when any of those keys differ
between baseline and fresh run the ratio metrics are *skipped* (reported as
``[SKIP]``) instead of failing on an apples-to-oranges comparison.  Equality
metrics are never skipped — correctness invariants hold on any hardware.

Usage::

    python benchmarks/check_regression.py \
        [--baseline-dir benchmarks/baselines] [--current-dir .]

Exit code 0 when every check passes, 1 otherwise, with a per-metric report
either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fractional slowdown tolerated on ratio metrics before the gate fails.
TOLERANCE = 0.25

#: Higher-is-better ratio metrics per bench file (dotted JSON paths).
RATIO_METRICS: dict[str, list[str]] = {
    "BENCH_tree_kernels.json": ["speedup", "delta_speedup"],
    "BENCH_frame_ops.json": ["groupby_agg.speedup", "inner_join.speedup"],
    "BENCH_engine.json": ["speedup", "worker_speedup"],
    "BENCH_engine_process.json": ["speedup", "worker_speedup"],
    "BENCH_scenario_sweep.json": ["speedup"],
}

#: Exact-match correctness metrics per bench file (dotted JSON paths).
EQUALITY_METRICS: dict[str, list[str]] = {
    "BENCH_tree_kernels.json": ["bitwise_identical", "delta_bitwise_identical"],
    "BENCH_engine.json": [
        "bitwise_equal",
        "coalescing.distinct_jobs",
        "coalescing.result_matches_sync",
    ],
    "BENCH_engine_process.json": [
        "bitwise_equal",
        "coalescing.distinct_jobs",
        "coalescing.result_matches_sync",
    ],
    "BENCH_scenario_sweep.json": ["bitwise_equal", "grid_kernel"],
    # streaming gates on correctness only: wall-clock latency on shared
    # runners is too noisy to ratio-compare, but the streamed result must
    # stay bitwise-identical to the polled one and the stream must keep
    # delivering at least one incremental chunk before the job finishes
    "BENCH_streaming.json": ["streamed_equals_polled", "chunk_before_done"],
    # observability gates on correctness only: the raw millisecond arms are
    # wall-clock noise on shared runners, but instrumentation must stay
    # result-neutral and inside its latency budget
    "BENCH_obs_overhead.json": ["bitwise_identical", "overhead_ok"],
    # durable state gates on correctness only: raw jobs-per-second is
    # machine-bound, but the sqlite backend must stay inside its 10%
    # throughput-overhead budget and a journaled ledger must replay bitwise
    "BENCH_persistence.json": ["overhead_ok", "replay_bitwise", "replay_events"],
}

#: Capture-context keys per bench file: when any of these differ between the
#: baseline and the fresh run, the file's *ratio* metrics are skipped rather
#: than compared (a key absent from both sides counts as matching).
CONTEXT_KEYS: dict[str, list[str]] = {
    "BENCH_engine.json": ["executor", "workers", "cpu_count"],
    "BENCH_engine_process.json": ["executor", "workers", "cpu_count"],
}


def lookup(payload: dict, path: str):
    """Resolve a dotted path into nested dicts (KeyError when absent)."""
    value = payload
    for part in path.split("."):
        value = value[part]
    return value


def context_mismatches(name: str, baseline: dict, current: dict) -> list[str]:
    """Context keys whose values differ between baseline and fresh run.

    A key missing from *both* payloads matches (older snapshots predate the
    context keys); a key present on only one side is a mismatch.
    """
    return [
        key
        for key in CONTEXT_KEYS.get(name, [])
        if baseline.get(key) != current.get(key)
    ]


def compare_file(name: str, baseline: dict, current: dict) -> list[str]:
    """Compare one bench file; returns failure messages (empty = pass)."""
    failures: list[str] = []
    mismatched = context_mismatches(name, baseline, current)
    if mismatched:
        detail = ", ".join(
            f"{key}: {baseline.get(key)!r} -> {current.get(key)!r}"
            for key in mismatched
        )
        for path in RATIO_METRICS.get(name, []):
            print(f"  [SKIP] {name}:{path}: capture context differs ({detail})")
    for path in [] if mismatched else RATIO_METRICS.get(name, []):
        try:
            base_value = float(lookup(baseline, path))
            new_value = float(lookup(current, path))
        except KeyError as exc:
            failures.append(f"{name}:{path}: missing key {exc}")
            continue
        floor = base_value * (1.0 - TOLERANCE)
        status = "OK" if new_value >= floor else "FAIL"
        print(
            f"  [{status}] {name}:{path}: {new_value:.2f} vs baseline "
            f"{base_value:.2f} (floor {floor:.2f})"
        )
        if new_value < floor:
            failures.append(
                f"{name}:{path}: {new_value:.2f} is more than {TOLERANCE:.0%} "
                f"below the baseline {base_value:.2f}"
            )
    for path in EQUALITY_METRICS.get(name, []):
        try:
            base_value = lookup(baseline, path)
            new_value = lookup(current, path)
        except KeyError as exc:
            failures.append(f"{name}:{path}: missing key {exc}")
            continue
        status = "OK" if new_value == base_value else "FAIL"
        print(f"  [{status}] {name}:{path}: {new_value!r} (baseline {base_value!r})")
        if new_value != base_value:
            failures.append(
                f"{name}:{path}: equality check changed from {base_value!r} "
                f"to {new_value!r}"
            )
    return failures


def run(baseline_dir: Path, current_dir: Path) -> int:
    """Compare every baseline against its fresh counterpart; 0 = all pass."""
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines found in {baseline_dir}", file=sys.stderr)
        return 1
    failures: list[str] = []
    for baseline_path in baselines:
        name = baseline_path.name
        current_path = current_dir / name
        print(f"{name}:")
        if not current_path.exists():
            failures.append(f"{name}: fresh result missing (did the bench run?)")
            print(f"  [FAIL] fresh result not found at {current_path}")
            continue
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(current_path, encoding="utf-8") as handle:
            current = json.load(handle)
        failures.extend(compare_file(name, baseline, current))
    known = {path.name for path in baselines}
    for current_path in sorted(current_dir.glob("BENCH_*.json")):
        if current_path.name not in known:
            name = current_path.name
            print(f"{name}: [FAIL] no baseline committed")
            failures.append(
                f"{name}: fresh benchmark has no committed baseline — copy it to "
                f"{baseline_dir}/{name} and register its metrics in RATIO_METRICS/"
                "EQUALITY_METRICS in benchmarks/check_regression.py so it is gated "
                "from day one"
            )
    if failures:
        print(f"\nbench-regression gate FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench-regression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(__file__).parent / "baselines",
        help="directory holding the committed BENCH_*.json snapshots",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced BENCH_*.json files",
    )
    args = parser.parse_args(argv)
    return run(args.baseline_dir, args.current_dir)


if __name__ == "__main__":
    raise SystemExit(main())
