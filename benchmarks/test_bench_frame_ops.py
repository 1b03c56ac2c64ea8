"""P3 (performance): columnar frame kernels vs the row-wise reference paths.

PR 2's tree kernels took model scoring off the critical path, which left the
frame layer's per-row Python loops — tuple-key group-by, dict-assembled
joins — as the dominant cost of per-cohort what-if analyses.  This benchmark
verifies on **every** registry dataset that the columnar group-by, join, and
``from_records`` paths return the same results as the row-wise references
in :mod:`benchmarks.oracles` (float aggregates agree to rounding; segment
reductions sum in a different order than ``np.nansum``'s pairwise scheme),
and times both paths at 50k rows, requiring a ≥5× speedup on group-by-agg
and inner join.

Timings are written to ``BENCH_frame_ops.json``; CI uploads that file as a
workflow artifact alongside the tree-kernel timings.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from repro.frame import Column, DataFrame, join_frames
from repro.datasets import list_use_cases

from .conftest import print_table
from .oracles import agg_rowwise, from_records_rowwise, join_rowwise, size_rowwise

#: Moderate per-use-case sizes so the equivalence sweep stays fast.
DATASET_KWARGS = {
    "marketing_mix": {"n_days": 120},
    "customer_retention": {"n_customers": 400},
    "deal_closing": {"n_prospects": 800},
}

#: Grouping column per use case: the KPI for the discrete use cases (two
#: cohorts), the weekday for the continuous marketing panel (seven).
GROUP_KEYS = {
    "marketing_mix": "Day Of Week",
    "customer_retention": "Retained After 6 Months",
    "deal_closing": "Deal Closed?",
}

#: The headline timing configuration from the issue: 50k-row frame, string
#: join/group keys (the worst case for the row-wise paths).
TIMING_ROWS = 50_000
TIMING_GROUPS = 500
MIN_SPEEDUP = 5.0
OUTPUT = "BENCH_frame_ops.json"


def _assert_frames_close(actual: DataFrame, expected: DataFrame) -> None:
    """Same columns, rows, and values (floats to rounding; NaN == NaN)."""
    assert actual.columns == expected.columns
    assert actual.n_rows == expected.n_rows
    for name in expected.columns:
        left = actual.column(name)
        right = expected.column(name)
        if left.is_numeric and right.is_numeric:
            np.testing.assert_allclose(
                left.to_numeric(), right.to_numeric(), rtol=1e-9, equal_nan=True
            )
        else:
            assert left.tolist() == right.tolist(), name


def _write_record(name: str, record: dict) -> None:
    """Merge one benchmark record into the shared JSON artifact."""
    data: dict = {}
    if os.path.exists(OUTPUT):
        try:
            with open(OUTPUT) as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                data = loaded
        except (json.JSONDecodeError, OSError):
            data = {}
    data[name] = record
    with open(OUTPUT, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _timing_frame() -> tuple[DataFrame, DataFrame]:
    """A 50k-row activity log plus a 500-row account dimension table."""
    rng = np.random.default_rng(0)
    codes = rng.integers(0, TIMING_GROUPS, TIMING_ROWS)
    accounts = np.array(
        [f"acct-{code:04d}" for code in codes], dtype=object
    )
    left = DataFrame(
        {
            "account": Column("account", accounts, dtype="string"),
            "spend": rng.normal(100.0, 25.0, TIMING_ROWS),
            "clicks": rng.integers(0, 50, TIMING_ROWS),
        }
    )
    right = DataFrame(
        {
            "account": Column(
                "account",
                [f"acct-{i:04d}" for i in range(TIMING_GROUPS)],
                dtype="string",
            ),
            "segment": Column(
                "segment",
                [("enterprise" if i % 3 == 0 else "self-serve") for i in range(TIMING_GROUPS)],
                dtype="string",
            ),
            "quota": np.linspace(1.0, 2.0, TIMING_GROUPS),
        }
    )
    return left, right


def test_columnar_results_match_rowwise_on_every_dataset():
    """Group-by, join, and from_records agree with the references on all registry data."""
    for use_case in list_use_cases():
        frame = use_case.load(**DATASET_KWARGS[use_case.key])
        key = GROUP_KEYS[use_case.key]
        value_columns = [
            name for name in frame.numeric_columns() if name != key
        ][:2]

        grouped = frame.groupby(key)
        aggregations = {
            value_columns[0]: "mean",
            value_columns[1]: "sum",
        }
        _assert_frames_close(grouped.agg(aggregations), agg_rowwise(grouped, aggregations))
        _assert_frames_close(grouped.size(), size_rowwise(grouped))

        per_group = grouped.agg({value_columns[0]: "mean"})
        for how in ("inner", "left"):
            _assert_frames_close(
                join_frames(frame, per_group, [key], how=how),
                join_rowwise(frame, per_group, [key], how=how),
            )

        records = frame.to_records()
        assert DataFrame.from_records(records) == from_records_rowwise(records)


def test_groupby_agg_speedup_and_artifact(benchmark):
    frame, _ = _timing_frame()
    aggregations = {"spend": "mean", "clicks": "sum"}
    grouped = frame.groupby("account")

    columnar = grouped.agg(aggregations)
    started = time.perf_counter()
    rowwise = agg_rowwise(grouped, aggregations)
    rowwise_s = time.perf_counter() - started
    _assert_frames_close(columnar, rowwise)

    def columnar_groupby_agg():
        return frame.groupby("account").agg(aggregations)

    benchmark.pedantic(columnar_groupby_agg, rounds=5, iterations=3)
    columnar_s = float(benchmark.stats["mean"])
    speedup = rowwise_s / columnar_s

    record = {
        "benchmark": "frame_groupby_agg",
        "n_rows": TIMING_ROWS,
        "n_groups": TIMING_GROUPS,
        "rowwise_ms": rowwise_s * 1000.0,
        "columnar_ms": columnar_s * 1000.0,
        "speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
    }
    benchmark.extra_info.update(record)
    _write_record("groupby_agg", record)

    print_table(
        "P3: group-by + aggregate at 50k rows, row-wise vs columnar",
        [
            {
                "path": "row-wise (tuple keys, subframes)",
                "ms": record["rowwise_ms"],
                "speedup": 1.0,
            },
            {
                "path": "columnar (factorize + reduceat)",
                "ms": record["columnar_ms"],
                "speedup": speedup,
            },
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup over the row-wise group-by, got "
        f"{speedup:.1f}x ({record['rowwise_ms']:.1f}ms -> {record['columnar_ms']:.1f}ms)"
    )


def test_inner_join_speedup_and_artifact(benchmark):
    left, right = _timing_frame()

    columnar = join_frames(left, right, ["account"], how="inner")
    started = time.perf_counter()
    rowwise = join_rowwise(left, right, ["account"], how="inner")
    rowwise_s = time.perf_counter() - started
    _assert_frames_close(columnar, rowwise)
    assert columnar.n_rows == TIMING_ROWS

    def columnar_join():
        return join_frames(left, right, ["account"], how="inner")

    benchmark.pedantic(columnar_join, rounds=5, iterations=1)
    columnar_s = float(benchmark.stats["mean"])
    speedup = rowwise_s / columnar_s

    record = {
        "benchmark": "frame_inner_join",
        "n_left_rows": TIMING_ROWS,
        "n_right_rows": TIMING_GROUPS,
        "rowwise_ms": rowwise_s * 1000.0,
        "columnar_ms": columnar_s * 1000.0,
        "speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
    }
    benchmark.extra_info.update(record)
    _write_record("inner_join", record)

    print_table(
        "P3: inner join 50k x 500, row-wise vs columnar",
        [
            {
                "path": "row-wise (dict index, row dicts)",
                "ms": record["rowwise_ms"],
                "speedup": 1.0,
            },
            {
                "path": "columnar (code join + take)",
                "ms": record["columnar_ms"],
                "speedup": speedup,
            },
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup over the row-wise join, got "
        f"{speedup:.1f}x ({record['rowwise_ms']:.1f}ms -> {record['columnar_ms']:.1f}ms)"
    )


def test_from_records_round_trip_on_timing_frame():
    """Columnar ingestion reproduces the row-wise constructor at 50k rows."""
    left, _ = _timing_frame()
    records = left.head(5_000).to_records()
    assert DataFrame.from_records(records) == from_records_rowwise(records)


def test_artifact_written_after_speedup_tests():
    with open(OUTPUT) as handle:
        data = json.load(handle)
    assert set(data) >= {"groupby_agg", "inner_join"}
    for record in data.values():
        assert record["speedup"] >= record["min_speedup_required"]
        assert math.isfinite(record["speedup"])
