"""P2 (performance): flattened tree kernels vs the recursive prediction path.

Every what-if interaction re-scores perturbed matrices with the trained tree
ensemble, so forest prediction *is* the hot path.  This benchmark times the
pre-kernel traversal (per-row recursive walks, one ``predict_proba`` per tree)
against the flattened-array kernels on the paper's deal-closing dataset, and
verifies on **every** registry dataset that the kernels return bitwise-
identical predictions — the speedup may not move a single ulp.

It also gates incremental one-driver re-scoring (``restart=`` on
``ForestKernel.predict_proba``): on every registry dataset, every driver and
four row ranges must score bitwise equal to a full pass, and the artifact
reports the mean full ÷ incremental time over the drivers of an 8k-row
deal-closing forest.

The headline ``speedup`` is paired: :data:`PAIRS` adjacent (recursive,
kernel) timings, alternating which path opens each pair, and the median of
the per-pair ratios.  A pair's two timings share the machine's load of that
moment, so drift across the run cancels out of each ratio, and the median
ignores the few pairs a load burst lands on unevenly.

Timings are written to ``BENCH_tree_kernels.json``; CI uploads that file as
a workflow artifact and gates it with ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

from repro.core import Perturbation, PerturbationSet, WhatIfSession
from repro.datasets import get_use_case, list_use_cases
from repro.ml import RandomForestClassifier, RandomForestRegressor

from .conftest import print_table
from .oracles import predict_proba_recursive, predict_recursive, predict_values_recursive

#: Moderate per-use-case sizes so the equivalence sweep stays fast.
DATASET_KWARGS = {
    "marketing_mix": {"n_days": 120},
    "customer_retention": {"n_customers": 400},
    "deal_closing": {"n_prospects": 800},
}

#: The headline timing configuration from the issue: 800-row deal dataset,
#: 50-tree forest, whole-matrix batch prediction.
TIMING_USE_CASE = "deal_closing"
TIMING_ROWS = 800
TIMING_TREES = 50
MIN_SPEEDUP = 5.0
#: Timed (recursive, kernel) pairs behind the headline speedup.
PAIRS = 15
#: Kernel calls per pair, averaged: one takes ~3 ms, too short to time alone.
KERNEL_CALLS = 3
OUTPUT = "BENCH_tree_kernels.json"

#: Incremental re-scoring is timed on the serving configuration at 8k rows
#: (the session's default forest: 40 trees, depth 8).
DELTA_ROWS = 8000
#: One perturbation per row range: both modes, clipping to zero, amount 0.
DELTA_PERTURBATIONS = (
    (25.0, "percentage"),
    (-100.0, "percentage"),
    (0.0, "percentage"),
    (-3.0, "absolute"),
)


def _design_matrix(use_case):
    frame = use_case.load(**DATASET_KWARGS[use_case.key])
    drivers = [
        name
        for name in frame.numeric_columns()
        if name != use_case.kpi and name not in use_case.excluded_drivers
    ]
    X = frame.to_matrix(drivers)
    y = frame.to_vector(use_case.kpi)
    return X, y


def _fit_forest(use_case, X, y, n_estimators=20):
    if use_case.kpi_kind == "discrete":
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=8, random_state=0
        )
    else:
        forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=8, random_state=0
        )
    return forest.fit(X, y)


def _predict_both(forest, X):
    if isinstance(forest, RandomForestClassifier):
        return forest.predict_proba(X), predict_proba_recursive(forest, X)
    return forest.predict(X), predict_recursive(forest, X)


def test_kernel_predictions_bitwise_equal_on_every_dataset():
    """Kernels must agree exactly with the recursive walk on all registry data."""
    for use_case in list_use_cases():
        X, y = _design_matrix(use_case)
        forest = _fit_forest(use_case, X, y)
        kernel_out, recursive_out = _predict_both(forest, X)
        assert np.array_equal(kernel_out, recursive_out), (
            f"kernel and recursive predictions diverge on {use_case.key}"
        )
        for tree in forest.estimators_[:3]:
            assert np.array_equal(
                tree.kernel_.predict(X),
                np.atleast_2d(predict_values_recursive(tree, X).T).T,
            )


def _delta_mismatches() -> list[str]:
    """(dataset, driver, rows) cases where incremental re-scoring of one
    perturbed driver differs from a full pass; continuous KPIs are split at
    their median so every dataset gets a forest classifier."""
    mismatches = []
    for use_case in list_use_cases():
        X, y = _design_matrix(use_case)
        if use_case.kpi_kind != "discrete":
            y = (y > np.median(y)).astype(float)
        forest = RandomForestClassifier(n_estimators=20, max_depth=8, random_state=0).fit(X, y)
        leaves = np.empty((forest.kernel_.n_trees, X.shape[0]), dtype=np.int32)
        forest.predict_proba(X, leaves_out=leaves)
        n = X.shape[0]
        ranges = [(0, n), (0, n // 2), (n // 3, 2 * n // 3 + 1), (n - 1, n)]
        for feature in range(X.shape[1]):
            for (start, stop), (amount, mode) in zip(ranges, DELTA_PERTURBATIONS):
                moved = X[start:stop].copy()
                moved[:, feature] = Perturbation("driver", amount, mode).apply_to_values(
                    moved[:, feature]
                )
                full = forest.predict_proba(moved)
                delta = forest.predict_proba(moved, restart=(leaves[:, start:stop], feature))
                if not np.array_equal(delta, full):
                    mismatches.append(f"{use_case.key}/{feature}/{start}:{stop}")
    return mismatches


def delta_timings(rounds: int = 5) -> dict:
    """Full vs incremental scoring per driver of the 8k-row deal session."""
    session = WhatIfSession.from_use_case(
        TIMING_USE_CASE, dataset_kwargs={"n_prospects": DELTA_ROWS}, random_state=0
    )
    manager = session.model
    manager.baseline_kpi()
    kernel = manager.model.kernel_
    table, depth = kernel.restart_table()

    def best_of(score) -> float:
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            score()
            times.append(time.perf_counter() - started)
        return min(times)

    speedups = []
    for driver in manager.drivers:
        perturbation = PerturbationSet.from_mapping({driver: 20.0})
        full_s = best_of(
            lambda: manager.predict_rows_matrix(
                perturbation.apply_to_matrix(manager.driver_matrix(), manager.drivers)
            )
        )
        delta_s = best_of(lambda: manager.predict_perturbed_rows(perturbation))
        speedups.append(full_s / delta_s)
    return {
        "delta_rows": DELTA_ROWS,
        "delta_trees": kernel.n_trees,
        "delta_speedup": float(np.mean(speedups)),
        "delta_speedup_per_driver": dict(zip(manager.drivers, map(float, speedups))),
        "delta_leaf_bytes": int(manager.baseline_leaves().nbytes),
        "delta_table_bytes": int(table.nbytes + depth.nbytes),
    }


def _seconds_per_call(score, calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        score()
    return (time.perf_counter() - started) / calls


def paired_timings(forest, X) -> tuple[float, float, float]:
    """Median recursive seconds, median kernel seconds, and the median
    recursive ÷ kernel ratio over :data:`PAIRS` alternating pairs."""
    recursive_s: list[float] = []
    kernel_s: list[float] = []
    arms = [
        (recursive_s, lambda: predict_proba_recursive(forest, X), 1),
        (kernel_s, lambda: forest.predict_proba(X), KERNEL_CALLS),
    ]
    for pair in range(PAIRS):
        for samples, score, calls in arms if pair % 2 == 0 else reversed(arms):
            samples.append(_seconds_per_call(score, calls))
    ratios = [slow / fast for slow, fast in zip(recursive_s, kernel_s)]
    return median(recursive_s), median(kernel_s), median(ratios)


def test_forest_kernel_speedup_and_artifact():
    use_case = get_use_case(TIMING_USE_CASE)
    X, y = _design_matrix(use_case)
    assert X.shape[0] == TIMING_ROWS
    forest = _fit_forest(use_case, X, y, n_estimators=TIMING_TREES)

    # warm both paths once so timing excludes lazy setup
    kernel_out, recursive_out = _predict_both(forest, X)
    assert np.array_equal(kernel_out, recursive_out)

    recursive_s, kernel_s, speedup = paired_timings(forest, X)

    record = {
        "benchmark": "tree_kernels",
        "dataset": TIMING_USE_CASE,
        "n_rows": TIMING_ROWS,
        "n_trees": TIMING_TREES,
        "n_features": int(X.shape[1]),
        "recursive_ms": recursive_s * 1000.0,
        "kernel_ms": kernel_s * 1000.0,
        "speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "bitwise_identical": True,
    }
    delta_mismatches = _delta_mismatches()
    record["delta_bitwise_identical"] = not delta_mismatches
    record.update(delta_timings())

    with open(OUTPUT, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    print_table(
        "P2: forest batch prediction, recursive vs kernel",
        [
            {
                "path": "recursive (per row per tree)",
                "ms": record["recursive_ms"],
                "speedup": 1.0,
            },
            {"path": "flattened kernels", "ms": record["kernel_ms"], "speedup": speedup},
        ],
    )
    print_table(
        f"incremental one-driver re-scoring, {DELTA_ROWS} rows, full ÷ incremental",
        [
            {"driver": driver, "speedup": ratio}
            for driver, ratio in record["delta_speedup_per_driver"].items()
        ]
        + [{"driver": "mean", "speedup": record["delta_speedup"]}],
    )

    assert not delta_mismatches, f"incremental re-scoring diverges: {delta_mismatches}"

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup over the recursive path, got "
        f"{speedup:.1f}x ({record['recursive_ms']:.1f}ms -> {record['kernel_ms']:.1f}ms)"
    )
