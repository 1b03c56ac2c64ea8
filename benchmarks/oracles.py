"""Reference implementations the kernel equivalence checks compare against.

The package scores and reshapes data with columnar kernels: group-by, join
and ``from_records`` in :mod:`repro.frame`, tree and forest traversal in
:mod:`repro.ml.kernel`.  The per-row paths those kernels replaced live here,
outside the package, as the oracles of the equivalence tests
(``tests/frame/test_frame_kernels.py``, ``tests/ml/test_tree_kernel.py``)
and the speedup benchmarks (``benchmarks/test_bench_frame_ops.py``,
``benchmarks/test_bench_tree_kernels.py``).  So does the one-shot comparison
sweep, which stacks every perturbed matrix into one pass: the serial
baseline of ``benchmarks/test_bench_engine.py``.  The served system never
runs them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.perturbation import Perturbation
from repro.frame import Column, DataFrame, infer_dtype
from repro.frame.errors import TypeMismatchError
from repro.frame.groupby import GroupBy
from repro.frame.join import _renamed_value_columns, _validate
from repro.frame.kernels import COLUMN_REDUCERS
from repro.ml.tree import TreeNode

__all__ = [
    "agg_rowwise",
    "build_groups_rowwise",
    "comparison_one_shot",
    "from_records_rowwise",
    "join_rowwise",
    "predict_node",
    "predict_proba_recursive",
    "predict_recursive",
    "predict_values_recursive",
    "size_rowwise",
]


# --------------------------------------------------------------------------- #
# frame: group-by, join, from_records
# --------------------------------------------------------------------------- #
def from_records_rowwise(records: Sequence[Mapping[str, Any]]) -> DataFrame:
    """Reference implementation of :meth:`DataFrame.from_records`."""
    order: list[str] = []
    for record in records:
        for key in record:
            if key not in order:
                order.append(key)
    columns = {}
    for name in order:
        values = [record.get(name) for record in records]
        dtype = infer_dtype([v for v in values if v is not None])
        if dtype in ("int", "bool") and any(v is None for v in values):
            dtype = "float"
        if dtype != "string":
            values = [float("nan") if v is None else v for v in values]
        columns[name] = Column(name, values, dtype=dtype)
    return DataFrame(columns)


def build_groups_rowwise(grouped: GroupBy) -> dict[tuple[Any, ...], list[int]]:
    """The original per-row tuple/dict grouping loop.

    Note the known flaw the columnar path fixes: float ``NaN`` keys
    fragment into singleton groups because ``NaN != NaN``.
    """
    groups: dict[tuple[Any, ...], list[int]] = {}
    key_columns = [grouped._frame.column(key) for key in grouped._keys]
    for index in range(grouped._frame.n_rows):
        key = tuple(column[index] for column in key_columns)
        groups.setdefault(key, []).append(index)
    return groups


def size_rowwise(grouped: GroupBy) -> DataFrame:
    """Reference ``size``: one dict row per group through ``from_records``."""
    rows = []
    for key, indices in build_groups_rowwise(grouped).items():
        row = dict(zip(grouped._keys, key))
        row["size"] = len(indices)
        rows.append(row)
    return from_records_rowwise(rows)


def agg_rowwise(grouped: GroupBy, aggregations: Mapping[str, str]) -> DataFrame:
    """Reference ``agg``: materialize a sub-frame per group and reduce it
    with the shared :data:`~repro.frame.kernels.COLUMN_REDUCERS` table."""
    for column, how in aggregations.items():
        if how not in COLUMN_REDUCERS:
            raise TypeMismatchError(
                f"unknown aggregation {how!r}; expected one of "
                f"{sorted(COLUMN_REDUCERS)}"
            )
        grouped._frame.column(column)
    rows = []
    for key, indices in build_groups_rowwise(grouped).items():
        row: dict[str, Any] = dict(zip(grouped._keys, key))
        subframe = grouped._frame.take(indices)
        for column, how in aggregations.items():
            row[f"{column}_{how}"] = float(
                COLUMN_REDUCERS[how](subframe.column(column))
            )
        rows.append(row)
    return from_records_rowwise(rows)


def join_rowwise(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    *,
    how: str = "inner",
    suffix: str = "_right",
) -> DataFrame:
    """Reference implementation: per-row dict index + record assembly.

    Its one historical bug — an empty result built through
    ``DataFrame.empty`` forced every column to dtype ``"float"`` — is fixed
    here too, so both paths preserve source dtypes.
    """
    keys = list(on)
    _validate(left, right, keys, how)

    right_index: dict[tuple[Any, ...], list[int]] = {}
    right_key_columns = [right.column(key) for key in keys]
    for index in range(right.n_rows):
        key = tuple(column[index] for column in right_key_columns)
        right_index.setdefault(key, []).append(index)

    renamed = _renamed_value_columns(left, right, keys, suffix)
    right_value_names = list(renamed)

    rows: list[dict[str, Any]] = []
    left_key_columns = [left.column(key) for key in keys]
    for index in range(left.n_rows):
        key = tuple(column[index] for column in left_key_columns)
        left_row = left.row(index)
        matches = right_index.get(key, [])
        if matches:
            for match in matches:
                right_row = right.row(match)
                combined = dict(left_row)
                for name in right_value_names:
                    combined[renamed[name]] = right_row[name]
                rows.append(combined)
        elif how == "left":
            combined = dict(left_row)
            for name in right_value_names:
                combined[renamed[name]] = None
            rows.append(combined)

    if not rows:
        dtypes = {name: left.column(name).dtype for name in left.columns}
        dtypes.update(
            {renamed[name]: right.column(name).dtype for name in right_value_names}
        )
        return DataFrame.empty(list(dtypes), dtypes=dtypes)
    return from_records_rowwise(rows)


# --------------------------------------------------------------------------- #
# ml: per-row tree walks
# --------------------------------------------------------------------------- #
def predict_node(tree, x: np.ndarray) -> TreeNode:
    """The leaf a fitted decision tree's node structure routes row ``x`` to."""
    node = tree.root_
    while not node.is_leaf():
        if x[node.feature] <= node.threshold:
            node = node.left
        else:
            node = node.right
    return node


def predict_values_recursive(tree, X: np.ndarray) -> np.ndarray:
    """Per-row recursive traversal — the pre-kernel prediction path."""
    return np.array([predict_node(tree, row).value for row in X])


def predict_proba_recursive(forest, X: np.ndarray) -> np.ndarray:
    """A classifier forest's pre-kernel prediction path (per-row tree walks)."""
    aggregate = np.zeros((X.shape[0], forest.classes_.shape[0]))
    for tree in forest.estimators_:
        proba = predict_values_recursive(tree, X)
        positions = np.searchsorted(forest.classes_, tree.classes_)
        aggregate[:, positions] += proba
    return aggregate / len(forest.estimators_)


def predict_recursive(forest, X: np.ndarray) -> np.ndarray:
    """A regressor forest's pre-kernel prediction path (per-row tree walks)."""
    predictions = np.zeros(X.shape[0])
    for tree in forest.estimators_:
        predictions += predict_values_recursive(tree, X)
    return predictions / len(forest.estimators_)


# --------------------------------------------------------------------------- #
# core: the one-shot comparison sweep
# --------------------------------------------------------------------------- #
def comparison_one_shot(
    manager, drivers: Sequence[str], amounts: Sequence[float], mode: str = "percentage"
) -> list[float]:
    """KPI of every (driver, amount) point of a comparison sweep, driver-major.

    Every perturbed matrix is stacked into one ``predict_rows_matrix`` pass
    and each slice aggregated on its own; amount 0 reads the baseline KPI.
    The values equal :func:`repro.core.sensitivity.run_comparison`'s bit for
    bit.
    """
    X = manager.driver_matrix()
    sweep = [(driver, float(amount)) for driver in drivers for amount in amounts]
    moved = [
        Perturbation(driver, amount, mode).apply_to_matrix(X, manager.drivers)
        for driver, amount in sweep
        if amount != 0
    ]
    rows = manager.predict_rows_matrix(np.vstack(moved)) if moved else None
    n = X.shape[0]
    kpis = iter(manager.kpi.aggregate(rows[i * n : (i + 1) * n]) for i in range(len(moved)))
    return [manager.baseline_kpi() if amount == 0 else float(next(kpis)) for _, amount in sweep]
