"""Joins for the dataframe substrate.

Business datasets in the paper's use cases come from several operational
systems (CRM activity logs, marketing spend, support interactions).  The
backend needs to combine them before driver/KPI analysis, so the frame layer
supports hash joins on one or more key columns.

The join is columnar: key columns are factorized into a shared code space
(:func:`repro.frame.kernels.join_indices`), matching left/right row-index
arrays are computed with one argsort + searchsorted, and result columns are
gathered with ``Column.take`` — no per-row dicts.  The original per-row
nested loop is the reference implementation the kernel equivalence tests
compare against (``benchmarks/oracles.py``).  Both paths preserve source
column dtypes when the join result is empty (string keys stay strings
instead of collapsing to zero-length float columns).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .column import Column
from .dataframe import DataFrame
from .errors import JoinError
from .kernels import join_indices

__all__ = ["join_frames"]

_SUPPORTED = ("inner", "left")


def _validate(left: DataFrame, right: DataFrame, keys: list[str], how: str) -> None:
    if how not in _SUPPORTED:
        raise JoinError(f"unsupported join type {how!r}; expected one of {_SUPPORTED}")
    if not keys:
        raise JoinError("at least one join key is required")
    for key in keys:
        if not left.has_column(key):
            raise JoinError(f"join key {key!r} missing from left frame")
        if not right.has_column(key):
            raise JoinError(f"join key {key!r} missing from right frame")


def _renamed_value_columns(
    left: DataFrame, right: DataFrame, keys: list[str], suffix: str
) -> dict[str, str]:
    return {
        name: (name + suffix if left.has_column(name) else name)
        for name in right.columns
        if name not in keys
    }


def _gather_right_column(
    column: Column, name: str, right_idx: np.ndarray, missing: np.ndarray
) -> Column:
    """Gather a right-hand value column along ``right_idx``.

    Rows where ``missing`` is set (unmatched left-join rows) become ``None``
    for string columns and ``NaN`` for numeric ones — which promotes int/bool
    columns to float, the same coercion the row-wise dict path applied.
    """
    if not missing.any():
        return column.take(right_idx).rename(name)
    present = ~missing
    if column.dtype == "string":
        data = np.empty(right_idx.shape[0], dtype=object)
        data[present] = column.values[right_idx[present]]
        return Column(name, data, dtype="string")
    data = np.full(right_idx.shape[0], np.nan)
    data[present] = column.to_numeric()[right_idx[present]]
    return Column(name, data, dtype="float")


def join_frames(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    *,
    how: str = "inner",
    suffix: str = "_right",
) -> DataFrame:
    """Hash-join two frames on the key columns ``on``.

    Parameters
    ----------
    left, right:
        The frames to join.
    on:
        Key column names; must exist in both frames.
    how:
        ``"inner"`` (only matching keys) or ``"left"`` (all left rows; right
        values missing where no match).
    suffix:
        Appended to right-hand column names that collide with left-hand ones.

    Returns
    -------
    DataFrame
        The joined frame: all left columns, then right non-key columns.

    Raises
    ------
    JoinError
        If ``how`` is unsupported or a key column is missing from either side.
    """
    keys = list(on)
    _validate(left, right, keys, how)
    left_idx, right_idx = join_indices(
        [left.column(key) for key in keys],
        [right.column(key) for key in keys],
        how,
    )
    missing = right_idx < 0
    renamed = _renamed_value_columns(left, right, keys, suffix)
    columns = [left.column(name).take(left_idx) for name in left.columns]
    columns.extend(
        _gather_right_column(right.column(name), renamed[name], right_idx, missing)
        for name in renamed
    )
    return DataFrame(columns)
