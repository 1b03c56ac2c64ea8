"""Group-by support for the dataframe substrate.

Slicing and dicing — "retention per customer cohort", "sales per media channel
per month" — is exactly the exploratory workload the paper says business users
currently perform by hand.  The what-if engine itself only needs whole-table
model training, but the server layer and the spec executor expose group-by so
that analyses can be run per cohort, so we implement the standard split-apply-
combine here.

The grouping itself is columnar (see :mod:`repro.frame.kernels`): key columns
are factorized to integer codes, combined into one group-id array, and a
single stable argsort yields every group's row indices.  Aggregations run as
segment reductions over that permutation — no per-group sub-frame is built
unless the caller iterates.  The original per-row tuple loop is the
reference implementation the kernel equivalence tests compare against; it
lives with the other oracles in ``benchmarks/oracles.py``.

One behavioural fix falls out of factorization: float ``NaN`` keys all land
in a single group, where the tuple-key dict fragmented them into per-row
singletons because ``NaN != NaN``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Iterator

import numpy as np

from .column import Column
from .dataframe import DataFrame
from .errors import TypeMismatchError
from .kernels import COLUMN_REDUCERS, group_index, segment_reduce, trivial_group_index

__all__ = ["GroupBy"]


class GroupBy:
    """Lazily grouped view of a :class:`~repro.frame.dataframe.DataFrame`.

    Parameters
    ----------
    frame:
        Source frame.
    keys:
        Names of the key columns to group on.
    """

    def __init__(self, frame: DataFrame, keys: Sequence[str]) -> None:
        self._frame = frame
        self._keys = list(keys)
        for key in self._keys:
            frame.column(key)  # raises ColumnNotFoundError early
        if self._keys:
            self._index = group_index([frame.column(key) for key in self._keys])
        else:  # zero keys: one () group holding every row
            self._index = trivial_group_index(frame.n_rows)
        self._group_map: dict[tuple[Any, ...], np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    @property
    def keys(self) -> list[str]:
        """The grouping column names."""
        return list(self._keys)

    @property
    def n_groups(self) -> int:
        """Number of distinct key combinations."""
        return self._index.n_groups

    def group_keys(self) -> list[tuple[Any, ...]]:
        """Group key tuples in first-appearance order."""
        key_columns = [self._frame.column(key) for key in self._keys]
        return [
            tuple(column[int(row)] for column in key_columns)
            for row in self._index.first_rows
        ]

    def indices(self) -> dict[tuple[Any, ...], np.ndarray]:
        """Mapping of group key to its row-index array (first-appearance order).

        The arrays are views into the group permutation — callers that only
        need sizes or a few cohorts avoid materializing any sub-frame.
        """
        if self._group_map is None:
            self._group_map = {
                key: self._index.segment(group)
                for group, key in enumerate(self.group_keys())
            }
        return dict(self._group_map)

    def __iter__(self) -> Iterator[tuple[tuple[Any, ...], DataFrame]]:
        for key, row_indices in self.indices().items():
            yield key, self._frame.take(row_indices)

    def groups(self) -> dict[tuple[Any, ...], list[int]]:
        """Mapping of group key to row indices (as plain lists)."""
        return {
            key: [int(i) for i in row_indices]
            for key, row_indices in self.indices().items()
        }

    def get_group(self, key: tuple[Any, ...] | Any) -> DataFrame:
        """Return the sub-frame for one group key."""
        if not isinstance(key, tuple):
            key = (key,)
        groups = self.indices()
        if key not in groups:
            raise KeyError(f"group {key!r} not found")
        return self._frame.take(groups[key])

    # ------------------------------------------------------------------ #
    # columnar aggregation
    # ------------------------------------------------------------------ #
    def _key_columns_at_first_rows(self) -> list[Column]:
        """Key columns restricted to each group's first row (dtype-preserving)."""
        return [
            self._frame.column(key).take(self._index.first_rows)
            for key in self._keys
        ]

    def size(self) -> DataFrame:
        """Group sizes as a frame with the key columns plus ``"size"``."""
        columns = self._key_columns_at_first_rows()
        columns.append(Column("size", self._index.counts, dtype="int"))
        return DataFrame(columns)

    def agg(self, aggregations: Mapping[str, str]) -> DataFrame:
        """Aggregate each group.

        ``aggregations`` maps value-column name to a reducer name (``sum``,
        ``mean``, ``min``, ``max``, ``median``, ``std``, ``count``,
        ``nunique``).  The result has one row per group, with the key columns
        followed by columns named ``"<column>_<reducer>"``.

        Reducer names are the keys of
        :data:`~repro.frame.kernels.COLUMN_REDUCERS` — the same table
        ``DataFrame.aggregate`` uses — and every aggregation runs as a
        segment reduction over the grouped permutation.
        """
        for column, how in aggregations.items():
            if how not in COLUMN_REDUCERS:
                raise TypeMismatchError(
                    f"unknown aggregation {how!r}; expected one of "
                    f"{sorted(COLUMN_REDUCERS)}"
                )
            self._frame.column(column)
        columns = self._key_columns_at_first_rows()
        for name, how in aggregations.items():
            reduced = segment_reduce(self._frame.column(name), self._index, how)
            columns.append(Column(f"{name}_{how}", reduced, dtype="float"))
        return DataFrame(columns)

    def apply(self, func) -> dict[tuple[Any, ...], Any]:
        """Apply ``func`` to every group's sub-frame; return key -> result."""
        return {
            key: func(self._frame.take(row_indices))
            for key, row_indices in self.indices().items()
        }

    def mean(self, columns: Sequence[str] | None = None) -> DataFrame:
        """Convenience: per-group mean of ``columns`` (default: numeric non-keys)."""
        if columns is None:
            columns = [
                name
                for name in self._frame.numeric_columns()
                if name not in self._keys
            ]
        return self.agg({name: "mean" for name in columns})
