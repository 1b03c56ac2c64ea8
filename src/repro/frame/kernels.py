"""Columnar kernels for the frame layer's hot paths.

The what-if loop slices and dices constantly — "retention per cohort", "sales
per channel per month" — and after the tree kernels (:mod:`repro.ml.kernel`)
removed model scoring from the critical path, the frame layer's per-row Python
loops became the dominant cost of per-cohort analyses.  This module applies
the same compile-to-numpy-arrays pattern to the relational substrate:

* **Key factorization** (:func:`group_index`): every grouping column is
  factorized to dense integer codes — :func:`numpy.unique` for numeric
  columns, one hashing pass for string columns (sorting unicode is several
  times slower than hashing it) — the per-column codes are combined into a
  single group-id array, and one stable argsort yields every group's row
  indices as contiguous segments of one permutation.
  Missing keys (float ``NaN`` / string ``None``) share a single code per
  column, so all-NaN keys land in *one* group instead of fragmenting into
  per-row singletons the way ``NaN != NaN`` tuple keys do.
* **Segment reductions** (:func:`segment_reduce`): aggregations run over the
  grouped permutation with ``np.<ufunc>.reduceat`` — no per-group sub-frame is
  ever materialized.  NaN handling matches the ``np.nan*`` reducers the
  row-wise path uses (order of summation differs, so float results agree to
  rounding, not bitwise).
* **Hash-join indices** (:func:`join_indices`): join keys are factorized over
  the concatenation of both sides so equal values share codes across frames,
  and the matching left/right row-index arrays are built with searchsorted +
  ``np.repeat`` arithmetic.  The caller gathers result columns with
  ``Column.take`` instead of building per-row dicts.

The row-wise reference implementations of group-by, join and
``from_records`` live in ``benchmarks/oracles.py``, next to the recursive
tree walk, so equivalence is property-tested the same way the tree kernels
are.

:data:`COLUMN_REDUCERS` is the single reducer table shared by
``DataFrame.aggregate`` and the row-wise group-by path; the vectorized
segment reducers dispatch on the same names, so the two layers can never
drift apart on which aggregations exist.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .column import Column
from .errors import TypeMismatchError

__all__ = [
    "COLUMN_REDUCERS",
    "GroupIndex",
    "group_index",
    "trivial_group_index",
    "segment_reduce",
    "join_indices",
]

#: The one reducer table for whole-column aggregation.  Keys double as the
#: valid ``how`` names for ``DataFrame.aggregate`` and ``GroupBy.agg``; the
#: callables are the row-wise reference semantics the segment reducers must
#: reproduce.  ``std`` of a single-row column is 0.0 (a one-point sample has
#: no spread), matching ``Column.describe``.
COLUMN_REDUCERS: dict[str, Callable[[Column], float]] = {
    "sum": lambda c: c.sum(),
    "mean": lambda c: c.mean(),
    "min": lambda c: c.min(),
    "max": lambda c: c.max(),
    "median": lambda c: c.median(),
    "std": lambda c: 0.0 if len(c) <= 1 else c.std(),
    "count": lambda c: float(len(c)),
    "nunique": lambda c: float(c.nunique()),
}


# --------------------------------------------------------------------------- #
# factorization
# --------------------------------------------------------------------------- #
def _factorize_float(values: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense codes for a float array; all NaNs share the final code."""
    nan_mask = np.isnan(values)
    codes = np.zeros(values.shape[0], dtype=np.int64)
    present = values[~nan_mask]
    size = 0
    if present.size:
        uniques, inverse = np.unique(present, return_inverse=True)
        codes[~nan_mask] = inverse
        size = int(uniques.size)
    if nan_mask.any():
        codes[nan_mask] = size
        size += 1
    return codes, max(size, 1), nan_mask


def _factorize_object(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense first-appearance codes for a string/object array.

    One dict pass instead of ``np.unique``: sorting tens of thousands of
    unicode values costs several times more than hashing them, and the dict
    hands out codes in first-appearance order, which is exactly the group
    numbering the frame layer exposes.  ``None`` is a regular key, so missing
    strings share one code (and ``None`` joins against ``None``, matching
    Python dict-index semantics).
    """
    codes = [0] * values.shape[0]
    table: dict[Any, int] = {}
    for position, value in enumerate(values):
        try:
            codes[position] = table[value]
        except KeyError:
            table[value] = codes[position] = len(table)
    return np.asarray(codes, dtype=np.int64), max(len(table), 1)


def _factorize_column(column: Column) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Factorize one column; returns ``(codes, code_space, nan_mask_or_None)``.

    The NaN mask is only reported for float columns — joins need it because
    ``NaN`` keys must never match across frames, while ``None`` string keys do
    match (mirroring Python ``None == None`` in the row-wise dict index).
    """
    if column.dtype == "string":
        codes, size = _factorize_object(column.values)
        return codes, size, None
    if column.dtype == "float":
        return _factorize_float(column.values)
    uniques, inverse = np.unique(column.values, return_inverse=True)
    return inverse.astype(np.int64), max(int(uniques.size), 1), None


def _combine_codes(parts: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """Mix per-column codes into one id array in ``[0, space)``
    (re-compressing before the running code space could overflow ``int64``)."""
    combined, space = parts[0]
    combined = combined.astype(np.int64, copy=True)
    for codes, size in parts[1:]:
        if space * size > 2**62:
            uniques, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64)
            space = int(uniques.size)
        combined = combined * size + codes
        space *= size
    return combined, space


@dataclass(frozen=True)
class GroupIndex:
    """The factorized form of a group-by: one permutation plus segment offsets.

    Attributes
    ----------
    codes:
        Per-row group id in ``[0, n_groups)``, numbered in first-appearance
        order (so iteration matches the row-wise dict-insertion order).
    order:
        Row indices sorted by group id (stable, so rows inside a group keep
        their original order).
    starts:
        Offset of each group's first row inside ``order``.
    counts:
        Rows per group.
    first_rows:
        Original row index of each group's first occurrence — where key
        values are read from when building result frames.
    n_groups:
        Number of distinct key combinations.
    """

    codes: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    first_rows: np.ndarray
    n_groups: int

    def segment(self, group: int) -> np.ndarray:
        """Row indices of one group (a view into ``order``)."""
        start = int(self.starts[group])
        return self.order[start : start + int(self.counts[group])]


def trivial_group_index(n_rows: int) -> GroupIndex:
    """The zero-key grouping: every row in one ``()`` group (none when empty)."""
    n_groups = 1 if n_rows else 0
    return GroupIndex(
        codes=np.zeros(n_rows, dtype=np.int64),
        order=np.arange(n_rows, dtype=np.int64),
        starts=np.zeros(n_groups, dtype=np.int64),
        counts=np.full(n_groups, n_rows, dtype=np.int64),
        first_rows=np.zeros(n_groups, dtype=np.int64),
        n_groups=n_groups,
    )


def group_index(key_columns: Sequence[Column]) -> GroupIndex:
    """Factorize ``key_columns`` into a :class:`GroupIndex`.

    Per-column codes come from :func:`numpy.unique`; the combined id array is
    relabelled into first-appearance order and argsorted once, replacing the
    per-row tuple/dict loop of the row-wise path.
    """
    if not key_columns:
        raise ValueError("group_index requires at least one key column")
    parts = [(codes, size) for codes, size, _ in map(_factorize_column, key_columns)]
    combined, space = _combine_codes(parts)
    n_rows = int(combined.shape[0])
    if space <= max(4 * n_rows, 1024):
        # dense relabel: a reverse-order scatter leaves each id's *first* row
        # behind, so no second sort over the combined ids is needed
        first = np.full(space, -1, dtype=np.int64)
        first[combined[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
        present = np.flatnonzero(first >= 0)
        n_groups = int(present.size)
        appearance = np.argsort(first[present], kind="stable")
        rank = np.empty(space, dtype=np.int64)
        rank[present[appearance]] = np.arange(n_groups, dtype=np.int64)
        codes = rank[combined]
        first_rows = first[present][appearance]
    else:
        _, first_pos, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        n_groups = int(first_pos.size)
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(n_groups, dtype=np.int64)
        rank[appearance] = np.arange(n_groups, dtype=np.int64)
        codes = rank[inverse]
        first_rows = first_pos[appearance].astype(np.int64)
    order = np.argsort(codes, kind="stable").astype(np.int64)
    counts = np.bincount(codes, minlength=n_groups).astype(np.int64)
    starts = np.zeros(n_groups, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return GroupIndex(
        codes=codes,
        order=order,
        starts=starts,
        counts=counts,
        first_rows=first_rows,
        n_groups=n_groups,
    )


# --------------------------------------------------------------------------- #
# segment reductions
# --------------------------------------------------------------------------- #
def segment_reduce(column: Column, index: GroupIndex, how: str) -> np.ndarray:
    """Reduce ``column`` per group of ``index``; returns one float per group.

    ``sum``/``mean``/``min``/``max``/``count`` run as single ``reduceat``
    passes over the grouped permutation; ``median``/``std``/``nunique`` loop
    over the *groups* (never the rows), slicing the same permuted array.  NaN
    semantics match the ``np.nan*`` reducers of the row-wise path.
    """
    if how not in COLUMN_REDUCERS:
        raise TypeMismatchError(
            f"unknown aggregation {how!r}; expected one of {sorted(COLUMN_REDUCERS)}"
        )
    if how == "count":
        return index.counts.astype(np.float64)
    if index.n_groups == 0:
        return np.zeros(0, dtype=np.float64)
    starts, counts = index.starts, index.counts
    if how == "nunique":
        if column.dtype == "string":
            values = column.values[index.order]
            return np.array(
                [
                    float(len(set(values[s : s + c].tolist())))
                    for s, c in zip(starts, counts)
                ],
                dtype=np.float64,
            )
        values = column.to_numeric()[index.order]
        out = np.empty(index.n_groups, dtype=np.float64)
        for g, (s, c) in enumerate(zip(starts, counts)):
            segment = values[s : s + c]
            nan = np.isnan(segment)
            out[g] = float(np.unique(segment[~nan]).size) + float(nan.any())
        return out
    values = column.to_numeric()[index.order]
    nan = np.isnan(values)
    if how == "sum":
        return np.add.reduceat(np.where(nan, 0.0, values), starts)
    if how == "mean":
        sums = np.add.reduceat(np.where(nan, 0.0, values), starts)
        valid = np.add.reduceat((~nan).astype(np.float64), starts)
        out = np.full(index.n_groups, np.nan)
        np.divide(sums, valid, out=out, where=valid > 0)
        return out
    if how in ("min", "max"):
        fill = np.inf if how == "min" else -np.inf
        ufunc = np.minimum if how == "min" else np.maximum
        out = ufunc.reduceat(np.where(nan, fill, values), starts)
        valid = np.add.reduceat((~nan).astype(np.float64), starts)
        out[valid == 0] = np.nan
        return out
    out = np.empty(index.n_groups, dtype=np.float64)
    for g, (s, c) in enumerate(zip(starts, counts)):
        segment = values[s : s + c]
        if how == "median":
            finite = segment[~np.isnan(segment)]
            out[g] = float(np.median(finite)) if finite.size else np.nan
        else:  # std
            out[g] = 0.0 if c <= 1 else float(np.nanstd(segment, ddof=1))
    return out


# --------------------------------------------------------------------------- #
# hash-join indices
# --------------------------------------------------------------------------- #
def _factorize_pair(
    left: Column, right: Column
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None, np.ndarray | None]:
    """Factorize one join-key pair into a *shared* code space.

    Numeric pairs factorize over the concatenated float values (so ``1`` in an
    int column matches ``1.0`` in a float column, as Python equality does in
    the row-wise dict index); string pairs share ``None`` as a regular value.
    A numeric/string pair can never compare equal, so each side gets a
    disjoint code range and simply produces no matches.
    """
    n_left = len(left)
    left_string = left.dtype == "string"
    right_string = right.dtype == "string"
    if left_string and right_string:
        codes, size = _factorize_object(
            np.concatenate([left.values, right.values])
        )
        return codes[:n_left], codes[n_left:], size, None, None
    if not left_string and not right_string:
        codes, size, nan_mask = _factorize_float(
            np.concatenate([left.to_numeric(), right.to_numeric()])
        )
        return codes[:n_left], codes[n_left:], size, nan_mask[:n_left], nan_mask[n_left:]
    left_codes, left_size, left_nan = _factorize_column(left)
    right_codes, right_size, right_nan = _factorize_column(right)
    return left_codes, right_codes + left_size, left_size + right_size, left_nan, right_nan


def join_indices(
    left_keys: Sequence[Column],
    right_keys: Sequence[Column],
    how: str = "inner",
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the row-index arrays of a hash join on factorized keys.

    Returns ``(left_idx, right_idx)`` such that row ``i`` of the joined frame
    is left row ``left_idx[i]`` matched with right row ``right_idx[i]``;
    ``right_idx`` is ``-1`` where a left join kept an unmatched left row.
    Match order replicates the row-wise nested loop: left rows in order, and
    within one left row its right matches in ascending right-row order.

    ``NaN`` keys never match (on either side); ``None`` string keys match each
    other, exactly as in the row-wise dict index.
    """
    n_left = len(left_keys[0]) if left_keys else 0
    n_right = len(right_keys[0]) if right_keys else 0
    parts: list[tuple[np.ndarray, int]] = []
    left_nan_any = np.zeros(n_left, dtype=bool)
    right_nan_any = np.zeros(n_right, dtype=bool)
    for left_col, right_col in zip(left_keys, right_keys):
        left_codes, right_codes, size, left_nan, right_nan = _factorize_pair(
            left_col, right_col
        )
        parts.append((np.concatenate([left_codes, right_codes]), size))
        # mixed-dtype key pairs report a NaN mask for only their numeric side
        if left_nan is not None:
            left_nan_any |= left_nan
        if right_nan is not None:
            right_nan_any |= right_nan
    combined, _ = _combine_codes(parts)
    left_ids = combined[:n_left].copy()
    right_ids = combined[n_left:].copy()
    # NaN keys get sentinel ids in disjoint negative ranges so a NaN on one
    # side can never find a NaN on the other.
    left_ids[left_nan_any] = -1
    right_ids[right_nan_any] = -2

    right_order = np.argsort(right_ids, kind="stable").astype(np.int64)
    right_sorted = right_ids[right_order]
    lo = np.searchsorted(right_sorted, left_ids, side="left")
    hi = np.searchsorted(right_sorted, left_ids, side="right")
    counts = (hi - lo).astype(np.int64)

    if how == "inner":
        out_counts = counts
    else:  # left join: unmatched left rows still emit one output row
        out_counts = np.maximum(counts, 1)
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(n_left, dtype=np.int64), out_counts)
    offsets = np.cumsum(out_counts) - out_counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, out_counts)
    positions = np.repeat(lo, out_counts) + within
    if how == "inner":
        right_idx = (
            right_order[positions] if total else np.zeros(0, dtype=np.int64)
        )
        return left_idx, right_idx
    matched = np.repeat(counts > 0, out_counts)
    if n_right:
        gathered = right_order[np.where(matched, positions, 0)]
    else:
        gathered = np.zeros(total, dtype=np.int64)
    right_idx = np.where(matched, gathered, np.int64(-1))
    return left_idx, right_idx
