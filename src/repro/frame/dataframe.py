"""A small columnar DataFrame: the relational substrate under SystemD.

The paper's prototype reads tabular business data (marketing spend, CRM
activity logs, prospect activity counts) into the backend and exposes it to
four what-if functionalities.  In the original system that substrate is pandas
fed from Sigma's warehouse; here it is :class:`DataFrame`, a compact columnar
table built directly on numpy that supports everything the what-if engine,
the server handlers, and the spec executor need:

* construction from column dicts, row records, or numpy matrices;
* column selection / dropping / renaming / reordering;
* row filtering by boolean masks or per-row predicates;
* derived columns (``assign``) used for "hypothesis formula" drivers;
* group-by with the standard aggregations, sorting, sampling, concatenation;
* conversion to a float design matrix for model training;
* JSON-records and CSV round trips for the client/server protocol.

Frames are immutable in the same sense columns are: every operation returns a
new frame, so a perturbed copy of a dataset never aliases the original.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from .column import Column, infer_dtype
from .errors import (
    ColumnNotFoundError,
    DuplicateColumnError,
    EmptyFrameError,
    LengthMismatchError,
    TypeMismatchError,
)

__all__ = ["DataFrame"]


class DataFrame:
    """An ordered collection of equal-length named :class:`~repro.frame.column.Column`.

    Parameters
    ----------
    data:
        Either a mapping of ``name -> values`` (values may be lists, numpy
        arrays, or :class:`Column` instances) or an iterable of ``Column``.
    """

    __slots__ = ("_columns", "_order", "_digest")

    def __init__(
        self,
        data: Mapping[str, Any] | Iterable[Column] | None = None,
    ) -> None:
        self._columns: dict[str, Column] = {}
        self._order: list[str] = []
        # content hash memoised by repro.core.cache.frame_fingerprint; a frame
        # never changes after __init__ (its column arrays are read-only)
        self._digest: str | None = None
        if data is None:
            return
        if isinstance(data, Mapping):
            items: Iterable[tuple[str, Any]] = data.items()
            columns = [
                value if isinstance(value, Column) else Column(name, value)
                for name, value in items
            ]
            columns = [
                col if col.name == name else col.rename(name)
                for (name, _), col in zip(data.items(), columns)
            ]
        else:
            columns = list(data)
        expected: int | None = None
        for column in columns:
            if not isinstance(column, Column):
                raise TypeMismatchError(
                    f"expected Column instances, got {type(column).__name__}"
                )
            if column.name in self._columns:
                raise DuplicateColumnError(column.name)
            if expected is None:
                expected = len(column)
            elif len(column) != expected:
                raise LengthMismatchError(expected, len(column), column.name)
            self._columns[column.name] = column
            self._order.append(column.name)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "DataFrame":
        """Build a frame from a list of row dictionaries.

        Missing keys in individual rows become ``NaN`` (numeric columns) or
        ``None`` (string columns).  Column order follows first appearance.

        Construction is columnar: each column's values are collected in one
        pass and handed to numpy whole, whose object→float cast turns ``None``
        into ``NaN`` in C instead of a second Python comprehension.
        ``infer_dtype`` treats ``None`` as a float marker, so an int or bool
        column with missing entries promotes to ``"float"`` exactly as the
        per-value row path did.
        """
        order: dict[str, None] = {}
        for record in records:
            for key in record:
                order.setdefault(key, None)
        columns = []
        for name in order:
            values = [record.get(name) for record in records]
            columns.append(Column(name, values, dtype=infer_dtype(values)))
        return cls(columns)

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, column_names: Sequence[str]
    ) -> "DataFrame":
        """Build a numeric frame from a 2-D array and a list of column names."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise TypeMismatchError(f"expected a 2-D matrix, got shape {matrix.shape}")
        if matrix.shape[1] != len(column_names):
            raise LengthMismatchError(matrix.shape[1], len(column_names))
        return cls(
            {name: matrix[:, j] for j, name in enumerate(column_names)}
        )

    @classmethod
    def empty(
        cls,
        column_names: Sequence[str] | None = None,
        dtypes: Mapping[str, str] | None = None,
    ) -> "DataFrame":
        """An empty frame, optionally with named zero-length columns.

        ``dtypes`` maps column names to logical dtypes; unnamed columns
        default to ``"float"``.
        """
        if not column_names:
            return cls()
        dtypes = dict(dtypes or {})
        return cls(
            {
                name: Column(name, [], dtype=dtypes.get(name, "float"))
                for name in column_names
            }
        )

    # ------------------------------------------------------------------ #
    # shape and access
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> list[str]:
        """Column names in display order."""
        return list(self._order)

    @property
    def dtypes(self) -> dict[str, str]:
        """Mapping of column name to logical dtype."""
        return {name: self._columns[name].dtype for name in self._order}

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        if not self._order:
            return 0
        return len(self._columns[self._order[0]])

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._order)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_columns)``."""
        return (self.n_rows, self.n_columns)

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, (list, tuple)):
            return self.select(list(key))
        if isinstance(key, slice):
            indices = range(*key.indices(self.n_rows))
            return self.take(list(indices))
        raise TypeError(f"unsupported index type: {type(key).__name__}")

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self._order != other._order:
            return False
        return all(self._columns[name] == other._columns[name] for name in self._order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataFrame(shape={self.shape}, columns={self._order})"

    def column(self, name: str) -> Column:
        """Return the column called ``name``.

        Raises
        ------
        ColumnNotFoundError
            If the column does not exist.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, tuple(self._order)) from None

    def has_column(self, name: str) -> bool:
        """Whether the frame contains a column called ``name``."""
        return name in self._columns

    def row(self, index: int) -> dict[str, Any]:
        """Return row ``index`` as a plain dict (used by per-data analysis)."""
        if not 0 <= index < self.n_rows:
            raise IndexError(f"row index {index} out of range [0, {self.n_rows})")
        return {name: self._columns[name][index] for name in self._order}

    def iterrows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Yield ``(index, row_dict)`` pairs."""
        for index in range(self.n_rows):
            yield index, self.row(index)

    # ------------------------------------------------------------------ #
    # column-level operations
    # ------------------------------------------------------------------ #
    def select(self, names: Sequence[str]) -> "DataFrame":
        """Return a frame restricted to ``names`` (in the given order)."""
        return DataFrame([self.column(name) for name in names])

    def drop(self, names: str | Sequence[str]) -> "DataFrame":
        """Return a frame without the given column(s)."""
        if isinstance(names, str):
            names = [names]
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise ColumnNotFoundError(missing[0], tuple(self._order))
        keep = [name for name in self._order if name not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        """Return a frame with columns renamed per ``mapping``."""
        columns = []
        for name in self._order:
            column = self._columns[name]
            if name in mapping:
                column = column.rename(mapping[name])
            columns.append(column)
        return DataFrame(columns)

    def with_column(self, column: Column | None = None, *, name: str | None = None,
                    values: Any = None) -> "DataFrame":
        """Return a frame with ``column`` added or replaced.

        Either pass a ready :class:`Column`, or ``name=`` and ``values=``.
        Replacement preserves the original column position; new columns are
        appended at the end.
        """
        if column is None:
            if name is None:
                raise TypeMismatchError("with_column requires a Column or name/values")
            column = values if isinstance(values, Column) else Column(name, values)
            if column.name != name:
                column = column.rename(name)
        if self._order and len(column) != self.n_rows:
            raise LengthMismatchError(self.n_rows, len(column), column.name)
        columns = []
        replaced = False
        for existing_name in self._order:
            if existing_name == column.name:
                columns.append(column)
                replaced = True
            else:
                columns.append(self._columns[existing_name])
        if not replaced:
            columns.append(column)
        return DataFrame(columns)

    def assign(self, **derivations: Callable[[dict[str, Any]], Any] | Any) -> "DataFrame":
        """Return a frame with derived columns.

        Each keyword maps a new column name to either a callable evaluated on
        every row dict (how "hypothesis formula" drivers such as *used 3+
        formulas in two weeks* are added) or a constant / sequence of values.
        """
        frame = self
        for name, derivation in derivations.items():
            if callable(derivation):
                values = [derivation(row) for _, row in self.iterrows()]
            elif np.isscalar(derivation) or isinstance(derivation, (bool, str)):
                values = [derivation] * self.n_rows
            else:
                values = derivation
            frame = frame.with_column(name=name, values=values)
        return frame

    def reorder(self, names: Sequence[str]) -> "DataFrame":
        """Return a frame with columns in the order given by ``names``."""
        if set(names) != set(self._order):
            raise ColumnNotFoundError(
                next(iter(set(names) ^ set(self._order))), tuple(self._order)
            )
        return self.select(list(names))

    def numeric_columns(self) -> list[str]:
        """Names of columns usable as model inputs (float/int/bool)."""
        return [name for name in self._order if self._columns[name].is_numeric]

    def string_columns(self) -> list[str]:
        """Names of textual columns (excluded from model training, paper view D)."""
        return [name for name in self._order if not self._columns[name].is_numeric]

    # ------------------------------------------------------------------ #
    # row-level operations
    # ------------------------------------------------------------------ #
    def take(self, indices: Sequence[int] | np.ndarray) -> "DataFrame":
        """Return the rows at ``indices`` (in that order)."""
        return DataFrame([self._columns[name].take(indices) for name in self._order])

    def mask(self, predicate: np.ndarray) -> "DataFrame":
        """Return the rows where the boolean array ``predicate`` is True."""
        predicate = np.asarray(predicate, dtype=bool)
        if predicate.shape[0] != self.n_rows:
            raise LengthMismatchError(self.n_rows, int(predicate.shape[0]))
        return DataFrame([self._columns[name].mask(predicate) for name in self._order])

    def filter(self, predicate: Callable[[dict[str, Any]], bool] | np.ndarray) -> "DataFrame":
        """Filter rows by a per-row predicate function or a boolean mask."""
        if callable(predicate):
            mask = np.array(
                [bool(predicate(row)) for _, row in self.iterrows()], dtype=bool
            )
        else:
            mask = np.asarray(predicate, dtype=bool)
        return self.mask(mask)

    def head(self, n: int = 5) -> "DataFrame":
        """First ``n`` rows."""
        return self.take(list(range(min(n, self.n_rows))))

    def tail(self, n: int = 5) -> "DataFrame":
        """Last ``n`` rows."""
        start = max(0, self.n_rows - n)
        return self.take(list(range(start, self.n_rows)))

    def sample(
        self, n: int, *, replace: bool = False, random_state: int | None = None
    ) -> "DataFrame":
        """Random sample of ``n`` rows."""
        rng = np.random.default_rng(random_state)
        if not replace and n > self.n_rows:
            raise EmptyFrameError(
                f"cannot sample {n} rows without replacement from {self.n_rows}"
            )
        indices = rng.choice(self.n_rows, size=n, replace=replace)
        return self.take(indices)

    def sort_values(self, by: str, *, ascending: bool = True) -> "DataFrame":
        """Return the frame sorted by column ``by``.

        The sort is stable in both directions — rows with equal keys keep
        their original order — and NaN keys sort last either way.  (Reversing
        an ascending stable argsort would do neither: it flips ties and moves
        NaNs to the front, so descending sorts argsort a negated key instead.)
        """
        column = self.column(by)
        if column.is_numeric:
            keys = column.to_numeric()
            # negating the keys keeps NaNs NaN, so argsort still places them
            # last, and stability keeps ties in original row order
            order = np.argsort(keys if ascending else -keys, kind="stable")
        else:
            rendered = np.array([str(v) for v in column])
            if ascending:
                order = np.argsort(rendered, kind="stable")
            else:
                _, codes = np.unique(rendered, return_inverse=True)
                order = np.argsort(-codes, kind="stable")
        return self.take(order)

    def concat_rows(self, other: "DataFrame") -> "DataFrame":
        """Stack ``other`` below this frame (columns must match)."""
        if self.n_columns == 0:
            return other
        if other.n_columns == 0:
            return self
        if set(self._order) != set(other._order):
            raise ColumnNotFoundError(
                next(iter(set(self._order) ^ set(other._order))), tuple(self._order)
            )
        columns = []
        for name in self._order:
            left = self._columns[name]
            right = other._columns[name]
            dtype = left.dtype if left.dtype == right.dtype else "float"
            if "string" in (left.dtype, right.dtype) and left.dtype != right.dtype:
                dtype = "string"
            values = list(left.tolist()) + list(right.tolist())
            columns.append(Column(name, values, dtype=dtype))
        return DataFrame(columns)

    def drop_missing(self, subset: Sequence[str] | None = None) -> "DataFrame":
        """Drop rows with missing values in ``subset`` (default: all columns)."""
        names = list(subset) if subset is not None else self._order
        if not names:
            return self
        mask = np.zeros(self.n_rows, dtype=bool)
        for name in names:
            mask |= self.column(name).isna()
        return self.mask(~mask)

    def with_row_updated(self, index: int, updates: Mapping[str, Any]) -> "DataFrame":
        """Return a copy with the row at ``index`` updated per ``updates``.

        This is the primitive behind per-data sensitivity analysis: perturb a
        single prospect/customer and re-predict its KPI.
        """
        frame_columns = []
        for name in self._order:
            column = self._columns[name]
            if name in updates:
                column = column.with_value_at(index, updates[name])
            frame_columns.append(column)
        return DataFrame(frame_columns)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, dict[str, Any]]:
        """Per-column summary statistics (table view metadata)."""
        return {name: self._columns[name].describe() for name in self._order}

    def aggregate(self, aggregations: Mapping[str, str]) -> dict[str, float]:
        """Aggregate columns with named reducers.

        ``aggregations`` maps column name to a reducer name from
        :data:`~repro.frame.kernels.COLUMN_REDUCERS` (``"sum"``, ``"mean"``,
        ``"min"``, ``"max"``, ``"median"``, ``"std"``, ``"count"``,
        ``"nunique"``) — the same table ``GroupBy.agg`` validates against.
        """
        from .kernels import COLUMN_REDUCERS

        result: dict[str, float] = {}
        for name, how in aggregations.items():
            if how not in COLUMN_REDUCERS:
                raise TypeMismatchError(
                    f"unknown aggregation {how!r}; expected one of "
                    f"{sorted(COLUMN_REDUCERS)}"
                )
            result[name] = COLUMN_REDUCERS[how](self.column(name))
        return result

    def groupby(self, by: str | Sequence[str]):
        """Group rows by one or more key columns.

        Returns a :class:`repro.frame.groupby.GroupBy` supporting ``agg``,
        ``size`` and iteration over ``(key, subframe)`` pairs.
        """
        from .groupby import GroupBy

        keys = [by] if isinstance(by, str) else list(by)
        return GroupBy(self, keys)

    def join(self, other: "DataFrame", on: str | Sequence[str], how: str = "inner") -> "DataFrame":
        """Join with ``other`` on key column(s) ``on`` (``inner`` or ``left``)."""
        from .join import join_frames

        keys = [on] if isinstance(on, str) else list(on)
        return join_frames(self, other, keys, how=how)

    # ------------------------------------------------------------------ #
    # model-facing conversions
    # ------------------------------------------------------------------ #
    def to_matrix(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Return a ``float64`` design matrix for the given (numeric) columns."""
        names = list(columns) if columns is not None else self.numeric_columns()
        if not names:
            raise EmptyFrameError("no numeric columns available for a design matrix")
        arrays = [self.column(name).to_numeric() for name in names]
        return np.column_stack(arrays) if arrays else np.empty((self.n_rows, 0))

    def to_vector(self, column: str) -> np.ndarray:
        """Return a single column as a ``float64`` vector (model target)."""
        return self.column(column).to_numeric()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_records(self) -> list[dict[str, Any]]:
        """Return the frame as a list of row dicts (JSON-safe)."""
        return [row for _, row in self.iterrows()]

    def to_dict(self) -> dict[str, list[Any]]:
        """Return the frame as ``{column: values}`` with native scalars."""
        return {name: self._columns[name].tolist() for name in self._order}

    def to_csv(self, path: str, *, delimiter: str = ",") -> None:
        """Write the frame to a CSV file."""
        from .io import write_csv

        write_csv(self, path, delimiter=delimiter)

    @classmethod
    def read_csv(cls, path: str, *, delimiter: str = ",") -> "DataFrame":
        """Read a CSV file into a frame (dtypes inferred)."""
        from .io import read_csv

        return read_csv(path, delimiter=delimiter)

    def copy(self) -> "DataFrame":
        """Deep-ish copy (column arrays are copied)."""
        return DataFrame([self._columns[name].copy() for name in self._order])
