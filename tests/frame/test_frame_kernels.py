"""Equivalence and regression tests for the columnar frame kernels.

The columnar group-by/join/from_records paths must return the same results as
the row-wise reference implementations they replaced (``benchmarks/oracles.py``;
the same contract the tree kernels honour against the recursive walk), and the
three row-path bugs the vectorization exposed — unstable descending sort,
dtype-erasing empty joins, NaN group-key fragmentation — each get a regression
lock.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.oracles import (
    agg_rowwise,
    build_groups_rowwise,
    from_records_rowwise,
    join_rowwise,
    size_rowwise,
)
from repro.frame import (
    COLUMN_REDUCERS,
    Column,
    DataFrame,
    TypeMismatchError,
    group_index,
    join_frames,
)


def _is_missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def assert_frames_match(actual: DataFrame, expected: DataFrame) -> None:
    """Value-level frame equality: missing is missing, floats to tolerance.

    Dtype-tolerant on purpose: the row-wise paths re-infer dtypes from row
    dicts (e.g. an all-``None`` string column comes back as float NaNs) while
    the columnar paths preserve the source dtype.
    """
    assert actual.columns == expected.columns
    assert actual.n_rows == expected.n_rows
    for name in expected.columns:
        got = actual.column(name).tolist()
        want = expected.column(name).tolist()
        for row, (a, b) in enumerate(zip(got, want)):
            if _is_missing(a) or _is_missing(b):
                assert _is_missing(a) and _is_missing(b), (name, row, a, b)
            elif isinstance(a, float) or isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12), (name, row)
            else:
                assert a == b, (name, row, a, b)


# --------------------------------------------------------------------------- #
# randomized frames: string keys with None, int/bool keys, float values with
# NaN, plenty of ties
# --------------------------------------------------------------------------- #
float_values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.just(float("nan")),
)


@st.composite
def keyed_frames(draw):
    n_rows = draw(st.integers(min_value=1, max_value=30))

    def rows(strategy):
        return draw(st.lists(strategy, min_size=n_rows, max_size=n_rows))

    return DataFrame(
        {
            "key_s": Column(
                "key_s",
                rows(st.sampled_from(["east", "west", "north", None])),
                dtype="string",
            ),
            "key_i": rows(st.integers(min_value=0, max_value=2)),
            "flag": rows(st.booleans()),
            "value": Column("value", rows(float_values), dtype="float"),
            "clicks": rows(st.integers(min_value=-5, max_value=5)),
        }
    )


@given(keyed_frames(), st.sampled_from(sorted(COLUMN_REDUCERS)))
@settings(max_examples=60, deadline=None)
def test_groupby_agg_matches_rowwise(frame, how):
    grouped = frame.groupby(["key_s", "key_i"])
    aggregations = {"value": how, "clicks": how}
    if how == "nunique":
        aggregations["key_s"] = how  # string nunique crashed the old reducer table
    assert_frames_match(grouped.agg(aggregations), agg_rowwise(grouped, aggregations))


@given(keyed_frames(), st.sampled_from([["key_s"], ["key_i", "flag"], ["key_s", "key_i"]]))
@settings(max_examples=60, deadline=None)
def test_groupby_structure_matches_rowwise(frame, keys):
    grouped = frame.groupby(keys)
    rowwise = build_groups_rowwise(grouped)
    assert grouped.groups() == rowwise
    assert list(grouped.groups()) == list(rowwise)  # first-appearance order
    assert grouped.n_groups == len(rowwise)
    assert_frames_match(grouped.size(), size_rowwise(grouped))


@given(keyed_frames(), keyed_frames(), st.sampled_from(["inner", "left"]))
@settings(max_examples=60, deadline=None)
def test_join_matches_rowwise(left, right, how):
    right = right.select(["key_s", "key_i", "value", "clicks"])
    for keys in (["key_s"], ["key_s", "key_i"]):
        assert_frames_match(
            join_frames(left, right, keys, how=how),
            join_rowwise(left, right, keys, how=how),
        )


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("flip", [False, True])
def test_join_on_mixed_dtype_keys_matches_rowwise(how, flip):
    # a float key can never equal a string key, so such joins match nothing —
    # and must not crash combining the one-sided NaN masks
    numeric = DataFrame(
        {"k": Column("k", [1.0, float("nan"), 2.0], dtype="float"), "a": [10.0, 20.0, 30.0]}
    )
    textual = DataFrame(
        {"k": Column("k", ["1", "2", None], dtype="string"), "b": [1, 2, 3]}
    )
    left, right = (textual, numeric) if flip else (numeric, textual)
    assert_frames_match(
        join_frames(left, right, ["k"], how=how),
        join_rowwise(left, right, ["k"], how=how),
    )


@st.composite
def record_lists(draw):
    n_rows = draw(st.integers(min_value=0, max_value=20))
    fields = {
        "a": float_values,
        "b": st.integers(min_value=-10, max_value=10),
        "c": st.sampled_from(["x", "y", None]),
        "d": st.booleans(),
    }
    records = []
    for _ in range(n_rows):
        present = draw(
            st.lists(st.sampled_from(sorted(fields)), min_size=0, max_size=4, unique=True)
        )
        records.append({name: draw(fields[name]) for name in present})
    return records


@given(record_lists())
@settings(max_examples=60, deadline=None)
def test_from_records_matches_rowwise(records):
    assert DataFrame.from_records(records) == from_records_rowwise(records)


# --------------------------------------------------------------------------- #
# regression: descending sort is stable with NaNs last
# --------------------------------------------------------------------------- #
class TestDescendingSort:
    @pytest.fixture()
    def tied_frame(self):
        return DataFrame(
            {
                "row": [0, 1, 2, 3, 4, 5],
                "v": Column(
                    "v", [2.0, float("nan"), 1.0, 2.0, float("nan"), 3.0], dtype="float"
                ),
                "s": Column("s", ["b", "a", "b", "c", "a", "b"], dtype="string"),
            }
        )

    def test_numeric_descending_nans_last_ties_stable(self, tied_frame):
        ordered = tied_frame.sort_values("v", ascending=False)
        values = ordered.column("v").tolist()
        assert values[:4] == [3.0, 2.0, 2.0, 1.0]
        assert all(math.isnan(v) for v in values[4:])
        # ties (the two 2.0s) and NaNs keep original row order
        assert ordered.column("row").tolist() == [5, 0, 3, 2, 1, 4]

    def test_numeric_ascending_unchanged(self, tied_frame):
        ordered = tied_frame.sort_values("v")
        assert ordered.column("v").tolist()[:4] == [1.0, 2.0, 2.0, 3.0]
        assert ordered.column("row").tolist() == [2, 0, 3, 5, 1, 4]

    def test_string_descending_is_stable(self, tied_frame):
        ordered = tied_frame.sort_values("s", ascending=False)
        assert ordered.column("s").tolist() == ["c", "b", "b", "b", "a", "a"]
        assert ordered.column("row").tolist() == [3, 0, 2, 5, 1, 4]

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.just(float("nan"))),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_descending_is_reverse_sorted_with_nans_last(self, values):
        frame = DataFrame(
            {"row": list(range(len(values))), "v": Column("v", values, dtype="float")}
        )
        ordered = frame.sort_values("v", ascending=False).column("v").to_numeric()
        finite = ordered[~np.isnan(ordered)]
        assert np.all(np.diff(finite) <= 0)
        assert not np.isnan(ordered[: finite.size]).any()


# --------------------------------------------------------------------------- #
# regression: empty join results preserve source dtypes
# --------------------------------------------------------------------------- #
class TestEmptyJoinDtypes:
    @pytest.fixture()
    def disjoint(self):
        left = DataFrame(
            {
                "account": Column("account", ["a", "b"], dtype="string"),
                "spend": [1.0, 2.0],
                "clicks": [1, 2],
            }
        )
        right = DataFrame(
            {
                "account": Column("account", ["z"], dtype="string"),
                "owner": Column("owner", ["zoe"], dtype="string"),
                "won": Column("won", [True], dtype="bool"),
            }
        )
        return left, right

    def test_columnar_empty_inner_join_keeps_dtypes(self, disjoint):
        left, right = disjoint
        joined = join_frames(left, right, ["account"], how="inner")
        assert joined.n_rows == 0
        assert joined.dtypes == {
            "account": "string",
            "spend": "float",
            "clicks": "int",
            "owner": "string",
            "won": "bool",
        }

    def test_rowwise_empty_inner_join_keeps_dtypes(self, disjoint):
        left, right = disjoint
        joined = join_rowwise(left, right, ["account"], how="inner")
        assert joined.dtypes["account"] == "string"
        assert joined.dtypes["won"] == "bool"

    def test_empty_frame_constructor_accepts_dtypes(self):
        frame = DataFrame.empty(["a", "b"], dtypes={"a": "string"})
        assert frame.dtypes == {"a": "string", "b": "float"}


# --------------------------------------------------------------------------- #
# regression: NaN group keys collapse into a single group
# --------------------------------------------------------------------------- #
class TestNaNGroupKeys:
    @pytest.fixture()
    def nan_keyed(self):
        return DataFrame(
            {
                "bucket": Column(
                    "bucket",
                    [1.0, float("nan"), 2.0, float("nan"), float("nan"), 1.0],
                    dtype="float",
                ),
                "value": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            }
        )

    def test_nan_keys_form_one_group(self, nan_keyed):
        grouped = nan_keyed.groupby("bucket")
        assert grouped.n_groups == 3
        sizes = dict(zip(grouped.group_keys(), grouped.size().column("size").tolist()))
        nan_sizes = [size for key, size in sizes.items() if math.isnan(key[0])]
        assert nan_sizes == [3]

    def test_rowwise_reference_still_fragments(self, nan_keyed):
        # the reference keeps the historical NaN != NaN behaviour; this pins
        # the *difference* so nobody "fixes" the reference silently
        assert len(build_groups_rowwise(nan_keyed.groupby("bucket"))) == 5

    def test_nan_group_aggregates_all_nan_rows(self, nan_keyed):
        result = nan_keyed.groupby("bucket").agg({"value": "sum"})
        by_key = dict(
            zip(result.column("bucket").tolist(), result.column("value_sum").tolist())
        )
        nan_sums = [v for k, v in by_key.items() if math.isnan(k)]
        assert nan_sums == [110.0]

    def test_multi_key_nan_collapse(self):
        frame = DataFrame(
            {
                "a": Column("a", [float("nan"), float("nan"), 1.0], dtype="float"),
                "b": Column("b", ["x", "x", "x"], dtype="string"),
            }
        )
        assert frame.groupby(["a", "b"]).n_groups == 2


# --------------------------------------------------------------------------- #
# the shared reducer table
# --------------------------------------------------------------------------- #
class TestSharedReducers:
    def test_groupby_and_aggregate_accept_the_same_names(self, tiny_frame):
        for how in COLUMN_REDUCERS:
            if how in ("count", "nunique"):
                tiny_frame.groupby("region").agg({"region": how})
            tiny_frame.groupby("region").agg({"spend": how})
            tiny_frame.aggregate({"spend": how})

    def test_unknown_reducer_raises_everywhere(self, tiny_frame):
        with pytest.raises(TypeMismatchError):
            tiny_frame.groupby("region").agg({"spend": "mode"})
        with pytest.raises(TypeMismatchError):
            agg_rowwise(tiny_frame.groupby("region"), {"spend": "mode"})
        with pytest.raises(TypeMismatchError):
            tiny_frame.aggregate({"spend": "mode"})

    def test_string_nunique_no_longer_crashes(self, tiny_frame):
        # the dead _REDUCERS table ran np.isnan over object arrays
        result = tiny_frame.groupby("converted").agg({"region": "nunique"})
        assert result.column("region_nunique").tolist() == [2.0, 2.0]

    def test_numeric_reducer_on_string_column_raises(self, tiny_frame):
        with pytest.raises(TypeMismatchError):
            tiny_frame.groupby("converted").agg({"region": "sum"})

    def test_std_of_singleton_group_is_zero(self):
        frame = DataFrame({"k": [0, 0, 1], "v": [1.0, 3.0, 5.0]})
        result = frame.groupby("k").agg({"v": "std"})
        by_key = dict(zip(frame.column("k").unique(), result.column("v_std").tolist()))
        assert by_key[1] == 0.0
        assert by_key[0] == pytest.approx(np.std([1.0, 3.0], ddof=1))


# --------------------------------------------------------------------------- #
# kernel internals
# --------------------------------------------------------------------------- #
class TestGroupIndex:
    def test_first_appearance_order(self):
        column = Column("k", ["b", "a", "b", "c", "a"], dtype="string")
        index = group_index([column])
        assert index.n_groups == 3
        assert index.first_rows.tolist() == [0, 1, 3]
        assert index.codes.tolist() == [0, 1, 0, 2, 1]
        assert index.counts.tolist() == [2, 2, 1]

    def test_segments_partition_the_rows(self):
        column = Column("k", [1, 2, 1, 1, 3, 2], dtype="int")
        index = group_index([column])
        seen = np.concatenate([index.segment(g) for g in range(index.n_groups)])
        assert sorted(seen.tolist()) == list(range(6))

    def test_indices_views_back_the_groupby(self, tiny_frame):
        grouped = tiny_frame.groupby("region")
        indices = grouped.indices()
        assert {key: idx.tolist() for key, idx in indices.items()} == grouped.groups()

    def test_zero_keys_is_one_group_of_all_rows(self, tiny_frame):
        grouped = tiny_frame.groupby([])
        assert grouped.groups() == build_groups_rowwise(grouped)
        assert grouped.groups() == {(): list(range(tiny_frame.n_rows))}

    def test_zero_keys_on_empty_frame_has_no_groups(self):
        frame = DataFrame({"a": []})
        grouped = frame.groupby([])
        assert grouped.n_groups == 0
        assert grouped.groups() == build_groups_rowwise(grouped) == {}
