"""Incremental forest re-scoring must equal a full traversal bit for bit.

``ForestKernel.predict_proba(X, restart=(leaves, feature))`` re-walks only the
``(tree, row)`` lanes whose path through ``leaves`` splits on ``feature``.
These properties compare it with a full pass over the same matrix on random
forests, including the shapes where a partial traversal is easiest to get
wrong: unlimited and tiny depths, root-only trees, bootstrap samples that
miss a class, threshold ties, and a feature no tree splits on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import RandomForestClassifier


@st.composite
def forests(draw):
    """A fitted forest and its training matrix (the scored baseline)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 5))
    X = rng.normal(size=(n_rows, n_features))
    if draw(st.booleans()):
        X = np.round(X, 1)  # repeated values put rows exactly on thresholds
    if draw(st.booleans()):
        X[:, -1] = 3.0  # a constant column no tree can split on
    n_classes = draw(st.integers(1, 3))
    y = rng.integers(0, n_classes, size=n_rows).astype(float)
    if draw(st.booleans()):
        y[:] = 0.0
        y[rng.integers(0, n_rows)] = 1.0  # rare class: bootstraps often miss it
    forest = RandomForestClassifier(
        n_estimators=draw(st.integers(1, 6)),
        max_depth=draw(st.sampled_from([None, 0, 1, 2, 3, 6])),
        min_samples_split=draw(st.sampled_from([2, 2, 5, 10_000])),  # 10k: root-only
        random_state=draw(st.integers(0, 1000)),
    ).fit(X, y)
    return forest, X


def baseline_leaves(forest, X):
    kernel = forest.kernel_
    leaves = np.empty((kernel.n_trees, X.shape[0]), dtype=np.int32)
    assert np.array_equal(forest.predict_proba(X, leaves_out=leaves), forest.predict_proba(X))
    return leaves


@settings(max_examples=150, deadline=None)
@given(forest_and_X=forests(), data=st.data())
def test_incremental_equals_full_pass(forest_and_X, data):
    forest, X = forest_and_X
    n_rows, n_features = X.shape
    leaves = baseline_leaves(forest, X)
    feature = data.draw(st.integers(0, n_features - 1), label="feature")
    moved = X.copy()
    how = data.draw(st.sampled_from(["scale", "shift", "random", "zero", "same"]), label="how")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    if how == "scale":
        moved[:, feature] *= rng.uniform(-3.0, 3.0)
    elif how == "shift":
        moved[:, feature] += rng.normal()
    elif how == "random":
        moved[:, feature] = rng.normal(size=n_rows)
    elif how == "zero":
        moved[:, feature] = 0.0
    start = data.draw(st.integers(0, n_rows), label="start")
    stop = data.draw(st.integers(start, n_rows), label="stop")
    full = forest.predict_proba(moved[start:stop])
    incremental = forest.predict_proba(
        moved[start:stop], restart=(leaves[:, start:stop], feature)
    )
    assert np.array_equal(incremental, full)


@settings(max_examples=60, deadline=None)
@given(forest_and_X=forests())
def test_leaves_and_restart_table_match_a_per_tree_walk(forest_and_X):
    forest, X = forest_and_X
    kernel = forest.kernel_
    leaves = baseline_leaves(forest, X)
    for tree_index, tree in enumerate(forest.estimators_):
        expected = tree.kernel_.apply(X) + kernel.roots[tree_index]
        assert np.array_equal(leaves[tree_index], expected)
    table, depth = kernel.restart_table()
    parent = np.full(kernel.feature.shape[0], -1)
    internal = np.flatnonzero(kernel.feature >= 0)
    parent[kernel.left[internal]] = internal
    parent[kernel.right[internal]] = internal
    for node in range(kernel.feature.shape[0]):
        ancestors = []
        up = parent[node]
        while up >= 0:
            ancestors.append(up)
            up = parent[up]
        assert depth[node] == len(ancestors)
        for feature in range(table.shape[0]):
            splitting = [a for a in ancestors if kernel.feature[a] == feature]
            assert table[feature, node] == (splitting[-1] if splitting else -1)
