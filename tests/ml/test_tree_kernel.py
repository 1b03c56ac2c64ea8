"""Kernel/recursive equivalence tests for the flattened tree kernels.

The flattened :class:`TreeKernel` / :class:`ForestKernel` traversals must be
*bitwise* identical to the per-row recursive walk they replaced — the what-if
engine's numbers may not move by even one ulp because of the speedup.  These
are property-style checks over many random matrices, plus the degenerate
shapes (root-only leaves, constant features) where a vectorised traversal is
easiest to get wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.oracles import (
    predict_node,
    predict_proba_recursive,
    predict_recursive,
    predict_values_recursive,
)
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)


def _random_problem(seed: int, n_classes: int = 2):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(5, 120))
    n_features = int(rng.integers(1, 6))
    X = rng.normal(size=(n_rows, n_features))
    if seed % 3 == 0:
        X = np.round(X, 1)  # heavy duplicate values exercise threshold ties
    y_class = rng.integers(0, n_classes, size=n_rows).astype(float)
    y_reg = rng.normal(size=n_rows)
    X_eval = rng.normal(size=(40, n_features))
    return X, y_class, y_reg, X_eval


class TestTreeKernelEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_classifier_probabilities_bitwise_equal(self, seed):
        X, y, _, X_eval = _random_problem(seed, n_classes=2 + seed % 3)
        tree = DecisionTreeClassifier(max_depth=1 + seed % 7, random_state=seed).fit(X, y)
        kernel = tree.predict_proba(X_eval)
        recursive = predict_values_recursive(tree, X_eval)
        assert np.array_equal(kernel, recursive)

    @pytest.mark.parametrize("seed", range(12))
    def test_regressor_means_bitwise_equal(self, seed):
        X, _, y, X_eval = _random_problem(seed)
        tree = DecisionTreeRegressor(max_depth=1 + seed % 7, random_state=seed).fit(X, y)
        kernel = tree.predict(X_eval)
        recursive = predict_values_recursive(tree, X_eval)
        assert np.array_equal(kernel, recursive)

    def test_single_row_prediction(self):
        X, y, y_reg, X_eval = _random_problem(7)
        clf = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        reg = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y_reg)
        row = X_eval[:1]
        assert np.array_equal(clf.predict_proba(row), predict_values_recursive(clf, row))
        assert np.array_equal(reg.predict(row), predict_values_recursive(reg, row))
        assert clf.predict_proba(row).shape == (1, 2)
        assert reg.predict(row).shape == (1,)

    def test_root_only_leaf_constant_target(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.ones(20)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf()
        assert tree.kernel_.n_nodes == 1
        assert np.array_equal(tree.predict_proba(X), predict_values_recursive(tree, X))

    def test_root_only_leaf_constant_features(self):
        X = np.full((15, 2), 3.0)
        y = np.array([0.0, 1.0] * 7 + [0.0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf()
        probe = np.random.default_rng(1).normal(size=(10, 2))
        assert np.array_equal(tree.predict_proba(probe), predict_values_recursive(tree, probe))
        reg = DecisionTreeRegressor().fit(X, y)
        assert reg.root_.is_leaf()
        assert np.array_equal(reg.predict(probe), predict_values_recursive(reg, probe))

    def test_apply_matches_recursive_leaves(self):
        X, y, _, X_eval = _random_problem(3)
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        kernel_leaves = tree.apply(X_eval)
        recursive_leaves = [predict_node(tree, row) for row in X_eval]
        assert all(a is b for a, b in zip(kernel_leaves, recursive_leaves))

    def test_kernel_arrays_are_contiguous_and_consistent(self):
        X, y, _, _ = _random_problem(5)
        kernel = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y).kernel_
        assert kernel.feature.shape == kernel.threshold.shape
        assert kernel.left.shape == kernel.right.shape == kernel.feature.shape
        assert kernel.value.shape[0] == kernel.n_nodes
        internal = kernel.feature >= 0
        assert np.all(kernel.left[internal] > 0) and np.all(kernel.right[internal] > 0)
        assert np.all(kernel.left[~internal] == -1) and np.all(kernel.right[~internal] == -1)


class TestForestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_classifier_probabilities_bitwise_equal(self, seed):
        X, y, _, X_eval = _random_problem(seed, n_classes=2 + seed % 2)
        forest = RandomForestClassifier(
            n_estimators=8, max_depth=5, random_state=seed
        ).fit(X, y)
        assert np.array_equal(
            forest.predict_proba(X_eval), predict_proba_recursive(forest, X_eval)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_regressor_means_bitwise_equal(self, seed):
        X, _, y, X_eval = _random_problem(seed)
        forest = RandomForestRegressor(
            n_estimators=8, max_depth=5, random_state=seed
        ).fit(X, y)
        assert np.array_equal(forest.predict(X_eval), predict_recursive(forest, X_eval))

    def test_noncontiguous_labels_align_to_forest_classes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 3))
        y = np.where(X[:, 0] > 0, 7.0, np.where(X[:, 1] > 0, 3.0, 11.0))
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        probe = rng.normal(size=(30, 3))
        proba = forest.predict_proba(probe)
        assert np.array_equal(proba, predict_proba_recursive(forest, probe))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert set(np.unique(forest.predict(probe))) <= {3.0, 7.0, 11.0}
