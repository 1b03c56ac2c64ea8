"""CART decision trees (classification and regression).

These are the building blocks of the random forests the paper uses for
discrete KPIs.  The implementation is a standard greedy CART:

* binary splits on numeric features chosen to maximise impurity decrease
  (Gini for classification, variance for regression);
* split search vectorised with numpy across *all* candidate features at once
  (one batched argsort, cumulative Gini / variance over the sorted columns,
  a single argmax over the gain matrix);
* impurity-decrease accounting per feature, which is what
  ``feature_importances_`` aggregates — the quantity SystemD's driver
  importance view shows for discrete KPIs;
* prediction through a flattened :class:`~repro.ml.kernel.TreeKernel` compiled
  at fit time, so scoring a matrix never walks the node structure row by row
  in Python (the recursive walk is the equivalence oracle in
  ``benchmarks/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_X_y,
)
from .kernel import TreeKernel

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor", "TreeNode"]


@dataclass
class TreeNode:
    """A node of a fitted CART tree.

    Leaves have ``feature is None`` and carry a ``value`` (class-probability
    vector for classifiers, mean target for regressors).  Internal nodes route
    samples with ``x[feature] <= threshold`` to ``left``.
    """

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | float | None = None
    n_samples: int = 0
    impurity: float = 0.0
    depth: int = 0

    def is_leaf(self) -> bool:
        """Whether this node is a leaf."""
        return self.feature is None

    def node_count(self) -> int:
        """Total number of nodes in the subtree rooted here."""
        if self.is_leaf():
            return 1
        return 1 + self.left.node_count() + self.right.node_count()


@dataclass
class _SplitCandidate:
    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray = field(repr=False, default=None)


class _BaseDecisionTree(BaseEstimator):
    """Shared CART machinery; subclasses define impurity and leaf values."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: TreeNode | None = None
        self.n_features_in_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        self._kernel: TreeKernel | None = None

    # ---- subclass hooks ------------------------------------------------ #
    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _leaf_value(self, y: np.ndarray):
        raise NotImplementedError

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        return y

    # ---- fitting --------------------------------------------------------#
    def _resolve_max_features(self, n_features: int) -> int:
        max_features = self.max_features
        if max_features is None:
            return n_features
        if isinstance(max_features, str):
            if max_features == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if max_features == "log2":
                return max(1, int(np.log2(n_features)))
            raise ValueError(f"unknown max_features string {max_features!r}")
        if isinstance(max_features, float):
            return max(1, int(round(max_features * n_features)))
        return max(1, min(int(max_features), n_features))

    def fit(self, X, y) -> "_BaseDecisionTree":
        """Grow the tree on ``(X, y)``."""
        X, y = check_X_y(X, y)
        y = self._prepare_targets(y)
        self.n_features_in_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._importance_accumulator = np.zeros(self.n_features_in_)
        self._n_total_samples = X.shape[0]
        self.root_ = self._grow(X, y, depth=0)
        total = self._importance_accumulator.sum()
        if total > 0:
            self.feature_importances_ = self._importance_accumulator / total
        else:
            self.feature_importances_ = np.zeros(self.n_features_in_)
        self._kernel = TreeKernel.from_tree(self.root_)
        return self

    @property
    def kernel_(self) -> TreeKernel:
        """The flattened prediction kernel (compiled at fit time)."""
        check_is_fitted(self, "root_")
        if self._kernel is None:
            self._kernel = TreeKernel.from_tree(self.root_)
        return self._kernel

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            value=self._leaf_value(y),
            n_samples=X.shape[0],
            impurity=self._impurity(y),
            depth=depth,
        )
        if self._should_stop(X, y, depth, node.impurity):
            return node
        split = self._best_split(X, y)
        if split is None or split.gain <= 1e-12:
            return node
        left_mask = split.left_mask
        right_mask = ~left_mask
        # weighted impurity decrease, normalised by the training-set size, is
        # the per-feature contribution summed into feature_importances_
        self._importance_accumulator[split.feature] += (
            X.shape[0] / self._n_total_samples
        ) * split.gain
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1)
        node.right = self._grow(X[right_mask], y[right_mask], depth + 1)
        return node

    def _should_stop(self, X: np.ndarray, y: np.ndarray, depth: int, impurity: float) -> bool:
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        if X.shape[0] < self.min_samples_split:
            return True
        if impurity <= 1e-12:
            return True
        return False

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> _SplitCandidate | None:
        n_samples, n_features = X.shape
        n_candidates = self._resolve_max_features(n_features)
        if n_candidates < n_features:
            features = self._rng.choice(n_features, size=n_candidates, replace=False)
        else:
            features = np.arange(n_features)
        parent_impurity = self._impurity(y)
        # one batched sort + prefix-sum pass over every candidate feature:
        # column j of the (n_samples - 1, n_candidates) gain matrix holds the
        # gain of every threshold of features[j]
        columns = X[:, features]
        order = np.argsort(columns, axis=0, kind="stable")
        sorted_values = np.take_along_axis(columns, order, axis=0)
        gains, thresholds = self._split_gains(sorted_values, y[order], parent_impurity)
        if gains.size == 0:
            return None
        # argmax over the transposed matrix keeps the per-feature-then-
        # per-threshold tie-breaking of the historical feature loop
        flat = int(np.argmax(gains.T))
        feature_pos, split_pos = divmod(flat, gains.shape[0])
        best_gain = float(gains[split_pos, feature_pos])
        if not np.isfinite(best_gain):
            return None
        feature = int(features[feature_pos])
        threshold = float(thresholds[split_pos, feature_pos])
        return _SplitCandidate(
            feature=feature,
            threshold=threshold,
            gain=best_gain,
            left_mask=X[:, feature] <= threshold,
        )

    def _split_gains(
        self, sorted_values: np.ndarray, sorted_y: np.ndarray, parent_impurity: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-threshold gains for pre-sorted feature columns.

        Both inputs have shape ``(n_samples, n_candidate_features)``; the
        returned gain and threshold matrices have shape
        ``(n_samples - 1, n_candidate_features)`` with ``-inf`` marking
        invalid candidates (duplicate values, leaves below the size floor).
        """
        raise NotImplementedError

    def _candidate_validity(
        self, sorted_values: np.ndarray, n_left: np.ndarray, n_right: np.ndarray
    ) -> np.ndarray:
        """Mask of admissible thresholds shared by both impurity criteria."""
        valid = sorted_values[1:] != sorted_values[:-1]
        valid &= n_left >= self.min_samples_leaf
        valid &= n_right >= self.min_samples_leaf
        return valid

    def apply(self, X) -> list[TreeNode]:
        """Return the leaf node reached by every sample (diagnostics)."""
        check_is_fitted(self, "root_")
        X = check_array(X, allow_1d=True)
        kernel = self.kernel_
        return [kernel.nodes[index] for index in kernel.apply(X)]

    @property
    def depth_(self) -> int:
        """Maximum depth of the fitted tree."""
        check_is_fitted(self, "root_")

        def walk(node: TreeNode) -> int:
            if node.is_leaf():
                return node.depth
            return max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def node_count_(self) -> int:
        """Total number of nodes in the fitted tree."""
        check_is_fitted(self, "root_")
        return self.root_.node_count()


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier with Gini impurity.

    Attributes
    ----------
    classes_:
        Sorted unique class labels.
    feature_importances_:
        Normalised total impurity decrease contributed by each feature.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )
        self.classes_: np.ndarray | None = None

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        self.classes_ = np.unique(y)
        encoded = np.searchsorted(self.classes_, y)
        return encoded.astype(np.int64)

    def _impurity(self, y: np.ndarray) -> float:
        if y.size == 0:
            return 0.0
        counts = np.bincount(y, minlength=self.classes_.shape[0])
        proportions = counts / y.size
        return float(1.0 - np.sum(proportions**2))

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self.classes_.shape[0])
        if counts.sum() == 0:
            return np.full(self.classes_.shape[0], 1.0 / self.classes_.shape[0])
        return counts / counts.sum()

    def _split_gains(
        self, sorted_values: np.ndarray, sorted_y: np.ndarray, parent_impurity: float
    ) -> tuple[np.ndarray, np.ndarray]:
        n, n_candidates = sorted_y.shape
        n_left = np.arange(1, n)[:, None]
        n_right = n - n_left
        valid = self._candidate_validity(sorted_values, n_left, n_right)
        if not valid.any():
            return np.array([]), np.array([])

        n_classes = self.classes_.shape[0]
        one_hot = np.zeros((n, n_candidates, n_classes))
        one_hot[
            np.arange(n)[:, None], np.arange(n_candidates)[None, :], sorted_y
        ] = 1.0
        left_counts = np.cumsum(one_hot, axis=0)[:-1]
        total_counts = left_counts[-1] + one_hot[-1]
        right_counts = total_counts - left_counts
        left_proportions = left_counts / n_left[:, :, None]
        right_proportions = right_counts / n_right[:, :, None]
        gini_left = 1.0 - np.sum(left_proportions**2, axis=2)
        gini_right = 1.0 - np.sum(right_proportions**2, axis=2)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = parent_impurity - weighted
        gains[~valid] = -np.inf
        thresholds = (sorted_values[1:] + sorted_values[:-1]) / 2.0
        return gains, thresholds

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, shape ``(n_samples, n_classes)``."""
        check_is_fitted(self, "root_")
        X = check_array(X, allow_1d=True)
        return self.kernel_.predict(X)

    def predict(self, X) -> np.ndarray:
        """Predicted class labels."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor with variance (MSE) impurity."""

    def _impurity(self, y: np.ndarray) -> float:
        if y.size == 0:
            return 0.0
        return float(np.var(y))

    def _leaf_value(self, y: np.ndarray) -> float:
        return float(np.mean(y)) if y.size else 0.0

    def _split_gains(
        self, sorted_values: np.ndarray, sorted_y: np.ndarray, parent_impurity: float
    ) -> tuple[np.ndarray, np.ndarray]:
        n = sorted_y.shape[0]
        n_left = np.arange(1, n)[:, None]
        n_right = n - n_left
        valid = self._candidate_validity(sorted_values, n_left, n_right)
        if not valid.any():
            return np.array([]), np.array([])

        cumsum = np.cumsum(sorted_y, axis=0)[:-1]
        cumsum_sq = np.cumsum(sorted_y**2, axis=0)[:-1]
        total = cumsum[-1] + sorted_y[-1]
        total_sq = cumsum_sq[-1] + sorted_y[-1] ** 2
        var_left = cumsum_sq / n_left - (cumsum / n_left) ** 2
        right_sum = total - cumsum
        right_sum_sq = total_sq - cumsum_sq
        var_right = right_sum_sq / n_right - (right_sum / n_right) ** 2
        weighted = (n_left * var_left + n_right * var_right) / n
        gains = parent_impurity - weighted
        gains[~valid] = -np.inf
        thresholds = (sorted_values[1:] + sorted_values[:-1]) / 2.0
        return gains, thresholds

    def predict(self, X) -> np.ndarray:
        """Predicted target values."""
        check_is_fitted(self, "root_")
        X = check_array(X, allow_1d=True)
        return self.kernel_.predict(X)[:, 0]
