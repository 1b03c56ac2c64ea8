"""Flattened numpy kernels for tree and forest prediction.

The what-if hot path re-runs the trained KPI model on every perturbed frame —
sensitivity sweeps, goal inversion, and driver importance all reduce to "score
this matrix again".  Walking a linked :class:`~repro.ml.tree.TreeNode`
structure row by row in Python makes that O(rows × depth) interpreter work per
tree.  The kernels here compile a fitted tree into five contiguous arrays

* ``feature``   — split feature per node (``-1`` marks a leaf),
* ``threshold`` — split threshold per node,
* ``left`` / ``right`` — child node indices,
* ``value``     — leaf payload per node (class-probability vector or mean),

and traverse them iteratively for a whole matrix at once: every iteration
advances all rows that still sit on an internal node by one level, so the
Python-level loop runs O(depth) times instead of O(rows × depth).  The leaf
payloads are the exact arrays the recursive walk would return, so kernel
predictions are bitwise identical to the per-row traversal.

:class:`ForestKernel` stacks per-tree kernel outputs (with the tree-to-forest
class alignment precomputed once) so forest prediction never loops over rows.

**Incremental re-scoring.**  A matrix that differs from an already scored one
in a single column need not be walked from the roots again.  Each
``(tree, row)`` *lane* of the earlier pass ended at a leaf, and that leaf
fixes the lane's whole root-to-leaf path.  A lane whose path never splits on
the changed column reaches the same leaf again; every other lane can resume
at the first node on its path that tests the column, because every decision
above that node reads unchanged values.  :meth:`ForestKernel.predict_proba`
takes the earlier leaves and the changed column (``restart=``) and
re-traverses only those lanes.  A per-forest *restart table*, built once,
maps every ``(feature, node)`` to the shallowest proper ancestor splitting on
the feature, so one gather finds every lane's restart node.  The leaf
payloads are then gathered and summed per tree exactly as in a full pass,
so the result is bitwise identical to scoring the new matrix from the roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TreeKernel", "ForestKernel"]


@dataclass(frozen=True)
class TreeKernel:
    """A fitted CART tree compiled to contiguous node arrays.

    Attributes
    ----------
    feature:
        Split feature index per node; ``-1`` for leaves.
    threshold:
        Split threshold per node (unused entries are 0 for leaves).
    left, right:
        Child node indices per node (``-1`` for leaves).
    value:
        Node payload, shape ``(n_nodes, n_outputs)``: class-probability rows
        for classifiers, single-column means for regressors.
    nodes:
        The original :class:`~repro.ml.tree.TreeNode` objects in array order,
        kept so diagnostics (``apply``) can hand back rich node objects.
    max_depth:
        Depth of the deepest leaf (0 for a root-only tree).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    nodes: tuple
    max_depth: int

    @classmethod
    def from_tree(cls, root) -> "TreeKernel":
        """Flatten the node structure rooted at ``root`` (breadth-first).

        Uses an explicit stack so arbitrarily deep trees compile without
        hitting the interpreter recursion limit.
        """
        nodes = [root]
        left: list[int] = [-1]
        right: list[int] = [-1]
        cursor = 0
        while cursor < len(nodes):
            node = nodes[cursor]
            if not node.is_leaf():
                left[cursor] = len(nodes)
                nodes.append(node.left)
                left.append(-1)
                right.append(-1)
                right[cursor] = len(nodes)
                nodes.append(node.right)
                left.append(-1)
                right.append(-1)
            cursor += 1
        feature = np.array(
            [-1 if node.is_leaf() else node.feature for node in nodes], dtype=np.intp
        )
        threshold = np.array([node.threshold for node in nodes], dtype=np.float64)
        value = np.vstack(
            [np.atleast_1d(np.asarray(node.value, dtype=np.float64)) for node in nodes]
        )
        return cls(
            feature=feature,
            threshold=threshold,
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=value,
            nodes=tuple(nodes),
            max_depth=max(node.depth for node in nodes),
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the compiled tree."""
        return int(self.feature.shape[0])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index reached by every row of ``X``.

        The loop advances all still-routing rows one level per iteration:
        total work is the sum of rows alive at each depth — exactly the work
        of the recursive walk, but with one vectorised step per level.
        """
        index = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[index] >= 0)
        while active.size:
            node = index[active]
            go_left = X[active, self.feature[node]] <= self.threshold[node]
            index[active] = np.where(go_left, self.left[node], self.right[node])
            active = active[self.feature[index[active]] >= 0]
        return index

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf payloads for every row, shape ``(n_rows, n_outputs)``."""
        return self.value[self.apply(X)]


class ForestKernel:
    """All trees of an ensemble stacked into one set of node arrays.

    The per-tree arrays are concatenated with child indices shifted by each
    tree's node offset, so a single iterative traversal advances every
    ``(tree, row)`` pair at once — the Python-level loop runs O(max depth)
    times for the whole forest, not per tree.  Leaves are rewritten to
    self-loop (dummy feature 0, threshold ``+inf``, both children pointing at
    the leaf itself) so the traversal needs no per-iteration active-pair
    bookkeeping: finished pairs just spin in place until the loop ends.  Leaf
    payloads of classifier trees are scattered into the forest's class order
    at compile time (a bootstrap sample may miss classes, so trees can have
    narrower probability rows than the forest).

    Parameters
    ----------
    kernels:
        One :class:`TreeKernel` per fitted tree.
    class_positions:
        For classifiers: per-tree column positions mapping each tree's local
        class order into the forest's ``classes_``.  ``None`` for regressors.
    n_outputs:
        Width of the aggregated output (number of forest classes, or 1).
    """

    def __init__(
        self,
        kernels: list[TreeKernel],
        class_positions: list[np.ndarray] | None,
        n_outputs: int,
    ) -> None:
        if not kernels:
            raise ValueError("a forest kernel needs at least one tree kernel")
        self.n_trees = len(kernels)
        self.n_outputs = int(n_outputs)
        self.max_depth = max(kernel.max_depth for kernel in kernels)
        offsets = np.cumsum([0] + [kernel.n_nodes for kernel in kernels]).astype(np.intp)
        self.roots = offsets[:-1]
        self.feature = np.concatenate([kernel.feature for kernel in kernels])
        self.threshold = np.concatenate([kernel.threshold for kernel in kernels])
        left_parts, right_parts = [], []
        for kernel, offset in zip(kernels, offsets):
            internal = kernel.feature >= 0
            left = kernel.left.copy()
            right = kernel.right.copy()
            left[internal] += offset
            right[internal] += offset
            left_parts.append(left)
            right_parts.append(right)
        self.left = np.concatenate(left_parts)
        self.right = np.concatenate(right_parts)
        if class_positions is None:
            self.value = np.concatenate([kernel.value for kernel in kernels])
        else:
            self.value = np.zeros((int(offsets[-1]), self.n_outputs))
            for kernel, offset, positions in zip(kernels, offsets, class_positions):
                self.value[offset : offset + kernel.n_nodes][:, positions] = kernel.value
        # self-looping leaf rewrite used by the traversal (see class docstring)
        leaf = self.feature < 0
        node_ids = np.arange(self.feature.shape[0], dtype=np.intp)
        self._nav_feature = np.where(leaf, 0, self.feature)
        self._nav_threshold = np.where(leaf, np.inf, self.threshold)
        self._nav_left = np.where(leaf, node_ids, self.left)
        self._nav_right = np.where(leaf, node_ids, self.right)
        # (restart table, node depths), built on the first incremental call
        self._restarts: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_classifier(cls, forest) -> "ForestKernel":
        """Compile a fitted :class:`RandomForestClassifier`."""
        kernels = [tree.kernel_ for tree in forest.estimators_]
        positions = [
            np.searchsorted(forest.classes_, tree.classes_) for tree in forest.estimators_
        ]
        return cls(kernels, positions, forest.classes_.shape[0])

    @classmethod
    def from_regressor(cls, forest) -> "ForestKernel":
        """Compile a fitted :class:`RandomForestRegressor`."""
        return cls([tree.kernel_ for tree in forest.estimators_], None, 1)

    def restart_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(table, depth)`` for incremental re-scoring, built once.

        ``table[f, node]`` is the shallowest proper ancestor of ``node`` that
        splits on feature ``f`` (``-1`` when none does), shape
        ``(n_split_features, n_nodes)`` int32, where ``n_split_features`` is
        one more than the highest feature any tree splits on.  ``depth`` is
        every node's depth.  Concurrent first calls build identical read-only
        arrays and keep whichever is assigned last.
        """
        restarts = self._restarts
        if restarts is None:
            n_nodes = self.feature.shape[0]
            n_features = int(self.feature.max()) + 1
            table = np.full((n_features, n_nodes), -1, dtype=np.int32)
            depth = np.zeros(n_nodes, dtype=np.min_scalar_type(self.max_depth))
            # parents precede children within each breadth-first tree, so a
            # level-by-level sweep inherits a finished parent column each time
            level = self.roots
            for below in range(1, self.max_depth + 1):
                parents = level[self.feature[level] >= 0]
                level = np.concatenate([self.left[parents], self.right[parents]])
                parents = np.concatenate([parents, parents])
                depth[level] = below
                table[:, level] = table[:, parents]
                split = self.feature[parents]
                first = table[split, level] < 0
                table[split[first], level[first]] = parents[first]
            table.setflags(write=False)
            depth.setflags(write=False)
            restarts = self._restarts = (table, depth)
        return restarts

    def _step(self, flat: np.ndarray, base: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Advance every lane at node ``index`` (row offset ``base``) one level."""
        go_left = flat[base + self._nav_feature[index]] <= self._nav_threshold[index]
        return np.where(go_left, self._nav_left[index], self._nav_right[index])

    def _leaf_ids(self, X: np.ndarray, restart: tuple[np.ndarray, int] | None) -> np.ndarray:
        """Leaf node id per (tree, row), shape ``(n_trees, n_rows)``.

        ``X`` must be finite (guaranteed by ``check_array``): the self-loop
        rewrite relies on ``x <= +inf`` holding for every feature value.
        With ``restart=(leaves, feature)`` only the lanes whose path through
        ``leaves`` tests ``feature`` are walked, from their restart nodes.
        """
        n_rows = X.shape[0]
        flat = np.ascontiguousarray(X).ravel()
        if restart is None:
            base = np.tile(np.arange(n_rows, dtype=np.intp) * X.shape[1], self.n_trees)
            index = np.repeat(self.roots, n_rows)
            for _ in range(self.max_depth):
                index = self._step(flat, base, index)
            return index.reshape(self.n_trees, n_rows)
        leaves, feature = restart
        if leaves.shape != (self.n_trees, n_rows):
            raise ValueError(
                f"restart leaves have shape {leaves.shape}, expected {(self.n_trees, n_rows)}"
            )
        table, depth = self.restart_table()
        if not 0 <= feature < table.shape[0]:  # no tree splits on the feature
            return np.array(leaves, dtype=np.int32)
        start = table[feature][leaves].ravel()
        lanes = np.flatnonzero(start >= 0)
        start = start[lanes]
        # lanes sorted by restart depth: level L advances the prefix of lanes
        # that restart at depth <= L (a radix sort for uint8 depths)
        start_depth = depth[start]
        active = np.cumsum(np.bincount(start_depth, minlength=self.max_depth))
        order = np.argsort(start_depth, kind="stable")
        lanes = lanes[order]
        index = start[order].astype(np.intp)
        del start, order  # keeps the transient peak near a full pass's
        base = lanes % n_rows
        base *= X.shape[1]
        for level in range(self.max_depth):
            live = active[level]
            index[:live] = self._step(flat, base[:live], index[:live])
        del base
        out = np.array(leaves, dtype=np.int32)
        out.ravel()[lanes] = index
        return out

    def predict_proba(
        self,
        X: np.ndarray,
        *,
        restart: tuple[np.ndarray, int] | None = None,
        leaves_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Tree-averaged class probabilities, shape ``(n_rows, n_classes)``.

        ``restart=(leaves, feature)`` scores ``X`` incrementally: ``leaves``
        holds the leaf ids, shape ``(n_trees, n_rows)``, that a full pass
        reached on a matrix equal to ``X`` except in column ``feature``.
        ``leaves_out``, an int32 array of that shape, receives the leaf ids
        this call reaches.  The result is bitwise identical either way.
        """
        leaves = self._leaf_ids(X, restart)
        if leaves_out is not None:
            leaves_out[...] = leaves
        values = self.value[leaves]
        # accumulate per tree in ensemble order so rounding matches the
        # historical sequential aggregation bit for bit
        aggregate = np.zeros((X.shape[0], self.n_outputs))
        for tree_index in range(self.n_trees):
            aggregate += values[tree_index]
        return aggregate / self.n_trees

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Tree-averaged regression prediction, shape ``(n_rows,)``."""
        values = self.value[self._leaf_ids(X, None)]
        predictions = np.zeros(X.shape[0])
        for tree_index in range(self.n_trees):
            predictions += values[tree_index, :, 0]
        return predictions / self.n_trees
