"""The grid kernel: one forest pass scores an entire scenario grid.

Looping :func:`~repro.core.sensitivity.run_sensitivity` over a scenario grid
traverses every tree once per ``(scenario, row)`` pair — for a 1 000-scenario
sweep that is a thousand full forest traversals of work that is almost
entirely redundant, because scenarios only rewrite the few swept columns and
every tree decision on an unswept feature is scenario-independent.  This
kernel exploits two structural facts to evaluate the *whole cartesian grid*
in one traversal per tree:

1. **Monotone perturbations ⇒ interval decisions.**  Percentage and absolute
   perturbations are monotone in the amount (clipping preserves this), so
   with an axis's amounts sorted ascending, the set of levels that sends a
   row *left* at a node testing that axis's driver is a prefix or suffix of
   the level order — an **interval**, whose complement is also an interval.
2. **Box propagation.**  A traversal lane therefore never needs one slot per
   scenario: it carries a per-axis level interval (a *box* of the grid).  At
   a node on an unswept feature the whole box follows one child (the
   decision is precomputed from the baseline column); at a node on a swept
   axis the box splits into at most two boxes.  Each ``(tree, row)`` pair
   ends at a handful of leaf boxes instead of ``n_scenarios`` leaves.

Materialisation stays **bitwise identical** to the per-scenario path: each
tree's boxes are unrolled into runs along the innermost grid axis, the runs'
leaf *node ids* (exact integers) become a telescoping ``±id`` difference
array (one ``bincount``), one flat integer ``cumsum`` — exact in float64 —
rebuilds the dense leaf-id surface, the ids gather the very leaf payload
floats the per-scenario traversal would read, and trees accumulate in
ensemble order.  Every ``(scenario, row)`` prediction — and every KPI
aggregated from them — therefore matches
:meth:`~repro.core.model_manager.ModelManager.predict_kpi_matrix` bit for
bit.  The planner scores with batched
:meth:`~repro.core.model_manager.ModelManager.predict_kpi_batch` units whenever
the kernel does not apply (non-forest models, sampled or constrained spaces);
the KPI values are identical either way, only the speed differs.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.model_manager import ModelManager
from ..core.sensitivity import ignore
from .space import ScenarioSpace

__all__ = ["grid_sweep_kpis", "grid_kernel_applies", "MAX_GRID_CELLS", "MAX_AXIS_LEVELS"]

#: Upper bound on ``n_scenarios × n_rows`` grid cells the kernel will
#: materialise (the prediction surface is one float64 per cell).
MAX_GRID_CELLS = 32_000_000

#: Levels per axis the kernel supports (its lane boxes and decision cuts are
#: int16); longer axes are scored by batched perturbation-set units.
MAX_AXIS_LEVELS = 32_000


def grid_kernel_applies(manager: ModelManager, space: ScenarioSpace) -> bool:
    """Whether :func:`grid_sweep_kpis` will score this (manager, space) pair.

    Cheap structural check (no scoring): exhaustive unconstrained space, a
    kernel-compiled classifier forest, and a grid small enough to
    materialise.  The kernel itself may still fall back in one rare case —
    an interval-property violation — which this probe does not predict.
    """
    if space.sample is not None or space.constraints:
        return False
    model = manager.model
    if getattr(model, "kernel_", None) is None or not manager.kpi.is_discrete:
        return False
    if getattr(model, "classes_", None) is None:
        return False
    sizes = [len(axis.amounts) for axis in space.axes]
    if max(sizes) > MAX_AXIS_LEVELS:
        return False
    return int(np.prod(sizes)) * manager.frame.n_rows <= MAX_GRID_CELLS


def grid_sweep_kpis(
    manager: ModelManager,
    space: ScenarioSpace,
    *,
    checkpoint: Callable[[float], None] = ignore,
) -> np.ndarray | None:
    """KPIs of every grid scenario in enumeration order, or None if the
    kernel does not apply.

    Applies to exhaustive, unconstrained spaces scored by a kernel-compiled
    forest classifier (the model family every discrete-KPI session trains).
    ``checkpoint`` is called after each tree with the completed fraction.
    """
    if not grid_kernel_applies(manager, space):
        return None
    model = manager.model
    kernel = model.kernel_
    classes = model.classes_

    X = manager.driver_matrix()
    n_rows = X.shape[0]
    sizes = [len(axis.amounts) for axis in space.axes]
    n_scenarios = int(np.prod(sizes))

    # --- per-axis tables: sorted levels and their perturbed columns ------- #
    # The interval property needs amounts ascending; `orders` maps sorted
    # level positions back to the axis's enumeration order at the end.
    columns = [manager.drivers.index(axis.driver) for axis in space.axes]
    orders = [np.argsort(np.asarray(axis.amounts, dtype=np.float64)) for axis in space.axes]
    perturbed = [
        np.stack(
            [
                axis.perturbation(axis.amounts[level]).apply_to_values(X[:, column])
                for level in order
            ]
        )
        for axis, column, order in zip(space.axes, columns, orders)
    ]

    # --- per-node decision tables ----------------------------------------- #
    # Unswept features: one baseline decision bit per (node, row).  Leaves
    # self-loop via the nav arrays, so their bits are never consulted.
    feature = kernel._nav_feature
    threshold = kernel._nav_threshold
    baseline_go_left = X[:, feature].T <= threshold[:, None]

    # Swept axes: the left-going level interval (and its complement) per
    # (node, row).  Monotonicity makes both intervals; verify and bail out
    # to the fallback path on any violation rather than risk a wrong answer.
    axis_of_node = np.full(feature.shape[0], -1, dtype=np.int8)
    slot_of_node = np.zeros(feature.shape[0], dtype=np.intp)
    cuts: list[tuple[np.ndarray, ...]] = []
    is_leaf = kernel.feature < 0
    for axis_index, column in enumerate(columns):
        nodes = np.flatnonzero((kernel.feature == column) & ~is_leaf)
        axis_of_node[nodes] = axis_index
        slot_of_node[nodes] = np.arange(nodes.shape[0])
        decisions = (
            perturbed[axis_index][None, :, :] <= kernel.threshold[nodes][:, None, None]
        )
        n_true = decisions.sum(axis=1)
        first = decisions.argmax(axis=1)
        last = decisions.shape[1] - 1 - decisions[:, ::-1, :].argmax(axis=1)
        interval = (n_true == 0) | (last - first + 1 == n_true)
        prefix_or_suffix = (n_true == 0) | (first == 0) | (
            last == decisions.shape[1] - 1
        )
        if not (interval & prefix_or_suffix).all():  # pragma: no cover - guard
            return None
        left_lo = np.where(n_true > 0, first, 0).astype(np.int16)
        left_hi = (left_lo + n_true).astype(np.int16)
        # the complement of a prefix is a suffix and vice versa
        right_lo = np.where(left_lo > 0, 0, left_hi).astype(np.int16)
        right_hi = np.where(left_lo > 0, left_lo, len(orders[axis_index])).astype(
            np.int16
        )
        cuts.append((left_lo, left_hi, right_lo, right_hi))

    # --- box-propagating traversal (all trees at once) --------------------- #
    n_axes = len(space.axes)
    lane_node = np.repeat(kernel.roots, n_rows)
    lane_row = np.tile(np.arange(n_rows, dtype=np.intp), kernel.n_trees)
    lane_lo = [np.zeros(lane_node.shape[0], dtype=np.int16) for _ in range(n_axes)]
    lane_hi = [
        np.full(lane_node.shape[0], sizes[i], dtype=np.int16) for i in range(n_axes)
    ]
    out_node: list[np.ndarray] = []
    out_row: list[np.ndarray] = []
    out_lo: list[list[np.ndarray]] = [[] for _ in range(n_axes)]
    out_hi: list[list[np.ndarray]] = [[] for _ in range(n_axes)]
    while lane_node.shape[0]:
        at_leaf = kernel.feature[lane_node] < 0
        if at_leaf.any():
            out_node.append(lane_node[at_leaf])
            out_row.append(lane_row[at_leaf])
            for i in range(n_axes):
                out_lo[i].append(lane_lo[i][at_leaf])
                out_hi[i].append(lane_hi[i][at_leaf])
            keep = ~at_leaf
            lane_node = lane_node[keep]
            lane_row = lane_row[keep]
            lane_lo = [lo[keep] for lo in lane_lo]
            lane_hi = [hi[keep] for hi in lane_hi]
            if not lane_node.shape[0]:
                break
        lane_axis = axis_of_node[lane_node]
        next_node: list[np.ndarray] = []
        next_row: list[np.ndarray] = []
        next_lo: list[list[np.ndarray]] = [[] for _ in range(n_axes)]
        next_hi: list[list[np.ndarray]] = [[] for _ in range(n_axes)]

        unswept = lane_axis < 0
        if unswept.any():
            node = lane_node[unswept]
            row = lane_row[unswept]
            go_left = baseline_go_left[node, row]
            next_node.append(np.where(go_left, kernel.left[node], kernel.right[node]))
            next_row.append(row)
            for i in range(n_axes):
                next_lo[i].append(lane_lo[i][unswept])
                next_hi[i].append(lane_hi[i][unswept])

        for axis_index in range(n_axes):
            on_axis = lane_axis == axis_index
            if not on_axis.any():
                continue
            node = lane_node[on_axis]
            row = lane_row[on_axis]
            slot = slot_of_node[node]
            left_lo, left_hi, right_lo, right_hi = cuts[axis_index]
            for child, node_lo, node_hi in (
                (kernel.left, left_lo, left_hi),
                (kernel.right, right_lo, right_hi),
            ):
                box_lo = np.maximum(lane_lo[axis_index][on_axis], node_lo[slot, row])
                box_hi = np.minimum(lane_hi[axis_index][on_axis], node_hi[slot, row])
                alive = box_lo < box_hi
                if not alive.any():
                    continue
                next_node.append(child[node[alive]])
                next_row.append(row[alive])
                for i in range(n_axes):
                    if i == axis_index:
                        next_lo[i].append(box_lo[alive])
                        next_hi[i].append(box_hi[alive])
                    else:
                        next_lo[i].append(lane_lo[i][on_axis][alive])
                        next_hi[i].append(lane_hi[i][on_axis][alive])

        lane_node = np.concatenate(next_node) if next_node else np.empty(0, dtype=np.intp)
        lane_row = np.concatenate(next_row) if next_row else np.empty(0, dtype=np.intp)
        lane_lo = [
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int16)
            for parts in next_lo
        ]
        lane_hi = [
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int16)
            for parts in next_hi
        ]

    leaf_node = np.concatenate(out_node)
    leaf_row = np.concatenate(out_row)
    leaf_lo = [np.concatenate(parts).astype(np.int64) for parts in out_lo]
    leaf_hi = [np.concatenate(parts).astype(np.int64) for parts in out_hi]

    # --- per-tree materialisation, accumulated in ensemble order ----------- #
    # `positive_column` mirrors ModelManager.predict_rows_matrix exactly.
    class_list = list(classes)
    positive_column = (
        class_list.index(1.0) if 1.0 in class_list else len(class_list) - 1
    )
    leaf_payload = np.ascontiguousarray(kernel.value[:, positive_column])

    tree_of_leaf = np.searchsorted(kernel.roots, leaf_node, side="right") - 1
    tree_order = np.argsort(tree_of_leaf, kind="stable")
    tree_bounds = np.searchsorted(tree_of_leaf[tree_order], np.arange(kernel.n_trees + 1))

    # grid cell layout: (row, g_0, ..., g_{k-1}) with the *largest* axis
    # innermost — boxes unroll into runs along it, so the longer that axis,
    # the fewer, longer runs each tree materialises
    grid_axes = list(np.argsort(sizes, kind="stable"))
    grid_sizes = [sizes[axis] for axis in grid_axes]
    strides = [1]
    for size in reversed(grid_sizes[1:]):
        strides.insert(0, strides[0] * size)
    total_cells = n_scenarios * n_rows
    aggregate = np.zeros(total_cells)
    run_axis = grid_axes[-1]
    for tree_index in range(kernel.n_trees):
        segment = tree_order[tree_bounds[tree_index] : tree_bounds[tree_index + 1]]
        # unroll boxes into runs along the innermost axis: expand over the
        # outer grid axes, accumulating each record's flat start offset
        record = segment
        offset = leaf_row[segment] * np.int64(n_scenarios)
        for position, axis in enumerate(grid_axes[:-1]):
            width = leaf_hi[axis][record] - leaf_lo[axis][record]
            expanded = np.repeat(np.arange(record.shape[0]), width)
            local = np.arange(expanded.shape[0]) - np.repeat(
                np.cumsum(width) - width, width
            )
            lows = leaf_lo[axis][record][expanded]
            offset = offset[expanded] + (lows + local) * strides[position]
            record = record[expanded]
        starts = offset + leaf_lo[run_axis][record]
        ends = offset + leaf_hi[run_axis][record]
        # telescoping ±id difference array: one bincount, one flat cumsum —
        # every sum is integer-valued, so float64 reconstructs the leaf-id
        # surface exactly
        ids = leaf_node[record].astype(np.float64)
        surface = np.cumsum(
            np.bincount(
                np.concatenate([starts, ends]),
                weights=np.concatenate([ids, -ids]),
                minlength=total_cells + 1,
            )[:total_cells]
        )
        aggregate += leaf_payload[surface.astype(np.intp)]
        checkpoint((tree_index + 1) / kernel.n_trees)

    predictions = aggregate / kernel.n_trees

    # --- back to enumeration order, then aggregate per scenario ------------ #
    # one (scenario, row) gather relabels (sorted level, reordered axis) grid
    # positions into the space's enumeration order; values only move, no
    # arithmetic happens
    scenario_rows = np.ascontiguousarray(predictions.reshape(n_rows, n_scenarios).T)
    inverse = [np.argsort(order, kind="stable") for order in orders]
    grid_stride_of_axis = {axis: strides[i] for i, axis in enumerate(grid_axes)}
    combo = np.zeros(1, dtype=np.intp)
    for axis_index in range(n_axes):
        contribution = inverse[axis_index] * grid_stride_of_axis[axis_index]
        combo = (combo[:, None] + contribution[None, :]).reshape(-1)
    scenario_rows = scenario_rows[combo]
    return np.array(
        [manager.kpi.aggregate(scenario_rows[index]) for index in range(n_scenarios)]
    )
