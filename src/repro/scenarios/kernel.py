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
   with an axis's amounts sorted ascending every row's perturbed levels
   either rise or fall, and the levels that send the row *left* at a node
   testing that axis's driver are a prefix (rising) or a suffix (falling)
   of the level order — an **interval**, whose complement is also one.  The
   cut between them is how many of the row's levels are ``<=`` the node's
   threshold, a binary search over the row's levels in ascending order.
2. **Box propagation.**  A traversal lane therefore never needs one slot per
   scenario: it carries a per-axis level interval (a *box* of the grid).
   Each decision is made where a lane is, never tabulated ahead: at a node
   on an unswept feature the whole box follows the row's baseline value
   (the forest's own self-looping step, so finished lanes spin in their
   leaf); at a node on a swept axis the box splits at the cut into at most
   two boxes.  Each ``(tree, row)`` pair ends at a handful of leaf boxes
   instead of ``n_scenarios`` leaves, and the transient memory is the lanes
   and the grid, not the forest's nodes × rows.

Materialisation stays **bitwise identical** to the per-scenario path: each
tree's boxes are unrolled into runs along the innermost grid axis, the runs'
leaf *node ids* (exact integers) become a telescoping ``±id`` difference
array (one ``bincount``), one flat integer ``cumsum`` — exact in float64 —
rebuilds the dense leaf-id surface, the ids gather the very leaf payload
floats the per-scenario traversal would read, and trees accumulate in
ensemble order.  Every ``(scenario, row)`` prediction — and every KPI
aggregated from them — therefore matches a full pass
(:meth:`~repro.core.model_manager.ModelManager.predict_rows_matrix`) bit for
bit.  The planner scores each scenario through
:meth:`~repro.core.model_manager.ModelManager.predict_kpi_batch` whenever the
kernel does not apply (non-forest models, sampled or constrained spaces); the
KPI values are identical either way, only the speed differs.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.model_manager import ModelManager
from ..core.sensitivity import ignore
from ..ml import RandomForestClassifier
from .space import ScenarioSpace

__all__ = ["grid_sweep_kpis", "grid_kernel_applies", "MAX_GRID_CELLS"]

#: Upper bound on ``n_scenarios × n_rows`` grid cells the kernel will
#: materialise (the prediction surface is one float64 per cell).
MAX_GRID_CELLS = 32_000_000


def grid_kernel_applies(manager: ModelManager, space: ScenarioSpace) -> bool:
    """Whether :func:`grid_sweep_kpis` will score this (manager, space) pair.

    Cheap structural check (no scoring): exhaustive unconstrained space, a
    forest classifier, and a grid small enough to materialise.  The kernel
    itself may still fall back in one rare case — a row whose perturbed
    levels neither rise nor fall — which this probe does not predict.
    """
    if space.sample is not None or space.constraints:
        return False
    if not isinstance(manager.model, RandomForestClassifier):
        return False
    sizes = [len(axis.amounts) for axis in space.axes]
    return int(np.prod(sizes)) * manager.frame.n_rows <= MAX_GRID_CELLS


def grid_sweep_kpis(
    manager: ModelManager,
    space: ScenarioSpace,
    *,
    checkpoint: Callable[[float], None] = ignore,
) -> np.ndarray | None:
    """KPIs of every grid scenario in enumeration order, or None if the
    kernel does not apply.

    Applies to exhaustive, unconstrained spaces scored by a forest
    classifier (the model family every discrete-KPI session trains).
    ``checkpoint`` is called after each tree with the completed fraction.
    """
    if not grid_kernel_applies(manager, space):
        return None
    kernel = manager.model.kernel_
    X = np.ascontiguousarray(manager.driver_matrix())
    n_rows, n_columns = X.shape
    sizes = np.array([len(axis.amounts) for axis in space.axes], dtype=np.intp)
    n_axes = sizes.shape[0]
    n_scenarios = int(np.prod(sizes))

    # --- per-axis level tables -------------------------------------------- #
    # The interval property needs amounts ascending; `orders` maps sorted
    # level positions back to the axis's enumeration order at the end.  Each
    # row's perturbed levels must rise or fall (bail out to the fallback path
    # otherwise rather than risk a wrong answer); they are stored ascending,
    # row-major, so a lane's binary search reads one contiguous run.
    orders = [np.argsort(np.asarray(axis.amounts, dtype=np.float64)) for axis in space.axes]
    axis_of_node = np.full(kernel.feature.shape[0], -1, dtype=np.intp)
    tables: list[np.ndarray] = []
    rising: list[np.ndarray] = []
    for axis_index, (axis, order) in enumerate(zip(space.axes, orders)):
        column = manager.drivers.index(axis.driver)
        axis_of_node[kernel.feature == column] = axis_index  # leaves stay -1
        levels = np.stack(
            [
                axis.perturbation(axis.amounts[level]).apply_to_values(X[:, column])
                for level in order
            ],
            axis=1,
        )
        step = np.diff(levels, axis=1)
        up = (step >= 0).all(axis=1)
        if not (up | (step <= 0).all(axis=1)).all():  # pragma: no cover - guard
            return None
        tables.append(np.where(up[:, None], levels, levels[:, ::-1]).ravel())
        rising.append(up)
    table = np.concatenate(tables)
    rows_rising = np.concatenate(rising)
    del tables, levels, step  # keeps the transient peak near the grid's
    table_start = np.concatenate([[0], np.cumsum(sizes * n_rows)[:-1]])

    # --- box-propagating traversal (all trees at once) --------------------- #
    flat = X.ravel()
    node = np.repeat(kernel.roots, n_rows)
    row = np.tile(np.arange(n_rows, dtype=np.intp), kernel.n_trees)
    lo = np.zeros((n_axes, node.shape[0]), dtype=np.intp)
    hi = np.repeat(sizes[:, None], node.shape[0], axis=1)
    top_bit = 1 << (int(sizes.max()).bit_length() - 1)
    for _ in range(kernel.max_depth):
        split = np.flatnonzero(axis_of_node[node] >= 0)
        parent = node[split]
        node = kernel._step(flat, row * n_columns, node)
        lane_axis = axis_of_node[parent]
        lane_row = row[split]
        length = sizes[lane_axis]
        up = rows_rising[lane_axis * n_rows + lane_row]
        # how many of the row's levels are <= the threshold: a branch-free
        # binary search, one bit of the count per pass
        base = table_start[lane_axis] + lane_row * length - 1
        threshold = kernel.threshold[parent]
        count = np.zeros(split.shape[0], dtype=np.intp)
        bit = top_bit
        while bit:
            probe = count + bit
            inside = probe <= length
            count += bit * (inside & (table[base + np.minimum(probe, length)] <= threshold))
            bit >>= 1
        # the box splits at the cut: the lower piece goes left on a rising
        # row and right on a falling one, the upper piece the other way
        cut = np.where(up, count, length - count)
        box_lo = lo[lane_axis, split]
        box_hi = hi[lane_axis, split]
        below = np.minimum(box_hi, cut)
        above = np.maximum(box_lo, cut)
        lower_child = np.where(up, kernel.left[parent], kernel.right[parent])
        upper_child = np.where(up, kernel.right[parent], kernel.left[parent])
        has_lower = box_lo < below
        node[split] = np.where(has_lower, lower_child, upper_child)
        lo[lane_axis, split] = np.where(has_lower, box_lo, above)
        hi[lane_axis, split] = np.where(has_lower, below, box_hi)
        # a box cut in two sends its upper piece on as a new lane
        twins = np.flatnonzero(has_lower & (above < box_hi))
        if twins.shape[0]:
            twin_lo = lo[:, split[twins]]
            twin_hi = hi[:, split[twins]]
            twin_lo[lane_axis[twins], np.arange(twins.shape[0])] = above[twins]
            twin_hi[lane_axis[twins], np.arange(twins.shape[0])] = box_hi[twins]
            node = np.concatenate([node, upper_child[twins]])
            row = np.concatenate([row, lane_row[twins]])
            lo = np.concatenate([lo, twin_lo], axis=1)
            hi = np.concatenate([hi, twin_hi], axis=1)

    del table, rows_rising

    # --- per-tree materialisation, accumulated in ensemble order ----------- #
    leaf_payload = np.ascontiguousarray(manager._positive_class(kernel.value))
    tree_of_leaf = np.searchsorted(kernel.roots, node, side="right") - 1
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
        offset = row[segment] * np.int64(n_scenarios)
        for position, axis in enumerate(grid_axes[:-1]):
            width = hi[axis][record] - lo[axis][record]
            expanded = np.repeat(np.arange(record.shape[0]), width)
            local = np.arange(expanded.shape[0]) - np.repeat(
                np.cumsum(width) - width, width
            )
            lows = lo[axis][record][expanded]
            offset = offset[expanded] + (lows + local) * strides[position]
            record = record[expanded]
        starts = offset + lo[run_axis][record]
        ends = offset + hi[run_axis][record]
        # telescoping ±id difference array: one bincount, one flat cumsum —
        # every sum is integer-valued, so float64 reconstructs the leaf-id
        # surface exactly
        ids = node[record].astype(np.float64)
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
