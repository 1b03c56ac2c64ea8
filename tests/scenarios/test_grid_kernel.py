"""Grid-kernel properties: exact against the list path, bounded in memory.

:func:`~repro.scenarios.kernel.grid_sweep_kpis` decides each swept node per
lane, from the row's perturbed levels in sorted order.  The property test
compares it with a full pass
(:meth:`~repro.core.model_manager.ModelManager.predict_rows_matrix`) over every
scenario's perturbed matrix, bit for bit, on random frames, forests and
spaces.  The memory test bounds the kernel's transient allocation per grid
cell and per ``(tree, row)`` lane, so a table over the forest's nodes × rows
cannot come back unnoticed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WhatIfSession
from repro.core.kpi import KPI
from repro.core.model_manager import ModelManager
from repro.frame import Column, DataFrame
from repro.scenarios import Axis, ScenarioSpace
from repro.scenarios.kernel import grid_sweep_kpis

#: Transient bytes the kernel may allocate per grid cell plus per (tree, row)
#: lane.  Per-lane decisions take 73–199 B per unit on deal_closing at 2,000
#: rows; a decision table over every (node, row) pair takes 553–1,964 B.
MAX_BYTES_PER_UNIT = 384

#: Percentage or absolute amounts; -250 and -100 flip or zero every value.
AMOUNTS = st.one_of(
    st.sampled_from([-250.0, -100.0, -40.0, 0.0, 15.0, 300.0]),
    st.floats(min_value=-250.0, max_value=300.0, allow_nan=False),
)


@st.composite
def managers(draw) -> ModelManager:
    """A small forest fitted through :class:`ModelManager` on a random frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(2, 80))
    columns: dict[str, np.ndarray] = {}
    for index in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["mixed", "zero_heavy", "constant", "repeated"]))
        if kind == "mixed":
            values = rng.normal(0.0, 3.0, n_rows)
        elif kind == "zero_heavy":
            values = rng.poisson(0.4, n_rows) * rng.choice([-1.5, 1.0], n_rows)
        elif kind == "constant":
            values = np.full(n_rows, rng.choice([-2.0, 0.0, 1.5]))
        else:  # few distinct values put rows exactly on thresholds
            values = rng.choice([-1.0, 0.0, 0.5, 2.0], n_rows)
        columns[f"x{index}"] = values
    won = rng.random(n_rows) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    frame = DataFrame({**columns, "won": Column("won", won, dtype="bool")})
    return ModelManager(
        frame,
        KPI.from_frame(frame, "won"),
        list(columns),
        model_params={
            "n_estimators": draw(st.integers(1, 5)),
            "max_depth": draw(st.sampled_from([1, 2, 4, None])),
        },
        random_state=draw(st.integers(0, 1000)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(manager=managers(), data=st.data())
def test_grid_kernel_equals_the_list_path(manager, data):
    drivers = data.draw(
        st.lists(st.sampled_from(manager.drivers), min_size=1, max_size=3, unique=True),
        label="drivers",
    )
    space = ScenarioSpace(
        [
            Axis.values(
                driver,
                data.draw(st.lists(AMOUNTS, min_size=1, max_size=6), label="amounts"),
                mode=data.draw(st.sampled_from(["percentage", "absolute"]), label="mode"),
            )
            for driver in drivers
        ]
    )
    kpis = grid_sweep_kpis(manager, space)
    assert kpis is not None
    X = manager.driver_matrix()
    expected = np.array(
        [
            manager.kpi.aggregate(
                manager.predict_rows_matrix(
                    space.perturbations(s).apply_to_matrix(X, manager.drivers)
                )
            )
            for s in space.scenarios()
        ]
    )
    assert kpis.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def deal_2k() -> ModelManager:
    manager = WhatIfSession.from_use_case(
        "deal_closing", dataset_kwargs={"n_prospects": 2000}, random_state=0
    ).model
    manager.model.kernel_, manager.driver_matrix()  # fit and extract untraced
    return manager


@pytest.mark.parametrize("shape", [(5,), (6, 5, 4), (500,)], ids=["1x5", "6x5x4", "1x500"])
def test_grid_kernel_memory_is_bounded_per_cell_and_lane(deal_2k, shape):
    space = ScenarioSpace(
        [Axis.span(driver, -40.0, 40.0, n) for driver, n in zip(deal_2k.drivers, shape)]
    )
    tracemalloc.start()
    try:
        kpis = grid_sweep_kpis(deal_2k, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kpis is not None
    n_rows = deal_2k.frame.n_rows
    units = space.size * n_rows + deal_2k.model.kernel_.n_trees * n_rows
    assert peak <= MAX_BYTES_PER_UNIT * units, (
        f"peak {peak / 1e6:.0f} MB is {peak / units:.0f} B per grid cell + lane "
        f"(bound {MAX_BYTES_PER_UNIT})"
    )
