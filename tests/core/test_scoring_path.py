"""One scoring path: every perturbation set goes through ``predict_perturbed_rows``.

``ModelManager.predict_kpi_batch`` scores each set on its own, choosing the
path from the set and the model: the restart pass for one driver on a
forest, a full pass otherwise.  The property test compares it, bit for bit,
with an explicit full pass over each set's perturbed matrix on random
frames, forests and linear models.  The memory test bounds a whole
comparison analysis per ``(row, tree)``, so a batch that stacks every
perturbed copy of the dataset cannot come back unnoticed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WhatIfSession
from repro.core.kpi import KPI
from repro.core.model_manager import ModelManager
from repro.core.perturbation import Perturbation, PerturbationSet
from repro.frame import Column, DataFrame

#: Transient bytes a full comparison analysis may allocate per (row, tree).
#: Scoring set by set takes ~44 B on deal_closing at 2,000 rows; stacking
#: every perturbed matrix into one pass takes ~2,200 B.
MAX_BYTES_PER_ROW_TREE = 256

#: -100% zeroes a value; ±250 flips or swamps it in either mode.
AMOUNTS = st.one_of(
    st.sampled_from([-250.0, -100.0, 0.0, 250.0]),
    st.floats(min_value=-250.0, max_value=250.0, allow_nan=False),
)


@st.composite
def managers(draw) -> ModelManager:
    """A forest of 1–5 trees or a linear model, fitted on a random frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(2, 60))
    columns: dict[str, np.ndarray] = {}
    for index in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # few distinct values put rows exactly on thresholds
            columns[f"x{index}"] = rng.choice([-1.0, 0.0, 0.5, 2.0], n_rows)
        else:
            columns[f"x{index}"] = rng.normal(0.0, 3.0, n_rows)
    if draw(st.booleans()):
        kpi = KPI("kpi", "discrete")
        target = Column("kpi", rng.random(n_rows) < 0.5, dtype="bool")
        params = {"n_estimators": draw(st.integers(1, 5))}
    else:
        kpi = KPI("kpi", "continuous")
        target = Column("kpi", rng.normal(10.0, 2.0, n_rows), dtype="float")
        params = {}
    return ModelManager(
        DataFrame({**columns, "kpi": target}),
        kpi,
        list(columns),
        model_params=params,
        cv_folds=0,
        random_state=draw(st.integers(0, 1000)),
    )


@st.composite
def perturbation_sets(draw, drivers: list[str]) -> PerturbationSet:
    """A set moving 0–3 of ``drivers``, each in either mode."""
    return PerturbationSet(
        [
            Perturbation(
                driver,
                draw(AMOUNTS),
                draw(st.sampled_from(["percentage", "absolute"])),
                clip_non_negative=draw(st.booleans()),
            )
            for driver in draw(st.lists(st.sampled_from(drivers), max_size=3, unique=True))
        ]
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(manager=managers(), data=st.data())
def test_predict_kpi_batch_equals_a_full_pass_per_set(manager, data):
    sets = data.draw(st.lists(perturbation_sets(manager.drivers), max_size=6), label="sets")
    X = manager.driver_matrix()
    full_pass = [manager.predict_rows_matrix(s.apply_to_matrix(X, manager.drivers)) for s in sets]
    expected = np.array([manager.kpi.aggregate(rows) for rows in full_pass], dtype=np.float64)
    assert manager.predict_kpi_batch(sets).tobytes() == expected.tobytes()


def test_comparison_memory_is_bounded_per_row_and_tree():
    session = WhatIfSession.from_use_case(
        "deal_closing", dataset_kwargs={"n_prospects": 2000}, random_state=0
    )
    manager = session.model
    session.comparison_analysis(drivers=manager.drivers[:1], amounts=(20.0,))  # warm
    tracemalloc.start()
    try:
        result = session.comparison_analysis(amounts=(-40.0, -20.0, 0.0, 20.0, 40.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.points) == 5 * len(manager.drivers)
    units = manager.frame.n_rows * manager.model.kernel_.n_trees
    assert peak <= MAX_BYTES_PER_ROW_TREE * units, (
        f"peak {peak / 1e6:.1f} MB is {peak / units:.0f} B per (row, tree) "
        f"(bound {MAX_BYTES_PER_ROW_TREE})"
    )
