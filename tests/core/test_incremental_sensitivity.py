"""One-driver sensitivity is scored incrementally and stays bitwise exact.

``ModelManager.predict_perturbed_rows`` re-traverses only the lanes whose
baseline path tests the moved driver.  Every property here compares it, and
``run_sensitivity`` on top of it, with a full pass over the same perturbed
rows: random forests and row ranges, both perturbation modes, clipping to
zero, −100%, amount 0, a driver no tree splits on, the bare call and the
unit path.  A non-finite perturbed value must still raise the full path's
error, concurrent first calls on one shared manager must agree with a serial
reference, and ``repro_scoring_path_total`` must name the path taken.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KPI, ModelManager, Perturbation, PerturbationSet, run_sensitivity
from repro.core.sensitivity import InlineExecutor
from repro.frame import DataFrame
from repro.obs import metrics
from repro.scenarios import Axis, ScenarioSpace, run_sweep


class ThreeWayExecutor(InlineExecutor):
    """The inline executor, but splitting row ranges three ways."""

    workers = 3


def make_manager(seed: int, n_rows: int, n_trees: int, max_depth, *, big: float = 50.0):
    """A fitted forest manager over non-negative drivers; ``d3`` is constant."""
    rng = np.random.default_rng(seed)
    columns = {f"d{i}": np.round(rng.uniform(0.0, big, size=n_rows), 1) for i in range(3)}
    columns["d3"] = np.full(n_rows, 7.0)
    y = columns["d0"] + rng.normal(scale=big / 4, size=n_rows) > big / 2
    columns["won"] = y.tolist()
    frame = DataFrame(columns)
    manager = ModelManager(
        frame,
        KPI("won", "discrete"),
        ["d0", "d1", "d2", "d3"],
        model_params={"n_estimators": n_trees, "max_depth": max_depth},
        cv_folds=0,
        random_state=seed,
    )
    return manager.fit()


def full_rows(manager: ModelManager, perturbations: PerturbationSet, start=0, stop=None):
    """The reference: perturb the rows and score them from the roots."""
    matrix = perturbations.apply_to_matrix(manager.driver_matrix()[start:stop], manager.drivers)
    return manager.predict_rows_matrix(matrix)


@st.composite
def one_driver_sets(draw):
    amount = draw(
        st.one_of(
            st.sampled_from([0.0, -100.0, -150.0, 100.0]),
            st.floats(-200.0, 200.0, allow_nan=False),
        )
    )
    return PerturbationSet(
        [
            Perturbation(
                draw(st.sampled_from(["d0", "d1", "d2", "d3"])),
                amount,
                draw(st.sampled_from(["percentage", "absolute"])),
                clip_non_negative=draw(st.booleans()),
            )
        ]
    )


@st.composite
def managers(draw):
    return make_manager(
        draw(st.integers(0, 10_000)),
        draw(st.integers(3, 80)),
        draw(st.integers(1, 6)),
        draw(st.sampled_from([None, 1, 2, 4, 8])),
    )


@settings(max_examples=60, deadline=None)
@given(manager=managers(), perturbations=one_driver_sets(), data=st.data())
def test_row_range_scores_bitwise_equal_to_full_pass(manager, perturbations, data):
    n_rows = manager.frame.n_rows
    start = data.draw(st.integers(0, n_rows), label="start")
    stop = data.draw(st.integers(start, n_rows), label="stop")
    assert manager.restart_feature(perturbations) is not None
    assert np.array_equal(
        manager.predict_perturbed_rows(perturbations, start, stop),
        full_rows(manager, perturbations, start, stop),
    )


@settings(max_examples=40, deadline=None)
@given(manager=managers(), perturbations=one_driver_sets())
def test_run_sensitivity_bare_and_with_units_equal_full_pass(manager, perturbations):
    expected = manager.kpi.aggregate(full_rows(manager, perturbations))
    bare = run_sensitivity(manager, perturbations)
    checkpoints: list[float] = []
    units = run_sensitivity(manager, perturbations, checkpoint=checkpoints.append)
    split = run_sensitivity(manager, perturbations, executor=ThreeWayExecutor())
    assert bare.perturbed_kpi == units.perturbed_kpi == split.perturbed_kpi == expected
    assert bare.original_kpi == manager.kpi.aggregate(manager.baseline_rows())
    assert checkpoints  # the unit path ran


def test_multi_driver_sets_and_linear_models_take_the_full_path(marketing_session):
    manager = make_manager(1, 50, 4, 4)
    two = PerturbationSet.from_mapping({"d0": 10.0, "d1": -20.0})
    assert manager.restart_feature(two) is None
    assert np.array_equal(manager.predict_perturbed_rows(two), full_rows(manager, two))
    linear = marketing_session.model
    one = PerturbationSet.from_mapping({"Internet": 30.0})
    assert linear.restart_feature(one) is None
    assert np.array_equal(linear.predict_perturbed_rows(one), full_rows(linear, one))


def test_non_finite_perturbed_value_raises_the_full_path_error():
    manager = make_manager(3, 40, 3, 4, big=1000.0)
    overflow = PerturbationSet.from_mapping({"d1": 1e308})
    assert manager.restart_feature(overflow) is not None
    with pytest.raises(ValueError) as full_error:
        full_rows(manager, overflow)
    with pytest.raises(ValueError) as incremental_error:
        manager.predict_perturbed_rows(overflow)
    assert str(incremental_error.value) == str(full_error.value)
    for kwargs in ({}, {"checkpoint": lambda _fraction: None}):
        with pytest.raises(ValueError, match="NaN or infinity"):
            run_sensitivity(manager, overflow, **kwargs)


def test_concurrent_first_calls_on_a_fresh_shared_manager_match_serial():
    shared = make_manager(5, 600, 8, 8)
    reference = make_manager(5, 600, 8, 8)
    jobs = [
        PerturbationSet.from_mapping({driver: amount}, mode=mode)
        for driver in ("d0", "d1", "d2")
        for amount, mode in ((25.0, "percentage"), (-60.0, "percentage"), (3.0, "absolute"))
    ]
    expected = [reference.kpi.aggregate(full_rows(reference, job)) for job in jobs]
    n_threads = 12
    barrier = threading.Barrier(n_threads, timeout=30)
    results: dict[int, list[float]] = {}
    errors: list[BaseException] = []

    def analyst(index: int) -> None:
        try:
            barrier.wait()
            order = jobs[index % len(jobs) :] + jobs[: index % len(jobs)]
            kwargs = {"executor": ThreeWayExecutor()} if index % 2 else {}
            scored = {id(job): run_sensitivity(shared, job, **kwargs) for job in order}
            results[index] = [scored[id(job)].perturbed_kpi for job in jobs]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=analyst, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == n_threads
    for scored in results.values():
        assert scored == expected


def counter(action: str, path: str) -> float:
    return metrics.counter("repro_scoring_path_total").labels(action, path).value


def test_scoring_path_metric_names_the_path(deal_manager):
    driver, other = deal_manager.drivers[:2]
    incremental, full = counter("sensitivity", "incremental"), counter("sensitivity", "full")
    run_sensitivity(deal_manager, PerturbationSet.from_mapping({driver: 20.0}))
    assert counter("sensitivity", "incremental") == incremental + 1
    assert counter("sensitivity", "full") == full
    run_sensitivity(deal_manager, PerturbationSet.from_mapping({driver: 20.0, other: 5.0}))
    assert counter("sensitivity", "incremental") == incremental + 1
    assert counter("sensitivity", "full") == full + 1

    grid, batch = counter("run_sweep", "grid"), counter("run_sweep", "batch")
    space = ScenarioSpace([Axis.span(d, -20.0, 20.0, 3) for d in (driver, other)])
    run_sweep(deal_manager, space, top_k=1)
    run_sweep(deal_manager, space.sampled(4, method="halton", seed=1), top_k=1)
    assert counter("run_sweep", "grid") == grid + 1
    assert counter("run_sweep", "batch") == batch + 1
