"""Cross-executor contract: one work decomposition, the same on both executors.

Every heavy analysis splits its work into the same ``(function, payload)``
units whether a thread job runs them inline (a checkpoint and no executor)
or a :class:`ProcessExecutor` fans them out.  For each analysis this module
asserts, between the two:

* bitwise-equal results;
* the same chunk-event types, each with the same key set;
* monotone progress on each.
"""

from __future__ import annotations

import json

import pytest

import repro.core.sensitivity as sensitivity_mod
import repro.scenarios.planner as planner_mod
from repro.core import WhatIfSession
from repro.engine import ProcessExecutor
from repro.scenarios import Axis, ScenarioSpace
from repro.server.serialization import to_json_safe

pytestmark = pytest.mark.skipif(
    not ProcessExecutor.available(), reason="spawn start method unavailable"
)


@pytest.fixture(scope="module")
def session():
    session = WhatIfSession.from_use_case(
        "deal_closing", dataset_kwargs={"n_prospects": 300}, random_state=0
    )
    session.model.fit()
    return session


@pytest.fixture(scope="module")
def pool():
    executor = ProcessExecutor(workers=2, name="repro-contract")
    yield executor
    executor.shutdown(wait=True)


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """Several units per analysis even on the small dataset."""
    monkeypatch.setattr(sensitivity_mod, "SENSITIVITY_CHUNK_ROWS", 64)
    monkeypatch.setattr(sensitivity_mod, "COMPARISON_CHUNK_MATRICES", 2)
    monkeypatch.setattr(planner_mod, "SWEEP_CHUNK_SCENARIOS", 4)


def _sweep(space):
    return lambda session, **kw: session.sweep(space, top_k=3, **kw)


def _grid_space(drivers):
    return ScenarioSpace(
        [Axis.span(drivers[0], -30.0, 30.0, 4), Axis.values(drivers[1], [0.0, 20.0, 40.0])]
    )


def _sampled_space(drivers):
    return ScenarioSpace(
        [Axis.span(drivers[0], -30.0, 30.0, 7), Axis.span(drivers[1], -30.0, 30.0, 7)],
        sample={"n": 12, "method": "random", "seed": 3},
    )


#: A lambda cannot cross the process boundary: the parent prunes the space
#: once and ships perturbation sets instead.  One shared object keeps the
#: constraint's ``repr`` (part of the result's space) equal across runs.
WITHIN_BUDGET = lambda amounts: sum(amounts.values()) <= 20.0  # noqa: E731


def _constrained_space(drivers):
    return ScenarioSpace(
        [Axis.span(drivers[0], -30.0, 30.0, 4), Axis.span(drivers[1], -30.0, 30.0, 4)],
        constraints=[WITHIN_BUDGET],
    )


CASES = {
    "sensitivity": lambda session, **kw: session.sensitivity(
        {session.drivers[0]: 25.0}, **kw
    ),
    "comparison": lambda session, **kw: session.comparison_analysis(
        session.drivers[:3], [-20.0, 0.0, 20.0, 40.0], **kw
    ),
    "grid_sweep": lambda session, **kw: _sweep(_grid_space(session.drivers))(session, **kw),
    "sampled_sweep": lambda session, **kw: _sweep(_sampled_space(session.drivers))(
        session, **kw
    ),
    "constrained_sweep": lambda session, **kw: _sweep(
        _constrained_space(session.drivers)
    )(session, **kw),
    "goal_inversion": lambda session, **kw: session.goal_inversion(
        "maximize", drivers=session.drivers[:2], n_calls=8, **kw
    ),
    "driver_importance": lambda session, **kw: session.driver_importance(
        verify=True, **kw
    ),
}


def run_case(case, session, executor):
    fractions: list[float] = []
    events: list[tuple[str, dict]] = []
    kwargs = {"checkpoint": fractions.append, "executor": executor}
    if case not in ("goal_inversion", "driver_importance"):
        kwargs["emit"] = lambda type_, data: events.append((type_, data))
    result = CASES[case](session, **kwargs)
    return json.dumps(to_json_safe(result), sort_keys=True), fractions, events


def event_shapes(events):
    """``{event type: set of key tuples}`` of the chunk events."""
    shapes: dict[str, set[tuple[str, ...]]] = {}
    for type_, data in events:
        shapes.setdefault(type_, set()).add(tuple(sorted(data)))
    return shapes


@pytest.mark.parametrize("case", sorted(CASES))
def test_inline_and_process_executors_agree(case, session, pool):
    inline_result, inline_progress, inline_events = run_case(case, session, None)
    process_result, process_progress, process_events = run_case(case, session, pool)

    assert inline_result == process_result

    assert event_shapes(inline_events) == event_shapes(process_events)
    if case in ("sensitivity", "comparison") or case.endswith("_sweep"):
        # inline, a grid sweep is one block; everything else splits in chunks
        assert len(inline_events) > (0 if case == "grid_sweep" else 1)
        assert len(process_events) > 1, "the pool gets a unit per worker"

    for fractions in (inline_progress, process_progress):
        assert fractions, "checkpoint was never called"
        assert fractions == sorted(fractions), "progress went backwards"
        assert 0.0 <= fractions[0] and fractions[-1] <= 1.0


def test_sensitivity_partial_kpi_converges_to_the_result(session, pool):
    for executor in (None, pool):
        _, _, events = run_case("sensitivity", session, executor)
        result = session.sensitivity({session.drivers[0]: 25.0})
        last = max(events, key=lambda event: event[1]["rows_scored"])[1]
        assert last["rows_scored"] == last["n_rows"]
        assert last["partial_kpi"] == result.perturbed_kpi
