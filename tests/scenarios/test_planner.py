"""Planner + grid-kernel tests: bitwise equality, ranking, profiles, cohorts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import WhatIfSession
from repro.core.sensitivity import run_sensitivity
from repro.frame import Column, DataFrame
from repro.scenarios import (
    Axis,
    BudgetConstraint,
    ScenarioSpace,
    SweepPlanner,
    run_sweep,
)
from repro.scenarios.kernel import grid_kernel_applies, grid_sweep_kpis


@pytest.fixture(scope="module")
def deal_session() -> WhatIfSession:
    return WhatIfSession.from_use_case(
        "deal_closing", dataset_kwargs={"n_prospects": 150}, random_state=0
    )


@pytest.fixture(scope="module")
def marketing_session() -> WhatIfSession:
    return WhatIfSession.from_use_case(
        "marketing_mix", dataset_kwargs={"n_days": 90}, random_state=0
    )


def loop_kpis(manager, space) -> list[float]:
    return [
        run_sensitivity(manager, space.perturbations(scenario)).perturbed_kpi
        for scenario in space.scenarios()
    ]


class TestBitwiseEquality:
    def test_grid_kernel_matches_sensitivity_loop(self, deal_session):
        space = ScenarioSpace(
            [Axis.span(d, -40.0, 40.0, 4) for d in deal_session.drivers[:3]]
        )
        assert grid_kernel_applies(deal_session.model, space)
        result = run_sweep(deal_session.model, space, top_k=5)
        assert list(result.kpi_values) == loop_kpis(deal_session.model, space)

    def test_absolute_mode_and_value_lists(self, deal_session):
        space = ScenarioSpace(
            [
                Axis.grid(deal_session.drivers[0], -2.0, 2.0, 1.0, mode="absolute"),
                Axis.values(deal_session.drivers[1], [25.0, -25.0, 0.0]),
            ]
        )
        result = run_sweep(deal_session.model, space)
        assert list(result.kpi_values) == loop_kpis(deal_session.model, space)

    def test_single_axis_single_level(self, deal_session):
        space = ScenarioSpace([Axis.values(deal_session.drivers[0], [15.0])])
        result = run_sweep(deal_session.model, space, top_k=1)
        assert list(result.kpi_values) == loop_kpis(deal_session.model, space)

    def test_linear_model_fallback(self, marketing_session):
        space = ScenarioSpace(
            [Axis.span(d, -20.0, 20.0, 3) for d in marketing_session.drivers[:2]]
        )
        assert not grid_kernel_applies(marketing_session.model, space)
        assert grid_sweep_kpis(marketing_session.model, space) is None
        result = run_sweep(marketing_session.model, space)
        assert list(result.kpi_values) == loop_kpis(marketing_session.model, space)

    def test_constrained_space_fallback(self, deal_session):
        space = ScenarioSpace(
            [Axis.span(d, -30.0, 30.0, 3) for d in deal_session.drivers[:3]],
            constraints=[BudgetConstraint.of(60.0)],
        )
        assert grid_sweep_kpis(deal_session.model, space) is None
        result = run_sweep(deal_session.model, space)
        assert list(result.kpi_values) == loop_kpis(deal_session.model, space)
        assert result.n_pruned == space.size - result.n_scenarios > 0

    def test_sampled_space_fallback(self, deal_session):
        space = ScenarioSpace(
            [Axis.span(d, -40.0, 40.0, 8) for d in deal_session.drivers[:3]]
        ).sampled(25, method="halton", seed=1)
        result = run_sweep(deal_session.model, space)
        assert result.n_scenarios == 25
        assert list(result.kpi_values) == loop_kpis(deal_session.model, space)

    def test_kernel_handles_negative_driver_values(self):
        # negative values flip the perturbation's monotonic direction per
        # row, turning prefix decision intervals into suffixes — the kernel
        # must stay exact (and the data is zero-heavy, exercising constants)
        rng = np.random.default_rng(5)
        n = 120
        x1 = rng.normal(0.0, 2.0, n).round(1)  # mixed signs, many repeats
        x2 = rng.poisson(1.0, n).astype(float)  # zero-heavy counts
        y = (x1 + x2 + rng.normal(0, 0.5, n)) > 0.5
        frame = DataFrame(
            {
                "x1": x1,
                "x2": x2,
                "won": Column("won", y, dtype="bool"),
            }
        )
        session = WhatIfSession(frame, "won", random_state=0)
        space = ScenarioSpace(
            [Axis.span("x1", -40.0, 40.0, 5), Axis.span("x2", -40.0, 40.0, 5)]
        )
        assert grid_kernel_applies(session.model, space)
        result = run_sweep(session.model, space)
        assert list(result.kpi_values) == loop_kpis(session.model, space)


class TestRankingAndProfiles:
    @pytest.fixture(scope="class")
    def result(self, deal_session):
        space = ScenarioSpace(
            [Axis.span(d, -40.0, 40.0, 3) for d in deal_session.drivers[:3]]
        )
        return run_sweep(deal_session.model, space, top_k=5)

    def test_frontier_is_ranked(self, result):
        kpis = [entry.kpi_value for entry in result.top]
        assert kpis == sorted(kpis, reverse=True)
        assert [entry.rank for entry in result.top] == [1, 2, 3, 4, 5]
        assert result.best_kpi == max(result.kpi_values)
        assert result.uplift == result.best_kpi - result.baseline_kpi

    def test_minimize_goal_flips_ranking(self, deal_session):
        space = ScenarioSpace(
            [Axis.span(d, -40.0, 40.0, 3) for d in deal_session.drivers[:2]]
        )
        worst = run_sweep(deal_session.model, space, goal="minimize", top_k=1)
        assert worst.best_kpi == min(worst.kpi_values)

    def test_marginals_match_manual_means(self, result):
        kpis = np.asarray(result.kpi_values)
        space = ScenarioSpace.from_dict(result.space)
        amounts = np.array([s.amounts for s in space.scenarios()])
        for column, axis in enumerate(space.axes):
            points = result.marginals[axis.driver]
            assert [p["amount"] for p in points] == list(axis.amounts)
            for point in points:
                mask = amounts[:, column] == point["amount"]
                assert point["count"] == int(mask.sum())
                assert point["mean_kpi"] == pytest.approx(kpis[mask].mean())
                assert point["best_kpi"] == pytest.approx(kpis[mask].max())

    def test_to_dict_is_json_safe(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["n_scenarios"] == len(payload["kpi_values"])
        assert payload["top"][0]["rank"] == 1


class TestCohortBreakdown:
    def test_per_cohort_values_match_manual_grouping(self):
        session = WhatIfSession.from_use_case(
            "customer_retention", dataset_kwargs={"n_customers": 160}, random_state=0
        )
        cohort_column = next(
            name
            for name in session.frame.columns
            if not session.frame.column(name).is_numeric
        )
        space = ScenarioSpace([Axis.span(session.drivers[0], -20.0, 20.0, 3)])
        result = SweepPlanner(
            session.model, space, top_k=2, cohort_column=cohort_column
        ).run()
        cohorts = result.cohorts
        assert cohorts["column"] == cohort_column
        labels = list(cohorts["baseline"])
        assert len(labels) >= 2
        # manual check: baseline per-cohort aggregate from the global model
        manager = session.model
        rows = manager.baseline_rows()
        values = session.frame.column(cohort_column)
        for label in labels:
            mask = np.array([str(values[i]) == label for i in range(len(values))])
            expected = manager.kpi.aggregate(rows[mask])
            assert cohorts["baseline"][label] == pytest.approx(expected)
        assert len(cohorts["scenarios"]) == 2
        assert set(cohorts["scenarios"][0]["per_cohort"]) == set(labels)

    def test_unknown_cohort_column_rejected(self, deal_session):
        space = ScenarioSpace([Axis.values(deal_session.drivers[0], [10.0])])
        with pytest.raises(ValueError):
            SweepPlanner(deal_session.model, space, cohort_column="nope")


class TestValidationAndProgress:
    def test_unknown_driver_rejected(self, deal_session):
        with pytest.raises(ValueError, match="not model inputs"):
            SweepPlanner(
                deal_session.model, ScenarioSpace([Axis.values("ghost", [1.0])])
            )

    def test_bad_goal_and_top_k_rejected(self, deal_session):
        space = ScenarioSpace([Axis.values(deal_session.drivers[0], [1.0])])
        with pytest.raises(ValueError):
            SweepPlanner(deal_session.model, space, goal="target")
        with pytest.raises(ValueError):
            SweepPlanner(deal_session.model, space, top_k=0)

    def test_empty_space_after_pruning_rejected(self, deal_session):
        space = ScenarioSpace(
            [Axis.values(deal_session.drivers[0], [50.0])],
            constraints=[BudgetConstraint.of(1.0)],
        )
        with pytest.raises(ValueError, match="empty"):
            run_sweep(deal_session.model, space)

    def test_checkpoint_reports_monotone_progress(self, deal_session):
        space = ScenarioSpace(
            [Axis.span(d, -30.0, 30.0, 3) for d in deal_session.drivers[:2]]
        )
        fractions: list[float] = []
        run_sweep(deal_session.model, space, checkpoint=fractions.append)
        assert fractions, "checkpoint was never called"
        assert fractions == sorted(fractions)
        assert fractions[-1] <= 1.0

    def test_auto_records_into_scenario_ledger(self, deal_session):
        before = len(deal_session.scenarios)
        space = ScenarioSpace([Axis.values(deal_session.drivers[0], [10.0])])
        result = deal_session.sweep(space, track_as="one-dial sweep")
        assert len(deal_session.scenarios) == before + 1
        recorded = deal_session.scenarios.list()[-1]
        assert recorded.kind == "sweep"
        assert recorded.name == "one-dial sweep"
        assert recorded.kpi_value == result.best_kpi
