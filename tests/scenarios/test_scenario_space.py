"""Unit tests for the declarative scenario-space grammar."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import Axis, BudgetConstraint, ScenarioSpace


class TestAxis:
    def test_values_deduplicates_preserving_order(self):
        axis = Axis.values("Call", [10.0, 20.0, 10.0, 0.0])
        assert axis.amounts == (10.0, 20.0, 0.0)

    def test_grid_is_inclusive_of_stop(self):
        axis = Axis.grid("Call", -40.0, 40.0, 20.0)
        assert axis.amounts == (-40.0, -20.0, 0.0, 20.0, 40.0)

    def test_span_evenly_spaces(self):
        axis = Axis.span("Call", 0.0, 10.0, 3)
        assert axis.amounts == (0.0, 5.0, 10.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Axis.values("Call", [])
        with pytest.raises(ValueError):
            Axis.values("Call", [float("nan")])
        with pytest.raises(ValueError):
            Axis.values("Call", [1.0], mode="typo")
        with pytest.raises(ValueError):
            Axis.grid("Call", 0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            Axis.grid("Call", 10.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            Axis.values("", [1.0])

    def test_from_dict_shorthands(self):
        grid = Axis.from_dict({"driver": "Call", "start": 0, "stop": 20, "step": 10})
        assert grid.amounts == (0.0, 10.0, 20.0)
        span = Axis.from_dict({"driver": "Call", "start": 0, "stop": 10, "num": 2})
        assert span.amounts == (0.0, 10.0)
        values = Axis.from_dict({"driver": "Call", "amounts": [3, 1], "mode": "absolute"})
        assert values.amounts == (3.0, 1.0)
        assert values.mode == "absolute"
        with pytest.raises(ValueError):
            Axis.from_dict({"driver": "Call"})
        with pytest.raises(ValueError):
            Axis.from_dict({"amounts": [1.0]})


class TestScenarioSpace:
    def test_axes_sorted_by_driver(self):
        space = ScenarioSpace([Axis.values("b", [1.0]), Axis.values("a", [2.0])])
        assert space.drivers == ["a", "b"]

    def test_duplicate_driver_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpace([Axis.values("a", [1.0]), Axis.values("a", [2.0])])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpace([])

    def test_cartesian_enumeration_order(self):
        space = ScenarioSpace(
            [Axis.values("b", [0.0, 1.0]), Axis.values("a", [10.0, 20.0])]
        )
        assert space.size == 4
        amounts = [s.amounts for s in space.scenarios()]
        # axes sorted (a, b); rightmost axis varies fastest
        assert amounts == [(10.0, 0.0), (10.0, 1.0), (20.0, 0.0), (20.0, 1.0)]
        assert [s.scenario_index for s in space.scenarios()] == [0, 1, 2, 3]

    def test_perturbations_and_label(self):
        space = ScenarioSpace(
            [Axis.values("a", [10.0]), Axis.values("b", [5.0], mode="absolute")]
        )
        scenario = space.scenarios()[0]
        perturbations = space.perturbations(scenario)
        assert perturbations["a"].mode == "percentage"
        assert perturbations["b"].mode == "absolute"
        assert "a +10%" in space.label(scenario)


class TestConstraints:
    def test_budget_prunes_and_counts(self):
        space = ScenarioSpace(
            [Axis.values("a", [0.0, 30.0]), Axis.values("b", [0.0, 30.0])],
            constraints=[BudgetConstraint.of(40.0)],
        )
        amounts = [s.amounts for s in space.scenarios()]
        assert (30.0, 30.0) not in amounts
        assert len(amounts) == 3

    def test_budget_weights(self):
        constraint = BudgetConstraint.of(10.0, {"a": 2.0})
        assert constraint({"a": 5.0})
        assert not constraint({"a": 6.0})
        assert constraint({"b": 10.0})  # unweighted driver defaults to 1.0

    def test_callable_constraints_work_locally(self):
        space = ScenarioSpace(
            [Axis.values("a", [0.0, 10.0])],
            constraints=[lambda amounts: amounts["a"] > 0],
        )
        assert [s.amounts for s in space.scenarios()] == [(10.0,)]

    def test_callable_constraints_do_not_round_trip(self):
        space = ScenarioSpace(
            [Axis.values("a", [0.0])], constraints=[lambda amounts: True]
        )
        payload = space.to_dict()
        assert payload["constraints"][0]["kind"] == "callable"
        with pytest.raises(ValueError):
            ScenarioSpace.from_dict(payload)


class TestSampling:
    def _space(self):
        return ScenarioSpace(
            [Axis.span("a", -40.0, 40.0, 9), Axis.span("b", -40.0, 40.0, 9)]
        )

    def test_random_sampling_is_seeded(self):
        first = self._space().sampled(10, seed=7).scenarios()
        second = self._space().sampled(10, seed=7).scenarios()
        assert [s.amounts for s in first] == [s.amounts for s in second]
        assert len(first) == 10
        different = self._space().sampled(10, seed=8).scenarios()
        assert [s.amounts for s in first] != [s.amounts for s in different]

    def test_halton_sampling_is_deterministic_and_distinct(self):
        sampled = self._space().sampled(20, method="halton").scenarios()
        assert len(sampled) == 20
        assert len({s.amounts for s in sampled}) == 20
        again = self._space().sampled(20, method="halton").scenarios()
        assert [s.amounts for s in sampled] == [s.amounts for s in again]

    def test_sampling_respects_constraints(self):
        space = ScenarioSpace(
            self._space().axes, constraints=[BudgetConstraint.of(40.0)]
        ).sampled(15, method="halton")
        for scenario in space.scenarios():
            assert sum(abs(a) for a in scenario.amounts) <= 40.0 + 1e-9

    def test_small_spaces_yield_fewer_unique_samples(self):
        space = ScenarioSpace([Axis.values("a", [0.0, 1.0])]).sampled(10, seed=0)
        scenarios = space.scenarios()
        assert 1 <= len(scenarios) <= 2

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            self._space().sampled(0)
        with pytest.raises(ValueError):
            self._space().sampled(5, method="sobol")


class TestSerializationAndHashing:
    def test_round_trip(self):
        space = ScenarioSpace(
            [
                Axis.grid("b", -20.0, 20.0, 20.0),
                Axis.values("a", [0.0, 10.0], mode="absolute"),
            ],
            constraints=[BudgetConstraint.of(25.0, {"a": 2.0})],
            sample={"n": 5, "method": "halton", "seed": 3},
        )
        payload = json.loads(json.dumps(space.to_dict()))
        rebuilt = ScenarioSpace.from_dict(payload)
        assert rebuilt.to_dict() == space.to_dict()
        assert [s.amounts for s in rebuilt.scenarios()] == [
            s.amounts for s in space.scenarios()
        ]

    # the server's job coalesce key hashes the canonical to_dict() form
    def test_hash_invariant_under_axis_listing_order(self):
        forward = ScenarioSpace(
            [Axis.values("a", [1.0]), Axis.values("b", [2.0, 3.0])]
        )
        backward = ScenarioSpace(
            [Axis.values("b", [2.0, 3.0]), Axis.values("a", [1.0])]
        )
        assert forward.to_dict() == backward.to_dict()
        assert [s.amounts for s in forward.scenarios()] == [s.amounts for s in backward.scenarios()]

    def test_hash_sensitive_to_content(self):
        base = ScenarioSpace([Axis.values("a", [1.0])])
        assert base.to_dict() != ScenarioSpace([Axis.values("a", [2.0])]).to_dict()
        assert (
            base.to_dict()
            != ScenarioSpace([Axis.values("a", [1.0])], sample={"n": 1}).to_dict()
        )

    def test_from_dict_requires_axes(self):
        with pytest.raises(ValueError):
            ScenarioSpace.from_dict({"axes": []})

    @pytest.mark.parametrize(
        "payload",
        [
            {"axes": [5]},
            {"axes": "abc"},
            {"axes": {"a": 1}},
            {"axes": [{"driver": "a", "amounts": [1.0]}], "sample": [1]},
            {"axes": [{"driver": "a", "amounts": "12345"}]},
            {
                "axes": [{"driver": "a", "amounts": [1.0]}],
                "constraints": [{"kind": "budget", "limit": 1.0, "weights": [1.0]}],
            },
        ],
    )
    def test_from_dict_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            ScenarioSpace.from_dict(payload)
