"""The sweep planner: score whole scenario spaces in batched matrix form.

Where :func:`~repro.core.sensitivity.run_sensitivity` answers one what-if
question per call, :class:`SweepPlanner` answers thousands: it enumerates and
prunes a :class:`~repro.scenarios.space.ScenarioSpace` once, then scores it
as work units (see :mod:`repro.core.sensitivity`) on the caller's executor:

* exhaustive grids the grid kernel applies to split into blocks of the
  outermost axis, one per executor worker — inline that is the whole grid in
  one :func:`~repro.scenarios.kernel.grid_sweep_kpis` call;
* every other space splits into lists of scenario perturbation sets, at most
  :data:`SWEEP_CHUNK_SCENARIOS` per unit, each set scored on its own by
  :meth:`~repro.core.model_manager.ModelManager.predict_kpi_batch`; a grid
  block the kernel declines is re-scored the same way.

The KPI values are **bitwise identical** to running the per-scenario
sensitivity path (units only regroup scenarios whose per-row predictions are
independent), so a sweep is never an approximation.

Results land as a ranked :class:`SweepResult`:

* the **top-k frontier** — the best scenarios under the sweep's goal;
* **per-axis marginal KPI profiles** — mean/best KPI at every level of every
  axis, the "which dial matters" view across the whole space;
* optional **cohort breakdowns** — per-cohort KPI of the frontier scenarios,
  computed from the frame layer's group-index arrays (no sub-frame or
  per-cohort model is materialised).

The ``checkpoint`` callable threads the async engine's progress/cancellation
through the units exactly like the other analysis runners.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.model_manager import ModelManager
from ..core.sensitivity import INLINE, ignore, perturbation_sets_unit, split_ranges, unit_ranges
from ..frame.kernels import group_index
from ..obs import metrics
from .kernel import grid_kernel_applies, grid_sweep_kpis
from .space import Axis, ScenarioSpace, SweepScenario

__all__ = [
    "SweepEntry",
    "SweepResult",
    "SweepPlanner",
    "run_sweep",
    "grid_block_unit",
    "SWEEP_GOALS",
]

_SCORING_PATHS = metrics.counter("repro_scoring_path_total")

#: Goals a sweep can rank by.
SWEEP_GOALS = ("maximize", "minimize")

#: Scenarios per perturbation-set unit.  Each scenario is scored on its own,
#: so the size sets only the grain of chunk events, checkpoints and dispatch.
SWEEP_CHUNK_SCENARIOS = 64

#: Largest sweep whose raw per-scenario KPI surface is embedded in
#: :meth:`SweepResult.to_dict` — bigger sweeps serialise ``kpi_values`` as
#: ``None`` so ledger entries and job payloads stay bounded (the frontier,
#: marginals, and cohorts already summarise the space).
MAX_SERIALIZED_KPI_VALUES = 10_000


@dataclass(frozen=True)
class SweepEntry:
    """One ranked scenario of a sweep (a row of the frontier table).

    Attributes
    ----------
    rank:
        1-based position under the sweep's goal (1 = best).
    scenario_index:
        The scenario's index in the space's enumeration order.
    amounts:
        ``{driver: amount}`` of the scenario's perturbations.
    kpi_value:
        Aggregate KPI the model predicts for the scenario.
    uplift:
        ``kpi_value`` minus the baseline KPI.
    label:
        Human-readable rendering (``"Call +20%, Email -10%"``).
    """

    rank: int
    scenario_index: int
    amounts: dict[str, float]
    kpi_value: float
    uplift: float
    label: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "rank": self.rank,
            "scenario_index": self.scenario_index,
            "amounts": dict(self.amounts),
            "kpi_value": self.kpi_value,
            "uplift": self.uplift,
            "label": self.label,
        }


@dataclass(frozen=True)
class SweepResult:
    """Output of one scenario-space sweep.

    Attributes
    ----------
    kpi:
        KPI column name.
    goal:
        ``"maximize"`` or ``"minimize"`` (what the ranking optimises).
    baseline_kpi:
        KPI predicted on the unperturbed dataset.
    n_space:
        Cartesian size of the space before pruning/sampling.
    n_scenarios:
        Scenarios actually scored.
    n_pruned:
        Combinations removed by constraint predicates (exhaustive spaces
        only; sampled spaces report 0 because rejected draws are retried).
    space:
        Canonical JSON form of the swept space.
    top:
        The top-k frontier, best first.
    marginals:
        ``{driver: [{"amount", "count", "mean_kpi", "best_kpi"}, ...]}`` —
        the KPI profile along each axis, marginalised over all scenarios.
    cohorts:
        Per-cohort KPI of the frontier scenarios (``None`` unless a cohort
        column was requested).
    kpi_values:
        Every scenario's KPI in enumeration order (the raw sweep surface).
        Always populated on the result object; serialised by
        :meth:`to_dict` only up to :data:`MAX_SERIALIZED_KPI_VALUES`
        scenarios (``None`` beyond, keeping ledger entries and job payloads
        bounded).
    """

    kpi: str
    goal: str
    baseline_kpi: float
    n_space: int
    n_scenarios: int
    n_pruned: int
    space: dict[str, Any]
    top: tuple[SweepEntry, ...]
    marginals: dict[str, list[dict[str, Any]]]
    cohorts: dict[str, Any] | None = None
    kpi_values: tuple[float, ...] = field(default=(), repr=False)
    kpi_unit: str = ""

    @property
    def best(self) -> SweepEntry:
        """The frontier's best scenario."""
        return self.top[0]

    @property
    def best_kpi(self) -> float:
        """KPI value of the best scenario."""
        return self.best.kpi_value

    @property
    def uplift(self) -> float:
        """Best KPI minus baseline."""
        return self.best.uplift

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "kpi": self.kpi,
            "goal": self.goal,
            "baseline_kpi": self.baseline_kpi,
            "n_space": self.n_space,
            "n_scenarios": self.n_scenarios,
            "n_pruned": self.n_pruned,
            "space": dict(self.space),
            "top": [entry.to_dict() for entry in self.top],
            "marginals": {
                driver: [dict(point) for point in points]
                for driver, points in self.marginals.items()
            },
            "cohorts": dict(self.cohorts) if self.cohorts is not None else None,
            "kpi_values": (
                list(self.kpi_values)
                if len(self.kpi_values) <= MAX_SERIALIZED_KPI_VALUES
                else None
            ),
            "kpi_unit": self.kpi_unit,
        }


class SweepPlanner:
    """Plans and executes one batched sweep over a scenario space.

    Parameters
    ----------
    manager:
        The session's trained model manager.
    space:
        The scenario space to evaluate.
    goal:
        ``"maximize"`` (default) or ``"minimize"``.
    top_k:
        Frontier size (ties resolve in enumeration order).
    cohort_column:
        Optional column to break the frontier scenarios down by.
    """

    def __init__(
        self,
        manager: ModelManager,
        space: ScenarioSpace,
        *,
        goal: str = "maximize",
        top_k: int = 10,
        cohort_column: str | None = None,
    ) -> None:
        if goal not in SWEEP_GOALS:
            raise ValueError(f"goal must be one of {SWEEP_GOALS}, got {goal!r}")
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        unknown = [d for d in space.drivers if d not in manager.drivers]
        if unknown:
            raise ValueError(
                f"swept drivers are not model inputs: {unknown}; "
                f"available drivers: {manager.drivers}"
            )
        if cohort_column is not None and not manager.frame.has_column(cohort_column):
            raise ValueError(f"cohort column {cohort_column!r} not found in the dataset")
        self.manager = manager
        self.space = space
        self.goal = goal
        self.top_k = top_k
        self.cohort_column = cohort_column

    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
        emit: Callable[..., None] | None = None,
    ) -> SweepResult:
        """Enumerate, score, rank, and profile the space.

        Scoring runs as work units on ``executor`` (default
        :data:`~repro.core.sensitivity.INLINE`), merged in enumeration order
        — bitwise identical on every executor.  ``checkpoint`` is called
        with the completed fraction as units finish (and during the cohort
        breakdown), publishing progress and honouring cooperative
        cancellation between kernel passes.

        ``emit`` (the job context's event publisher) streams one
        ``sweep_chunk`` event per finished unit, carrying the enumeration
        range and the running best scenario, so subscribers watch the
        frontier improve live.  Perturbation-set units also carry their
        ``kpi_values``; grid blocks send ``None`` there.
        """
        scenarios = self.space.scenarios()
        if not scenarios:
            raise ValueError(
                "the scenario space is empty after constraint pruning; "
                "relax the constraints or widen the axes"
            )
        checkpoint = checkpoint or ignore
        kpis = self._score(scenarios, executor or INLINE, checkpoint, emit or ignore)
        order = self._rank(kpis)
        baseline = self.manager.baseline_kpi()
        top = self._frontier(scenarios, kpis, order, baseline)
        marginals = self._marginals(scenarios, kpis)
        cohorts = (
            self._cohort_breakdown(scenarios, top, checkpoint)
            if self.cohort_column is not None
            else None
        )
        n_pruned = (
            self.space.size - len(scenarios) if self.space.sample is None else 0
        )
        return SweepResult(
            kpi=self.manager.kpi.name,
            goal=self.goal,
            baseline_kpi=baseline,
            n_space=self.space.size,
            n_scenarios=len(scenarios),
            n_pruned=n_pruned,
            space=self.space.to_dict(),
            top=top,
            marginals=marginals,
            cohorts=cohorts,
            kpi_values=tuple(float(v) for v in kpis),
            kpi_unit=self.manager.kpi.unit,
        )

    # ------------------------------------------------------------------ #
    def _score(
        self,
        scenarios: list[SweepScenario],
        executor,
        checkpoint: Callable[[float], None],
        emit: Callable[..., None],
    ) -> np.ndarray:
        """Score every scenario as work units, in enumeration order.

        Exhaustive kernel-eligible grids split along the canonical
        *outermost* axis (the first of the driver-name-sorted axes): its
        levels vary slowest in :meth:`ScenarioSpace.scenarios`, so a level
        block ``[lo, hi)`` is exactly the enumeration slice
        ``[lo * inner, hi * inner)`` and the grid kernel scores each block
        independently.  A block the kernel declines is re-scored as
        perturbation-set units inside its own share of the progress bar.
        """
        # the cohort phase owns the tail of the progress bar when requested
        share = 0.9 if self.cohort_column is not None else 1.0
        # on_unit_done fires on this (the job's) thread, so the running-best
        # accumulator needs no locking even when units finish out of order
        running_best: dict[str, Any] = {}
        scored = [0]

        def publish(start: int, stop: int, kpis, include_values: bool) -> None:
            scored[0] += stop - start
            emit(
                "sweep_chunk",
                self._frontier_chunk(
                    scenarios,
                    kpis,
                    start,
                    stop,
                    scored=scored[0],
                    total=len(scenarios),
                    running_best=running_best,
                    include_values=include_values,
                ),
            )

        grid = grid_kernel_applies(self.manager, self.space)
        _SCORING_PATHS.labels("run_sweep", "grid" if grid else "batch").inc()
        if not grid:
            return self._score_sets(
                scenarios, (0, len(scenarios)), executor, checkpoint, (0.0, share), publish
            )
        levels = len(self.space.axes[0].amounts)
        inner = self.space.size // levels
        blocks = split_ranges(levels, executor.workers)
        spans = [(lo * inner, hi * inner) for lo, hi in blocks]
        space = self.space.to_dict()
        parts: list[Any] = [None] * len(blocks)

        def on_block_done(index: int, kpis) -> None:
            start, stop = spans[index]
            if kpis is None:  # the kernel declined this block
                progress = (share * start / len(scenarios), share * stop / len(scenarios))
                kpis = self._score_sets(
                    scenarios, spans[index], executor, checkpoint, progress, publish
                )
            else:
                publish(start, stop, kpis, include_values=False)
            parts[index] = kpis

        executor.run_units(
            self.manager,
            [(grid_block_unit, {"space": space, "levels": [lo, hi]}) for lo, hi in blocks],
            checkpoint=checkpoint,
            progress=(0.0, share),
            weights=[stop - start for start, stop in spans],
            on_unit_done=on_block_done,
        )
        return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])

    def _score_sets(
        self,
        scenarios: list[SweepScenario],
        span: tuple[int, int],
        executor,
        checkpoint: Callable[[float], None],
        progress: tuple[float, float],
        publish: Callable[..., None],
    ) -> np.ndarray:
        """Score enumeration slice ``span`` as perturbation-set units."""
        first, last = span
        ranges = [
            (first + lo, first + hi)
            for lo, hi in unit_ranges(last - first, executor, SWEEP_CHUNK_SCENARIOS)
        ]
        units = [
            (
                perturbation_sets_unit,
                {"sets": [self.space.perturbations(s).to_list() for s in scenarios[lo:hi]]},
            )
            for lo, hi in ranges
        ]
        parts = executor.run_units(
            self.manager,
            units,
            checkpoint=checkpoint,
            progress=progress,
            weights=[hi - lo for lo, hi in ranges],
            on_unit_done=lambda index, kpis: publish(*ranges[index], kpis, True),
        )
        return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])

    def _frontier_chunk(
        self,
        scenarios: list[SweepScenario],
        part: np.ndarray,
        start: int,
        stop: int,
        *,
        scored: int,
        total: int,
        running_best: dict[str, Any],
        include_values: bool,
    ) -> dict[str, Any]:
        """Build one ``sweep_chunk`` event payload, folding the chunk's best
        scenario into the caller's ``running_best`` accumulator.

        Strictly-better comparisons keep tie resolution aligned with the
        final frontier's stable ranking when units finish in enumeration
        order (the inline executor); out-of-order pool completions may break
        a tie differently, which only affects the advisory live view — the
        terminal result is always the exactly-ranked frontier.
        """
        part = np.asarray(part, dtype=np.float64)
        local = int(np.argmax(part) if self.goal == "maximize" else np.argmin(part))
        value = float(part[local])
        incumbent = running_best.get("kpi_value")
        if incumbent is None or (
            value > incumbent if self.goal == "maximize" else value < incumbent
        ):
            scenario = scenarios[start + local]
            running_best.update(
                scenario_index=scenario.scenario_index,
                kpi_value=value,
                label=self.space.label(scenario),
            )
        return {
            "start": int(start),
            "stop": int(stop),
            "scored": int(scored),
            "total": int(total),
            "kpi_values": [float(v) for v in part] if include_values else None,
            "best": dict(running_best),
        }

    def _rank(self, kpis: np.ndarray) -> np.ndarray:
        """Scenario order best-to-worst (stable, so ties keep enumeration order)."""
        keys = -kpis if self.goal == "maximize" else kpis
        return np.argsort(keys, kind="stable")

    def _frontier(
        self,
        scenarios: list[SweepScenario],
        kpis: np.ndarray,
        order: np.ndarray,
        baseline: float,
    ) -> tuple[SweepEntry, ...]:
        entries = []
        for rank, position in enumerate(order[: self.top_k], start=1):
            scenario = scenarios[int(position)]
            kpi_value = float(kpis[int(position)])
            entries.append(
                SweepEntry(
                    rank=rank,
                    scenario_index=scenario.scenario_index,
                    amounts={
                        axis.driver: amount
                        for axis, amount in zip(self.space.axes, scenario.amounts)
                    },
                    kpi_value=kpi_value,
                    uplift=kpi_value - baseline,
                    label=self.space.label(scenario),
                )
            )
        return tuple(entries)

    def _marginals(
        self, scenarios: list[SweepScenario], kpis: np.ndarray
    ) -> dict[str, list[dict[str, Any]]]:
        """Mean/best KPI at every level of every axis.

        Marginalising over all scored scenarios answers "holding everything
        else mixed, how does the KPI respond to this one dial" — the sweep
        analogue of comparison analysis, but over the joint space instead of
        one-driver-at-a-time.
        """
        best = np.max if self.goal == "maximize" else np.min
        amounts = np.array([s.amounts for s in scenarios])
        profiles: dict[str, list[dict[str, Any]]] = {}
        for column, axis in enumerate(self.space.axes):
            points = []
            for amount in axis.amounts:
                mask = amounts[:, column] == amount
                count = int(mask.sum())
                points.append(
                    {
                        "amount": float(amount),
                        "count": count,
                        "mean_kpi": float(kpis[mask].mean()) if count else None,
                        "best_kpi": float(best(kpis[mask])) if count else None,
                    }
                )
            profiles[axis.driver] = points
        return profiles

    # ------------------------------------------------------------------ #
    def _cohort_breakdown(
        self,
        scenarios: list[SweepScenario],
        top: tuple[SweepEntry, ...],
        checkpoint: Callable[[float], None],
    ) -> dict[str, Any]:
        """Per-cohort KPI of the frontier scenarios.

        One :func:`~repro.frame.kernels.group_index` pass factorizes the
        cohort column; baseline and frontier predictions are then aggregated
        per group straight from the index arrays — no per-cohort sub-frame or
        model is ever built (the breakdown reads the *global* model's per-row
        predictions through the cohort partition).
        """
        manager = self.manager
        frame = manager.frame
        column = frame.column(self.cohort_column)
        index = group_index([column])
        labels = [str(column[int(row)]) for row in index.first_rows]
        baseline_rows = manager.baseline_rows()
        by_scenario = []
        scenario_of = {s.scenario_index: s for s in scenarios}
        for position, entry in enumerate(top, start=1):
            scenario = scenario_of[entry.scenario_index]
            rows = manager.predict_perturbed_rows(self.space.perturbations(scenario))
            by_scenario.append(
                {
                    "scenario_index": entry.scenario_index,
                    "rank": entry.rank,
                    "per_cohort": dict(
                        zip(labels, self._aggregate_groups(rows, index))
                    ),
                }
            )
            checkpoint(0.9 + 0.1 * position / len(top))
        return {
            "column": self.cohort_column,
            "cohort_sizes": dict(zip(labels, index.counts.tolist())),
            "baseline": dict(zip(labels, self._aggregate_groups(baseline_rows, index))),
            "scenarios": by_scenario,
        }

    def _aggregate_groups(self, rows: np.ndarray, index) -> list[float]:
        """Per-group KPI aggregation matching :meth:`~repro.core.kpi.KPI.aggregate`."""
        kpi = self.manager.kpi
        counts = index.counts.astype(np.float64)
        if kpi.aggregation == "rate":
            sums = np.bincount(
                index.codes, weights=np.clip(rows, 0.0, 1.0), minlength=index.n_groups
            )
            return (sums / counts * 100.0).tolist()
        sums = np.bincount(index.codes, weights=rows, minlength=index.n_groups)
        if kpi.aggregation == "sum":
            return sums.tolist()
        return (sums / counts).tolist()


def run_sweep(
    manager: ModelManager,
    space: ScenarioSpace,
    *,
    goal: str = "maximize",
    top_k: int = 10,
    cohort_column: str | None = None,
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> SweepResult:
    """Functional entry point mirroring the other analysis runners."""
    planner = SweepPlanner(
        manager, space, goal=goal, top_k=top_k, cohort_column=cohort_column
    )
    return planner.run(checkpoint=checkpoint, executor=executor, emit=emit)


def grid_block_unit(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray | None:
    """Grid-kernel KPIs of levels ``payload["levels"] = [lo, hi)`` of the
    outermost axis of ``payload["space"]`` (a grid space's ``to_dict()``).

    The block keeps every other axis whole, so its enumeration is exactly the
    ``[lo * inner, hi * inner)`` slice of the full space's enumeration.
    Returns ``None`` when the kernel declines the block.
    """
    space = ScenarioSpace.from_dict(payload["space"])
    lo, hi = payload["levels"]
    head = space.axes[0]
    block = ScenarioSpace(
        [Axis(driver=head.driver, amounts=head.amounts[lo:hi], mode=head.mode), *space.axes[1:]]
    )
    return grid_sweep_kpis(manager, block, checkpoint=checkpoint)
