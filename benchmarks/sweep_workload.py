"""The sweep benchmark workload behind ``test_bench_scenario_sweep.py``.

The workload answers the question the sweep planner exists for: how much
faster is scoring a whole scenario space in batched matrix form than the
seed's only alternative — a Python loop of per-scenario sensitivity calls?

Both paths evaluate the *identical* list of scenarios against the same
trained model:

* **looped** — one :func:`~repro.core.sensitivity.run_sensitivity` call per
  scenario (perturb, predict, aggregate, wrap a result object — the cost a
  user pays today for each hand-built option);
* **batched** — one :func:`~repro.scenarios.planner.run_sweep` call that
  scores the whole grid through the box-propagating grid kernel
  (:mod:`repro.scenarios.kernel`) — one traversal per tree for the entire
  space.

The KPI values must match **bitwise** (the grid kernel takes identical
decisions and gathers identical leaf payloads, only batched differently), so
the summary's ``speedup`` is a pure batching win.  Callers assert a floor on
it and write the summary to ``BENCH_scenario_sweep.json``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.sensitivity import run_sensitivity
from repro.core.session import WhatIfSession
from repro.datasets import get_use_case
from repro.scenarios.kernel import grid_kernel_applies
from repro.scenarios.planner import run_sweep
from repro.scenarios.space import Axis, ScenarioSpace

__all__ = ["run_sweep_benchmark", "build_benchmark_space"]


def build_benchmark_space(
    drivers: list[str], levels: tuple[int, ...]
) -> ScenarioSpace:
    """A deterministic multi-axis percentage space over the first drivers.

    Axis ``i`` spans −40%…+40% in ``levels[i]`` evenly spaced steps; the
    cartesian product is the benchmark's scenario count.
    """
    if len(drivers) < len(levels):
        raise ValueError(
            f"use case has {len(drivers)} drivers but the space needs {len(levels)}"
        )
    axes = [
        Axis.span(driver, -40.0, 40.0, n)
        for driver, n in zip(drivers[: len(levels)], levels)
    ]
    return ScenarioSpace(axes)


def run_sweep_benchmark(
    *,
    use_case: str = "deal_closing",
    rows: int = 400,
    levels: tuple[int, ...] = (12, 11, 10),
    top_k: int = 10,
    seed: int = 0,
) -> dict[str, Any]:
    """Time batched sweep vs per-scenario sensitivity loop; return a summary.

    Raises ``RuntimeError`` if the two paths' KPI values are not bitwise
    identical, so callers can trust the speedup number.
    """
    session = WhatIfSession.from_use_case(
        use_case,
        dataset_kwargs=get_use_case(use_case).size_kwargs(rows),
        random_state=seed,
    )
    manager = session.model
    space = build_benchmark_space(session.drivers, levels)
    scenarios = space.scenarios()

    # warm-up: train the model, memoise the baseline, touch both code paths
    manager.baseline_kpi()
    run_sensitivity(manager, space.perturbations(scenarios[0]))
    warm_space = ScenarioSpace([Axis.values(space.axes[0].driver, [-10.0, 10.0])])
    run_sweep(manager, warm_space, top_k=1)

    started = time.perf_counter()
    result = run_sweep(manager, space, top_k=top_k)
    batched_s = time.perf_counter() - started

    started = time.perf_counter()
    looped = [
        run_sensitivity(manager, space.perturbations(scenario)).perturbed_kpi
        for scenario in scenarios
    ]
    loop_s = time.perf_counter() - started

    bitwise_equal = looped == list(result.kpi_values)
    if not bitwise_equal:
        raise RuntimeError(
            "batched sweep KPI values diverged from the per-scenario "
            "sensitivity path"
        )

    return {
        "use_case": use_case,
        "rows": rows,
        "levels": list(levels),
        "n_scenarios": len(scenarios),
        "loop_s": loop_s,
        "batched_s": batched_s,
        "speedup": loop_s / batched_s if batched_s else float("inf"),
        "bitwise_equal": bitwise_equal,
        "grid_kernel": grid_kernel_applies(manager, space),
        "baseline_kpi": result.baseline_kpi,
        "best": result.best.to_dict(),
        "goal": result.goal,
        "top_k": top_k,
    }
