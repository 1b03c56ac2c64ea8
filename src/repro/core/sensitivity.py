"""Sensitivity analysis (functionality 2, paper view (H)) and work units.

Three flavours, all of which re-run the trained KPI model on hypothetically
perturbed data and compare against the original prediction:

* :func:`run_sensitivity` — the headline interaction: apply a perturbation set
  to the whole dataset, show original vs perturbed KPI and the up-/down-lift
  (the blue/yellow bars of Figure 2-H);
* :func:`run_comparison` — the *comparison analysis* feature: sweep each
  driver individually over a range of perturbation magnitudes so the user can
  "view sensitivity analysis in its entirety and compare KPI trends over all
  drivers";
* :func:`run_per_data` — the *per-data analysis* feature: perturb a single
  data point and observe the change in its own predicted KPI.

This module also holds the one way a job's work is split.  A *work unit* is
a ``(function, payload)`` pair: a module-level function placed beside the
algorithm it splits, called as ``function(manager, payload, checkpoint)``
with a payload of plain values.  An executor runs a list of units and
returns their results in unit order — :class:`InlineExecutor` in order on
the calling thread, :class:`~repro.engine.process.ProcessExecutor` across
worker processes.  Row and perturbation-set splits are sized by
:func:`unit_ranges`: at least one unit per executor worker and at most one
chunk (:data:`SENSITIVITY_CHUNK_ROWS`, :data:`COMPARISON_CHUNK_MATRICES`)
per unit.  Units only regroup rows and perturbation sets whose predictions
and aggregations are independent, so results are *bitwise identical* on
every executor.  A call without an executor runs its units on
:data:`INLINE`; the checkpoint, when given, is called with the completed
fraction once per unit, which both publishes progress and gives cooperative
cancellation a place to raise.

Every unit scores through
:meth:`~repro.core.model_manager.ModelManager.predict_perturbed_rows` — a
sensitivity unit over its row range, a comparison unit set by set.  When a
set perturbs exactly one driver of a forest model, that method re-traverses
only the ``(tree, row)`` lanes whose baseline path tests the driver (see
:mod:`repro.ml.kernel`); the results are bitwise identical to a full pass.
``repro_scoring_path_total`` counts the path once per :func:`run_sensitivity`
call, in the calling process.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..obs import metrics, trace
from .model_manager import ModelManager
from .perturbation import Perturbation, PerturbationSet
from .results import ComparisonPoint, ComparisonResult, PerDataResult, SensitivityResult

__all__ = [
    "run_sensitivity",
    "run_comparison",
    "run_per_data",
    "split_ranges",
    "unit_ranges",
    "InlineExecutor",
    "INLINE",
    "sensitivity_rows_unit",
    "perturbation_sets_unit",
]

_SCORING_PATHS = metrics.counter("repro_scoring_path_total")

#: Rows per sensitivity work unit.
SENSITIVITY_CHUNK_ROWS = 2048

#: Perturbation sets per comparison work unit.  Each set is scored on its own,
#: so the size sets only the grain of chunk events, checkpoints and dispatch.
COMPARISON_CHUNK_MATRICES = 4


def ignore(*_args: Any) -> None:
    """Default sink for an absent checkpoint, event publisher or callback."""


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous sub-ranges.

    The ranges are returned in order and cover every index exactly once, so
    concatenating per-range results reproduces the full-range result for any
    elementwise computation.
    """
    total = int(total)
    if total <= 0:
        return []
    parts = max(1, min(int(parts), total))
    step = -(-total // parts)  # ceil division
    return [(start, min(total, start + step)) for start in range(0, total, step)]


def unit_ranges(total: int, executor, chunk: int) -> list[tuple[int, int]]:
    """The sizing rule for a split over ``total`` rows or perturbation sets:
    at least one unit per executor worker, at most ``chunk`` items per unit."""
    return split_ranges(total, max(executor.workers, -(-int(total) // int(chunk))))


class InlineExecutor:
    """Runs work units in order on the calling thread.

    It has the :meth:`~repro.engine.process.ProcessExecutor.run_units`
    signature and opens the same ``unit`` → ``score`` spans a pool worker
    opens.  ``checkpoint`` is called with ``progress[0]`` first and then once
    per finished unit (after ``on_unit_done``) with the weighted completed
    fraction mapped onto ``progress``; a unit's own checkpoint calls map into
    its share of that interval.
    """

    workers = 1

    def run_units(
        self,
        manager: ModelManager,
        units: Sequence[tuple[Callable[..., Any], dict[str, Any]]],
        *,
        checkpoint: Callable[[float], None] | None = None,
        progress: tuple[float, float] = (0.0, 1.0),
        weights: Sequence[float] | None = None,
        on_unit_done: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Execute ``units`` one after another; return results in unit order."""
        tick = checkpoint or ignore
        on_unit_done = on_unit_done or ignore
        unit_weights = [float(w) for w in weights] if weights is not None else [1.0] * len(units)
        if len(unit_weights) != len(units):
            raise ValueError("weights must align with units")
        base, top = progress
        scale = (top - base) / (sum(unit_weights) or 1.0)
        done = 0.0
        tick(base)
        results = []
        for index, ((function, payload), weight) in enumerate(zip(units, unit_weights)):

            def unit_checkpoint(fraction: float, done: float = done, weight: float = weight):
                tick(base + scale * (done + weight * min(1.0, max(0.0, float(fraction)))))

            with trace.span("unit", worker="inline", unit=index):
                with trace.span("score", unit_kind=function.__name__):
                    result = function(manager, payload, unit_checkpoint)
            results.append(result)
            done += weight
            on_unit_done(index, result)
            tick(base + scale * done)
        return results


#: The executor a call that passes no executor runs on.
INLINE = InlineExecutor()


def sensitivity_rows_unit(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray:
    """Perturb and predict rows ``payload["rows"] = [start, stop)``.

    Perturbations are elementwise per row and predictions never look across
    rows, so the slice scores exactly as it would inside the full matrix.
    """
    perturbations = PerturbationSet.from_list(payload["perturbations"])
    start, stop = payload["rows"]
    return manager.predict_perturbed_rows(perturbations, int(start), int(stop))


def perturbation_sets_unit(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray:
    """Aggregate KPI of every perturbation set in ``payload["sets"]`` (their
    ``to_list()`` forms), each scored on its own by ``predict_kpi_batch``, so
    any grouping of sets into units yields the same values."""
    return manager.predict_kpi_batch([PerturbationSet.from_list(w) for w in payload["sets"]])


def _sensitivity_kpi_units(
    manager: ModelManager,
    perturbations: PerturbationSet,
    executor,
    checkpoint: Callable[[float], None] | None,
    emit: Callable[..., None],
) -> float:
    """Perturbed KPI computed as row-range work units on ``executor``.

    Concatenating per-range predictions in range order reproduces the
    full-matrix prediction bitwise before the single KPI aggregation.  Each
    finished unit publishes a ``sensitivity_chunk`` event whose
    ``partial_kpi`` is the KPI over every row scored so far, so streaming
    clients watch the estimate converge to the exact final value.
    """
    n_rows = manager.driver_matrix().shape[0]
    ranges = unit_ranges(n_rows, executor, SENSITIVITY_CHUNK_ROWS)
    wire = perturbations.to_list()
    scored: dict[int, np.ndarray] = {}

    def on_unit_done(index: int, rows: np.ndarray) -> None:
        scored[index] = rows
        so_far = np.concatenate([scored[i] for i in sorted(scored)])
        emit(
            "sensitivity_chunk",
            {
                "rows": list(ranges[index]),
                "rows_scored": int(so_far.shape[0]),
                "n_rows": n_rows,
                "unit": index,
                "partial_kpi": float(manager.kpi.aggregate(so_far)),
            },
        )

    parts = executor.run_units(
        manager,
        [
            (sensitivity_rows_unit, {"perturbations": wire, "rows": [start, stop]})
            for start, stop in ranges
        ],
        checkpoint=checkpoint,
        weights=[stop - start for start, stop in ranges],
        on_unit_done=on_unit_done,
    )
    rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return float(manager.kpi.aggregate(rows))


def run_sensitivity(
    manager: ModelManager,
    perturbations: PerturbationSet,
    *,
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> SensitivityResult:
    """Dataset-level sensitivity analysis.

    Parameters
    ----------
    manager:
        The session's model manager.
    perturbations:
        The perturbation set to apply to every row.
    checkpoint:
        Optional progress/cancellation callback, called once per row-range
        work unit with the completed fraction.
    executor:
        Optional executor for the row-range work units (default
        :data:`INLINE`).
    emit:
        Optional event publisher (``emit(type, data)``, the job context's
        :meth:`~repro.engine.job.JobContext.emit`); every finished unit
        publishes a ``sensitivity_chunk`` event.
    """
    unknown = [p.driver for p in perturbations if p.driver not in manager.drivers]
    if unknown:
        raise ValueError(
            f"perturbed drivers are not model inputs: {unknown}; "
            f"available drivers: {manager.drivers}"
        )
    original_kpi = manager.baseline_kpi()
    path = "full" if manager.restart_feature(perturbations) is None else "incremental"
    _SCORING_PATHS.labels("sensitivity", path).inc()
    perturbed_kpi = _sensitivity_kpi_units(
        manager, perturbations, executor or INLINE, checkpoint, emit or ignore
    )
    return SensitivityResult(
        kpi=manager.kpi.name,
        original_kpi=original_kpi,
        perturbed_kpi=perturbed_kpi,
        uplift=perturbed_kpi - original_kpi,
        perturbations=perturbations.to_list(),
        kpi_unit=manager.kpi.unit,
    )


def _comparison_kpis_units(
    manager: ModelManager,
    work: list[tuple[str, float]],
    mode: str,
    executor,
    checkpoint: Callable[[float], None] | None,
    emit: Callable[..., None],
) -> list[float]:
    """Comparison-sweep KPIs computed as perturbation-set units on ``executor``.

    Every finished unit publishes a ``comparison_chunk`` event carrying its
    scored (driver, amount, kpi) points.
    """
    ranges = unit_ranges(len(work), executor, COMPARISON_CHUNK_MATRICES)
    units = [
        (
            perturbation_sets_unit,
            {"sets": [[Perturbation(d, a, mode).to_dict()] for d, a in work[start:stop]]},
        )
        for start, stop in ranges
    ]

    def on_unit_done(index: int, values: np.ndarray) -> None:
        start = ranges[index][0]
        emit(
            "comparison_chunk",
            {
                "points": [
                    {"driver": driver, "amount": amount, "kpi_value": float(value)}
                    for (driver, amount), value in zip(work[start:], values)
                ],
                "start": start,
                "n_points": len(work),
            },
        )

    parts = executor.run_units(
        manager,
        units,
        checkpoint=checkpoint,
        weights=[stop - start for start, stop in ranges],
        on_unit_done=on_unit_done,
    )
    return [value for part in parts for value in part]


def run_comparison(
    manager: ModelManager,
    drivers: Sequence[str] | None = None,
    amounts: Sequence[float] = (-40.0, -20.0, 0.0, 20.0, 40.0),
    *,
    mode: str = "percentage",
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> ComparisonResult:
    """Comparison analysis: sweep each driver individually over ``amounts``.

    Parameters
    ----------
    manager:
        The session's model manager.
    drivers:
        Drivers to sweep (default: every model driver).
    amounts:
        Perturbation magnitudes applied one at a time to one driver at a time.
    mode:
        Perturbation mode shared by the sweep.
    checkpoint:
        Optional progress/cancellation callback, called once per work unit
        of (driver, amount) points with the completed fraction.
    executor:
        Optional executor for those units (default :data:`INLINE`).
    emit:
        Optional event publisher; every finished unit publishes a
        ``comparison_chunk`` event with its scored (driver, amount, kpi)
        points.

    Returns
    -------
    ComparisonResult
        One :class:`ComparisonPoint` per (driver, amount) pair.
    """
    chosen = list(drivers) if drivers is not None else list(manager.drivers)
    unknown = [d for d in chosen if d not in manager.drivers]
    if unknown:
        raise ValueError(f"unknown drivers for comparison analysis: {unknown}")
    if not amounts:
        raise ValueError("comparison analysis needs at least one perturbation amount")

    original_kpi = manager.baseline_kpi()
    sweep = [(driver, float(amount)) for driver in chosen for amount in amounts]
    work = [pair for pair in sweep if pair[1] != 0]
    kpis = iter(
        _comparison_kpis_units(manager, work, mode, executor or INLINE, checkpoint, emit or ignore)
    )
    points = [
        ComparisonPoint(
            driver=driver,
            amount=amount,
            kpi_value=original_kpi if amount == 0 else float(next(kpis)),
        )
        for driver, amount in sweep
    ]
    return ComparisonResult(
        kpi=manager.kpi.name,
        original_kpi=original_kpi,
        mode=mode,
        points=tuple(points),
    )


def run_per_data(
    manager: ModelManager, row_index: int, perturbations: PerturbationSet
) -> PerDataResult:
    """Per-data analysis: perturb one row and re-predict its KPI.

    Parameters
    ----------
    manager:
        The session's model manager.
    row_index:
        Index of the data point to drill into.
    perturbations:
        Perturbations applied to that row only.
    """
    frame = manager.frame
    if not 0 <= row_index < frame.n_rows:
        raise IndexError(
            f"row index {row_index} out of range for a dataset of {frame.n_rows} rows"
        )
    unknown = [p.driver for p in perturbations if p.driver not in manager.drivers]
    if unknown:
        raise ValueError(f"perturbed drivers are not model inputs: {unknown}")

    original_prediction = float(manager.baseline_rows()[row_index])
    perturbed_frame = perturbations.apply_to_row(frame, row_index)
    perturbed_prediction = manager.predict_row(perturbed_frame, row_index)

    original_row = {d: frame.column(d)[row_index] for d in manager.drivers}
    perturbed_row = {d: perturbed_frame.column(d)[row_index] for d in manager.drivers}
    return PerDataResult(
        kpi=manager.kpi.name,
        row_index=row_index,
        original_prediction=original_prediction,
        perturbed_prediction=perturbed_prediction,
        original_row=original_row,
        perturbed_row=perturbed_row,
        perturbations=perturbations.to_list(),
    )
