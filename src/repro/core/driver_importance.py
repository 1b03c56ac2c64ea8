"""Driver importance analysis (functionality 1, paper view (E)).

The view shows a horizontal bar chart of drivers ranked by how strongly they
drive the KPI, with signed importances in ``[-1, 1]``.  The paper computes
importances from the model itself — linear-regression coefficients for
continuous KPIs and random-forest feature importances for discrete KPIs —
"because they are relatively easier for users to understand", and then
*verifies* them against Shapley values, Pearson correlation, and Spearman rank
correlation "to ensure that the model coefficients are not misleading".

:func:`compute_driver_importance` reproduces that pipeline:

1. take the model-native importance scores from the model manager;
2. sign them by each driver's marginal direction (forest importances are
   unsigned, so the sign comes from the Pearson correlation with the KPI);
3. normalise into ``[-1, 1]`` by the maximum absolute score;
4. compute the verification measures per driver and rank-agreement summaries.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..stats import (
    global_shapley_importance,
    pearson_correlation,
    permutation_importance,
    spearman_correlation,
    spearman_rank_agreement,
    top_k_overlap,
)
from .model_manager import ModelManager
from .results import DriverImportance, ImportanceResult
from .sensitivity import INLINE

__all__ = ["compute_driver_importance", "driver_importance_unit"]

#: Sampling effort of the Monte-Carlo Shapley estimate.
SHAPLEY_SAMPLES = 40
SHAPLEY_PERMUTATIONS = 10

#: Shuffles per driver for permutation importance.
PERMUTATION_REPEATS = 3


def _normalise_signed(scores: np.ndarray) -> np.ndarray:
    """Scale signed scores into [-1, 1] by the maximum absolute value."""
    peak = np.max(np.abs(scores)) if scores.size else 0.0
    if peak == 0:
        return np.zeros_like(scores)
    return scores / peak


def compute_driver_importance(
    manager: ModelManager,
    *,
    verify: bool = True,
    random_state: int | None = 0,
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
) -> ImportanceResult:
    """Run driver importance analysis for a trained model manager.

    Parameters
    ----------
    manager:
        The session's model manager (fitted lazily if necessary).
    verify:
        Whether to compute the Shapley / Pearson / Spearman / permutation
        verification (disable for latency benchmarks).
    random_state:
        Seed for the stochastic verification estimates.
    checkpoint:
        Optional progress/cancellation callback called at stage boundaries
        (and per driver inside the correlation loops).  Checkpoints only
        interleave with the existing computation, so results are bitwise
        identical with and without one; cancellation latency is bounded by
        the longest single stage (the Shapley estimate).
    executor:
        Optional executor (default :data:`~repro.core.sensitivity.INLINE`);
        the whole analysis runs as one :func:`driver_importance_unit` (its
        stages share intermediate arrays, so a process pool escapes the GIL
        rather than splitting stages).  The seeded estimates reproduce
        identically in a worker.

    Returns
    -------
    ImportanceResult
        Drivers ordered most-to-least important by absolute importance.
    """
    payload = {"verify": bool(verify), "random_state": random_state}
    [result] = (executor or INLINE).run_units(
        manager, [(driver_importance_unit, payload)], checkpoint=checkpoint
    )
    return result


def driver_importance_unit(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> ImportanceResult:
    """Run one whole driver-importance analysis described by ``payload`` (the
    arguments of :func:`compute_driver_importance`), checkpointing at stage
    boundaries."""
    random_state = payload["random_state"]
    frame = manager.frame
    drivers = manager.drivers
    kpi = manager.kpi

    X = manager.driver_matrix()
    y = kpi.target_vector(frame)
    checkpoint(0.05)

    raw = manager.raw_importances()
    checkpoint(0.1)
    pearson_scores = []
    for j in range(len(drivers)):
        pearson_scores.append(pearson_correlation(X[:, j], y))
        checkpoint(0.1 + 0.1 * (j + 1) / len(drivers))
    pearson = np.array(pearson_scores)
    if kpi.is_discrete:
        # forest importances are magnitudes; recover the direction of each
        # driver's effect from its correlation with the KPI
        signs = np.sign(pearson)
        signs[signs == 0] = 1.0
        signed = raw * signs
    else:
        signed = raw
    importances = _normalise_signed(signed)

    verification_per_driver: list[dict[str, float]] = [{} for _ in drivers]
    agreement: dict[str, dict[str, float]] = {}
    if payload["verify"]:
        spearman_scores = []
        for j in range(len(drivers)):
            spearman_scores.append(spearman_correlation(X[:, j], y))
            checkpoint(0.2 + 0.1 * (j + 1) / len(drivers))
        spearman = np.array(spearman_scores)
        shapley = global_shapley_importance(
            manager.model,
            X,
            n_samples=SHAPLEY_SAMPLES,
            n_permutations=SHAPLEY_PERMUTATIONS,
            signed=True,
            random_state=random_state,
        )
        checkpoint(0.7)
        perm = permutation_importance(
            manager.model,
            X,
            y,
            n_repeats=PERMUTATION_REPEATS,
            scoring=_scoring_for(manager),
            random_state=random_state,
        )["importances_mean"]
        checkpoint(0.95)

        for j, driver in enumerate(drivers):
            verification_per_driver[j] = {
                "pearson": float(pearson[j]),
                "spearman": float(spearman[j]),
                "shapley": float(shapley[j]),
                "permutation": float(perm[j]),
            }
        top_k = min(3, len(drivers))
        for name, scores in (
            ("pearson", pearson),
            ("spearman", spearman),
            ("shapley", shapley),
            ("permutation", perm),
        ):
            agreement[name] = {
                "spearman_rank_agreement": spearman_rank_agreement(
                    np.abs(importances), np.abs(scores)
                ),
                f"top{top_k}_overlap": top_k_overlap(importances, scores, top_k),
            }

    order = np.argsort(-np.abs(importances), kind="stable")
    entries = []
    for rank, index in enumerate(order, start=1):
        entries.append(
            DriverImportance(
                driver=drivers[int(index)],
                importance=float(importances[int(index)]),
                rank=rank,
                verification=verification_per_driver[int(index)],
            )
        )

    result = ImportanceResult(
        kpi=kpi.name,
        model_kind=manager.model_kind,
        drivers=tuple(entries),
        model_confidence=manager.confidence(),
        agreement=agreement,
    )
    checkpoint(1.0)
    return result


def _scoring_for(manager: ModelManager):
    """Scoring callable for permutation importance matching the KPI kind."""
    if manager.kpi.is_discrete:
        def score(model, X, y):
            predictions = model.predict(X)
            return float(np.mean(predictions == y))

        return score

    def score(model, X, y):  # R^2 via the estimator's own score
        return float(model.score(X, y))

    return score
