"""The what-if session façade: SystemD's public API.

A :class:`WhatIfSession` wires together everything a business user does in the
paper's UI, in the same order the views appear:

1. pick a use case / dataset (view A/B) — :meth:`from_use_case` or the
   constructor;
2. pick a KPI (view C) — ``kpi=`` argument or :meth:`set_kpi`;
3. filter the driver list (view D) — ``drivers=`` / :meth:`select_drivers` /
   :meth:`exclude_drivers`;
4. run driver importance analysis (view E) — :meth:`driver_importance`;
5. run sensitivity analysis with perturbation options (views F/G/H) —
   :meth:`sensitivity`, :meth:`comparison_analysis`, :meth:`per_data_analysis`;
6. run goal inversion and constrained analysis (view I) —
   :meth:`goal_inversion`, :meth:`constrained_analysis`;
7. track the explored options — :attr:`scenarios`.

The session owns the trained model (retraining lazily whenever the KPI or the
driver selection changes) so repeated perturbations stay interactive, which is
the paper's latency requirement for hands-on experimentation.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from ..frame import DataFrame, add_formula_column
from ..optimize import CallableConstraint, LinearConstraint
from .cache import ModelCache, model_fingerprint
from .constrained import DriverBound, run_constrained_analysis
from .driver_importance import compute_driver_importance
from .goal_inversion import DEFAULT_PERTURBATION_RANGE, invert_goal
from .kpi import KPI
from .model_manager import ModelManager
from .perturbation import Perturbation, PerturbationSet
from .results import (
    ComparisonResult,
    GoalInversionResult,
    ImportanceResult,
    PerDataResult,
    SensitivityResult,
)
from .scenario import ScenarioManager
from .sensitivity import run_comparison, run_per_data, run_sensitivity

__all__ = ["WhatIfSession"]


class WhatIfSession:
    """An interactive what-if analysis session over one dataset.

    Parameters
    ----------
    frame:
        The analysis dataset.
    kpi:
        KPI column name, or a ready :class:`~repro.core.kpi.KPI`.
    drivers:
        Driver columns to analyse.  Defaults to every numeric column except
        the KPI (textual columns are excluded automatically, mirroring the
        driver list view).
    model_params:
        Optional overrides for the underlying estimator.
    random_state:
        Seed shared by the model, the verification estimates, and the
        optimiser.
    model_cache:
        A :class:`~repro.core.cache.ModelCache` to fetch trained models from
        (and publish them to).  Pass a shared cache so concurrent sessions on
        the same configuration fit one model between them; by default each
        session owns a small private cache, which still makes driver/KPI
        toggles instant.
    """

    def __init__(
        self,
        frame: DataFrame,
        kpi: str | KPI,
        *,
        drivers: Sequence[str] | None = None,
        model_params: dict[str, Any] | None = None,
        random_state: int | None = 0,
        model_cache: ModelCache | None = None,
    ) -> None:
        if frame.n_rows == 0:
            raise ValueError("cannot start a session on an empty dataset")
        self._frame = frame
        self._kpi = kpi if isinstance(kpi, KPI) else KPI.from_frame(frame, kpi)
        if not frame.has_column(self._kpi.name):
            raise ValueError(f"KPI column {self._kpi.name!r} not found in the dataset")
        self._drivers = self._resolve_drivers(drivers)
        self._model_params = dict(model_params or {})
        self._random_state = random_state
        self._model_cache = model_cache if model_cache is not None else ModelCache(max_size=8)
        self._manager: ModelManager | None = None
        self.scenarios = ScenarioManager()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_use_case(
        cls,
        key: str,
        *,
        random_state: int | None = 0,
        dataset_kwargs: dict[str, Any] | None = None,
        **session_kwargs: Any,
    ) -> "WhatIfSession":
        """Start a session for one of the registered business use cases."""
        from ..datasets import get_use_case

        use_case = get_use_case(key)
        frame = use_case.load(**(dataset_kwargs or {}))
        drivers = [
            name
            for name in frame.numeric_columns()
            if name != use_case.kpi and name not in use_case.excluded_drivers
        ]
        return cls(
            frame,
            use_case.kpi,
            drivers=drivers,
            random_state=random_state,
            **session_kwargs,
        )

    def _resolve_drivers(self, drivers: Sequence[str] | None) -> list[str]:
        if drivers is None:
            return [
                name
                for name in self._frame.numeric_columns()
                if name != self._kpi.name
            ]
        resolved = list(drivers)
        missing = [d for d in resolved if not self._frame.has_column(d)]
        if missing:
            raise ValueError(f"drivers not found in the dataset: {missing}")
        non_numeric = [
            d for d in resolved if not self._frame.column(d).is_numeric
        ]
        if non_numeric:
            raise ValueError(
                f"textual columns cannot be drivers: {non_numeric}; "
                "deselect them like the driver list view does"
            )
        if self._kpi.name in resolved:
            raise ValueError("the KPI column cannot also be a driver")
        if not resolved:
            raise ValueError("at least one driver must remain selected")
        return resolved

    # ------------------------------------------------------------------ #
    # dataset / KPI / driver management (views B, C, D)
    # ------------------------------------------------------------------ #
    @property
    def frame(self) -> DataFrame:
        """The session's dataset."""
        return self._frame

    @property
    def kpi(self) -> KPI:
        """The selected KPI."""
        return self._kpi

    @property
    def drivers(self) -> list[str]:
        """The currently selected drivers."""
        return list(self._drivers)

    @property
    def model_cache(self) -> ModelCache:
        """The cache this session fetches trained models from."""
        return self._model_cache

    @property
    def model(self) -> ModelManager:
        """The (lazily trained) model manager for the current configuration.

        Trained managers are fetched from (and published to) the session's
        :class:`~repro.core.cache.ModelCache`, so toggling a driver off and
        back on — or another session analysing the same configuration against
        a shared cache — reuses the fitted model instead of retraining.
        """
        if self._manager is None:
            key = self.model_key()
            self._manager = self._model_cache.get_or_create(
                key,
                lambda: ModelManager(
                    self._frame,
                    self._kpi,
                    self._drivers,
                    model_params=self._model_params,
                    random_state=self._random_state,
                ).fit(),
            )
        return self._manager

    def model_key(self) -> str:
        """Fingerprint of the current model configuration.

        The same digest :attr:`model` uses to look up the trained estimator
        in the cache; the async engine keys request coalescing on it so two
        identical submissions share one execution only while the session's
        dataset/KPI/driver configuration is unchanged.
        """
        return model_fingerprint(
            self._frame,
            self._kpi,
            self._drivers,
            self._model_params,
            self._random_state,
        )

    def _invalidate_model(self) -> None:
        self._manager = None

    def set_kpi(self, kpi: str | KPI) -> "WhatIfSession":
        """Change the KPI (view C); retrains on next analysis."""
        self._kpi = kpi if isinstance(kpi, KPI) else KPI.from_frame(self._frame, kpi)
        if self._kpi.name in self._drivers:
            self._drivers = [d for d in self._drivers if d != self._kpi.name]
        self._invalidate_model()
        return self

    def select_drivers(self, drivers: Sequence[str]) -> "WhatIfSession":
        """Replace the driver selection (view D); retrains on next analysis."""
        self._drivers = self._resolve_drivers(drivers)
        self._invalidate_model()
        return self

    def exclude_drivers(self, drivers: Sequence[str]) -> "WhatIfSession":
        """Deselect some drivers (e.g. the product manager removing an
        "obvious predictor" in the retention use case)."""
        remaining = [d for d in self._drivers if d not in set(drivers)]
        self._drivers = self._resolve_drivers(remaining)
        self._invalidate_model()
        return self

    def add_formula_driver(self, name: str, expression: str) -> "WhatIfSession":
        """Add a hypothesis-formula column and select it as a driver."""
        self._frame = add_formula_column(self._frame, name, expression)
        if name not in self._drivers:
            self._drivers.append(name)
        self._invalidate_model()
        return self

    def describe_dataset(self) -> dict[str, Any]:
        """Table-view metadata: shape, dtypes, per-column summaries."""
        return {
            "shape": self._frame.shape,
            "columns": self._frame.columns,
            "dtypes": self._frame.dtypes,
            "kpi": self._kpi.to_dict(),
            "drivers": self.drivers,
            "summary": self._frame.describe(),
        }

    # ------------------------------------------------------------------ #
    # functionality 1: driver importance (view E)
    # ------------------------------------------------------------------ #
    def driver_importance(
        self,
        *,
        verify: bool = True,
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
    ) -> ImportanceResult:
        """Rank drivers by their importance to the KPI.

        With ``verify=True`` (default) the result also carries the Shapley /
        Pearson / Spearman / permutation cross-checks of each importance.
        ``checkpoint`` threads progress/cancellation through the stages and
        ``executor`` (a process executor) moves the computation off the GIL
        (used by the async engine; results are identical either way).
        """
        return compute_driver_importance(
            self.model,
            verify=verify,
            random_state=self._random_state,
            checkpoint=checkpoint,
            executor=executor,
        )

    # ------------------------------------------------------------------ #
    # functionality 2: sensitivity analysis (views F, G, H)
    # ------------------------------------------------------------------ #
    def sensitivity(
        self,
        perturbations: PerturbationSet | Mapping[str, float],
        *,
        mode: str = "percentage",
        track_as: str | None = None,
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
        emit: Callable[..., None] | None = None,
    ) -> SensitivityResult:
        """Perturb the dataset and compare the predicted KPI against baseline.

        ``perturbations`` may be a ready :class:`PerturbationSet` or a simple
        ``{driver: amount}`` mapping interpreted in ``mode``.  Pass
        ``track_as`` to record the outcome as a named scenario; ``checkpoint``
        threads progress/cancellation through the row-range work units and
        ``executor`` fans them out across worker processes.
        """
        perturbation_set = self._as_perturbation_set(perturbations, mode)
        result = run_sensitivity(
            self.model,
            perturbation_set,
            checkpoint=checkpoint,
            executor=executor,
            emit=emit,
        )
        if track_as is not None:
            self.scenarios.record_sensitivity(track_as, result)
        return result

    def comparison_analysis(
        self,
        drivers: Sequence[str] | None = None,
        amounts: Sequence[float] = (-40.0, -20.0, 0.0, 20.0, 40.0),
        *,
        mode: str = "percentage",
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
        emit: Callable[..., None] | None = None,
    ) -> ComparisonResult:
        """KPI trend for each driver individually across a perturbation range."""
        return run_comparison(
            self.model,
            drivers,
            amounts,
            mode=mode,
            checkpoint=checkpoint,
            executor=executor,
            emit=emit,
        )

    def per_data_analysis(
        self,
        row_index: int,
        perturbations: PerturbationSet | Mapping[str, float],
        *,
        mode: str = "percentage",
    ) -> PerDataResult:
        """Perturb a single data point and observe its predicted KPI change."""
        perturbation_set = self._as_perturbation_set(perturbations, mode)
        return run_per_data(self.model, row_index, perturbation_set)

    def _as_perturbation_set(
        self, perturbations: PerturbationSet | Mapping[str, float], mode: str
    ) -> PerturbationSet:
        if isinstance(perturbations, PerturbationSet):
            return perturbations
        return PerturbationSet.from_mapping(dict(perturbations), mode=mode)

    # ------------------------------------------------------------------ #
    # scenario-space sweeps: discover options instead of evaluating one
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        space,
        *,
        goal: str = "maximize",
        top_k: int = 10,
        cohort: str | None = None,
        track_as: str | None = None,
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
        emit: Callable[..., None] | None = None,
    ):
        """Evaluate a whole scenario space in batched matrix form.

        ``space`` is a :class:`~repro.scenarios.space.ScenarioSpace` (or its
        wire-form dict).  The ranked :class:`~repro.scenarios.planner
        .SweepResult` — top-``top_k`` frontier, per-axis marginal KPI
        profiles, optional per-``cohort`` breakdowns — auto-records into the
        scenario ledger (``track_as`` overrides the generated name) so
        discovered options stay first-class citizens alongside hand-built
        ones.  KPI values are bitwise identical to looping
        :meth:`sensitivity` over the space.
        """
        # imported lazily: repro.scenarios builds on repro.core
        from ..scenarios import ScenarioSpace, SweepPlanner

        if not isinstance(space, ScenarioSpace):
            space = ScenarioSpace.from_dict(space)
        planner = SweepPlanner(
            self.model, space, goal=goal, top_k=top_k, cohort_column=cohort
        )
        result = planner.run(checkpoint=checkpoint, executor=executor, emit=emit)
        self.scenarios.record_sweep(track_as or f"sweep {space.describe()}", result)
        return result

    # ------------------------------------------------------------------ #
    # functionality 3: goal inversion (view I)
    # ------------------------------------------------------------------ #
    def goal_inversion(
        self,
        goal: str = "maximize",
        *,
        target_value: float | None = None,
        drivers: Sequence[str] | None = None,
        mode: str = "percentage",
        default_range: tuple[float, float] = DEFAULT_PERTURBATION_RANGE,
        n_calls: int = 40,
        optimizer: str = "bayesian",
        track_as: str | None = None,
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
    ) -> GoalInversionResult:
        """Find driver changes that maximise/minimise or hit a KPI target."""
        result = invert_goal(
            self.model,
            goal=goal,
            target_value=target_value,
            drivers=drivers,
            mode=mode,
            default_range=default_range,
            n_calls=n_calls,
            optimizer=optimizer,
            random_state=self._random_state,
            checkpoint=checkpoint,
            executor=executor,
        )
        if track_as is not None:
            self.scenarios.record_goal_inversion(track_as, result)
        return result

    # ------------------------------------------------------------------ #
    # functionality 4: constrained analysis (views G + I)
    # ------------------------------------------------------------------ #
    def constrained_analysis(
        self,
        bounds: Sequence[DriverBound] | Mapping[str, tuple[float, float]],
        *,
        goal: str = "maximize",
        target_value: float | None = None,
        drivers: Sequence[str] | None = None,
        extra_constraints: Sequence[LinearConstraint | CallableConstraint] = (),
        mode: str = "percentage",
        default_range: tuple[float, float] = DEFAULT_PERTURBATION_RANGE,
        n_calls: int = 40,
        optimizer: str = "bayesian",
        track_as: str | None = None,
        checkpoint: Callable[[float], None] | None = None,
    ) -> GoalInversionResult:
        """Goal inversion restricted to user-specified driver bounds/constraints."""
        result = run_constrained_analysis(
            self.model,
            bounds,
            goal=goal,
            target_value=target_value,
            drivers=drivers,
            extra_constraints=extra_constraints,
            mode=mode,
            default_range=default_range,
            n_calls=n_calls,
            optimizer=optimizer,
            random_state=self._random_state,
            checkpoint=checkpoint,
        )
        if track_as is not None:
            self.scenarios.record_goal_inversion(track_as, result)
        return result

    # ------------------------------------------------------------------ #
    # extensions: cohort drill-down and model choice (paper §4 feedback / §5)
    # ------------------------------------------------------------------ #
    def cohort_analysis(self, cohort_column: str, *, min_rows: int | None = None):
        """Drill the analysis down by a cohort column (per-cohort models).

        Returns a :class:`~repro.core.cohort.CohortAnalysis` configured with
        this session's KPI and drivers; the cohort column itself is excluded
        from the drivers automatically.
        """
        from .cohort import MIN_COHORT_ROWS, CohortAnalysis

        return CohortAnalysis(
            self._frame,
            self._kpi,
            self._drivers,
            cohort_column,
            min_rows=min_rows if min_rows is not None else MIN_COHORT_ROWS,
            random_state=self._random_state,
        )

    def compare_models(self, *, cv_folds: int = 3):
        """Interpretability-vs-accuracy menu of candidate KPI models (§5)."""
        from .model_comparison import compare_models

        return compare_models(
            self._frame,
            self._kpi,
            self._drivers,
            cv_folds=cv_folds,
            random_state=self._random_state,
        )

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, Any]:
        """One-call overview of the session state (for the server / notebooks)."""
        return {
            "dataset": {"n_rows": self._frame.n_rows, "n_columns": self._frame.n_columns},
            "kpi": self._kpi.to_dict(),
            "drivers": self.drivers,
            "model": self.model.to_dict(),
            "n_scenarios": len(self.scenarios),
        }
