"""Model selection, training, and KPI prediction.

The paper's backend "trains two widely used models: linear regression models
when the KPI objective is a continuous variable ... and classifiers when the
KPI objective is a discrete variable ... to make predictions", re-running the
prediction on every perturbation.  :class:`ModelManager` owns that lifecycle:

* choose the model family from the KPI kind (linear regression pipeline for
  continuous KPIs, random-forest classifier for discrete ones);
* train on the driver columns of the session's dataset;
* report a cross-validated *model confidence* (R² or accuracy) shown next to
  goal-inversion answers;
* predict the aggregate KPI value for any (possibly perturbed) frame — the
  single number behind each bar in the sensitivity view.

Every perturbation set is scored by :meth:`ModelManager.predict_perturbed_rows`.
The baseline pass of a forest keeps the leaf every ``(tree, row)`` lane reached
(int32, 4 bytes per lane), so a set that perturbs one driver re-walks only the
lanes whose baseline path tests that driver (see :mod:`repro.ml.kernel`); any
other set takes a full pass.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..frame import DataFrame
from ..ml import (
    LinearRegression,
    Pipeline,
    RandomForestClassifier,
    StandardScaler,
    cross_val_score,
)
from .kpi import KPI
from .perturbation import PerturbationSet

__all__ = ["ModelManager"]


class ModelManager:
    """Trains and serves the KPI model for one (dataset, KPI, drivers) triple.

    Parameters
    ----------
    frame:
        The analysis dataset.
    kpi:
        The KPI definition.
    drivers:
        Driver column names used as model inputs.
    model_params:
        Optional overrides for the underlying estimator (e.g. ``n_estimators``).
    cv_folds:
        Folds used for the confidence estimate (0 disables cross-validation).
    random_state:
        Seed controlling the forest and the CV shuffling.
    """

    def __init__(
        self,
        frame: DataFrame,
        kpi: KPI,
        drivers: list[str],
        *,
        model_params: dict[str, Any] | None = None,
        cv_folds: int = 3,
        random_state: int | None = 0,
    ) -> None:
        if not drivers:
            raise ValueError("at least one driver is required to train a model")
        missing = [d for d in drivers if not frame.has_column(d)]
        if missing:
            raise ValueError(f"drivers not found in the dataset: {missing}")
        if kpi.name in drivers:
            raise ValueError(f"the KPI column {kpi.name!r} cannot also be a driver")
        self.frame = frame
        self.kpi = kpi
        self.drivers = list(drivers)
        self.model_params = dict(model_params or {})
        self.cv_folds = cv_folds
        self.random_state = random_state
        self._model = None
        self._confidence: float | None = None
        self._baseline_rows: np.ndarray | None = None
        self._baseline_leaves: np.ndarray | None = None
        self._baseline_kpi: float | None = None
        self._driver_matrix: np.ndarray | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Memoised identity of this manager's (dataset, KPI, drivers, params,
        seed) tuple — the key process-pool workers cache hydrated models under,
        matching the server-side :class:`~repro.core.cache.ModelCache` key."""
        if self._fingerprint is None:
            from .cache import model_fingerprint

            self._fingerprint = model_fingerprint(
                self.frame, self.kpi, self.drivers, self.model_params, self.random_state
            )
        return self._fingerprint

    # ------------------------------------------------------------------ #
    @property
    def model_kind(self) -> str:
        """Identifier of the chosen model family."""
        return (
            "random_forest_classifier" if self.kpi.is_discrete else "linear_regression"
        )

    def _build_model(self):
        if self.kpi.is_discrete:
            params = {
                "n_estimators": 40,
                "max_depth": 8,
                "max_features": "sqrt",
                "random_state": self.random_state,
            }
            params.update(self.model_params)
            return RandomForestClassifier(**params)
        params = {"fit_intercept": True}
        params.update(self.model_params)
        return Pipeline(
            [("scale", StandardScaler()), ("regress", LinearRegression(**params))]
        )

    def fit(self) -> "ModelManager":
        """Train the KPI model on the session's dataset."""
        X = self.driver_matrix()
        y = self.kpi.target_vector(self.frame)
        self._model = self._build_model()
        self._model.fit(X, y)
        return self

    @property
    def model(self):
        """The fitted estimator (fitting lazily on first access)."""
        if self._model is None:
            self.fit()
        return self._model

    # ------------------------------------------------------------------ #
    def confidence(self) -> float:
        """Cross-validated model score (accuracy or R²), clipped to [0, 1].

        The paper's goal-inversion view returns "the confidence of the model
        used" with every recommendation; this is that number.
        """
        if self._confidence is not None:
            return self._confidence
        if self.cv_folds and self.frame.n_rows >= 2 * self.cv_folds:
            X = self.driver_matrix()
            y = self.kpi.target_vector(self.frame)
            estimator = self._build_model()
            if isinstance(estimator, Pipeline):
                estimator = estimator.clone_unfitted()
            scores = cross_val_score(
                estimator, X, y, cv=self.cv_folds, random_state=self.random_state
            )
            self._confidence = float(np.clip(np.mean(scores), 0.0, 1.0))
        else:
            X = self.driver_matrix()
            y = self.kpi.target_vector(self.frame)
            self._confidence = float(np.clip(self.model.score(X, y), 0.0, 1.0))
        return self._confidence

    # ------------------------------------------------------------------ #
    def driver_matrix(self) -> np.ndarray:
        """Memoised ``float64`` design matrix of the session's dataset.

        The what-if hot path perturbs this matrix directly (see
        :meth:`predict_perturbed_rows`) instead of copying frames, so it is
        extracted once per manager.
        """
        if self._driver_matrix is None:
            self._driver_matrix = self.frame.to_matrix(self.drivers)
        return self._driver_matrix

    def predict_rows_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-row predictions for an already-extracted design matrix.

        Discrete KPIs return positive-class probabilities; continuous KPIs
        return predicted values.
        """
        if self.kpi.is_discrete:
            return self._positive_class(self.model.predict_proba(X))
        return self.model.predict(X)

    def _positive_class(self, proba: np.ndarray) -> np.ndarray:
        """The positive-class column (label ``1.0``, else the last class)."""
        classes = list(self.model.classes_)
        positive = 1.0
        column = classes.index(positive) if positive in classes else len(classes) - 1
        return proba[:, column]

    def restart_feature(self, perturbations: PerturbationSet) -> int | None:
        """Driver column a perturbation set is re-scored incrementally on.

        The incremental path applies to a forest (every discrete KPI trains
        one) and a set that perturbs exactly one driver; anything else is
        scored by a full pass and gets ``None``.
        """
        if len(perturbations) != 1 or not isinstance(self.model, RandomForestClassifier):
            return None
        return self.drivers.index(perturbations.drivers[0])

    def predict_perturbed_rows(
        self, perturbations: PerturbationSet, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Per-row predictions for rows ``[start, stop)`` of the dataset under
        ``perturbations`` — the one scoring step of every perturbation set.

        When :meth:`restart_feature` names a driver, only the ``(tree, row)``
        lanes whose baseline path tests it are re-traversed, from the first
        node that does; the rest keep their baseline leaf.  Predictions are
        bitwise identical to :meth:`predict_rows_matrix` on the perturbed
        rows, and the perturbed values pass the same finiteness check.
        """
        X = perturbations.apply_to_matrix(self.driver_matrix()[start:stop], self.drivers)
        feature = self.restart_feature(perturbations)
        if feature is None:
            return self.predict_rows_matrix(X)
        leaves = self.baseline_leaves()[:, start:stop]
        return self._positive_class(self.model.predict_proba(X, restart=(leaves, feature)))

    def predict_rows(self, frame: DataFrame) -> np.ndarray:
        """Per-row predictions for the driver columns of ``frame``."""
        return self.predict_rows_matrix(frame.to_matrix(self.drivers))

    def predict_kpi(self, frame: DataFrame) -> float:
        """Aggregate KPI value predicted for ``frame``."""
        return self.kpi.aggregate(self.predict_rows(frame))

    def predict_kpi_batch(self, sets: list[PerturbationSet]) -> np.ndarray:
        """Aggregate KPI of the dataset under each of ``sets``, in order.

        Each set is scored on its own through :meth:`predict_perturbed_rows`,
        so a one-driver set on a forest takes the restart pass and no call
        holds more than one perturbed copy of the dataset.
        """
        return np.array(
            [self.kpi.aggregate(self.predict_perturbed_rows(s)) for s in sets], dtype=np.float64
        )

    def predict_row(self, frame: DataFrame, index: int) -> float:
        """Prediction for a single row of ``frame`` (per-data analysis)."""
        X = frame.take([index]).to_matrix(self.drivers)
        return float(self.predict_rows_matrix(X)[0])

    def baseline_rows(self) -> np.ndarray:
        """Memoised per-row predictions on the unperturbed dataset.

        Sensitivity analysis re-reads the baseline on every request; the
        dataset never changes underneath a manager (sessions swap managers
        when it does), so predicting it once is enough.
        """
        if self._baseline_rows is None:
            self._baseline_pass()
        return self._baseline_rows

    def baseline_leaves(self) -> np.ndarray:
        """Memoised leaf id per ``(tree, row)`` lane of the baseline pass,
        shape ``(n_trees, n_rows)`` int32 (forest models only)."""
        if self._baseline_leaves is None:
            self._baseline_pass()
        return self._baseline_leaves

    def _baseline_pass(self) -> None:
        """Predict the unperturbed dataset once, keeping a forest's leaves.

        Concurrent first calls compute identical read-only arrays; the leaves
        are assigned before the rows, so a manager whose rows are memoised
        (also one pickled meanwhile) has its leaves too.
        """
        X = self.driver_matrix()
        if not isinstance(self.model, RandomForestClassifier):
            self._baseline_rows = self.predict_rows_matrix(X)
            return
        leaves = np.empty((self.model.kernel_.n_trees, X.shape[0]), dtype=np.int32)
        rows = self._positive_class(self.model.predict_proba(X, leaves_out=leaves))
        leaves.setflags(write=False)
        self._baseline_leaves = leaves
        self._baseline_rows = rows

    def baseline_kpi(self) -> float:
        """KPI predicted on the original, unperturbed dataset (the blue bar)."""
        if self._baseline_kpi is None:
            self._baseline_kpi = self.kpi.aggregate(self.baseline_rows())
        return self._baseline_kpi

    # ------------------------------------------------------------------ #
    def raw_importances(self) -> np.ndarray:
        """Model-native importance scores aligned with ``self.drivers``.

        Linear pipelines report standardised coefficients (the scaler makes
        them comparable across drivers); forests report impurity-decrease
        feature importances.  Signing and normalisation into ``[-1, 1]`` is
        the driver-importance module's job.
        """
        model = self.model
        if self.kpi.is_discrete:
            return np.asarray(model.feature_importances_, dtype=np.float64)
        return np.asarray(model.coef_, dtype=np.float64)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary of the trained model."""
        return {
            "model_kind": self.model_kind,
            "kpi": self.kpi.to_dict(),
            "drivers": list(self.drivers),
            "confidence": self.confidence(),
            "n_rows": self.frame.n_rows,
        }
