"""Scenario (option) management.

The paper argues "there are often multiple feasible choices with dynamic costs
and trade-offs bound to decision paths.  Systems should enable rapid discovery
as well as management and tracking of these choices (options), making them
first-class citizens of data analysis."  A :class:`Scenario` is one such
option — a named analysis (sensitivity run, goal inversion, or scenario-space
sweep) with its inputs and outcome — and :class:`ScenarioManager` is the
session's ledger of them: record, list, compare, and rank scenarios by the
KPI they achieve.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .results import GoalInversionResult, SensitivityResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..persist import StateBackend
    from ..scenarios.planner import SweepResult

__all__ = ["Scenario", "ScenarioError", "ScenarioManager", "SCENARIO_KINDS"]

#: Analysis kinds a scenario can track.
SCENARIO_KINDS = ("sensitivity", "goal_inversion", "sweep")


class ScenarioError(ValueError):
    """Raised for scenario-ledger misuse (e.g. ranking an empty ledger).

    Subclasses :class:`ValueError` so callers that caught the old bare
    ``ValueError`` keep working.
    """


@dataclass(frozen=True)
class Scenario:
    """A tracked analysis option.

    Attributes
    ----------
    scenario_id:
        Monotonically increasing identifier assigned by the manager.
    name:
        User-supplied label ("increase emails 40%", "constrained max", ...).
    kind:
        One of :data:`SCENARIO_KINDS`.
    kpi_value:
        The KPI value this scenario achieves (perturbed KPI for sensitivity,
        best KPI for goal inversion and sweeps).
    uplift:
        KPI change versus the original data.
    detail:
        The full result payload (JSON-safe).
    notes:
        Free-form user notes.
    """

    scenario_id: int
    name: str
    kind: str
    kpi_value: float
    uplift: float
    detail: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(
                f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "scenario_id": self.scenario_id,
            "name": self.name,
            "kind": self.kind,
            "kpi_value": self.kpi_value,
            "uplift": self.uplift,
            "detail": dict(self.detail),
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Reconstruct from :meth:`to_dict` output (round-trip safe)."""
        return cls(
            scenario_id=int(payload["scenario_id"]),
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            kpi_value=float(payload["kpi_value"]),
            uplift=float(payload["uplift"]),
            detail=dict(payload.get("detail", {})),
            notes=str(payload.get("notes", "")),
        )


class ScenarioManager:
    """Ledger of scenarios explored during a what-if session.

    The ledger is the session's authoritative append-only event log.  When a
    :class:`~repro.persist.StateBackend` is bound (every server session),
    every append and clear is journaled through it, so a durable store can
    replay the ledger bitwise after a restart; unbound managers (library
    use, tests) keep the ledger in memory only.
    """

    #: Attributes whose mutations must flow through a persistence hook —
    #: the PER001 check rule enforces this contract statically.
    _PERSISTED_FIELDS = ("_scenarios",)

    def __init__(self) -> None:
        self._scenarios: list[Scenario] = []
        self._ids = itertools.count(1)
        self._backend: "StateBackend | None" = None
        self._session_id: str | None = None

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self):
        return iter(self._scenarios)

    # ------------------------------------------------------------------ #
    # persistence binding
    # ------------------------------------------------------------------ #
    def bind_backend(self, backend: "StateBackend", session_id: str) -> None:
        """Journal all subsequent appends/clears to ``backend``.

        Binding does not write the existing ledger — callers either bind a
        fresh manager or use :meth:`replay` to rebuild from the journal.
        """
        self._backend = backend
        self._session_id = session_id

    def replay(self, payloads: list[Mapping[str, Any]]) -> int:
        """Rebuild the ledger from journaled :meth:`Scenario.to_dict` events.

        Appends in journal order without re-persisting (the records are
        already durable) and advances the id counter past the highest
        replayed id so new scenarios never collide.  Returns the number of
        events replayed.
        """
        replayed = [Scenario.from_dict(payload) for payload in payloads]
        # repro: ignore[PER001] -- replay rebuilds from already-journaled records; re-persisting would double every event
        self._scenarios.extend(replayed)
        if replayed:
            highest = max(s.scenario_id for s in self._scenarios)
            self._ids = itertools.count(highest + 1)
        return len(replayed)

    def _persist_append(self, scenario: Scenario) -> None:
        if self._backend is not None and self._session_id is not None:
            self._backend.append_scenario(self._session_id, scenario.to_dict())

    def _persist_clear(self) -> None:
        if self._backend is not None and self._session_id is not None:
            self._backend.clear_scenarios(self._session_id)

    def _record(self, scenario: Scenario) -> Scenario:
        """The single append path: journal first, then mutate the ledger."""
        self._persist_append(scenario)
        self._scenarios.append(scenario)
        return scenario

    # ------------------------------------------------------------------ #
    def record_sensitivity(
        self, name: str, result: SensitivityResult, *, notes: str = ""
    ) -> Scenario:
        """Track a sensitivity-analysis outcome as a scenario."""
        return self._record(
            Scenario(
                scenario_id=next(self._ids),
                name=name,
                kind="sensitivity",
                kpi_value=result.perturbed_kpi,
                uplift=result.uplift,
                detail=result.to_dict(),
                notes=notes,
            )
        )

    def record_goal_inversion(
        self, name: str, result: GoalInversionResult, *, notes: str = ""
    ) -> Scenario:
        """Track a goal-inversion / constrained-analysis outcome as a scenario."""
        return self._record(
            Scenario(
                scenario_id=next(self._ids),
                name=name,
                kind="goal_inversion",
                kpi_value=result.best_kpi,
                uplift=result.uplift,
                detail=result.to_dict(),
                notes=notes,
            )
        )

    def record_sweep(
        self, name: str, result: "SweepResult", *, notes: str = ""
    ) -> Scenario:
        """Track a scenario-space sweep outcome as a scenario.

        The sweep's best frontier entry provides the headline KPI/uplift;
        the full ranked result (frontier, marginals, cohorts) rides along in
        ``detail``.
        """
        return self._record(
            Scenario(
                scenario_id=next(self._ids),
                name=name,
                kind="sweep",
                kpi_value=result.best_kpi,
                uplift=result.uplift,
                detail=result.to_dict(),
                notes=notes,
            )
        )

    # ------------------------------------------------------------------ #
    def get(self, scenario_id: int) -> Scenario:
        """Look up a scenario by id."""
        for scenario in self._scenarios:
            if scenario.scenario_id == scenario_id:
                return scenario
        raise KeyError(f"no scenario with id {scenario_id}")

    def list(self, *, limit: int | None = None, offset: int = 0) -> list[Scenario]:
        """Scenarios in recording order (a stable pagination key: ids only
        grow), optionally sliced by ``limit``/``offset``."""
        offset = max(0, int(offset))
        stop = None if limit is None else offset + max(0, int(limit))
        return self._scenarios[offset:stop]

    def best(self, *, maximize: bool = True) -> Scenario:
        """The scenario achieving the best KPI value."""
        if not self._scenarios:
            raise ScenarioError(
                "no scenarios recorded yet; run an analysis with track_as= "
                "(or a sweep) before asking for the best scenario"
            )
        key = (lambda s: s.kpi_value) if maximize else (lambda s: -s.kpi_value)
        return max(self._scenarios, key=key)

    def rank(self, *, maximize: bool = True) -> list[Scenario]:
        """Scenarios ordered best-to-worst by the KPI they achieve."""
        if not self._scenarios:
            raise ScenarioError(
                "no scenarios recorded yet; run an analysis with track_as= "
                "(or a sweep) before ranking scenarios"
            )
        return sorted(self._scenarios, key=lambda s: s.kpi_value, reverse=maximize)

    def compare(self, scenario_ids: list[int] | None = None) -> list[dict[str, Any]]:
        """Side-by-side comparison table of the selected (or all) scenarios."""
        chosen = (
            [self.get(sid) for sid in scenario_ids]
            if scenario_ids is not None
            else self._scenarios
        )
        return [
            {
                "scenario_id": s.scenario_id,
                "name": s.name,
                "kind": s.kind,
                "kpi_value": s.kpi_value,
                "uplift": s.uplift,
            }
            for s in chosen
        ]

    def clear(self) -> None:
        """Forget all recorded scenarios (journal included, when bound)."""
        self._persist_clear()
        self._scenarios.clear()
