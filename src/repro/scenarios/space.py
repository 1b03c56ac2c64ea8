"""Declarative scenario spaces: enumerable sets of what-if options.

The paper argues analysts should "rapidly discover" feasible options, not
just evaluate one hand-built perturbation at a time.  A
:class:`ScenarioSpace` is the declarative form of that discovery problem: one
:class:`Axis` per driver (a grid of relative/absolute perturbation amounts,
or an explicit value list for discrete driver levels), composed by cartesian
product — systematic enumeration of a combinatorial configuration space in
the spirit of Haydi (PAPERS.md) — with two escape hatches for spaces too
large to exhaust:

* **seeded random sampling** — draw ``n`` scenarios uniformly over the grid;
* **low-discrepancy sampling** — a Halton sequence covers the grid far more
  evenly than random draws at the same budget, so small samples still see
  every corner of the space.

Optional **constraint predicates** prune infeasible combinations before any
model evaluation (e.g. a marketing team that can fund at most +50 points of
total change).  Spaces canonicalise — axes are kept sorted by driver name —
so the same set of axes always enumerates in the same order and serialises
to the same :meth:`ScenarioSpace.to_dict`; the server submits a sweep job
with that canonical form, so concurrent sweeps of one space coalesce however
their axes were listed.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.perturbation import PERTURBATION_MODES, Perturbation, PerturbationSet

__all__ = [
    "Axis",
    "BudgetConstraint",
    "ScenarioSpace",
    "SweepScenario",
    "SAMPLE_METHODS",
]

#: Supported sampling methods for spaces too large to enumerate exhaustively.
SAMPLE_METHODS = ("random", "halton")

#: Bases of the Halton sequence, one prime per axis (spaces are capped to
#: this many axes, which is far beyond any interactive sweep).
_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

#: Attempt multiplier for constrained sampling: drawing stops after
#: ``max(_MIN_SAMPLE_ATTEMPTS, _SAMPLE_ATTEMPT_FACTOR * n)`` candidates even
#: if fewer than ``n`` feasible scenarios were found.
_SAMPLE_ATTEMPT_FACTOR = 32
_MIN_SAMPLE_ATTEMPTS = 1024


@dataclass(frozen=True)
class Axis:
    """One driver's dimension of a scenario space.

    Attributes
    ----------
    driver:
        Driver column name.
    amounts:
        The perturbation amounts this axis can take (duplicates are dropped,
        first occurrence wins).  Each scenario picks exactly one.
    mode:
        ``"percentage"`` (relative grid) or ``"absolute"`` (absolute grid),
        exactly as in :class:`~repro.core.perturbation.Perturbation`.
    """

    driver: str
    amounts: tuple[float, ...]
    mode: str = "percentage"

    def __post_init__(self) -> None:
        if not self.driver:
            raise ValueError("an axis needs a driver name")
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(
                f"mode must be one of {PERTURBATION_MODES}, got {self.mode!r}"
            )
        seen: dict[float, None] = {}
        for amount in self.amounts:
            value = float(amount)
            if not np.isfinite(value):
                raise ValueError(
                    f"axis {self.driver!r} has a non-finite amount: {amount!r}"
                )
            seen.setdefault(value, None)
        if not seen:
            raise ValueError(f"axis {self.driver!r} needs at least one amount")
        object.__setattr__(self, "amounts", tuple(seen))

    # ------------------------------------------------------------------ #
    @classmethod
    def values(
        cls, driver: str, amounts: Sequence[float], *, mode: str = "percentage"
    ) -> "Axis":
        """An explicit value list (e.g. the discrete levels of a driver)."""
        return cls(driver=driver, amounts=tuple(float(a) for a in amounts), mode=mode)

    @classmethod
    def grid(
        cls,
        driver: str,
        start: float,
        stop: float,
        step: float,
        *,
        mode: str = "percentage",
    ) -> "Axis":
        """A step grid from ``start`` to ``stop`` inclusive.

        ``Axis.grid("Email", -40, 40, 20)`` enumerates −40, −20, 0, +20, +40.
        """
        start, stop, step = float(start), float(stop), float(step)
        if step <= 0:
            raise ValueError(f"axis {driver!r} needs a positive step, got {step:g}")
        if stop < start:
            raise ValueError(
                f"axis {driver!r} grid is empty: stop {stop:g} < start {start:g}"
            )
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return cls.values(driver, (start + step * np.arange(count)).tolist(), mode=mode)

    @classmethod
    def span(
        cls,
        driver: str,
        start: float,
        stop: float,
        num: int,
        *,
        mode: str = "percentage",
    ) -> "Axis":
        """``num`` evenly spaced amounts from ``start`` to ``stop`` inclusive."""
        if num < 1:
            raise ValueError(f"axis {driver!r} needs at least one point, got {num}")
        return cls.values(driver, np.linspace(start, stop, num).tolist(), mode=mode)

    # ------------------------------------------------------------------ #
    def perturbation(self, amount: float) -> Perturbation:
        """The perturbation this axis applies at one of its amounts."""
        return Perturbation(self.driver, float(amount), self.mode)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "driver": self.driver,
            "amounts": [float(a) for a in self.amounts],
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Axis":
        """Reconstruct an axis from its wire form.

        Accepts either an explicit ``amounts`` list or the grid shorthand
        ``{"start": -40, "stop": 40, "step": 20}`` / the span shorthand
        ``{"start": -40, "stop": 40, "num": 5}``.  A payload that is not an
        object, or ``amounts`` that is not a list, raises ``ValueError``.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"an axis must be an object, got {type(payload).__name__}")
        driver = payload.get("driver")
        if not driver:
            raise ValueError("axis payload needs a 'driver'")
        mode = payload.get("mode", "percentage")
        if "amounts" in payload:
            amounts = payload["amounts"]
            if not isinstance(amounts, list):
                raise ValueError(
                    f"axis {driver!r} needs 'amounts' as a list, got {type(amounts).__name__}"
                )
            return cls.values(str(driver), amounts, mode=mode)
        if "step" in payload:
            return cls.grid(
                str(driver),
                payload["start"],
                payload["stop"],
                payload["step"],
                mode=mode,
            )
        if "num" in payload:
            return cls.span(
                str(driver),
                payload["start"],
                payload["stop"],
                int(payload["num"]),
                mode=mode,
            )
        raise ValueError(
            f"axis payload for {driver!r} needs 'amounts', 'step', or 'num'"
        )


@dataclass(frozen=True)
class BudgetConstraint:
    """Feasibility predicate: total (weighted) absolute change within a budget.

    Attributes
    ----------
    limit:
        The budget: scenarios with ``sum(|amount| * weight)`` above it are
        pruned.
    weights:
        Optional per-driver weights (default 1.0 per driver), e.g. the cost
        per percentage point of each activity.
    """

    limit: float
    weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.limit):
            raise ValueError("budget limit must be finite")
        normalized = tuple(
            sorted((str(d), float(w)) for d, w in dict(self.weights).items())
        )
        object.__setattr__(self, "weights", normalized)
        # the predicate runs once per enumerated combination; pre-build the
        # lookup dict instead of rebuilding it on every call
        object.__setattr__(self, "_weight_of", dict(normalized))

    @classmethod
    def of(
        cls, limit: float, weights: Mapping[str, float] | None = None
    ) -> "BudgetConstraint":
        """Build from a plain ``{driver: weight}`` mapping."""
        return cls(limit=float(limit), weights=tuple((weights or {}).items()))

    def __call__(self, amounts: Mapping[str, float]) -> bool:
        weight_of = self._weight_of
        total = sum(abs(a) * weight_of.get(d, 1.0) for d, a in amounts.items())
        return total <= self.limit + 1e-12

    def describe(self) -> str:
        """Human-readable rendering."""
        if self.weights:
            terms = " + ".join(f"{w:g}*|{d}|" for d, w in self.weights)
            return f"{terms} <= {self.limit:g}"
        return f"total |change| <= {self.limit:g}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        payload: dict[str, Any] = {"kind": "budget", "limit": self.limit}
        if self.weights:
            payload["weights"] = dict(self.weights)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BudgetConstraint":
        """Reconstruct from :meth:`to_dict` output."""
        weights = payload.get("weights")
        if weights is not None and not isinstance(weights, Mapping):
            raise ValueError(f"budget 'weights' must be an object, got {type(weights).__name__}")
        return cls.of(payload["limit"], weights)


@dataclass(frozen=True)
class SweepScenario:
    """One enumerated point of a scenario space.

    Attributes
    ----------
    scenario_index:
        Position in the space's enumeration order (stable across runs).
    amounts:
        One amount per axis, aligned with the space's (driver-sorted) axes.
    """

    scenario_index: int
    amounts: tuple[float, ...]


class ScenarioSpace:
    """A declarative, enumerable space of what-if scenarios.

    Parameters
    ----------
    axes:
        One :class:`Axis` per driver.  Axes are kept sorted by driver name so
        equal axis sets enumerate and serialise identically regardless of the
        order the caller listed them in.
    constraints:
        Feasibility predicates over ``{driver: amount}`` mappings; scenarios
        any predicate rejects are pruned before evaluation.  Use the
        serialisable :class:`BudgetConstraint` when the space travels over
        the protocol; arbitrary callables work locally but cannot be
        serialised.
    sample:
        ``None`` for exhaustive cartesian enumeration, or a sampling plan
        ``{"n": 200, "method": "random"|"halton", "seed": 0}`` (see
        :meth:`sampled`).
    """

    def __init__(
        self,
        axes: Sequence[Axis],
        *,
        constraints: Sequence[Callable[[Mapping[str, float]], bool]] = (),
        sample: Mapping[str, Any] | None = None,
    ) -> None:
        if not axes:
            raise ValueError("a scenario space needs at least one axis")
        if len(axes) > len(_HALTON_PRIMES):
            raise ValueError(
                f"a scenario space supports at most {len(_HALTON_PRIMES)} axes, "
                f"got {len(axes)}"
            )
        by_driver: dict[str, Axis] = {}
        for axis in axes:
            if axis.driver in by_driver:
                raise ValueError(f"duplicate axis for driver {axis.driver!r}")
            by_driver[axis.driver] = axis
        self.axes: tuple[Axis, ...] = tuple(
            by_driver[d] for d in sorted(by_driver)
        )
        self.constraints: tuple[Callable[[Mapping[str, float]], bool], ...] = tuple(
            constraints
        )
        self.sample = self._validate_sample(sample)

    @staticmethod
    def _validate_sample(sample: Mapping[str, Any] | None) -> dict[str, Any] | None:
        if sample is None:
            return None
        if not isinstance(sample, Mapping):
            raise ValueError(f"a sampling plan must be an object, got {type(sample).__name__}")
        n = int(sample.get("n", 0))
        if n < 1:
            raise ValueError(f"sampling needs n >= 1, got {sample.get('n')!r}")
        method = str(sample.get("method", "random"))
        if method not in SAMPLE_METHODS:
            raise ValueError(
                f"sampling method must be one of {SAMPLE_METHODS}, got {method!r}"
            )
        return {"n": n, "method": method, "seed": int(sample.get("seed", 0))}

    # ------------------------------------------------------------------ #
    @property
    def drivers(self) -> list[str]:
        """Drivers spanned by this space (sorted, one per axis)."""
        return [axis.driver for axis in self.axes]

    @property
    def size(self) -> int:
        """Cartesian-product size before constraint pruning or sampling."""
        size = 1
        for axis in self.axes:
            size *= len(axis.amounts)
        return size

    def sampled(
        self, n: int, *, method: str = "random", seed: int = 0
    ) -> "ScenarioSpace":
        """A copy of this space that materialises ``n`` sampled scenarios.

        ``method="random"`` draws grid points uniformly with a seeded RNG;
        ``method="halton"`` walks a low-discrepancy Halton sequence over the
        axes, covering the space evenly at small budgets.  Duplicates (and
        constraint-rejected draws) are discarded, so very small or heavily
        constrained spaces may yield fewer than ``n`` scenarios.
        """
        return ScenarioSpace(
            self.axes,
            constraints=self.constraints,
            sample={"n": n, "method": method, "seed": seed},
        )

    # ------------------------------------------------------------------ #
    def _feasible(self, amounts: Sequence[float]) -> bool:
        if not self.constraints:
            return True
        mapping = {axis.driver: amount for axis, amount in zip(self.axes, amounts)}
        return all(predicate(mapping) for predicate in self.constraints)

    def scenarios(self) -> list[SweepScenario]:
        """Materialise the scenarios to evaluate, in enumeration order.

        Exhaustive spaces enumerate the cartesian product of the axes
        (rightmost axis fastest); sampled spaces draw their plan's ``n``
        scenarios.  Constraint-rejected combinations are pruned in both
        modes.  Scenario indices number the *returned* list, so they are
        dense and stable for a given space.
        """
        if self.sample is None:
            points = (
                amounts
                for amounts in itertools.product(
                    *(axis.amounts for axis in self.axes)
                )
                if self._feasible(amounts)
            )
        else:
            points = self._sampled_points()
        return [
            SweepScenario(scenario_index=index, amounts=tuple(amounts))
            for index, amounts in enumerate(points)
        ]

    def _sampled_points(self) -> list[tuple[float, ...]]:
        plan = self.sample or {}
        n, method, seed = plan["n"], plan["method"], plan["seed"]
        attempts = max(_MIN_SAMPLE_ATTEMPTS, _SAMPLE_ATTEMPT_FACTOR * n)
        sizes = [len(axis.amounts) for axis in self.axes]
        rng = np.random.default_rng(seed) if method == "random" else None
        accepted: dict[tuple[float, ...], None] = {}
        for draw in range(attempts):
            if rng is not None:
                levels = [int(rng.integers(size)) for size in sizes]
            else:
                levels = [
                    min(int(_halton(draw + 1, base) * size), size - 1)
                    for size, base in zip(sizes, _HALTON_PRIMES)
                ]
            amounts = tuple(
                axis.amounts[level] for axis, level in zip(self.axes, levels)
            )
            if amounts in accepted or not self._feasible(amounts):
                continue
            accepted[amounts] = None
            if len(accepted) >= n:
                break
        return list(accepted)

    def perturbations(self, scenario: SweepScenario) -> PerturbationSet:
        """The perturbation set one scenario applies to the dataset."""
        return PerturbationSet(
            [
                axis.perturbation(amount)
                for axis, amount in zip(self.axes, scenario.amounts)
            ]
        )

    def label(self, scenario: SweepScenario) -> str:
        """Human-readable rendering of one scenario."""
        return self.perturbations(scenario).describe()

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Readable summary, e.g. ``"Email×5 · Call×3 (15 combinations)"``."""
        axes = " · ".join(f"{a.driver}×{len(a.amounts)}" for a in self.axes)
        if self.sample is not None:
            return (
                f"{axes} ({self.sample['method']} sample of {self.sample['n']} "
                f"from {self.size})"
            )
        return f"{axes} ({self.size} combinations)"

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe representation (axes sorted by driver).

        Constraint callables without a ``to_dict`` (plain lambdas/functions)
        are represented by their ``repr`` and cannot round-trip; build
        protocol-bound spaces from :class:`BudgetConstraint` instead.
        """
        constraints = []
        for constraint in self.constraints:
            if hasattr(constraint, "to_dict"):
                constraints.append(constraint.to_dict())
            else:
                constraints.append({"kind": "callable", "repr": repr(constraint)})
        payload: dict[str, Any] = {
            "axes": [axis.to_dict() for axis in self.axes],
            "constraints": constraints,
        }
        if self.sample is not None:
            payload["sample"] = dict(self.sample)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpace":
        """Reconstruct a space from its wire form (see :meth:`to_dict`)."""
        axes_payload = payload.get("axes")
        if not isinstance(axes_payload, list) or not axes_payload:
            raise ValueError("scenario space payload needs a non-empty 'axes' list")
        axes = [Axis.from_dict(item) for item in axes_payload]
        constraints: list[Callable[[Mapping[str, float]], bool]] = []
        for item in payload.get("constraints", ()) or ():
            kind = item.get("kind") if isinstance(item, Mapping) else None
            if kind == "budget":
                constraints.append(BudgetConstraint.from_dict(item))
            else:
                raise ValueError(
                    f"unknown constraint kind {kind!r}; only 'budget' constraints "
                    "can travel over the wire"
                )
        return cls(axes, constraints=constraints, sample=payload.get("sample"))

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScenarioSpace({self.describe()})"


def _halton(index: int, base: int) -> float:
    """The ``index``-th element of the base-``base`` Halton sequence in [0, 1)."""
    fraction, result = 1.0, 0.0
    while index > 0:
        fraction /= base
        result += fraction * (index % base)
        index //= base
    return result
