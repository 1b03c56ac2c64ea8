"""Project-specific static analysis (``repro check``).

An AST-based rule engine enforcing the invariants no generic linter can
see: lock discipline in the engine/server (LCK001–LCK003), bitwise
determinism of result-producing code (DET001–DET004), pickle-safety of
everything shipped across the process boundary (PKL001), API-version
stamping, single-site terminal job events and CLI table agreement
(REG003–REG005), persistence discipline
for backend-journaled state (PER001), and observability drift between the
declarative ``METRICS`` table and its instrumentation sites
(OBS001–OBS003).
Findings are suppressable inline with a justified
``# repro: ignore[RULE] -- why`` comment; see :mod:`repro.check.engine`.

Run it locally with ``repro check`` (or ``python -m repro check``); the
tier-1 suite and a blocking CI job both assert the tree stays clean.
"""

from __future__ import annotations

from pathlib import Path

from .engine import Finding, Project, Rule, load_project, run_rules
from .report import format_json, format_text, summarize
from .rules_determinism import RULES as DETERMINISM_RULES
from .rules_lock import RULES as LOCK_RULES
from .rules_obs import RULES as OBS_RULES
from .rules_persist import RULES as PERSIST_RULES
from .rules_pickle import RULES as PICKLE_RULES
from .rules_registry import RULES as REGISTRY_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "Project",
    "Rule",
    "default_root",
    "format_json",
    "format_text",
    "load_project",
    "run",
    "run_rules",
    "summarize",
]

#: The full rule catalogue, in reporting order.
ALL_RULES: list[Rule] = [
    *LOCK_RULES,
    *DETERMINISM_RULES,
    *PICKLE_RULES,
    *REGISTRY_RULES,
    *PERSIST_RULES,
    *OBS_RULES,
]


def default_root() -> Path:
    """The installed ``repro`` package directory (what ``repro check`` scans)."""
    return Path(__file__).resolve().parent.parent


def run(root: Path | None = None, rule_ids: list[str] | None = None) -> list[Finding]:
    """Load ``root`` (default: the repro package) and run the rule catalogue."""
    project = load_project(root or default_root())
    return run_rules(project, ALL_RULES, only=rule_ids)
