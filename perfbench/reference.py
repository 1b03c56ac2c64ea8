"""Recompute sampled served results in-process and compare them bitwise.

Runs in the benchmark's own process after the timed phase: each sampled job
is replayed through :class:`repro.core.WhatIfSession` on an independently
loaded dataset and fitted model, serialised exactly as the server does, and
compared as canonical JSON text, so every float must match to the last bit.

``model_confidence`` is the one field left out: it is a 3-fold
cross-validation the server computes once during set-up, and refitting it
here would cost more than the rest of the check.  The reference model scores
itself on its training data instead, which leaves every KPI number intact.
"""

from __future__ import annotations

import json
from typing import Any

from workloads import Config, Sample


def _canonical(payload: Any) -> str:
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k != "model_confidence"}
    return json.dumps(payload, sort_keys=True)


def _replay(session, action: str, params: dict[str, Any]):
    from repro.core import PerturbationSet
    from repro.scenarios import ScenarioSpace

    def perturbations() -> PerturbationSet:
        return PerturbationSet.from_mapping(
            {str(k): float(v) for k, v in params["perturbations"].items()}, mode="percentage"
        )

    if action == "sensitivity":
        return session.sensitivity(perturbations())
    if action == "per_data":
        return session.per_data_analysis(int(params["row_index"]), perturbations())
    if action == "comparison":
        return session.comparison_analysis(params["drivers"], [float(a) for a in params["amounts"]])
    if action == "run_sweep":
        space = ScenarioSpace.from_dict(params["space"])
        return session.sweep(space, track_as=params.get("track_as"))
    if action == "goal_inversion":
        return session.goal_inversion(
            params["goal"], drivers=params["drivers"], n_calls=int(params["n_calls"])
        )
    if action == "driver_importance":
        return session.driver_importance(verify=bool(params["verify"]))
    raise ValueError(f"no reference for action {action!r}")


def check_samples(samples: list[Sample]) -> list[str]:
    """Mark mismatching samples' interactions failed; return the problems."""
    from repro.core import WhatIfSession
    from repro.server.serialization import to_json_safe

    sessions: dict[tuple[Config, int], Any] = {}
    problems = []
    for sample in samples:
        key = (sample.config, sample.dataset_seed)
        if key not in sessions:
            body = sample.config.session_body(sample.dataset_seed)
            sessions[key] = WhatIfSession.from_use_case(
                body["use_case"],
                dataset_kwargs=body["dataset_kwargs"],
                random_state=body["random_state"],
            )
            sessions[key].model.cv_folds = 0
        result = _replay(sessions[key], sample.action, sample.params)
        expected = json.loads(json.dumps(to_json_safe(result)))
        if _canonical(expected) != _canonical(sample.result):
            it = sample.interaction
            it.ok = False
            it.error = f"{sample.action} on {sample.config.label} differs from WhatIfSession"
            problems.append(it.error)
    return problems
