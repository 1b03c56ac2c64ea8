"""Request handlers and the operation table that declares them.

Every backend operation is declared once, in :data:`OPERATIONS`, beside its
handler: its scope, whether it can run as an engine job (and on the process
pool), its ``/api/v1`` route and success status, and one doc line.  The
dispatch tables, the action vocabulary, the engine's process routing and the
HTTP router are all derived from that table, and the README's action and
route tables are rendered from it (``tests/server/test_operation_docs.py``
fails when they are stale).

Session-scoped handlers (:data:`HANDLERS`) receive one mutable
:class:`ServerState` — the analysis the request's ``session_id`` routed to —
plus the request parameters, and return a JSON-safe payload dict.
Server-scoped handlers (:data:`SERVER_HANDLERS`) receive the
:class:`~repro.server.app.SystemDServer` itself and manage the session
registry, the shared model cache, and the async analysis engine.  Validation
errors raise :class:`~repro.server.protocol.ProtocolError` so the dispatcher
can turn them into error responses without crashing the server.  Parameters
may arrive as JSON values or as query-string text, so handlers parse them
with the ``_int_param`` / ``_float_param`` / ``parse_flag`` helpers, and
sizes that would buy unbounded work are capped (``MAX_*``, HTTP 413).

The job-able analysis handlers accept optional ``checkpoint`` / ``executor``
/ ``emit`` arguments that they thread into the chunked analysis runners; the
synchronous dispatcher never passes them, while the async engine's workers
invoke the same handlers through :data:`JOB_HANDLERS` with a
:class:`~repro.engine.job.JobContext` so jobs publish partial progress and
honour cancellation.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..core import DriverBound, ModelCache, PerturbationSet, WhatIfSession
from ..datasets import get_use_case, list_use_cases
from .protocol import ConflictError, NotFoundError, ProtocolError, TooLargeError
from .serialization import frame_preview, to_json_safe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.job import JobContext
    from .app import SystemDServer

__all__ = [
    "ACTIONS",
    "HANDLERS",
    "JOB_HANDLERS",
    "MAX_N_CALLS",
    "MAX_ROWS",
    "MAX_SCENARIOS",
    "MAX_SCENARIO_ROWS",
    "MAX_WAIT_S",
    "OPERATIONS",
    "Operation",
    "PROCESS_ACTIONS",
    "SERVER_HANDLERS",
    "ServerState",
    "parse_flag",
]

#: Largest dataset a request may load, in rows (read through the use case's
#: ``UseCase.size_parameter``).
MAX_ROWS = 100_000
#: Most scenarios one request may score: a sweep's grid size or
#: ``sample.n``, or a comparison's drivers x amounts.
MAX_SCENARIOS = 10_000
#: Most scenario-rows one request may score: those scenarios times the
#: session's loaded rows.  At ~4.5 us per row for a full forest pass that
#: is ~45 CPU-seconds, where the two caps above alone admit 10^9 (~4,500
#: CPU-seconds).  It admits a comparison of every deal_closing driver at
#: five amounts on ``MAX_ROWS`` rows (6 x 10^6); the largest request the
#: benchmarks send, a 120-scenario grid on 2,000 rows, is 2.4% of it.
MAX_SCENARIO_ROWS = 10_000_000
#: Most objective evaluations one goal inversion may spend.
MAX_N_CALLS = 100
#: Longest ``timeout_s`` a ``job_result`` request may block for, in seconds.
MAX_WAIT_S = 600.0


@dataclass
class ServerState:
    """Mutable state of one registered analysis session."""

    session: WhatIfSession | None = None
    use_case_key: str = ""
    options: dict[str, Any] = field(default_factory=dict)
    #: Shared model cache injected by the server; sessions created outside a
    #: server keep the default per-session cache.
    model_cache: ModelCache | None = None
    #: Durable-state hook bound by the session registry: called after a
    #: ``load_use_case`` swaps in a fresh analysis, so the new load
    #: parameters are journaled and the fresh scenario ledger starts
    #: recording.  ``None`` outside a registry (library use, bare tests).
    persist_hook: Callable[["ServerState"], None] | None = None

    def require_session(self) -> WhatIfSession:
        """Return the active session or raise a protocol error."""
        if self.session is None:
            raise ProtocolError(
                "no dataset loaded; send a 'load_use_case' request first"
            )
        return self.session

    def notify_persist(self) -> None:
        """Journal this state through the registry's hook, when bound."""
        if self.persist_hook is not None:
            self.persist_hook(self)


# --------------------------------------------------------------------------- #
# parameter parsing: values arrive as JSON or as query-string text
# --------------------------------------------------------------------------- #
def parse_flag(value: Any) -> bool:
    """A boolean parameter: text counts as true when it is ``1``, ``true``,
    ``yes`` or ``on`` (so ``?wait=0`` is false); JSON values by truth."""
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


def _int_param(params: dict[str, Any], name: str, default: int) -> int:
    value = params.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"invalid {name}: {value!r}") from exc


def _float_param(params: dict[str, Any], name: str, default: float) -> float:
    value = params.get(name, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {name}: {value!r}") from exc


def _check_cap(name: str, value: float, limit: int) -> None:
    """413 (``too_large``) when a size parameter exceeds its cap."""
    if value > limit:
        raise TooLargeError(f"{name} of {value:g} exceeds the limit of {limit}")


def _check_scenario_rows(scenarios: int, session: WhatIfSession) -> None:
    """413 when scoring ``scenarios`` over the session's loaded rows would
    exceed :data:`MAX_SCENARIO_ROWS`; checked before the model is fetched."""
    _check_cap("scenarios x rows", scenarios * session.frame.n_rows, MAX_SCENARIO_ROWS)


# --------------------------------------------------------------------------- #
# handlers
# --------------------------------------------------------------------------- #
def handle_list_use_cases(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """(A) List the registered business use cases (server-scoped: the
    catalogue reads no session, so a read creates none)."""
    return {
        "use_cases": [
            {
                "key": use_case.key,
                "title": use_case.title,
                "description": use_case.description,
                "kpi": use_case.kpi,
                "kpi_kind": use_case.kpi_kind,
            }
            for use_case in list_use_cases()
        ]
    }


def handle_load_use_case(state: ServerState, params: dict[str, Any]) -> dict[str, Any]:
    """(A)+(B) Load a use case's dataset and start a session."""
    key = params.get("use_case")
    if not key:
        raise ProtocolError("'use_case' parameter is required")
    if not isinstance(key, str):
        raise ProtocolError(f"invalid use_case: {key!r} (expected a use-case key)")
    use_case = _get_use_case_or_error(key)
    dataset_kwargs = params.get("dataset_kwargs", {})
    if not isinstance(dataset_kwargs, dict):
        raise ProtocolError("'dataset_kwargs' must be an object")
    rows = dataset_kwargs.get(use_case.size_parameter)
    if isinstance(rows, (int, float)):
        _check_cap(f"dataset_kwargs.{use_case.size_parameter}", rows, MAX_ROWS)
    max_rows = _int_param(params, "max_rows", 20)
    try:
        state.session = WhatIfSession.from_use_case(
            key,
            dataset_kwargs=dataset_kwargs,
            random_state=params.get("random_state", 0),
            model_cache=state.model_cache,
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid dataset_kwargs: {exc}") from exc
    state.use_case_key = key
    # remember the load parameters (they are the session's rebuild recipe)
    # and journal them through the registry's persistence hook
    state.options["dataset_kwargs"] = dataset_kwargs
    state.options["random_state"] = params.get("random_state", 0)
    state.notify_persist()
    return {
        "use_case": use_case.key,
        "kpi": use_case.kpi,
        "drivers": state.session.drivers,
        "table": frame_preview(state.session.frame, max_rows=max_rows),
    }


def _get_use_case_or_error(key: str):
    try:
        return get_use_case(key)
    except KeyError as exc:
        raise ProtocolError(str(exc.args[0])) from exc


def handle_describe_dataset(state: ServerState, params: dict[str, Any]) -> dict[str, Any]:
    """(B) Table-view metadata for the loaded dataset."""
    session = state.require_session()
    return to_json_safe(session.describe_dataset())


def handle_set_kpi(state: ServerState, params: dict[str, Any]) -> dict[str, Any]:
    """(C) Change the KPI column."""
    session = state.require_session()
    kpi = params.get("kpi")
    if not kpi:
        raise ProtocolError("'kpi' parameter is required")
    try:
        session.set_kpi(kpi)
    except (ValueError, KeyError) as exc:
        raise ProtocolError(str(exc)) from exc
    return {"kpi": session.kpi.to_dict(), "drivers": session.drivers}


def handle_set_drivers(state: ServerState, params: dict[str, Any]) -> dict[str, Any]:
    """(D) Replace or prune the driver selection."""
    session = state.require_session()
    if "drivers" in params:
        try:
            session.select_drivers(list(params["drivers"]))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    elif "exclude" in params:
        try:
            session.exclude_drivers(list(params["exclude"]))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    else:
        raise ProtocolError("either 'drivers' or 'exclude' must be provided")
    return {"drivers": session.drivers}


def handle_driver_importance(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """(E) Driver importance analysis."""
    session = state.require_session()
    result = session.driver_importance(
        verify=parse_flag(params.get("verify", True)),
        checkpoint=checkpoint,
        executor=executor,
    )
    return to_json_safe(result)


def _parse_perturbations(params: dict[str, Any]) -> tuple[PerturbationSet, str]:
    perturbations = params.get("perturbations")
    mode = params.get("mode", "percentage")
    if perturbations is None:
        raise ProtocolError("'perturbations' parameter is required")
    if isinstance(perturbations, dict):
        try:
            return PerturbationSet.from_mapping(
                {str(k): float(v) for k, v in perturbations.items()}, mode=mode
            ), mode
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid perturbations: {exc}") from exc
    if isinstance(perturbations, list):
        try:
            return PerturbationSet.from_list(perturbations), mode
        except (TypeError, ValueError, KeyError) as exc:
            raise ProtocolError(f"invalid perturbations: {exc}") from exc
    raise ProtocolError("'perturbations' must be an object or a list")


def handle_sensitivity(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """(F)+(G)+(H) Sensitivity analysis on the whole dataset."""
    session = state.require_session()
    perturbations, _ = _parse_perturbations(params)
    try:
        result = session.sensitivity(
            perturbations,
            track_as=params.get("track_as"),
            checkpoint=checkpoint,
            executor=executor,
            emit=emit,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return to_json_safe(result)


def handle_comparison(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """(H) Comparison analysis across drivers and perturbation magnitudes."""
    session = state.require_session()
    drivers = params.get("drivers")
    try:
        amounts = [float(a) for a in params.get("amounts", (-40.0, -20.0, 0.0, 20.0, 40.0))]
        n_drivers = len(session.drivers if drivers is None else drivers)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid drivers or amounts: {exc}") from exc
    _check_cap("drivers x amounts", n_drivers * len(amounts), MAX_SCENARIOS)
    _check_scenario_rows(n_drivers * len(amounts), session)
    try:
        result = session.comparison_analysis(
            drivers,
            amounts,
            mode=params.get("mode", "percentage"),
            checkpoint=checkpoint,
            executor=executor,
            emit=emit,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return to_json_safe(result)


def handle_per_data(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,  # accepted for job-signature parity
    executor=None,
    emit: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """(H) Per-data analysis of a single row."""
    session = state.require_session()
    if "row_index" not in params:
        raise ProtocolError("'row_index' parameter is required")
    row_index = _int_param(params, "row_index", 0)
    perturbations, _ = _parse_perturbations(params)
    try:
        result = session.per_data_analysis(row_index, perturbations)
    except (ValueError, IndexError) as exc:
        raise ProtocolError(str(exc)) from exc
    return to_json_safe(result)


def handle_goal_inversion(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """(I) Free goal inversion (maximize / minimize / target)."""
    session = state.require_session()
    n_calls = _n_calls(params)
    try:
        result = session.goal_inversion(
            params.get("goal", "maximize"),
            target_value=params.get("target_value"),
            drivers=params.get("drivers"),
            mode=params.get("mode", "percentage"),
            n_calls=n_calls,
            optimizer=params.get("optimizer", "bayesian"),
            track_as=params.get("track_as"),
            checkpoint=checkpoint,
            executor=executor,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return to_json_safe(result)


def handle_constrained(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,
    executor=None,  # accepted for signature parity; constraint callables stay in-process
    emit: Callable[..., None] | None = None,  # likewise: no chunked stream to publish
) -> dict[str, Any]:
    """(G)+(I) Constrained analysis with per-driver bounds."""
    session = state.require_session()
    raw_bounds = params.get("bounds")
    if not raw_bounds:
        raise ProtocolError("'bounds' parameter is required for constrained analysis")
    try:
        if isinstance(raw_bounds, dict):
            bounds = {
                str(driver): (float(pair[0]), float(pair[1]))
                for driver, pair in raw_bounds.items()
            }
        else:
            bounds = [DriverBound.from_dict(item) for item in raw_bounds]
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise ProtocolError(f"invalid bounds: {exc}") from exc
    n_calls = _n_calls(params)
    try:
        result = session.constrained_analysis(
            bounds,
            goal=params.get("goal", "maximize"),
            target_value=params.get("target_value"),
            drivers=params.get("drivers"),
            mode=params.get("mode", "percentage"),
            n_calls=n_calls,
            optimizer=params.get("optimizer", "bayesian"),
            track_as=params.get("track_as"),
            checkpoint=checkpoint,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return to_json_safe(result)


def _n_calls(params: dict[str, Any]) -> int:
    n_calls = _int_param(params, "n_calls", 30)
    _check_cap("n_calls", n_calls, MAX_N_CALLS)
    return n_calls


def _declared_levels(axis: Any) -> float:
    """How many amounts an axis payload declares, worked out without
    building them (a malformed axis counts 1: parsing rejects it)."""
    try:
        if "amounts" in axis:
            return len(axis["amounts"])
        if "step" in axis:
            start, stop, step = (float(axis[k]) for k in ("start", "stop", "step"))
            return (stop - start) / step + 1
        if "num" in axis:
            return float(axis["num"])
    except (TypeError, ValueError, KeyError, ZeroDivisionError):
        pass
    return 1.0


def _parse_scenario_space(params: dict[str, Any]):
    """Parse and canonicalise the ``space`` parameter of sweep actions.

    The scenario cap is checked on the payload before any axis is built: a
    step grid's amounts are materialised eagerly, so a huge declared grid
    would cost memory before it cost scoring time.
    """
    from ..scenarios import ScenarioSpace

    payload = params.get("space")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "'space' parameter is required and must be an object "
            "(see ScenarioSpace.to_dict)"
        )
    axes = payload.get("axes")
    if isinstance(axes, list):
        levels = [_declared_levels(axis) for axis in axes]
        for level in levels:
            _check_cap("axis levels", level, MAX_SCENARIOS)
        sample = payload.get("sample")
        if isinstance(sample, dict):
            try:
                n = float(sample.get("n", 0))
            except (TypeError, ValueError):
                n = 0.0  # parsing rejects it
            _check_cap("sample.n", n, MAX_SCENARIOS)
        else:
            _check_cap("scenario grid size", math.prod(levels), MAX_SCENARIOS)
    try:
        return ScenarioSpace.from_dict(payload)
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"invalid scenario space: {exc}") from exc


def _sweep_scenarios(space: Any) -> int:
    """Most scenarios a sweep of ``space`` scores: its grid, or its sample."""
    return min(space.size, space.sample["n"]) if space.sample else space.size


def handle_run_sweep(
    state: ServerState,
    params: dict[str, Any],
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> dict[str, Any]:
    """Scenario-space sweep: score a whole space in batched matrix form.

    The result auto-records into the session's scenario ledger.  Submitted
    through the ``sweep`` action this runs as a chunk-checkpointed,
    cancellable engine job; as a synchronous ``run_sweep`` request it blocks
    like any other analysis action.
    """
    session = state.require_session()
    space = _parse_scenario_space(params)
    _check_scenario_rows(_sweep_scenarios(space), session)
    try:
        result = session.sweep(
            space,
            goal=str(params.get("goal", "maximize")),
            top_k=_int_param(params, "top_k", 10),
            cohort=params.get("cohort"),
            track_as=params.get("track_as"),
            checkpoint=checkpoint,
            executor=executor,
            emit=emit,
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc
    return to_json_safe(result)


def _parse_page(params: dict[str, Any]) -> tuple[int | None, int]:
    """Parse the optional ``limit``/``offset`` pagination parameters."""
    limit = params.get("limit")
    offset = params.get("offset", 0)
    try:
        limit = None if limit is None else max(0, int(limit))
        offset = max(0, int(offset))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"invalid pagination: limit={params.get('limit')!r} "
            f"offset={params.get('offset')!r}"
        ) from exc
    return limit, offset


def _page_envelope(
    key: str,
    items: list[Any],
    *,
    total: int,
    limit: int | None,
    offset: int,
    **extra: Any,
) -> dict[str, Any]:
    """The uniform paging envelope every list endpoint shares: the page under
    ``key`` plus ``total`` (unsliced match count) and the echoed window."""
    return {key: items, "total": total, "limit": limit, "offset": offset, **extra}


def _page_slice(items: list[Any], limit: int | None, offset: int) -> list[Any]:
    """Apply a ``limit``/``offset`` window to an already-ordered list."""
    stop = None if limit is None else offset + limit
    return items[offset:stop]


def handle_list_scenarios(state: ServerState, params: dict[str, Any]) -> dict[str, Any]:
    """List the scenarios (options) tracked so far.

    Pagination: ``limit``/``offset`` slice the stable recording order;
    ``total`` always reports the unsliced count.
    """
    session = state.require_session()
    limit, offset = _parse_page(params)
    page = session.scenarios.list(limit=limit, offset=offset)
    return _page_envelope(
        "scenarios",
        to_json_safe([s.to_dict() for s in page]),
        total=len(session.scenarios),
        limit=limit,
        offset=offset,
    )


# --------------------------------------------------------------------------- #
# server-scoped handlers: session lifecycle and observability
# --------------------------------------------------------------------------- #
#: Session ids a route can address: one URL path segment that needs no
#: percent-encoding.
_SESSION_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


def _check_session_id(session_id: str) -> None:
    """400 unless ``session_id`` is addressable: it matches
    :data:`_SESSION_ID` and no route has a literal segment where ``{sid}``
    sits (``/sessions/share/...`` would shadow a session named ``share``)."""
    if not _SESSION_ID.fullmatch(session_id) or session_id in _RESERVED_SESSION_IDS:
        raise ProtocolError(
            f"invalid session_id {session_id!r}: 1-64 letters, digits, '.', '_' "
            "or '-', starting with a letter or digit, and not "
            + ", ".join(repr(word) for word in sorted(_RESERVED_SESSION_IDS))
        )


def handle_create_session(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Register a new analysis session and return its id.

    Optionally forwards ``use_case`` / ``dataset_kwargs`` / ``random_state``
    to an immediate ``load_use_case`` so one round trip yields a ready
    session.
    """
    requested_id = params.get("session_id")
    if requested_id:
        _check_session_id(str(requested_id))
    try:
        entry = server.registry.create(str(requested_id) if requested_id else None)
    except ValueError as exc:
        if "already exists" in str(exc):
            raise ConflictError(str(exc)) from exc
        raise ProtocolError(str(exc)) from exc
    entry.state.model_cache = server.model_cache
    payload: dict[str, Any] = {
        "session_id": entry.session_id,
        "share_id": entry.share_id,
    }
    if params.get("use_case"):
        try:
            with entry.lock:
                payload.update(handle_load_use_case(entry.state, params))
        except Exception:
            # don't leave an orphan session behind a failed eager load
            server.registry.close(entry.session_id)
            raise
    return payload


def handle_close_session(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Unregister a session (its trained models stay in the shared cache)."""
    from .registry import UnknownSessionError

    session_id = params.get("session_id")
    if not session_id:
        raise ProtocolError("'session_id' parameter is required")
    try:
        entry = server.registry.close(str(session_id))
    except UnknownSessionError as exc:
        raise NotFoundError(f"unknown session {session_id!r}") from exc
    return {"closed": entry.to_dict()}


def handle_list_sessions(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Summaries of every session, live and dormant.

    Pagination: ``limit``/``offset`` slice the stable ``(created_at,
    session_id)`` ordering the registry guarantees; ``total`` always
    reports the unsliced count.
    """
    limit, offset = _parse_page(params)
    sessions = server.registry.list_sessions()
    return _page_envelope(
        "sessions",
        _page_slice(sessions, limit, offset),
        total=len(sessions),
        limit=limit,
        offset=offset,
    )


def handle_get_session(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """One session's summary, live or dormant (read without recovering it)."""
    session_id = str(params.get("session_id") or "")
    for summary in server.registry.list_sessions():
        if summary["session_id"] == session_id:
            return {"session": summary}
    raise NotFoundError(f"unknown session {session_id!r}")


def handle_server_stats(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Registry, model-cache, engine, and request-level counters."""
    return server.stats()


def handle_metrics(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """JSON twin of the Prometheus exposition (``GET /api/v1/metrics``).

    Every declared metric with its kind, help text, and current samples —
    the same registry the text endpoint renders, for clients that want
    structured data instead of scraping exposition format.
    """
    from ..obs import metrics

    return metrics.registry().to_dict()


# --------------------------------------------------------------------------- #
# server-scoped handlers: ledger versions, share ids, durable-state stats
# --------------------------------------------------------------------------- #
def _resolve_session_id(params: dict[str, Any]) -> str:
    # imported here like UnknownSessionError elsewhere: the registry imports
    # ServerState from this module, so a top-level import would be circular
    from .registry import DEFAULT_SESSION_ID

    return str(params.get("session_id") or "") or DEFAULT_SESSION_ID


def _require_known_session(server: "SystemDServer", session_id: str) -> None:
    """404 unless the session is live, dormant-but-durable, or the default."""
    from .registry import DEFAULT_SESSION_ID

    if session_id == DEFAULT_SESSION_ID or session_id in server.registry:
        return
    if server.registry.backend.load_session(session_id) is None:
        raise NotFoundError(
            f"unknown session {session_id!r}; create one with 'create_session' "
            "or omit session_id for the default session"
        )


def handle_create_version(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Snapshot the session's scenario ledger as an immutable version.

    The version — name, creation instant, and the full event list — is
    persisted through the durable-state backend, so it survives restarts
    and ledger clears.  Duplicate names conflict (HTTP 409).
    """
    session_id = _resolve_session_id(params)
    entry = server._entry_for(session_id)
    name = str(params.get("name") or "")
    backend = server.registry.backend
    with entry.lock:
        session = entry.state.require_session()
        events = [scenario.to_dict() for scenario in session.scenarios]
        existing = backend.load_versions(session_id)
        if name and any(v.get("name") == name for v in existing):
            raise ConflictError(
                f"version named {name!r} already exists for session {session_id!r}"
            )
        version_id = max((int(v["version_id"]) for v in existing), default=0) + 1
        record = {
            "version_id": version_id,
            "name": name or f"v{version_id}",
            "created_at": time.time(),
            "scenario_count": len(events),
            "events": events,
        }
        backend.save_version(session_id, record)
    summary = {k: v for k, v in record.items() if k != "events"}
    return {"version": summary, "session_id": session_id}


def handle_list_versions(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """List a session's ledger versions (summaries, oldest first).

    Versions are read straight from the durable backend — the session is not
    recovered or touched, so listing a dormant session's versions is cheap.
    Pagination follows the uniform ``limit``/``offset``/``total`` contract.
    """
    session_id = _resolve_session_id(params)
    _require_known_session(server, session_id)
    limit, offset = _parse_page(params)
    records = server.registry.backend.load_versions(session_id)
    summaries = [{k: v for k, v in r.items() if k != "events"} for r in records]
    return _page_envelope(
        "versions",
        _page_slice(summaries, limit, offset),
        total=len(summaries),
        limit=limit,
        offset=offset,
        session_id=session_id,
    )


def handle_resolve_share(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Resolve a read-only share id (minted at session create) to its session.

    Returns the session summary without recovering or touching the session;
    unknown share ids are 404s.
    """
    share_id = params.get("share_id")
    if not share_id:
        raise ProtocolError("'share_id' parameter is required")
    summary = server.registry.find_share(str(share_id))
    if summary is None:
        raise NotFoundError(f"unknown share id {share_id!r}")
    return {"session": summary, "read_only": True}


def handle_persist_stats(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Durable-state backend identity, row counts, and recovery counters."""
    registry_stats = server.registry.stats()
    return {
        "persistence": registry_stats["backend"],
        "recovered_sessions": registry_stats["recovered_total"],
        "jobs": {
            key: server.engine.store.stats()[key]
            for key in ("restored_total", "interrupted_total")
        },
    }


# --------------------------------------------------------------------------- #
# server-scoped handlers: the async analysis engine
# --------------------------------------------------------------------------- #
def _require_job_id(params: dict[str, Any]) -> str:
    job_id = params.get("job_id")
    if not job_id:
        raise ProtocolError("'job_id' parameter is required")
    return str(job_id)


def _job_lookup(job_id: str, lookup: Callable[[], Any]) -> Any:
    """Run a store lookup, translating unknown/evicted ids to protocol errors."""
    from ..engine import UnknownJobError

    try:
        return lookup()
    except UnknownJobError as exc:
        raise NotFoundError(
            f"unknown job {job_id!r} (finished jobs are retained LRU; it may have "
            "been evicted)"
        ) from exc


def handle_submit(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Queue any job-able analysis action for asynchronous execution.

    Identical in-flight submissions (same session, model fingerprint, action,
    and params) coalesce onto one job; ``coalesced`` reports whether that
    happened.  Poll with ``job_status`` / fetch with ``job_result``.
    """
    action = params.get("action")
    if not action:
        raise ProtocolError("'action' parameter is required for submit")
    job_params = params.get("params", {})
    if not isinstance(job_params, dict):
        raise ProtocolError("'params' must be an object")
    job, coalesced = server.engine.submit(
        str(action),
        job_params,
        session_id=str(params.get("session_id") or ""),
        priority=_int_param(params, "priority", 0),
    )
    return {"job": job.to_dict(now=server.engine.now()), "coalesced": coalesced}


def handle_job_status(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Lifecycle state, progress fraction, timings, and span timeline of one
    job (``trace`` is the recorded spans of the job's trace so far — empty
    until the job starts, complete once it is terminal)."""
    job_id = _require_job_id(params)
    job = _job_lookup(job_id, lambda: server.engine.status(job_id))
    return {
        "job": job.to_dict(now=server.engine.now()),
        "trace": server.engine.trace_timeline(job_id),
    }


def handle_job_result(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Fetch a finished job's payload, optionally waiting for completion.

    ``wait`` (default True) blocks up to ``timeout_s`` (default 30) for the
    job to reach a terminal state.  Failed/cancelled jobs and jobs still
    running after the wait produce error responses so clients never mistake
    a partial analysis for a result.
    """
    job_id = _require_job_id(params)
    wait = parse_flag(params.get("wait", True))
    timeout = _float_param(params, "timeout_s", 30.0)
    if not math.isfinite(timeout) or timeout > MAX_WAIT_S:
        raise ProtocolError(
            f"invalid timeout_s: {timeout!r} (at most {MAX_WAIT_S:g} seconds)"
        )
    job = _job_lookup(
        job_id, lambda: server.engine.result(job_id, wait=wait, timeout=timeout)
    )
    snapshot = job.to_dict(now=server.engine.now(), include_result=True)
    state = snapshot["state"]
    if state == "done":
        return {"job": snapshot, "result": snapshot.pop("result")}
    if state in ("failed", "cancelled"):
        raise ProtocolError(f"job {job_id} {state}: {snapshot['error'] or state}")
    raise ProtocolError(
        f"job {job_id} is still {state} (progress {snapshot['progress']:.0%}); "
        "poll 'job_status' or pass a longer 'timeout_s'"
    )


def handle_cancel_job(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Request cooperative cancellation of a pending or running job."""
    job_id = _require_job_id(params)
    job = _job_lookup(job_id, lambda: server.engine.cancel(job_id))
    return {"job": job.to_dict(now=server.engine.now())}


def handle_list_jobs(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Snapshots of tracked jobs, optionally filtered by session or state.

    Pagination: ``limit``/``offset`` slice the stable ``(submitted_at,
    job_id)`` ordering; ``total`` always reports the unsliced match count.
    ``states`` is a list or, as a query string delivers it, comma-separated.
    """
    states = params.get("states")
    if isinstance(states, str):
        states = [s for s in states.split(",") if s]
    if states is not None and not isinstance(states, (list, tuple)):
        raise ProtocolError("'states' must be a list of job states")
    session_id = params.get("session_id")
    limit, offset = _parse_page(params)
    state_filter = [str(s) for s in states] if states is not None else None
    sid_filter = str(session_id) if session_id else None
    if sid_filter is not None and not server._session_exists(sid_filter):
        raise NotFoundError(f"unknown session {sid_filter!r}")
    return _page_envelope(
        "jobs",
        server.engine.list_jobs(
            session_id=sid_filter,
            states=state_filter,
            limit=limit,
            offset=offset,
        ),
        total=server.engine.count_jobs(session_id=sid_filter, states=state_filter),
        limit=limit,
        offset=offset,
        engine=server.engine.stats(),
    )


def handle_sweep(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Queue a scenario-space sweep as a background engine job.

    The space is parsed and re-serialised to its canonical wire form before
    submission, so two clients describing the same space — axes in any
    order — submit byte-identical job params and coalesce onto one job (the
    engine's coalesce key covers the session, the model fingerprint, and the
    canonical params, which embed the space hash).  Returns the job snapshot,
    the ``space_hash``, and whether the submission coalesced; fetch the
    ranked result with ``sweep_result``.
    """
    space = _parse_scenario_space(params)
    session = server._entry_for(_resolve_session_id(params)).state.session
    if session is not None:  # an unloaded session's job fails on its own
        _check_scenario_rows(_sweep_scenarios(space), session)
    job_params: dict[str, Any] = {
        "space": space.to_dict(),
        "space_hash": space.space_hash(),
        "goal": str(params.get("goal", "maximize")),
        "top_k": _int_param(params, "top_k", 10),
    }
    if params.get("cohort") is not None:
        job_params["cohort"] = str(params["cohort"])
    if params.get("track_as") is not None:
        job_params["track_as"] = str(params["track_as"])
    submitted = handle_submit(server, {**params, "action": "run_sweep", "params": job_params})
    return {**submitted, "space_hash": job_params["space_hash"], "space_size": space.size}


def handle_sweep_result(server: "SystemDServer", params: dict[str, Any]) -> dict[str, Any]:
    """Fetch a sweep job's ranked result.

    Address the job by the ``space_hash`` that ``sweep`` returned (the most
    recently submitted sweep job of the request's session for that hash), or
    by ``job_id``.  A hash wins over a job id, so a job id sent alongside
    the route's hash cannot reach another session's job.  Waiting semantics
    match ``job_result``.
    """
    job_id = params.get("job_id")
    space_hash = params.get("space_hash")
    if space_hash:
        # resolve the session exactly like submission does: an omitted id
        # means the default session, never "any session with this hash"
        session_id = _resolve_session_id(params)
        candidates = [
            job
            for job in server.engine.store.list_jobs(session_id=session_id)
            if job.action == "run_sweep"
            and job.params.get("space_hash") == space_hash
        ]
        if not candidates:
            raise NotFoundError(
                f"no sweep job found for space hash {space_hash!r} (finished jobs "
                "are retained LRU; it may have been evicted)"
            )
        job_id = candidates[-1].job_id
    elif not job_id:
        raise ProtocolError("either 'job_id' or 'space_hash' is required for sweep_result")
    return handle_job_result(server, {**params, "job_id": job_id})


# --------------------------------------------------------------------------- #
# the operation table: every derived registry and the docs read it
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Operation:
    """One backend operation, declared once.

    Attributes
    ----------
    action:
        The protocol action name.
    handler:
        The handler; ``None`` for a route the HTTP adapter writes itself
        (the SSE stream, Prometheus text), which is no action.
    doc:
        One line for the generated docs.
    scope:
        ``"session"`` handlers get the routed session's :class:`ServerState`
        and run under its lock; ``"server"`` handlers get the server.
    job:
        Whether the action can run as an engine job.
    pool:
        Whether such a job fans out to the process pool when one is set up.
    route:
        ``"METHOD /api/v1/path"``, with ``{sid}`` / ``{jid}`` / ``{name}``
        path parameters and, at most once in the table, a ``?flag=1``
        selector that must be set for the route to match; ``""`` for the
        job-able analyses, which HTTP clients run through ``submit``, and
        for ``metrics``, which ``GET /api/v1/metrics?format=json`` answers.
        Routes match in table order.
    status:
        HTTP status of a success on the route (201 for creates).
    """

    action: str
    handler: Callable[..., dict[str, Any]] | None
    doc: str
    scope: str = "session"
    job: bool = False
    pool: bool = False
    route: str = ""
    status: int = 200


# Routes match in table order.
# fmt: off
OPERATIONS: tuple[Operation, ...] = (
    # -- sessions and server state
    Operation("create_session", handle_create_session, "register a session (returns its id "
              "and a read-only `share_id`); loads `use_case` when given",
              scope="server", route="POST /api/v1/sessions", status=201),
    Operation("list_sessions", handle_list_sessions,
              "summaries of every session, live and dormant (`?limit=&offset=`)",
              scope="server", route="GET /api/v1/sessions"),
    # before every GET /sessions/{sid}/...: /sessions/share/x names a share
    Operation("resolve_share", handle_resolve_share,
              "resolve a read-only share id to its session summary",
              scope="server", route="GET /api/v1/sessions/share/{share_id}"),
    Operation("get_session", handle_get_session, "one session's summary, live or dormant",
              scope="server", route="GET /api/v1/sessions/{sid}"),
    Operation("close_session", handle_close_session,
              "unregister a session and delete its durable record",
              scope="server", route="DELETE /api/v1/sessions/{sid}"),
    Operation("server_stats", handle_server_stats,
              "registry, model-cache, engine and request counters",
              scope="server", route="GET /api/v1/stats"),
    Operation("metrics", handle_metrics, "JSON twin of the Prometheus exposition",
              scope="server"),
    Operation("prometheus", None,
              "Prometheus text exposition; `?format=json` answers the `metrics` action",
              route="GET /api/v1/metrics"),
    # -- the paper's views (Figure 2)
    Operation("list_use_cases", handle_list_use_cases, "(A) use-case selection",
              scope="server", route="GET /api/v1/use-cases"),
    Operation("load_use_case", handle_load_use_case,
              "(A)+(B) load a use case's dataset, return a table preview",
              route="PUT /api/v1/sessions/{sid}/dataset"),
    Operation("describe_dataset", handle_describe_dataset, "(B) table-view metadata",
              route="GET /api/v1/sessions/{sid}/dataset"),
    Operation("set_kpi", handle_set_kpi, "(C) KPI selection",
              route="PUT /api/v1/sessions/{sid}/kpi"),
    Operation("set_drivers", handle_set_drivers, "(D) driver selection",
              route="PUT /api/v1/sessions/{sid}/drivers"),
    Operation("driver_importance", handle_driver_importance, "(E) driver importance analysis",
              job=True, pool=True),
    Operation("sensitivity", handle_sensitivity,
              "(F)+(G)+(H) perturb drivers, score the KPI over every row", job=True, pool=True),
    Operation("comparison", handle_comparison,
              "(H) KPI trend per driver across perturbation amounts", job=True, pool=True),
    # thread-only: one row is sub-millisecond, cheaper than a pool round trip
    Operation("per_data", handle_per_data, "(H) per-data analysis of one row", job=True),
    Operation("goal_inversion", handle_goal_inversion,
              "(I) driver changes that maximize, minimize or hit a KPI target",
              job=True, pool=True),
    # thread-only: its constraint callables cannot be pickled to a worker
    Operation("constrained", handle_constrained,
              "(G)+(I) goal inversion within per-driver bounds", job=True),
    Operation("run_sweep", handle_run_sweep,
              "score and rank a whole scenario space (`sweep` queues it as a job)",
              job=True, pool=True),
    Operation("list_scenarios", handle_list_scenarios,
              "the scenarios (options) tracked so far (`?limit=&offset=`)",
              route="GET /api/v1/sessions/{sid}/scenarios"),
    # -- the async analysis engine
    Operation("submit", handle_submit, "queue a job-able action as a background job; "
              "identical in-flight submissions coalesce",
              scope="server", route="POST /api/v1/sessions/{sid}/jobs", status=201),
    Operation("list_jobs", handle_list_jobs,
              "tracked jobs plus engine counters (`?limit=&offset=&states=`)",
              scope="server", route="GET /api/v1/sessions/{sid}/jobs"),
    Operation("job_result", handle_job_result,
              "a finished job's payload, waiting up to `timeout_s` unless `wait=0`",
              scope="server", route="GET /api/v1/sessions/{sid}/jobs/{jid}?result=1"),
    Operation("job_status", handle_job_status,
              "a job's state, progress, timings and span timeline",
              scope="server", route="GET /api/v1/sessions/{sid}/jobs/{jid}"),
    Operation("cancel_job", handle_cancel_job, "cooperatively cancel a pending or running job",
              scope="server", route="DELETE /api/v1/sessions/{sid}/jobs/{jid}"),
    Operation("job_events", None,
              "**SSE stream** of the job's events (`Last-Event-ID` or `?after=` resumes)",
              route="GET /api/v1/sessions/{sid}/jobs/{jid}/events"),
    Operation("sweep", handle_sweep,
              "queue a scenario-space sweep as a job; identical spaces coalesce",
              scope="server", route="POST /api/v1/sessions/{sid}/sweeps", status=201),
    Operation("sweep_result", handle_sweep_result,
              "a sweep job's ranked result, by space hash or job id",
              scope="server", route="GET /api/v1/sessions/{sid}/sweeps/{space_hash}"),
    # -- ledger versions and durable state
    Operation("create_version", handle_create_version,
              "snapshot the scenario ledger as an immutable, named version",
              scope="server", route="POST /api/v1/sessions/{sid}/versions", status=201),
    Operation("list_versions", handle_list_versions,
              "a session's ledger versions (`?limit=&offset=`)",
              scope="server", route="GET /api/v1/sessions/{sid}/versions"),
    Operation("persist_stats", handle_persist_stats,
              "durable-state backend identity, row counts and recovery counters",
              scope="server", route="GET /api/v1/persistence"),
)
# fmt: on


def _job_runner(handler: Callable[..., dict[str, Any]]) -> Callable[..., dict[str, Any]]:
    """Adapt a job-able handler to the engine's ``(state, params, context)``
    convention, threading the job's checkpoint, executor and event sink."""

    def run(state: ServerState, params: dict[str, Any], context: "JobContext") -> dict[str, Any]:
        context.checkpoint(0.0)  # a cancel that landed before the run starts
        return handler(
            state,
            params,
            checkpoint=context.checkpoint,
            executor=getattr(context, "executor", None),
            emit=getattr(context, "emit", None),
        )

    return run


#: The action vocabulary: every operation with a handler.
ACTIONS = tuple(op.action for op in OPERATIONS if op.handler is not None)
#: Session-scoped dispatch: ``handler(state, params)`` under the session lock.
HANDLERS = {op.action: op.handler for op in OPERATIONS if op.handler and op.scope == "session"}
#: Server-scoped dispatch: ``handler(server, params)``, outside any session
#: lock (``submit`` returns at once; the job takes the lock on a worker).
SERVER_HANDLERS = {
    op.action: op.handler for op in OPERATIONS if op.handler and op.scope == "server"
}
#: Job-able actions, run by engine workers as ``runner(state, params, context)``;
#: a job's payload is bitwise identical to the synchronous action's data.
JOB_HANDLERS = {op.action: _job_runner(op.handler) for op in OPERATIONS if op.job}
#: Job actions fanned out to the process executor when one is configured.
PROCESS_ACTIONS = frozenset(op.action for op in OPERATIONS if op.pool)


def _reserved_session_ids() -> frozenset[str]:
    """Literal segments the table routes at a ``{sid}`` position."""
    paths = [op.route.split(" ")[1].split("?")[0].split("/") for op in OPERATIONS if op.route]
    reserved = set()
    for sid_path in (path for path in paths if "{sid}" in path):
        at = sid_path.index("{sid}")
        reserved.update(
            path[at]
            for path in paths
            if len(path) > at and path[:at] == sid_path[:at] and not path[at].startswith("{")
        )
    return frozenset(reserved)


#: Session ids a route would shadow (``share`` today).
_RESERVED_SESSION_IDS = _reserved_session_ids()
