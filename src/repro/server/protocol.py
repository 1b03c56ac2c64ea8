"""Request/response protocol for the SystemD backend.

The original SystemD has a browser client that sends JSON requests to a Python
backend and re-renders views from the JSON responses.  This module defines the
message envelope; the action vocabulary — one action per view or interaction
of the paper's Figure 2, plus session management, the async analysis engine
and durable state — is the operation table
:data:`repro.server.handlers.OPERATIONS`, which also declares each action's
``/api/v1`` route.  The README's action and route tables are generated from
it.

Every request may carry a ``session_id`` (envelope field or inside
``params``) routing it to one registered session; requests without one fall
back to a shared default session, preserving the seed's single-analysis
behaviour.

Requests and responses are plain dataclasses that serialise to/from dicts, so
they can travel over any transport (the in-process dispatcher used in tests
and benchmarks, or the stdlib HTTP wrapper in :mod:`repro.server.app`).

**Versioned envelope.**  Every response carries ``"api_version":
:data:`API_VERSION`` (and HTTP transports add an ``X-Repro-Api-Version``
header), so clients can detect envelope evolution without sniffing fields.
Failures additionally carry ``error_kind`` — ``"protocol"`` (malformed or
invalid request), ``"not_found"`` (unknown session/job/resource),
``"conflict"`` (duplicate creation), ``"too_large"`` (a size over its cap),
or ``"internal"`` — which the resource-routed HTTP API maps onto
400/404/409/413/500 status codes.

**HTTP transports and the bare-POST deprecation path.**  The original wire
transport — POST one request envelope to any path, always receiving 200 with
errors inside the envelope — remains fully supported and byte-compatible
(modulo the additive ``api_version``/``error_kind`` fields above).  New
clients should prefer the resource-routed ``/api/v1`` API served alongside
it.  Deprecation path for the bare-POST protocol — **stage 2 is in effect**:

1. *(done)* both transports served, bare POST was the compatibility surface;
2. **(now)** every bare-POST response carries a ``deprecation`` notice field
   (and HTTP bare-POST responses a ``Warning: 299`` header), and new
   capabilities land on ``/api/v1`` only — the operations declared
   ``v1_only`` are rejected with a protocol error naming their ``/api/v1``
   route when sent as bare-POST envelopes;
3. *(eventually)* bare POST becomes opt-in via server configuration.

No stage breaks the envelope: ``ok``/``data``/``error`` keep their meaning
throughout, and ``/api/v1`` responses never carry ``deprecation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "API_VERSION",
    "BARE_POST_DEPRECATION",
    "ConflictError",
    "NotFoundError",
    "ProtocolError",
    "Request",
    "Response",
    "TooLargeError",
]

#: Version stamped into every response envelope (and the
#: ``X-Repro-Api-Version`` HTTP header).
API_VERSION = "1"

#: The stage-2 notice attached to every bare-POST response envelope (see the
#: deprecation path in the module docstring).
#: Kept ASCII-only: HTTP headers are latin-1 encoded and this string rides
#: in the bare-POST ``Warning`` header verbatim.
BARE_POST_DEPRECATION = (
    "the bare-POST protocol is deprecated (stage 2); use the resource-routed "
    "/api/v1 API, where new capabilities land exclusively"
)


class ProtocolError(Exception):
    """Raised for malformed requests (unknown action, missing parameters)."""


class NotFoundError(ProtocolError):
    """Raised when a request names a session/job/resource that does not exist.

    Maps to ``error_kind == "not_found"`` and HTTP 404 on the resource routes.
    """


class ConflictError(ProtocolError):
    """Raised when a request would duplicate an existing resource.

    Maps to ``error_kind == "conflict"`` and HTTP 409 on the resource routes.
    """


class TooLargeError(ProtocolError):
    """Raised when a size parameter exceeds its cap (see the ``MAX_*``
    constants of :mod:`repro.server.handlers`).

    Maps to ``error_kind == "too_large"`` and HTTP 413 on the resource routes.
    """


@dataclass(frozen=True)
class Request:
    """A client request.

    Attributes
    ----------
    action:
        One of :data:`repro.server.handlers.ACTIONS`.
    params:
        Action-specific parameters (driver lists, perturbations, bounds, ...).
    request_id:
        Client-side correlation id, echoed in the response.
    session_id:
        Target session id (empty routes to the shared default session).
    """

    action: str
    params: dict[str, Any] = field(default_factory=dict)
    request_id: str = ""
    session_id: str = ""

    def __post_init__(self) -> None:
        from .handlers import ACTIONS  # the operation table imports this module

        if self.action not in ACTIONS:
            raise ProtocolError(
                f"unknown action {self.action!r}; valid actions: {', '.join(ACTIONS)}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "action": self.action,
            "params": dict(self.params),
            "request_id": self.request_id,
            "session_id": self.session_id,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Request":
        """Parse a request dict (raises :class:`ProtocolError` when malformed)."""
        if "action" not in payload:
            raise ProtocolError("request is missing the 'action' field")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        return cls(
            action=str(payload["action"]),
            params=params,
            request_id=str(payload.get("request_id") or ""),
            session_id=str(payload.get("session_id") or ""),
        )


@dataclass(frozen=True)
class Response:
    """A backend response.

    Attributes
    ----------
    ok:
        Whether the request succeeded.
    data:
        Action-specific payload (empty on error).
    error:
        Error message when ``ok`` is False.
    error_kind:
        Failure taxonomy when ``ok`` is False — ``"protocol"``,
        ``"not_found"``, ``"conflict"``, ``"too_large"``, or ``"internal"``
        (empty on success).  Serialised only when set, keeping success envelopes
        byte-compatible with earlier clients.
    request_id:
        Correlation id echoed from the request.
    session_id:
        Id of the session that served the request (empty for server-level
        actions such as ``list_use_cases`` or ``server_stats``).
    elapsed_ms:
        Server-side processing time, surfaced so the latency benchmark (P1)
        can report per-view response times the way the paper's "fast real-time
        response" requirement frames them.
    deprecation:
        Stage-2 deprecation notice attached by the bare-POST transport
        (:data:`BARE_POST_DEPRECATION`).  Serialised only when set, keeping
        ``/api/v1`` and in-process envelopes byte-compatible with earlier
        clients.
    """

    ok: bool
    data: dict[str, Any] = field(default_factory=dict)
    error: str = ""
    error_kind: str = ""
    request_id: str = ""
    session_id: str = ""
    elapsed_ms: float = 0.0
    deprecation: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        payload = {
            "ok": self.ok,
            "api_version": API_VERSION,
            "data": dict(self.data),
            "error": self.error,
            "request_id": self.request_id,
            "session_id": self.session_id,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.error_kind:
            payload["error_kind"] = self.error_kind
        if self.deprecation:
            payload["deprecation"] = self.deprecation
        return payload

    @classmethod
    def success(
        cls,
        data: dict[str, Any],
        *,
        request_id: str = "",
        session_id: str = "",
        elapsed_ms: float = 0.0,
    ) -> "Response":
        """Build a success response."""
        return cls(
            ok=True,
            data=data,
            request_id=request_id,
            session_id=session_id,
            elapsed_ms=elapsed_ms,
        )

    @classmethod
    def failure(
        cls,
        error: str,
        *,
        kind: str = "",
        request_id: str = "",
        session_id: str = "",
        elapsed_ms: float = 0.0,
    ) -> "Response":
        """Build an error response."""
        return cls(
            ok=False,
            error=error,
            error_kind=kind,
            request_id=request_id,
            session_id=session_id,
            elapsed_ms=elapsed_ms,
        )
