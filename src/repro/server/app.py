"""The SystemD backend server.

:class:`SystemDServer` is the in-process dispatcher: it accepts
:class:`~repro.server.protocol.Request` objects, routes them to the handler
for their action, times the call, and wraps the payload in a
:class:`~repro.server.protocol.Response`.  Tests, benchmarks, and the
examples drive this object directly through :meth:`SystemDServer.request` —
it exercises exactly the code path an HTTP client does, minus the socket.

One server hosts many concurrent analyses: requests are routed by
``session_id`` through a :class:`~repro.server.registry.SessionRegistry`
(requests without one fall back to a shared default session), every session
fetches trained models from one shared
:class:`~repro.core.cache.ModelCache`, and a per-session lock makes
``handle`` safe under concurrent callers — requests within a session
serialise, requests across sessions run in parallel.

Long-running analyses need not block their caller at all: every server owns
an :class:`~repro.engine.AnalysisEngine` whose ``submit`` / ``job_status`` /
``job_result`` / ``cancel_job`` / ``list_jobs`` actions run the same analysis
handlers on a worker pool, with progress reporting and cooperative
cancellation.

:func:`serve_http` wraps the same dispatcher in a stdlib
:class:`http.server.ThreadingHTTPServer`: the resource-routed API under
``/api/v1``, whose routes are declared in the operation table
(:data:`repro.server.handlers.OPERATIONS`).  Every request goes through that
route table: the verb and path name the action, and failures carry real
status codes (400 bad request or malformed body, 404 unknown route or
resource, 409 duplicate, 413 over a size cap), always as a JSON envelope.
``GET .../jobs/{jid}/events`` streams the job's event bus as Server-Sent
Events with ``Last-Event-ID`` resume.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from ..core import ModelCache
from ..obs import metrics, trace
from ..persist import StateBackend, open_backend
from .handlers import (
    ACTIONS,
    HANDLERS,
    OPERATIONS,
    SERVER_HANDLERS,
    Operation,
    ServerState,
    parse_flag,
)
from .protocol import (
    API_VERSION,
    ConflictError,
    NotFoundError,
    ProtocolError,
    Request,
    Response,
    TooLargeError,
)
from .registry import DEFAULT_SESSION_ID, SessionRegistry, UnknownSessionError
from .serialization import to_json_safe

__all__ = [
    "HANDLER_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "SSE_KEEPALIVE_S",
    "SystemDServer",
    "serve_http",
]

#: Requests remembered by the bounded request log.
REQUEST_LOG_LIMIT = 1000

#: Largest request body the HTTP adapter reads, in bytes.  A longer
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds between SSE keepalive comments when a job stream is idle.  The
#: keepalive write is also how a dropped client is detected (the next write
#: fails), bounding how long ``cancel_on_disconnect`` jobs outlive readers.
SSE_KEEPALIVE_S = 1.0

#: Seconds a connection may sit in one socket read or write before the HTTP
#: adapter closes it, so an idle client cannot hold a handler thread.  A
#: ``job_result`` long poll waits without socket I/O and is not cut short.
HANDLER_TIMEOUT_S = 30.0

#: ``error_kind`` → HTTP status for the resource-routed API.
_KIND_STATUS = {
    "protocol": 400,
    "not_found": 404,
    "conflict": 409,
    "too_large": 413,
    "internal": 500,
}

_REQUESTS_TOTAL = metrics.counter("repro_requests_total")
_REQUEST_LATENCY = metrics.histogram("repro_request_latency_ms")


def _protocol_kind(exc: ProtocolError) -> str:
    """Map a protocol exception to its ``error_kind`` taxonomy value."""
    if isinstance(exc, NotFoundError):
        return "not_found"
    if isinstance(exc, ConflictError):
        return "conflict"
    if isinstance(exc, TooLargeError):
        return "too_large"
    return "protocol"


def _status_for(response: Response) -> int:
    """HTTP status for a response on the resource-routed API."""
    if response.ok:
        return 200
    return _KIND_STATUS.get(response.error_kind, 400)


#: Route placeholders whose request parameter has a longer name.
_PATH_PARAMS = {"sid": "session_id", "jid": "job_id"}


def _compile_route(route: str) -> tuple[str, re.Pattern[str], str]:
    """``"GET /a/{sid}?result=1"`` → ``(method, path pattern, selector flag)``."""
    method, _, target = route.partition(" ")
    path, _, selector = target.partition("?")
    pattern = re.sub(
        r"\{(\w+)\}", lambda m: f"(?P<{_PATH_PARAMS.get(m[1], m[1])}>[^/]+)", path
    )
    return method, re.compile(f"^{pattern}/?$"), selector.partition("=")[0]


_ROUTE_PATTERNS = tuple((*_compile_route(op.route), op) for op in OPERATIONS if op.route)


def _match_route(
    method: str, path: str, query: dict[str, str]
) -> tuple[Operation, dict[str, str]] | None:
    """The first operation routed at ``(method, path)``, with its path
    parameters; a route with a selector matches only when its flag is set."""
    for route_method, pattern, selector, op in _ROUTE_PATTERNS:
        match = pattern.match(path) if route_method == method else None
        if match and (not selector or parse_flag(query.get(selector, ""))):
            return op, match.groupdict()
    return None


def _json_object(body: str) -> dict[str, Any]:
    """A request body as a JSON object (``{}`` when empty)."""
    try:
        payload = json.loads(body) if body.strip() else {}
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class SystemDServer:
    """In-process SystemD backend serving many id-addressed sessions.

    Parameters
    ----------
    registry:
        Session registry (capacity, TTL); a default one is created if omitted.
    model_cache:
        Model cache shared by every session this server creates.
    engine_workers:
        Worker threads of the async analysis engine (threads start lazily on
        the first ``submit``).  With ``executor="process"`` the same count
        sizes the process pool.
    job_retention:
        Finished jobs the engine's store retains (LRU) for ``job_status`` /
        ``job_result`` polling.
    executor:
        ``"thread"`` (default) or ``"process"`` — passed through to the
        engine; ``"process"`` fans the CPU-bound job actions out across a
        persistent process pool (see
        :class:`~repro.engine.process.ProcessExecutor`), falling back to
        threads where ``spawn`` is unavailable.
    backend:
        Durable-state backend for the registry and the engine's job store
        (ignored when an explicit ``registry`` is passed — its backend wins,
        so registry and job store always share one backend).  Defaults to
        the process-local :class:`~repro.persist.MemoryBackend`.
    """

    def __init__(
        self,
        *,
        registry: SessionRegistry | None = None,
        model_cache: ModelCache | None = None,
        engine_workers: int = 4,
        job_retention: int = 256,
        executor: str = "thread",
        backend: StateBackend | None = None,
    ) -> None:
        # imported here, not at module level: repro.engine imports the handler
        # tables from repro.server, so a module-level import would be circular
        from ..engine import AnalysisEngine

        self.registry = (
            registry if registry is not None else SessionRegistry(backend=backend)
        )
        self.model_cache = model_cache if model_cache is not None else ModelCache()
        # sessions recovered lazily by the registry rebuild their models
        # through the server's shared cache
        self.registry.model_cache = self.model_cache
        self.engine = AnalysisEngine(
            self,
            workers=engine_workers,
            max_finished=job_retention,
            executor=executor,
            backend=self.registry.backend,
        )
        self._request_log: deque[dict[str, Any]] = deque(maxlen=REQUEST_LOG_LIMIT)
        self._log_lock = threading.Lock()
        self._requests_total = 0
        self._requests_failed = 0

    # ------------------------------------------------------------------ #
    def recover_sessions(self) -> list[str]:
        """Eagerly recover every dormant session from the durable backend
        (``repro serve --recover``); lazy per-session recovery on first touch
        happens regardless.  Returns the recovered session ids."""
        return self.registry.recover_all()

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> ServerState:
        """The default session's state (single-analysis backward compat)."""
        return self._entry_for(DEFAULT_SESSION_ID).state

    def _entry_for(self, session_id: str):
        """Resolve a session id to its registry entry.

        The default session materialises lazily; any other id must have been
        registered through ``create_session``.
        """
        if session_id == DEFAULT_SESSION_ID:
            entry = self.registry.get_or_create(session_id)
            if entry.state.model_cache is None:
                entry.state.model_cache = self.model_cache
            return entry
        try:
            return self.registry.get(session_id)
        except UnknownSessionError as exc:
            raise NotFoundError(
                f"unknown session {session_id!r}; create one with 'create_session' "
                "or omit session_id for the default session"
            ) from exc

    # ------------------------------------------------------------------ #
    def handle(self, request: Request) -> Response:
        """Process one request and return a response (never raises).

        Safe to call from many threads at once: session-scoped actions run
        under their session's lock, server-scoped actions (session lifecycle,
        stats) rely on the registry's own synchronisation.
        """
        started = time.perf_counter()
        request_id = request.request_id
        session_id = ""
        try:
            # The trace root: jobs submitted while this span is active parent
            # onto it, so an async analysis's timeline starts at its request.
            with trace.span("request", action=request.action):
                if request.action in SERVER_HANDLERS:
                    params = dict(request.params)
                    if request.session_id:
                        params.setdefault("session_id", request.session_id)
                    data = SERVER_HANDLERS[request.action](self, params)
                    if request.action == "create_session":
                        session_id = str(data.get("session_id", ""))
                else:
                    session_id = str(
                        request.session_id
                        or request.params.get("session_id", "")
                        or DEFAULT_SESSION_ID
                    )
                    entry = self._entry_for(session_id)
                    handler = HANDLERS[request.action]
                    with entry.lock:
                        entry.request_count += 1
                        data = handler(entry.state, request.params)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            response = Response.success(
                to_json_safe(data),
                request_id=request_id,
                session_id=session_id,
                elapsed_ms=elapsed_ms,
            )
        except ProtocolError as exc:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            response = Response.failure(
                str(exc),
                kind=_protocol_kind(exc),
                request_id=request_id,
                session_id=session_id,
                elapsed_ms=elapsed_ms,
            )
        except Exception as exc:  # noqa: BLE001 - the server must not crash
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            response = Response.failure(
                f"internal error: {type(exc).__name__}: {exc}",
                kind="internal",
                request_id=request_id,
                session_id=session_id,
                elapsed_ms=elapsed_ms,
            )
        self._record(request.action, session_id, response)
        return response

    def _record(self, action: str, session_id: str, response: Response) -> None:
        """Append one request outcome to the bounded log and counters."""
        # Routing-layer failures are logged under adapter-written names
        # (``job_events``), which collapse onto one label.
        label = action if action in ACTIONS else "invalid"
        _REQUESTS_TOTAL.labels(label, "true" if response.ok else "false").inc()
        _REQUEST_LATENCY.labels(label).observe(float(response.elapsed_ms))
        with self._log_lock:
            self._requests_total += 1
            if not response.ok:
                self._requests_failed += 1
            self._request_log.append(
                {
                    "action": action,
                    "session_id": session_id,
                    "ok": response.ok,
                    "elapsed_ms": response.elapsed_ms,
                }
            )

    # ------------------------------------------------------------------ #
    # resource-routed API (/api/v1): HTTP verbs mapped onto actions
    # ------------------------------------------------------------------ #
    def handle_rest(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
    ) -> tuple[int, Response] | None:
        """Dispatch one resource-routed request, returning ``(status, response)``.

        The route comes from the operation table.  Parameters merge query,
        then body, then path parameters (``{sid}`` becomes ``session_id``,
        ``{jid}`` ``job_id``), and a job named in the path must belong to the
        session named there.  Returns ``None`` when no route matches ``(method,
        path)``, or for the routes the HTTP adapter writes itself.  Handler
        failures surface as real HTTP status codes via ``error_kind``.
        """
        query = query or {}
        found = _match_route(method.upper(), path, query)
        if found is None or found[0].handler is None:
            return None
        op, path_params = found
        params = {**query, **(body if isinstance(body, dict) else {}), **path_params}
        session_id = path_params.get("session_id", "")
        if "job_id" in path_params:
            failure = self._job_session_error(op.action, session_id, path_params["job_id"])
            if failure is not None:
                return 404, failure
        response = self.handle(Request(op.action, params, session_id=session_id))
        return (op.status if response.ok else _status_for(response)), response

    def _rest_failure(
        self, action: str, session_id: str, error: str, kind: str
    ) -> Response:
        """Build (and log) a failure synthesised by the routing layer itself."""
        response = Response.failure(error, kind=kind, session_id=session_id)
        self._record(action, session_id, response)
        return response

    def _session_exists(self, session_id: str) -> bool:
        """Whether a session id is currently addressable (default is always)."""
        if session_id == DEFAULT_SESSION_ID:
            return True
        try:
            self.registry.get(session_id)
        except UnknownSessionError:
            return False
        return True

    def _job_session_error(
        self, action: str, session_id: str, job_id: str
    ) -> Response | None:
        """404-shaped failure unless ``job_id`` exists and belongs to the session."""
        from ..engine import UnknownJobError  # circular at module level

        try:
            job = self.engine.status(job_id)
        except UnknownJobError:
            return self._rest_failure(
                action,
                session_id,
                f"unknown job {job_id!r} (finished jobs are retained LRU; it may "
                "have been evicted)",
                "not_found",
            )
        job_session = job.session_id or DEFAULT_SESSION_ID
        if job_session != session_id:
            return self._rest_failure(
                action,
                session_id,
                f"job {job_id!r} does not belong to session {session_id!r}",
                "not_found",
            )
        return None

    def stream_check(self, session_id: str, job_id: str) -> Response | None:
        """Validate an SSE subscription target (``None`` means streamable)."""
        if not self._session_exists(session_id):
            return self._rest_failure(
                "job_events", session_id, f"unknown session {session_id!r}", "not_found"
            )
        return self._job_session_error("job_events", session_id, job_id)

    # ------------------------------------------------------------------ #
    def request(
        self,
        action: str,
        params: dict[str, Any] | None = None,
        *,
        session_id: str = "",
        **kwargs: Any,
    ) -> Response:
        """Convenience wrapper: ``server.request("sensitivity", perturbations=...)``.

        Parameters whose names collide with this signature (e.g. ``submit``'s
        nested ``action``) can be passed in the positional ``params`` dict;
        keyword arguments are merged on top.
        """
        merged = {**(params or {}), **kwargs}
        return self.handle(Request(action=action, params=merged, session_id=session_id))

    @property
    def request_log(self) -> list[dict[str, Any]]:
        """Per-request timing log, bounded to the most recent
        :data:`REQUEST_LOG_LIMIT` entries (used by the latency benchmark)."""
        with self._log_lock:
            return list(self._request_log)

    def stats(self) -> dict[str, Any]:
        """Registry, cache, engine, and request counters (``server_stats``).

        ``requests.latency_ms`` reports p50/p95 percentiles estimated from
        the ``repro_request_latency_ms`` histogram buckets (merged across
        actions) — the paper's "fast real-time response" requirement as a
        tail-latency number, not just an average.  Keys are unchanged from
        the earlier request-log implementation; ``None`` still means no
        requests have been observed.
        """
        latency = {
            "p50": metrics.registry().percentile("repro_request_latency_ms", 0.50),
            "p95": metrics.registry().percentile("repro_request_latency_ms", 0.95),
        }
        with self._log_lock:
            requests = {
                "total": self._requests_total,
                "failed": self._requests_failed,
                "log_size": len(self._request_log),
                "log_limit": REQUEST_LOG_LIMIT,
                "latency_ms": latency,
            }
        return {
            "registry": self.registry.stats(),
            "model_cache": self.model_cache.stats(),
            "engine": self.engine.stats(),
            "requests": requests,
        }

    def close(self) -> None:
        """Shut down the engine's worker pool and any process executor
        (daemon threads/processes; optional)."""
        self.engine.shutdown(wait=False)


class _BodyRejected(Exception):
    """A request body refused from its ``Content-Length`` alone."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _SystemDHTTPHandler(BaseHTTPRequestHandler):
    """HTTP adapter serving the ``/api/v1`` routes.

    Every outcome — including malformed bodies and internal faults — is a
    JSON response envelope with a meaningful status code: the route's
    statuses (200/201/400/404/409/413), 404 for a request no route matches
    (an envelope POSTed to ``/`` included), 400 for a body that is not a
    JSON object or a bad ``Content-Length``, 413 for bodies over
    :data:`MAX_BODY_BYTES`, 501 for methods without a handler (the
    ``send_error`` override keeps even stdlib-generated errors JSON), 500
    only for unexpected adapter errors — never a bare HTML traceback.
    The non-JSON responses are the two routes the table declares without a
    handler, written here: ``GET .../jobs/{jid}/events``, a
    ``text/event-stream`` that frames the job's event bus as SSE, and
    ``GET /api/v1/metrics``, Prometheus text.
    """

    server_version = "SystemDRepro/0.1"

    def setup(self) -> None:
        self.timeout = HANDLER_TIMEOUT_S  # read at each connection, not at import
        super().setup()

    @property
    def backend(self) -> SystemDServer:
        return self.server.backend  # type: ignore[attr-defined]

    def _split_target(self) -> tuple[str, dict[str, str]]:
        parts = urlsplit(self.path)
        return parts.path, dict(parse_qsl(parts.query))

    def _read_body(self) -> str:
        """The request body, after checking ``Content-Length`` is a number
        in ``[0, MAX_BODY_BYTES]`` (400 / 413 otherwise, nothing read)."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise _BodyRejected(400, f"invalid Content-Length: {declared!r}")
        if length > MAX_BODY_BYTES:
            raise _BodyRejected(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length).decode("utf-8", errors="replace") if length else ""

    def _serve(self) -> None:
        """Every verb and path goes through the route table."""
        try:
            path, query = self._split_target()
            self._dispatch(path, query, self._read_body())
        except _BodyRejected as exc:
            self.close_connection = True  # the unread body must not be parsed as a request
            self._send_failure(exc.status, str(exc))
        except TimeoutError:
            raise  # a stalled client: the stdlib closes the connection
        except Exception as exc:  # noqa: BLE001 - the adapter must not emit tracebacks
            self._send_failure(500, f"internal error: {type(exc).__name__}: {exc}", "internal")

    do_GET = do_POST = do_PUT = do_DELETE = _serve

    def _dispatch(self, path: str, query: dict[str, str], body: str) -> None:
        """Route one request: 404 when no route matches (before the body is
        parsed), the adapter's own writer for a route without a handler,
        ``handle_rest`` for the rest."""
        found = _match_route(self.command, path, query)
        if found is None:
            self._send_failure(404, f"no route for {self.command} {path}", "not_found")
            return
        if found[0].handler is None:
            getattr(self, f"_serve_{found[0].action}")(query, **found[1])
            return
        try:
            parsed = _json_object(body)
        except ProtocolError as exc:
            self._send_failure(400, str(exc))
            return
        status, response = self.backend.handle_rest(self.command, path, query, parsed)
        self._send_json(status, response.to_dict())

    def _serve_job_events(self, query: dict[str, str], session_id: str, job_id: str) -> None:
        """Stream one job's event bus as Server-Sent Events.

        Replays from ``Last-Event-ID`` (or ``?after=N``) so reconnecting
        clients miss nothing, emits keepalive comments while the stream is
        idle, and stops after the terminal event.  With
        ``?cancel_on_disconnect=1`` a dropped connection cooperatively
        cancels the job — detected when a keepalive or event write fails.
        """
        # imported here like AnalysisEngine above: module-level would be circular
        from ..engine import TERMINAL_EVENTS, UnknownJobError

        backend = self.backend
        error = backend.stream_check(session_id, job_id)
        if error is not None:
            self._send_json(404, error.to_dict())
            return
        raw_after = self.headers.get("Last-Event-ID") or query.get("after") or "0"
        try:
            after_seq = max(0, int(raw_after))
        except ValueError:
            self._send_failure(400, f"invalid Last-Event-ID/after value {raw_after!r}")
            return
        cancel_on_disconnect = parse_flag(query.get("cancel_on_disconnect", ""))
        try:
            subscription = backend.engine.subscribe(job_id, after_seq=after_seq)
        except UnknownJobError:  # evicted since the check
            self._send_failure(404, f"unknown job {job_id!r}", "not_found")
            return
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("X-Repro-Api-Version", API_VERSION)
            self.end_headers()
            while True:
                event = subscription.get(timeout=SSE_KEEPALIVE_S)
                if event is None and not subscription.live:
                    break  # resumed past a finished job's last event
                if event is None:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                frame = (
                    f"id: {event.seq}\n"
                    f"event: {event.type}\n"
                    f"data: {json.dumps(event.to_dict())}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                if event.type in TERMINAL_EVENTS:
                    break
        except (BrokenPipeError, ConnectionResetError, OSError):
            if cancel_on_disconnect:
                try:
                    backend.engine.cancel(job_id)
                except UnknownJobError:
                    pass
        finally:
            subscription.close()

    def _serve_prometheus(self, query: dict[str, str]) -> None:
        """Serve the metrics registry: Prometheus text, or JSON with
        ``?format=json`` (the same payload as the ``metrics`` action)."""
        if str(query.get("format", "")).lower() == "json":
            response = self.backend.handle(Request(action="metrics"))
            self._send_json(_status_for(response), response.to_dict())
            return
        encoded = metrics.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(encoded)))
        self.send_header("X-Repro-Api-Version", API_VERSION)
        self.end_headers()
        self.wfile.write(encoded)

    def send_error(self, code, message=None, explain=None):  # noqa: D102
        # the stdlib falls back to send_error (an HTML page) for any method
        # without a do_* handler (PATCH, HEAD, OPTIONS, ...); keep every
        # outcome a structured JSON envelope instead
        self._send_failure(int(code), str(message) if message else "see the /api/v1 routes")

    def _send_failure(self, status: int, message: str, kind: str = "protocol") -> None:
        self._send_json(status, Response.failure(message, kind=kind).to_dict())

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        encoded = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.send_header("X-Repro-Api-Version", API_VERSION)
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging."""


def serve_http(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    executor: str = "thread",
    workers: int = 4,
    state_dir: str | None = None,
    recover: bool = False,
) -> ThreadingHTTPServer:
    """Create (but do not start) an HTTP server wrapping a fresh backend.

    Call ``serve_forever()`` on the returned object to run it; tests use
    ``handle_request()`` for single-shot interactions.  The threading server
    dispatches each request on its own thread, which the session locks make
    safe.  ``executor``/``workers`` configure the backend's async engine
    (``repro serve --executor process --workers N``).

    ``state_dir`` points the server at a durable SQLite state directory
    (``repro serve --state-dir DIR``): sessions, scenario ledgers, and
    finished job results then survive restarts.  Interrupted jobs are
    re-marked failed at startup; ``recover=True`` additionally rebuilds
    every dormant session eagerly instead of on first touch.
    """
    httpd = ThreadingHTTPServer((host, port), _SystemDHTTPHandler)
    httpd.backend = SystemDServer(  # type: ignore[attr-defined]
        engine_workers=workers, executor=executor, backend=open_backend(state_dir)
    )
    if recover:
        httpd.backend.recover_sessions()  # type: ignore[attr-defined]
    return httpd
