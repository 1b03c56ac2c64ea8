"""Client/server substrate: the JSON protocol, the session registry, and the
dispatcher standing in for SystemD's browser-client / Python-backend
architecture."""

from .app import SSE_KEEPALIVE_S, SystemDServer, serve_http
from .handlers import (
    ACTIONS,
    HANDLERS,
    JOB_HANDLERS,
    OPERATIONS,
    SERVER_HANDLERS,
    Operation,
    ServerState,
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
from .registry import DEFAULT_SESSION_ID, SessionEntry, SessionRegistry, UnknownSessionError
from .serialization import dumps, frame_preview, to_json_safe
from .stream import ServerEvent, StreamClient

__all__ = [
    "SystemDServer",
    "serve_http",
    "SSE_KEEPALIVE_S",
    "ServerState",
    "HANDLERS",
    "SERVER_HANDLERS",
    "JOB_HANDLERS",
    "OPERATIONS",
    "Operation",
    "SessionRegistry",
    "SessionEntry",
    "UnknownSessionError",
    "DEFAULT_SESSION_ID",
    "Request",
    "Response",
    "ACTIONS",
    "API_VERSION",
    "ProtocolError",
    "NotFoundError",
    "ConflictError",
    "TooLargeError",
    "ServerEvent",
    "StreamClient",
    "to_json_safe",
    "frame_preview",
    "dumps",
]
