"""Every session id ``create_session`` accepts is addressable over HTTP.

Ids are drawn freely: each one is either refused with 400 when the session
is created, or the session answers 200 on its own routes.  A client puts the
id into the URL percent-encoded and the router matches the raw path, so a
``share`` session (shadowed by ``/sessions/share/{share_id}``), ``"a b"`` and
``"a/b"`` used to be created and then answer 404.
"""

from __future__ import annotations

from urllib.parse import parse_qsl, quote, urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.server import SystemDServer


@pytest.fixture(scope="module")
def server():
    server = SystemDServer()
    yield server
    server.close()


def route(server, method, target, body=None):
    """One in-process request, its target split as the HTTP adapter splits it."""
    parts = urlsplit(target)
    routed = server.handle_rest(method, parts.path, dict(parse_qsl(parts.query)), body)
    return routed if routed is not None else (404, None)


session_ids = (
    st.text(max_size=70)
    | st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._-]{0,70}", fullmatch=True)
    | st.sampled_from(["share", "default", "sessions", "jobs", "..", "a%20b", "x" * 64])
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sid=session_ids)
@example(sid="share")
@example(sid="a b")
@example(sid="a/b")
@example(sid="x" * 65)
def test_a_created_session_answers_on_its_routes(server, sid):
    status, created = route(server, "POST", "/api/v1/sessions", {"session_id": sid})
    if status == 400:
        return
    assert status in (201, 409), (sid, status, created)  # 409: an id drawn twice
    session_id = created.data["session_id"] if status == 201 else sid
    status, listed = route(server, "GET", f"/api/v1/sessions/{quote(session_id, safe='')}/jobs")
    assert status == 200, (sid, status, listed)
