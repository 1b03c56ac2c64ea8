"""The README's route and action tables are rendered from the operation table.

Regenerate them after changing :data:`repro.server.handlers.OPERATIONS`::

    PYTHONPATH=src python tests/server/test_operation_docs.py
"""

from __future__ import annotations

from pathlib import Path

from repro.server import OPERATIONS
from repro.server.app import _SystemDHTTPHandler

README = Path(__file__).resolve().parents[2] / "README.md"
BEGIN = "<!-- operations:begin -->"
END = "<!-- operations:end -->"


def render_tables() -> str:
    """The ``/api/v1`` route table, then the action table, as Markdown."""
    rows = ["| Method | Path | Action | Success | What it does |", "|---|---|---|---|---|"]
    for op in OPERATIONS:
        if op.route:
            method, target = op.route.split(" ", 1)
            action = f"`{op.action}`" if op.handler else "—"
            rows.append(f"| `{method}` | `{target}` | {action} | {op.status} | {op.doc} |")
    rows += ["", "| Action | Scope | As a job | What it does |", "|---|---|---|---|"]
    for op in OPERATIONS:
        if op.handler:
            job = "process pool" if op.pool else "thread" if op.job else "—"
            rows.append(f"| `{op.action}` | {op.scope} | {job} | {op.doc} |")
    return "\n".join(rows)


def test_readme_tables_match_the_operation_table():
    block = README.read_text(encoding="utf-8").split(BEGIN)[1].split(END)[0]
    assert block.strip() == render_tables(), (
        "README operation tables are stale; regenerate them with "
        "`PYTHONPATH=src python tests/server/test_operation_docs.py`"
    )


def test_every_adapter_written_route_has_a_writer():
    for op in OPERATIONS:
        if op.handler is None:
            assert callable(getattr(_SystemDHTTPHandler, f"_serve_{op.action}", None)), op


if __name__ == "__main__":
    head, rest = README.read_text(encoding="utf-8").split(BEGIN)
    tail = rest.split(END)[1]
    README.write_text(f"{head}{BEGIN}\n{render_tables()}\n{END}{tail}", encoding="utf-8")
