"""Registry-drift rules (REG family).

The server's action vocabulary, dispatch tables, process routing, routes and
route docs are all derived from one operation table
(``OPERATIONS`` in ``server/handlers.py``), so they cannot drift apart and
need no rule.  What stays hand-maintained is checked here:

* **REG003** — both JSON and streamed HTTP response paths stamp the API
  version, and the response envelope carries it.
* **REG004** — terminal job events (``done``/``failed``/``cancelled``) are
  published from exactly one place: ``AnalysisEngine._finalize``.
* **REG005** — the CLI's ``_COMMANDS`` table and its registered subparsers
  name the same command set.

Each rule skips cleanly when its file is absent, which lets the fixture
trees under ``tests/check/fixtures`` exercise one rule at a time.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .astutil import ModuleInfo, enclosing_function, str_constants, string_dict_keys
from .engine import Project, RawFinding, Rule

__all__ = ["RULES"]

_TERMINAL_KINDS = {"done", "failed", "cancelled"}
_TERMINAL_NAMES = {"EVENT_DONE", "EVENT_FAILED", "EVENT_CANCELLED"}


def _module_assign(module: ModuleInfo, name: str) -> tuple[ast.expr, int] | None:
    """Value and line of the module-level assignment to ``name``."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value, node.lineno
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return (node.value, node.lineno) if node.value is not None else None
    return None


def _registry_strings(module: ModuleInfo | None, name: str) -> tuple[list[str], int] | None:
    if module is None:
        return None
    found = _module_assign(module, name)
    if found is None:
        return None
    value, lineno = found
    strings = str_constants(value)
    if strings is None:
        strings = string_dict_keys(value)
    if strings is None:
        return None
    return strings, lineno


def check_reg003(project: Project) -> Iterable[RawFinding]:
    """Every HTTP response path stamps the API version, and so does the envelope."""
    app = project.find("server/app.py")
    if app is None:
        return
    method_names = {
        node.name
        for node in ast.walk(app.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    stampers = {
        fn.name
        for node in ast.walk(app.tree)
        if isinstance(node, ast.Constant)
        and node.value == "X-Repro-Api-Version"
        and (fn := enclosing_function(node)) is not None
    }
    for required in ("_send_json", "_serve_job_events", "_serve_prometheus"):
        if required in method_names and required not in stampers:
            yield (
                app.relpath,
                1,
                f"'{required}' does not send the X-Repro-Api-Version header; every "
                "HTTP response path must stamp the API version",
            )
    protocol = project.find("server/protocol.py")
    if protocol is not None and "api_version" in protocol.source:
        to_dict_ok = any(
            isinstance(node, ast.Constant)
            and node.value == "api_version"
            and (fn := enclosing_function(node)) is not None
            and fn.name == "to_dict"
            for node in ast.walk(protocol.tree)
        )
        if not to_dict_ok:
            yield (
                protocol.relpath,
                1,
                "Response.to_dict does not emit the 'api_version' envelope field",
            )


def check_reg004(project: Project) -> Iterable[RawFinding]:
    """Terminal job events are published only from ``_finalize``.

    ``AnalysisEngine._finalize`` runs exactly once per job (from the worker
    or from a pending-cancel) and is the single place allowed to publish
    ``done``/``failed``/``cancelled``.  A publish whose event-kind is an
    arbitrary runtime expression could *become* terminal, so those are
    flagged too unless audited with a suppression.
    """
    for module in project.modules:
        if "engine/" not in module.relpath and not module.relpath.startswith("engine"):
            continue
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "publish"
                and len(node.args) >= 2
            ):
                continue
            kind = node.args[1]
            fn = enclosing_function(node)
            fn_name = fn.name if fn is not None else "<module>"
            if fn_name == "_finalize":
                continue
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                if kind.value in _TERMINAL_KINDS:
                    yield (
                        module.relpath,
                        node.lineno,
                        f"terminal event '{kind.value}' published outside _finalize "
                        f"(in '{fn_name}'); _finalize is the only legal terminal-"
                        "publish site",
                    )
            elif isinstance(kind, ast.Name) and kind.id in _TERMINAL_NAMES:
                yield (
                    module.relpath,
                    node.lineno,
                    f"terminal event {kind.id} published outside _finalize "
                    f"(in '{fn_name}')",
                )
            elif not isinstance(kind, ast.Constant):
                yield (
                    module.relpath,
                    node.lineno,
                    f"event kind '{ast.unparse(kind)}' is a runtime expression "
                    f"published outside _finalize (in '{fn_name}'): it could name a "
                    "terminal kind; publish literals or audit with a suppression",
                )


def check_reg005(project: Project) -> Iterable[RawFinding]:
    """CLI ``_COMMANDS`` table and registered subparsers agree."""
    cli = project.find("cli.py")
    commands = _registry_strings(cli, "_COMMANDS")
    if cli is None or commands is None:
        return
    subparsers = {
        node.args[0].value: node.lineno
        for node in ast.walk(cli.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_parser"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }
    for name in commands[0]:
        if name not in subparsers:
            yield (
                cli.relpath,
                commands[1],
                f"command '{name}' is dispatched in _COMMANDS but has no "
                "registered subparser",
            )
    for name, lineno in sorted(subparsers.items()):
        if name not in commands[0]:
            yield (
                cli.relpath,
                lineno,
                f"subparser '{name}' is registered but missing from the _COMMANDS "
                "dispatch table",
            )


RULES = [
    Rule("REG003", "error", "HTTP response path without the API version", check_reg003),
    Rule("REG004", "error", "terminal event published outside _finalize", check_reg004),
    Rule("REG005", "error", "CLI command table and subparsers disagree", check_reg005),
]
