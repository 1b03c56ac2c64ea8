"""Pickle-safety rule (PKL family).

The process executor ships ``(function, payload)`` work units — a
module-level function, pickled by reference, plus plain values — and one
:class:`~repro.core.model_manager.ModelManager` per fingerprint across a
``spawn`` boundary (see ``engine/process.py``), and the event bus forwards
:class:`~repro.engine.events.JobEvent` payloads between threads and SSE
streams.  Anything reachable from those objects must survive pickling — a
lock, thread, queue, socket, or lambda smuggled into the attribute graph
only explodes at runtime, on the first process-executor job.

**PKL001** walks the *static* attribute graph of the boundary-crossing root
classes: every ``self.X = ...`` assignment, ``__init__`` parameter
annotation, and dataclass field is inspected; constructor calls and
annotations naming project classes recurse into them (including classes
instantiated by helper-method return values, e.g. ``self._model =
self._build_model()``).  Unpicklable constructors (``threading.Lock()``,
``queue.Queue()``, ...), unpicklable annotations, and ``lambda`` values are
flagged at their assignment site.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .astutil import ModuleInfo
from .engine import Project, RawFinding, Rule

__all__ = ["RULES"]

#: Classes whose instances cross a process/thread serialisation boundary.
_ROOT_CLASSES = ("ModelManager", "JobEvent")

#: Type names whose instances cannot (or must not) cross the boundary.
_FORBIDDEN_NAMES = {
    "Lock",
    "RLock",
    "Event",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Thread",
    "Timer",
    "Queue",
    "SimpleQueue",
    "LifoQueue",
    "PriorityQueue",
    "socket",
    "Pipe",
    "Process",
    "local",
}

#: Module prefixes that are wholesale unpicklable territory.
_FORBIDDEN_PREFIXES = ("threading.", "multiprocessing.", "queue.", "socket.", "_thread.")


def _forbidden_reason(text: str) -> str | None:
    """Why the dotted name ``text`` must not appear in a shipped graph."""
    if text.startswith(_FORBIDDEN_PREFIXES) or text in (
        "threading",
        "queue",
        "socket",
        "multiprocessing",
    ):
        return f"'{text}' objects cannot cross the process boundary"
    if text.split(".")[-1] in _FORBIDDEN_NAMES:
        return f"'{text}' is a lock/thread/queue/socket type"
    return None


def _class_index(project: Project) -> dict[str, tuple[ast.ClassDef, ModuleInfo]]:
    index: dict[str, tuple[ast.ClassDef, ModuleInfo]] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name not in index:
                index[node.name] = (node, module)
    return index


def _annotation_names(node: ast.expr | None) -> Iterator[str]:
    """Plain type names referenced by an annotation (unions, subscripts)."""
    if node is None:
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield ast.unparse(sub)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # string annotations ("ModelManager") name classes too
            yield sub.value.strip("'\"")


def _constructor_names(value: ast.expr) -> Iterator[tuple[str, ast.expr]]:
    """Every dotted callee invoked anywhere inside ``value``.

    Recursing through the whole expression catches constructors nested in
    container literals and call arguments, e.g.
    ``Pipeline([("scale", StandardScaler())])``.
    """
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call) and isinstance(sub.func, (ast.Name, ast.Attribute)):
            yield ast.unparse(sub.func), sub


def _scan_class(
    cls: ast.ClassDef, module: ModuleInfo, index: dict[str, tuple[ast.ClassDef, ModuleInfo]]
) -> tuple[list[RawFinding], set[str]]:
    """Findings inside one class plus the project classes its graph reaches."""
    findings: list[RawFinding] = []
    reached: set[str] = set()
    followed_factories: set[str] = set()

    def inspect_value(value: ast.expr, attr: str) -> None:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Lambda):
                findings.append(
                    (
                        module.relpath,
                        sub.lineno,
                        f"lambda stored on '{cls.name}.{attr}': lambdas cannot be "
                        "pickled across the process boundary",
                    )
                )
        for callee, call in _constructor_names(value):
            reason = _forbidden_reason(callee)
            if reason is not None:
                findings.append(
                    (
                        module.relpath,
                        call.lineno,
                        f"'{cls.name}.{attr}' holds {callee}(...): {reason}",
                    )
                )
            elif callee in index:
                reached.add(callee)
            elif (
                isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
                and call.func.attr not in followed_factories
            ):
                # factory-method indirection: follow the method's returns
                followed_factories.add(call.func.attr)
                for method in cls.body:
                    if (
                        isinstance(method, ast.FunctionDef)
                        and method.name == call.func.attr
                    ):
                        for ret in ast.walk(method):
                            if isinstance(ret, ast.Return) and ret.value is not None:
                                inspect_value(ret.value, attr)

    def inspect_annotation(annotation: ast.expr | None, attr: str, lineno: int) -> None:
        for name in _annotation_names(annotation):
            reason = _forbidden_reason(name)
            if reason is not None:
                findings.append(
                    (
                        module.relpath,
                        lineno,
                        f"'{cls.name}.{attr}' is annotated {name}: {reason}",
                    )
                )
            elif name in index:
                reached.add(name)

    # dataclass-style class-level fields
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            inspect_annotation(stmt.annotation, stmt.target.id, stmt.lineno)
            if stmt.value is not None:
                inspect_value(stmt.value, stmt.target.id)

    # parameter annotations: whatever __init__ accepts it may store
    params: dict[str, ast.expr | None] = {}
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name == "__init__":
            args = method.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                params[arg.arg] = arg.annotation

    # every self.X = ... assignment anywhere in the class
    for node in ast.walk(cls):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(node, ast.AnnAssign):
                inspect_annotation(node.annotation, target.attr, node.lineno)
            if value is not None:
                inspect_value(value, target.attr)
                if isinstance(value, ast.Name) and value.id in params:
                    inspect_annotation(params[value.id], target.attr, node.lineno)

    return findings, reached


def check_pkl001(project: Project) -> Iterable[RawFinding]:
    """Transitive attribute graph of boundary-crossing classes is picklable."""
    index = _class_index(project)
    queue = [name for name in _ROOT_CLASSES if name in index]
    visited: set[str] = set()
    while queue:
        name = queue.pop()
        if name in visited:
            continue
        visited.add(name)
        cls, module = index[name]
        findings, reached = _scan_class(cls, module, index)
        yield from findings
        queue.extend(sorted(reached - visited))


RULES = [
    Rule(
        "PKL001",
        "error",
        "unpicklable object reachable from a process-boundary class",
        check_pkl001,
    )
]
