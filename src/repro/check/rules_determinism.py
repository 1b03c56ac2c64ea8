"""Determinism rules (DET family).

Every analysis result in this repo is gated on bitwise equality with a
reference path (see ``benchmarks/check_regression.py``), so any source of
run-to-run nondeterminism in a result-producing module is a latent
correctness bug.  These rules police the kernel and runner modules — the
code whose outputs land in result payloads — not the whole tree: event
timestamps in ``engine/events.py`` are *supposed* to be wall-clock.

* **DET001** — iterating a syntactic ``set`` (``set(...)``, a set literal,
  a set comprehension) in a ``for`` statement or list/generator
  comprehension: set iteration order varies with hash seeding, so anything
  that flows into a result must be ``sorted(...)`` first.
* **DET002** — unseeded module-level RNG calls (``random.random()``,
  ``np.random.shuffle``): results must draw from an explicitly seeded
  generator (``np.random.default_rng(seed)`` / ``random.Random(seed)``).
* **DET003** — wall-clock reads (``time.time()``, ``datetime.now()``) in
  result-producing code; timings belong in job metadata, not payloads.
* **DET004** — dict/set comprehensions whose iterable is a set expression
  or a ``.keys() | ...`` union: they silently re-order ordered inputs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import Project, RawFinding, Rule

__all__ = ["RULES"]

#: Modules whose outputs land in result payloads.  Matched by relpath suffix
#: (or ``stats/`` segment) so fixture trees can opt in with the same names.
_SCOPE_SUFFIXES = (
    "frame/kernels.py",
    "ml/kernel.py",
    "scenarios/kernel.py",
    "scenarios/planner.py",
    "scenarios/space.py",
    "core/sensitivity.py",
    "core/session.py",
    "core/driver_importance.py",
    "core/goal_inversion.py",
    "core/model_comparison.py",
    "core/constrained.py",
    "engine/process.py",
)

#: ``np.random`` constructors that carry an explicit seed (allowed).
_SEEDED_CONSTRUCTORS = {"default_rng", "Generator", "SeedSequence", "RandomState", "Random"}


def _in_scope(relpath: str) -> bool:
    return relpath.endswith(_SCOPE_SUFFIXES) or "stats/" in relpath


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` syntactically builds a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_keys_union(node: ast.expr) -> bool:
    """``a.keys() | b.keys()``-style unions (set-typed, unordered)."""
    if not isinstance(node, ast.BinOp) or not isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return False

    def keys_call(expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
        ) or _is_set_expr(expr)

    return keys_call(node.left) or keys_call(node.right)


def check_det001(project: Project) -> Iterable[RawFinding]:
    """Iteration over set values in result-producing modules."""
    for module in project.modules:
        if not _in_scope(module.relpath):
            continue
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if _is_set_expr(candidate) or _is_keys_union(candidate):
                    yield (
                        module.relpath,
                        candidate.lineno,
                        f"iterating '{ast.unparse(candidate)}': set order depends on "
                        "hash seeding; wrap in sorted(...) before it reaches a result",
                    )


def check_det002(project: Project) -> Iterable[RawFinding]:
    """Unseeded module-level RNG calls in result-producing modules."""
    for module in project.modules:
        if not _in_scope(module.relpath):
            continue
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = ast.unparse(node.func.value)
            if receiver in ("random", "np.random", "numpy.random") and (
                node.func.attr not in _SEEDED_CONSTRUCTORS
            ):
                yield (
                    module.relpath,
                    node.lineno,
                    f"unseeded global RNG call '{receiver}.{node.func.attr}': draw "
                    "from an explicitly seeded np.random.default_rng(seed) / "
                    "random.Random(seed) instead",
                )


def check_det003(project: Project) -> Iterable[RawFinding]:
    """Wall-clock reads inside result-producing modules."""
    for module in project.modules:
        if not _in_scope(module.relpath):
            continue
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            text = ast.unparse(node.func)
            if text in ("time.time", "datetime.now", "datetime.utcnow", "datetime.datetime.now"):
                yield (
                    module.relpath,
                    node.lineno,
                    f"wall-clock read '{text}()' in a result-producing module: "
                    "timestamps belong in job/event metadata, not result payloads",
                )


def check_det004(project: Project) -> Iterable[RawFinding]:
    """Dict/set comprehensions that re-order ordered inputs via sets."""
    for module in project.modules:
        if not _in_scope(module.relpath):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.DictComp, ast.SetComp)):
                continue
            for gen in node.generators:
                if _is_set_expr(gen.iter) or _is_keys_union(gen.iter):
                    kind = "dict" if isinstance(node, ast.DictComp) else "set"
                    yield (
                        module.relpath,
                        gen.iter.lineno,
                        f"{kind} comprehension over '{ast.unparse(gen.iter)}' re-orders "
                        "its input nondeterministically; iterate a sorted(...) view",
                    )


RULES = [
    Rule("DET001", "error", "iteration over a set in result-producing code", check_det001),
    Rule("DET002", "error", "unseeded global RNG call", check_det002),
    Rule("DET003", "warning", "wall-clock read in result-producing code", check_det003),
    Rule("DET004", "error", "comprehension re-orders input through a set", check_det004),
]
