"""Lexical scope and lock-context resolution over parent-linked ASTs.

The lock-discipline rule needs one question answered per attribute
access: *which ``self.<lock>`` locks are held here?*  With parent links
installed by the walker this is a walk up the ancestor chain collecting
``with self.<lock>:`` items, stopping at the enclosing function boundary
(a nested function does not inherit the caller's lexical lock context —
it may run on another thread, so claiming its definer's locks would be
unsound).
"""

from __future__ import annotations

import ast
from typing import Iterator

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The parent chain of a node, nearest first."""
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


def enclosing_function(node: ast.AST) -> FunctionNode | None:
    """The nearest function/method the node's code runs in."""
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
    return None


def _self_locks_of_with(stmt: ast.With | ast.AsyncWith) -> Iterator[str]:
    for item in stmt.items:
        expr = item.context_expr
        # `with self._lock:` — the canonical guard shape.  A lock reached
        # through a helper (`with self._lock_for(x):`) is not recognized;
        # the rule wants guards to be grep-ably simple.
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            yield expr.attr


def locks_held_at(node: ast.AST) -> frozenset[str]:
    """Names of ``self.<lock>`` attributes locked around ``node``.

    Walks ancestors up to (not past) the enclosing function: a lock taken
    by a *caller* is a dynamic fact, and a lock taken in a function that
    merely lexically contains this one is not held on this code path's
    thread by construction.
    """
    held: set[str] = set()
    for parent in ancestors(node):
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            held.update(_self_locks_of_with(parent))
        elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return frozenset(held)


def is_self_attribute(node: ast.AST, name: str | None = None) -> bool:
    """Whether ``node`` is ``self.<name>`` (any attribute when name is None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (name is None or node.attr == name)
    )
