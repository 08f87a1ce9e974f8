"""Parameter-taint dataflow for the P1 purity rule.

The vector backend reuses a per-entity unit's *previous output
object* verbatim whenever its inputs did not change; that is only
sound if the unit never mutates its arguments (or anything reachable
from them).  This module answers "could this expression alias a
parameter?" with a deliberately conservative, flow-insensitive
dataflow:

- every parameter (including ``self``) is a tainted root;
- assignment from a tainted name / attribute chain / subscript
  propagates taint to the target (tuple targets included);
- ``for``/``with``/walrus targets over tainted sources are tainted;
- results of *alias-returning* methods (``get``, ``keys``, ``values``,
  ``items``, ``setdefault``) on tainted roots stay tainted; any other
  call breaks the chain (``sorted``, ``list``, ``dict(...)`` and
  friends return fresh objects).

Taint is never killed on rebind -- a name that was ever tainted stays
tainted -- which can over-approximate; the escape hatch is an explicit
``# lint: ignore[P1]`` with a rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

__all__ = ["MUTATING_METHODS", "ALIAS_METHODS", "ParamTaint", "mutation_sites"]

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "difference_update",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "intersection_update",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "symmetric_difference_update",
        "update",
        "write",
        "writelines",
    }
)

#: Methods whose return value aliases (part of) their receiver.
ALIAS_METHODS = frozenset({"get", "items", "keys", "setdefault", "values"})


class ParamTaint:
    """Which local names may alias a parameter of ``func``."""

    def __init__(self, func: ast.FunctionDef) -> None:
        self._func = func
        self.tainted: Set[str] = {
            arg.arg
            for arg in (
                list(func.args.posonlyargs)
                + list(func.args.args)
                + list(func.args.kwonlyargs)
                + ([func.args.vararg] if func.args.vararg else [])
                + ([func.args.kwarg] if func.args.kwarg else [])
            )
        }
        self._propagate()

    # ------------------------------------------------------------------

    def root(self, node: ast.AST) -> Optional[str]:
        """The tainted root name of an expression, if any.

        Walks down attribute/subscript chains and through
        alias-returning method calls; any other call breaks the chain.
        """
        if isinstance(node, ast.Name):
            return node.id if node.id in self.tainted else None
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self.root(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ALIAS_METHODS:
                return self.root(func.value)
            return None
        if isinstance(node, ast.IfExp):
            return self.root(node.body) or self.root(node.orelse)
        if isinstance(node, ast.NamedExpr):
            return self.root(node.value)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                rooted = self.root(value)
                if rooted is not None:
                    return rooted
        return None

    # ------------------------------------------------------------------

    def _propagate(self) -> None:
        """Flow-insensitive fixpoint over binding statements."""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(self._func):
                sources: Tuple[Tuple[ast.AST, ast.AST], ...] = ()
                if isinstance(node, ast.Assign):
                    sources = tuple((target, node.value) for target in node.targets)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    sources = ((node.target, node.value),)
                elif isinstance(node, ast.AugAssign):
                    sources = ((node.target, node.value),)
                elif isinstance(node, ast.NamedExpr):
                    sources = ((node.target, node.value),)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    sources = ((node.target, node.iter),)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    sources = tuple(
                        (item.optional_vars, item.context_expr)
                        for item in node.items
                        if item.optional_vars is not None
                    )
                for target, value in sources:
                    if self.root(value) is None:
                        continue
                    for name in _target_names(target):
                        if name not in self.tainted:
                            self.tainted.add(name)
                            changed = True


def _target_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment target (tuples flattened)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    # Attribute/Subscript targets bind no new *name*; the store itself
    # is what mutation_sites() reports.


def mutation_sites(func: ast.FunctionDef) -> Iterator[Tuple[ast.AST, str, str]]:
    """Every statement in ``func`` that mutates a parameter alias.

    Yields ``(node, root_name, description)`` per violation:
    attribute/subscript stores, ``del`` on attribute/subscript, and
    in-place mutating method calls whose receiver aliases a parameter.
    Nested function/lambda bodies are included -- a closure that
    mutates a captured parameter is just as impure.
    """
    taint = ParamTaint(func)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = taint.root(target.value)
                    if root is not None:
                        kind = (
                            "attribute" if isinstance(target, ast.Attribute) else "subscript"
                        )
                        yield node, root, f"{kind} assignment on {root!r}"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = taint.root(target.value)
                    if root is not None:
                        yield node, root, f"del on value derived from {root!r}"
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in MUTATING_METHODS
            ):
                root = taint.root(func_expr.value)
                if root is not None:
                    yield (
                        node,
                        root,
                        f"mutating call .{func_expr.attr}() on value derived from {root!r}",
                    )
