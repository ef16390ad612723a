"""Exception-hygiene rules for the serving stack.

The failure-handling contract is that worker crashes surface as
*events* -- ``WorkerCrashed``, failover traces, metrics counters --
never as silently absorbed exceptions.  A swallowed exception around
socket I/O or future resolution turns a crash into a hang: the
request's future is never resolved and the client waits forever.
Deliberate best-effort swallows (the gateway closing a connection its
client already reset) carry ``# repro: allow-swallowed-exception``
pragmas.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar

from ..registry import ModuleRule, register

if TYPE_CHECKING:
    from ..engine import WalkContext

__all__ = ["BareExceptRule", "SwallowedExceptionRule"]

_BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _handler_types(node: ast.ExceptHandler) -> list[str]:
    """Dotted names of the caught exception types (empty for bare)."""
    if node.type is None:
        return []
    exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    names: list[str] = []
    for expr in exprs:
        try:
            names.append(ast.unparse(expr))
        except Exception:  # pragma: no cover - unparse is total on exprs
            names.append("<?>")
    return names


def _body_is_trivial(body: list[ast.stmt]) -> bool:
    """Only pass/continue/``...`` -- nothing observable happens."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


@register
class BareExceptRule(ModuleRule):
    """``except:`` catches SystemExit/KeyboardInterrupt too -- never."""

    name: ClassVar[str] = "bare-except"
    description: ClassVar[str] = (
        "bare except: also catches KeyboardInterrupt/SystemExit; name "
        "the exception types (Exception at the broadest)"
    )
    category: ClassVar[str] = "exception-hygiene"
    scope: ClassVar[tuple[str, ...]] = ("*/serve/*",)

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: "WalkContext") -> None:
        if node.type is None:
            self.report(
                node,
                "bare except: swallows KeyboardInterrupt and SystemExit; "
                "catch named exception types instead",
            )


@register
class SwallowedExceptionRule(ModuleRule):
    """Exceptions must surface as events, not vanish.

    Two shapes are flagged: a handler whose body does nothing
    observable (only ``pass``/``continue``/``...``), and a broad
    ``except Exception`` that neither uses the bound exception nor
    re-raises -- the error is caught and then ignored.
    """

    name: ClassVar[str] = "swallowed-exception"
    description: ClassVar[str] = (
        "an except around socket/future handling that neither uses the "
        "exception nor re-raises turns crashes into hangs"
    )
    category: ClassVar[str] = "exception-hygiene"
    scope: ClassVar[tuple[str, ...]] = ("*/serve/*",)

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: "WalkContext") -> None:
        types = _handler_types(node)
        if node.type is not None and _body_is_trivial(node.body):
            caught = ", ".join(types)
            self.report(
                node,
                f"except ({caught}) silently discards the exception; "
                f"resolve the affected future / emit a trace event, or "
                f"pragma the deliberate teardown swallow",
            )
            return
        if not any(t in _BROAD_TYPES for t in types):
            return
        if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
            return
        if node.name is not None and self._name_used(node, node.name):
            return
        if node.name is None and not _body_is_trivial(node.body):
            # Broad catch with real handling but no bound name: the
            # handler acts (logs a counter, resolves a future) without
            # inspecting the exception.  Tolerated.
            return
        self.report(
            node,
            "broad except Exception neither uses the exception nor "
            "re-raises; surface the failure (resolve futures, count it, "
            "trace it) or narrow the catch",
        )

    @staticmethod
    def _name_used(handler: ast.ExceptHandler, name: str) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == name
            for stmt in handler.body
            for n in ast.walk(stmt)
        )
