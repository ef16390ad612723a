"""Rule base classes and the registry the engine dispatches from.

Rules come in two shapes:

* :class:`ModuleRule` -- per-module AST visitors.  The engine walks
  each module's tree exactly once and dispatches every node to each
  applicable rule's ``visit_<NodeType>`` method, passing a shared
  :class:`~repro.analysis.engine.WalkContext` (function nesting,
  held locks) so rules don't re-derive structural state.
* :class:`ProjectRule` -- cross-artifact checks that see the whole
  module set (and may read non-Python artifacts like the README or a
  committed baseline).  Schema-drift detection lives here.

Registration is declarative: decorate the class with :func:`register`.
Scoping is path-based: ``scope`` globs say where the rule applies,
``allow`` globs carve out the sanctioned exceptions (the issue's
"wall-clock track" allowlist).  Globs match the root-relative POSIX
path; a leading ``*/`` segment also matches at the root, so
``*/serve/*`` covers ``src/repro/serve/x.py``, ``tests/serve/x.py``
and a bare ``serve/x.py`` fixture tree alike.
"""

from __future__ import annotations

import re
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Callable, ClassVar, TypeVar

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import ast

    from .config import AnalysisConfig
    from .engine import ModuleInfo, WalkContext

__all__ = [
    "BaseRule",
    "ModuleRule",
    "ProjectRule",
    "register",
    "registered_rules",
]

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

#: name -> rule class, in registration order.
_RULES: dict[str, type["BaseRule"]] = {}

_R = TypeVar("_R", bound=type["BaseRule"])


def register(cls: _R) -> _R:
    """Class decorator: add a rule to the registry (names are unique)."""
    name = cls.name
    if not _NAME_RE.match(name):
        raise ValueError(f"rule name {name!r} must be kebab-case")
    if name in _RULES:
        raise ValueError(f"duplicate rule name {name!r}")
    _RULES[name] = cls
    return cls


def registered_rules() -> dict[str, type["BaseRule"]]:
    """All registered rules, keyed by name (registration order)."""
    # Importing the rules package populates the registry on first use.
    from . import rules as _rules  # noqa: F401

    return dict(_RULES)


def path_matches(rel: str, patterns: tuple[str, ...]) -> bool:
    """Does the root-relative path match any glob?

    ``fnmatch`` with one extra affordance: the path is also tried with
    a dummy leading segment, so ``*/serve/*`` matches a tree whose
    ``serve/`` directory sits at the analysis root (fixture trees).
    """
    return any(
        fnmatch(rel, pattern) or fnmatch("x/" + rel, pattern)
        for pattern in patterns
    )


class BaseRule:
    """Shared identity/scoping surface of module and project rules."""

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    category: ClassVar[str] = ""
    #: Globs the rule applies to (root-relative POSIX paths).
    scope: ClassVar[tuple[str, ...]] = ("*",)
    #: Globs carved out of ``scope`` -- the sanctioned exceptions.
    allow: ClassVar[tuple[str, ...]] = ()

    def __init__(self, config: "AnalysisConfig") -> None:
        self.config = config
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, rel: str) -> bool:
        if not path_matches(rel, cls.scope):
            return False
        return not path_matches(rel, cls.allow)


class ModuleRule(BaseRule):
    """Per-module AST visitor rule.

    The engine creates one instance per (rule, module), calls
    :meth:`begin` with the module, dispatches ``visit_<NodeType>``
    methods during its single walk, then :meth:`finish`, and collects
    ``self.findings``.
    """

    def __init__(self, config: "AnalysisConfig") -> None:
        super().__init__(config)
        self.module: "ModuleInfo | None" = None

    def begin(self, module: "ModuleInfo") -> None:
        self.module = module

    def finish(self) -> None:
        """Module walk complete; emit any whole-module findings."""

    def report(self, node: "ast.AST", message: str) -> None:
        """File one finding anchored at ``node``."""
        assert self.module is not None
        self.findings.append(
            Finding(
                path=self.module.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=self.name,
                message=message,
            )
        )


class ProjectRule(BaseRule):
    """Cross-artifact rule: sees every analyzed module at once."""

    def check(self, modules: "list[ModuleInfo]") -> list[Finding]:
        raise NotImplementedError


#: Visitor method resolver, shared by the engine's dispatch loop.
def visitor_for(
    rule: ModuleRule, node: "ast.AST"
) -> Callable[["ast.AST", "WalkContext"], None] | None:
    return getattr(rule, "visit_" + type(node).__name__, None)
