"""Per-line suppression pragmas: ``# repro: allow-<rule>``.

A finding is suppressed when the physical line it anchors to (the AST
node's ``lineno``) carries a pragma naming its rule.  Multiple rules
may be allowed on one line (comma- or space-separated), and everything
after ``--`` is a free-form reason for the human reader:

    except (ConnectionError, OSError):  # repro: allow-swallowed-exception -- closing an already-reset transport

The pragma grammar is deliberately strict: every token must be
``allow-<rule-name>``.  A token naming a rule the registry does not
know is an *error* (the ``unknown-pragma`` pseudo-rule), not a silent
no-op -- a typoed pragma that silently failed to suppress would be
worse than no pragma at all.  A pragma whose rule produces no finding
on its line is *stale*; ``--strict`` reports those (``stale-pragma``)
so suppressions cannot outlive the violation they excused.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

__all__ = ["Pragma", "collect_pragmas"]

#: Comment shape that makes a line a pragma line at all.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*(?P<body>.*)$")

#: One well-formed pragma token.
_ALLOW_RE = re.compile(r"^allow-(?P<rule>[a-z0-9][a-z0-9-]*)$")


@dataclass(frozen=True)
class Pragma:
    """The pragmas of one physical source line.

    ``rules`` holds the well-formed ``allow-<rule>`` names; ``bad_tokens``
    holds any token that did not parse (reported as ``unknown-pragma``).
    """

    line: int
    rules: tuple[str, ...]
    bad_tokens: tuple[str, ...]
    comment: str


def _parse_body(line: int, body: str, comment: str) -> Pragma:
    reason_split = body.split("--", 1)
    tokens = [t for t in re.split(r"[,\s]+", reason_split[0].strip()) if t]
    rules: list[str] = []
    bad: list[str] = []
    for token in tokens:
        match = _ALLOW_RE.match(token)
        if match is None:
            bad.append(token)
        else:
            rules.append(match.group("rule"))
    return Pragma(
        line=line,
        rules=tuple(rules),
        bad_tokens=tuple(bad),
        comment=comment,
    )


def collect_pragmas(source: str) -> dict[int, Pragma]:
    """Every ``# repro:`` pragma in ``source``, keyed by physical line.

    Tokenization errors are swallowed deliberately: the caller already
    ``ast.parse``-d the module, so anything tokenize still rejects is a
    pathological edge the pragma layer should degrade on (no pragmas)
    rather than crash the whole analysis over.
    """
    pragmas: dict[int, Pragma] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        pragmas[line] = _parse_body(line, match.group("body"), token.string)
    return pragmas
