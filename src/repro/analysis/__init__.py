"""repro.analysis -- project-invariant static checker.

An AST-based checker that encodes this repository's non-negotiables as
executable rules: the simulated-clock determinism contract (no wall
clock or hidden-global RNG under ``serve/``), the event-loop contract
(no awaits under a held lock, no blocking calls in coroutines, no
dropped coroutines), exception hygiene around sockets and futures, and
metrics schema drift against the README glossary and a committed
version baseline.

Run it with ``python -m repro.analysis [paths]`` (defaults to
``src tests``); suppress a deliberate exception per-line with
``# repro: allow-<rule> -- reason``.  See the README's
"Static analysis" section for the rule table.
"""

from __future__ import annotations

from .config import AnalysisConfig
from .engine import AnalysisResult, Analyzer, analyze
from .findings import Finding
from .registry import registered_rules

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "analyze",
    "registered_rules",
]
