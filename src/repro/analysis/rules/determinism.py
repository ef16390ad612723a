"""Determinism rules: the simulated-clock contract.

The serving stack replays identically because nothing under
``serve/`` consults the wall clock or an unseeded RNG: time advances
only through the simulated clock, and every stochastic choice flows
from an explicitly seeded generator.  ``time.perf_counter`` is the one
sanctioned wall-clock API -- it measures compile stalls for the
observability track and never steers control flow.

The ``repro.obs`` wall track is exempt by scope (measuring wall time
is its job), as is the ``serve/http`` gateway zone (real sockets are
wall-bound by nature; the simulated-clock contract resumes at the
backends it submits into).  Everywhere else under ``serve/`` the rule
holds without exception: no line there carries a
``# repro: allow-wall-clock`` pragma.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar

from ..registry import ModuleRule, register
from ._names import ImportTracker

if TYPE_CHECKING:
    from ..engine import ModuleInfo, WalkContext

__all__ = ["WallClockRule", "UnseededRandomRule"]

#: Call targets that read or wait on the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level ``random`` functions that draw from the hidden global RNG.
_GLOBAL_RANDOM_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.triangular",
        "random.getrandbits",
        "random.randbytes",
    }
)

#: ``numpy.random`` legacy global-state functions.
_NUMPY_GLOBAL_PREFIX = "numpy.random."
_NUMPY_GLOBAL_ALLOWED = frozenset({"numpy.random.default_rng"})


class _ImportAwareRule(ModuleRule):
    """ModuleRule + an ImportTracker fed by the shared walk."""

    def begin(self, module: "ModuleInfo") -> None:
        super().begin(module)
        self.imports = ImportTracker()

    def visit_Import(self, node: ast.Import, ctx: "WalkContext") -> None:
        self.imports.record_import(node)

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: "WalkContext") -> None:
        self.imports.record_import_from(node)


@register
class WallClockRule(_ImportAwareRule):
    """No wall-clock reads or sleeps in simulated-clock serving code."""

    name: ClassVar[str] = "wall-clock"
    description: ClassVar[str] = (
        "serve/ runs on the simulated clock: no time.time/sleep/monotonic, "
        "no datetime.now, no nonzero asyncio.sleep (perf_counter is the "
        "sanctioned stall-measurement exception)"
    )
    category: ClassVar[str] = "determinism"
    scope: ClassVar[tuple[str, ...]] = ("*/serve/*",)
    #: ``serve/http`` is the sanctioned wall-clock zone: the gateway
    #: fronts real sockets (its loopback tests sleep real time for
    #: slow-reader backpressure), so the simulated-clock contract stops
    #: at its edge -- the backends it submits into stay in scope.
    allow: ClassVar[tuple[str, ...]] = ("*/obs/*", "*/serve/http/*")

    def visit_Call(self, node: ast.Call, ctx: "WalkContext") -> None:
        target = self.imports.resolve(node.func)
        if target is None:
            return
        if target in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"{target}() reads/waits on the wall clock; serve/ code "
                f"must use the simulated clock (time.perf_counter is the "
                f"sanctioned measurement exception)",
            )
        elif target == "asyncio.sleep" and self._nonzero_constant(node):
            self.report(
                node,
                "asyncio.sleep() with a nonzero delay stalls on wall time; "
                "advance the simulated clock instead (asyncio.sleep(0) "
                "yield points are fine)",
            )

    @staticmethod
    def _nonzero_constant(node: ast.Call) -> bool:
        if not node.args:
            return False
        arg = node.args[0]
        return isinstance(arg, ast.Constant) and bool(arg.value)


@register
class UnseededRandomRule(_ImportAwareRule):
    """Every stochastic choice must come from an explicitly seeded RNG."""

    name: ClassVar[str] = "unseeded-random"
    description: ClassVar[str] = (
        "no hidden-global RNG draws in serve/: use random.Random(seed) / "
        "numpy.random.default_rng(seed) instances"
    )
    category: ClassVar[str] = "determinism"
    scope: ClassVar[tuple[str, ...]] = ("*/serve/*",)
    allow: ClassVar[tuple[str, ...]] = ("*/obs/*",)

    def visit_Call(self, node: ast.Call, ctx: "WalkContext") -> None:
        target = self.imports.resolve(node.func)
        if target is None:
            return
        if target in _GLOBAL_RANDOM_CALLS:
            self.report(
                node,
                f"{target}() draws from the hidden global RNG; use an "
                f"explicitly seeded random.Random(seed) instance",
            )
        elif target in ("random.Random", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                self.report(
                    node,
                    f"{target}() without a seed is wall-entropy-seeded; "
                    f"pass an explicit seed",
                )
        elif (
            target.startswith(_NUMPY_GLOBAL_PREFIX)
            and target not in _NUMPY_GLOBAL_ALLOWED
        ):
            self.report(
                node,
                f"{target}() uses numpy's global RNG state; use "
                f"numpy.random.default_rng(seed)",
            )
