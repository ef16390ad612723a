"""The project-invariant rule set.

Importing this package registers every rule (the registry imports it
lazily on first use).  Each module groups one invariant family:

* :mod:`.determinism` -- the simulated-clock contract (no wall clock,
  no unseeded randomness in serving code).
* :mod:`.async_safety` -- the event-loop contract (no awaits under a
  held lock, no blocking calls in coroutines, no dropped coroutines).
* :mod:`.exceptions` -- exception hygiene around sockets and futures.
* :mod:`.schema` -- metrics schema drift vs the README glossary and
  the committed version baseline.
"""

from __future__ import annotations

from . import async_safety, determinism, exceptions, schema

__all__ = ["async_safety", "determinism", "exceptions", "schema"]
