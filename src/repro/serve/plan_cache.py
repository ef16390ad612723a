"""Compiled-plan memoization for the serving layer.

Planning a model (fusion walk, dataflow assignment, tile autotuning, cost
assembly) is the expensive half of pricing it -- tens of milliseconds per
(model, backend, batch) combination, against microseconds to re-price an
existing :class:`~repro.nn.engine.CompiledPlan`.  A serving process sees
the same handful of combinations millions of times, so the cache keys
plans by exactly what varies in real use (:class:`PlanKey`):

* model name and input shape,
* backend identity *including* the precision configuration (a mixed
  per-layer override produces a different key than the uniform pair),
* device, and
* batch size.

Every engine prices with the one fitted calibration, so it is not part
of the key.  The engine computes its fixed part -- model, backend key,
device -- once (:attr:`~repro.nn.engine.InferenceEngine.plan_identity`);
:meth:`PlanCache.key_for` adds only the batch and shape.

Eviction is LRU with a configurable capacity; every lookup updates the
hit/miss counters the metrics layer reports.

Cold starts are handled by two mechanisms on top of the LRU memo:

* :meth:`PlanCache.ensure_async` compiles a missing key in a thread
  executor with **single-flight deduplication** -- N coroutines racing
  on one cold key trigger exactly one ``engine.compile()``; the rest
  await the same in-flight future.  The event loop keeps scheduling
  other work (submissions, warm dispatches) for the whole compile.
* :class:`PlanCacheStore` persists every compiled plan (and its priced
  total) as JSON lines under a cache directory.  A cache constructed
  over a populated store starts warm: a restarted server replans
  nothing.  Records carry a schema version, so a stale cache file from
  an older layout degrades to a cold start instead of corrupt plans.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..nn.engine import CompiledPlan, InferenceEngine
from ..obs import NULL_TRACER

__all__ = [
    "PlanKey",
    "PlanCacheStats",
    "PlanCache",
    "PlanCacheStore",
    "STORE_SCHEMA_VERSION",
]

#: Schema version stamped on every persisted plan record.  Bump when the
#: serialized layout of :class:`~repro.nn.engine.CompiledPlan` or
#: :class:`PlanKey` changes; loads skip records from any other version.
#:
#: v2 added the kernel backend to plan identity; v3 removed it again,
#: because pricing never runs a kernel, so a plan does not depend on it.
#: v4 removed the calibration from :class:`PlanKey` and each dataflow
#: group's copy of its GEMM precision.
STORE_SCHEMA_VERSION = 4

#: File name of the JSON-lines store inside its cache directory.
STORE_FILENAME = "plans.jsonl"


@dataclass(frozen=True)
class PlanKey:
    """Identity of one compiled plan and its priced total."""

    model: str
    backend: str
    device: str
    batch: int
    input_shape: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (tuples flatten to arrays)."""
        return {
            "model": self.model,
            "backend": self.backend,
            "device": self.device,
            "batch": self.batch,
            "input_shape": list(self.input_shape),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanKey":
        return cls(
            model=data["model"],
            backend=data["backend"],
            device=data["device"],
            batch=data["batch"],
            input_shape=tuple(data["input_shape"]),
        )


@dataclass(frozen=True)
class PlanCacheStats:
    """Lookup counters since construction (or the last ``clear()``).

    Beyond the LRU's hit/miss/eviction accounting, the cold-start fields
    say where plans came from and what they cost to make:

    * ``compiles`` -- ``engine.compile()`` calls the cache performed;
      ``inloop_compiles`` of them ran synchronously on the caller's
      thread (the event-loop stall the async path exists to avoid),
      the rest in an executor via :meth:`PlanCache.ensure_async`.
    * ``coalesced`` -- async callers that found their key already
      in flight and waited on the single compile instead of planning.
    * ``persisted_entries`` -- plans loaded from the store at
      construction; ``persisted_hits`` -- lookups those plans served.
    * ``compile_us`` -- total wall-clock microseconds spent compiling.
    * ``store_recovered_lines`` -- damaged store lines (torn appends,
      corrupt bytes) the construction-time load skipped and survived.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    compiles: int = 0
    inloop_compiles: int = 0
    coalesced: int = 0
    persisted_entries: int = 0
    persisted_hits: int = 0
    compile_us: float = 0.0
    store_recovered_lines: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def offloaded_compiles(self) -> int:
        """Compiles that ran in an executor, off the event loop."""
        return self.compiles - self.inloop_compiles


class PlanCacheStore:
    """Append-only JSON-lines persistence for compiled plans.

    One line per ``(PlanKey, CompiledPlan, priced total)``; the cache
    appends on every miss and loads the whole file on construction, so a
    restarted server starts with yesterday's plans already warm.  Loading
    is defensive: records whose schema version differs from
    :data:`STORE_SCHEMA_VERSION`, truncated lines, malformed JSON, and
    undecodable bytes are all skipped (a stale or damaged cache degrades
    to recompilation, never to a corrupt plan).  Damage is the expected
    failure mode of this file -- a worker killed mid-append leaves a
    truncated trailing line, and concurrent multi-process appends can
    tear -- so every *damaged* line skipped by the most recent
    :meth:`load` is counted in :attr:`recovered_lines` (stale-but-intact
    schema versions are a planned migration path, not damage, and are
    not counted).  Duplicate keys keep the newest record.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.path = self.cache_dir / STORE_FILENAME
        #: Damaged lines the most recent :meth:`load` skipped (torn
        #: appends, corrupt bytes); the metrics layer surfaces this as
        #: ``store_recovered_lines``.
        self.recovered_lines = 0

    def load(self) -> OrderedDict[PlanKey, tuple[CompiledPlan, float]]:
        """Every valid persisted record, oldest first (last write wins)."""
        entries: OrderedDict[PlanKey, tuple[CompiledPlan, float]] = (
            OrderedDict()
        )
        recovered = 0
        if not self.path.exists():
            self.recovered_lines = 0
            return entries
        # Binary read: a corrupt line with invalid UTF-8 must damage only
        # itself, not raise out of the file iterator and take the whole
        # (otherwise intact) store down with it.
        with self.path.open("rb") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    recovered += 1  # torn append / corrupt bytes
                    continue
                if not isinstance(record, dict):
                    recovered += 1
                    continue
                if record.get("version") != STORE_SCHEMA_VERSION:
                    continue  # planned schema migration, not damage
                try:
                    key = PlanKey.from_dict(record["key"])
                    plan = CompiledPlan.from_dict(record["plan"])
                    total = float(record["total_us"])
                except (KeyError, TypeError, ValueError):
                    recovered += 1  # structurally damaged record
                    continue
                entries[key] = (plan, total)
                entries.move_to_end(key)
        self.recovered_lines = recovered
        return entries

    def append(
        self, key: PlanKey, plan: CompiledPlan, total_us: float
    ) -> None:
        """Persist one freshly compiled plan (creates the dir lazily)."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "version": STORE_SCHEMA_VERSION,
            "key": key.to_dict(),
            "total_us": total_us,
            "plan": plan.to_dict(),
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def __len__(self) -> int:
        return len(self.load())


class PlanCache:
    """LRU cache of :class:`CompiledPlan` objects plus their priced totals.

    ``get`` compiles through the supplied engine on a miss; ``total_us``
    additionally memoizes the plan priced with the engine's own latency
    model, which is the hot call of the dynamic batcher's sweep.  Both are
    synchronous and stall their caller on a cold key; the serving layer
    avoids that with :meth:`missing_batches` + :meth:`ensure_async`, which
    compile off-thread with single-flight deduplication.  Constructing the
    cache over a :class:`PlanCacheStore` preloads every persisted plan and
    appends each new compile, so plans survive process restarts.
    """

    def __init__(
        self,
        max_entries: int = 256,
        store: PlanCacheStore | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        #: Observability hook (the server installs its tracer here).
        #: Compiles are wall-clock work on executor threads, so they
        #: trace as wall-track spans, never simulated time.
        self.tracer = NULL_TRACER
        self._plans: OrderedDict[PlanKey, tuple[CompiledPlan, float]] = (
            OrderedDict()
        )
        # Single-flight registry: PlanKey -> future of the one in-flight
        # compile.  Entries never outlive their ensure_async call.
        self._inflight: dict[PlanKey, asyncio.Future] = {}
        # Keys whose cached entry came from the persistent store.
        self._persisted: set[PlanKey] = set()
        # _compile runs on executor threads; timing counters take a lock.
        self._timing_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compiles = 0
        self._inloop_compiles = 0
        self._coalesced = 0
        self._persisted_entries = 0
        self._persisted_hits = 0
        self._compile_us = 0.0
        self._store_recovered_lines = 0
        if store is not None:
            for key, entry in store.load().items():
                self._plans[key] = entry
                self._persisted.add(key)
            while len(self._plans) > self.max_entries:
                evicted, _ = self._plans.popitem(last=False)
                self._persisted.discard(evicted)
            self._persisted_entries = len(self._persisted)
            self._store_recovered_lines = store.recovered_lines

    # ------------------------------------------------------------------
    def key_for(
        self,
        engine: InferenceEngine,
        batch: int,
        input_shape: tuple[int, ...],
    ) -> PlanKey:
        return PlanKey(*engine.plan_identity, batch, tuple(input_shape))

    def get(
        self,
        engine: InferenceEngine,
        batch: int,
        input_shape: tuple[int, ...] = (3, 224, 224),
    ) -> CompiledPlan:
        """Cached compiled plan for (engine's model/backend/device, batch)."""
        return self._lookup(engine, batch, input_shape)[0]

    def total_us(
        self,
        engine: InferenceEngine,
        batch: int,
        input_shape: tuple[int, ...] = (3, 224, 224),
    ) -> float:
        """Cached end-to-end modeled latency of the plan, in microseconds."""
        return self._lookup(engine, batch, input_shape)[1]

    def peek_total_us(
        self,
        engine: InferenceEngine,
        batch: int,
        input_shape: tuple[int, ...] = (3, 224, 224),
    ) -> float | None:
        """The priced total if (and only if) the key is already warm.

        A pure read: no compile, no LRU reorder, no counter churn.  The
        placement layer's rebalance decisions run under the server's
        condition lock, where a synchronous compile would stall the
        event loop -- cold models simply skip that epoch instead.
        """
        entry = self._plans.get(self.key_for(engine, batch, input_shape))
        return None if entry is None else entry[1]

    def peek_plan(
        self,
        engine: InferenceEngine,
        batch: int,
        input_shape: tuple[int, ...] = (3, 224, 224),
    ) -> CompiledPlan | None:
        """The compiled plan if (and only if) the key is already warm.

        Same pure-read contract as :meth:`peek_total_us`: no compile, no
        LRU reorder, no counter churn.  The tracing layer reads warm
        plans through here so a traced run's cache statistics stay
        byte-identical to an untraced one.
        """
        entry = self._plans.get(self.key_for(engine, batch, input_shape))
        return None if entry is None else entry[0]

    def _lookup(self, engine, batch, input_shape):
        key = self.key_for(engine, batch, input_shape)
        entry = self._plans.get(key)
        if entry is not None:
            self._hits += 1
            if key in self._persisted:
                self._persisted_hits += 1
            self._plans.move_to_end(key)
            return entry
        self._misses += 1
        plan, total = self._compile(key, engine, batch, input_shape, True)
        self._insert(key, plan, total)
        return plan, total

    def _compile(self, key, engine, batch, input_shape, inloop):
        """Plan + price one cache miss (the overridable test seam).

        Runs on the caller's thread for synchronous misses
        (``inloop=True`` -- the event-loop stall the async path exists
        to avoid) or on an executor thread (``inloop=False``).  Only
        timing counters are touched here; cache structures are mutated
        by the caller on the event-loop thread.
        """
        t0 = time.perf_counter()
        plan = engine.compile(batch, tuple(input_shape))
        total = plan.price(engine.latency_model).total_us
        t1 = time.perf_counter()
        elapsed_us = (t1 - t0) * 1e6
        with self._timing_lock:
            self._compiles += 1
            if inloop:
                self._inloop_compiles += 1
            self._compile_us += elapsed_us
        if self.tracer.enabled:
            # Tracer appends are thread-safe; executor compiles land as
            # they finish on the wall-clock track.
            self.tracer.span(
                f"plan-compile:{key.model}", "compile",
                t0 * 1e6, t1 * 1e6,
                track="wall", lane="plan-compile",
                model=key.model, backend=key.backend, batch=batch,
                in_loop=inloop, priced_total_us=total,
            )
        return plan, total

    def _insert(self, key, plan, total, persist=True):
        self._plans[key] = (plan, total)
        self._persisted.discard(key)  # a fresh compile supersedes the store
        if persist and self.store is not None:
            self.store.append(key, plan, total)
        if len(self._plans) > self.max_entries:
            evicted, _ = self._plans.popitem(last=False)
            self._persisted.discard(evicted)
            self._evictions += 1

    # ------------------------------------------------------------------
    # async path (cold keys, single-flight)
    # ------------------------------------------------------------------
    def missing_batches(
        self,
        engine: InferenceEngine,
        batches: Sequence[int],
        input_shape: tuple[int, ...],
    ) -> tuple[int, ...]:
        """The candidate batches whose plans are not cached yet."""
        return tuple(
            b for b in batches
            if self.key_for(engine, b, input_shape) not in self._plans
        )

    def _compile_and_persist(self, key, engine, batch, input_shape):
        """Executor-side half of ``ensure_async``: plan, price, persist.

        The store append stays off the event-loop thread with the
        compile -- blocking disk I/O per plan would reintroduce exactly
        the loop stall the async path removes.
        """
        plan, total = self._compile(key, engine, batch, input_shape, False)
        if self.store is not None:
            self.store.append(key, plan, total)
        return plan, total

    async def ensure_async(
        self,
        engine: InferenceEngine,
        batch: int,
        input_shape: tuple[int, ...] = (3, 224, 224),
        *,
        executor=None,
    ) -> bool:
        """Compile-and-cache one key without stalling the event loop.

        Single-flight: concurrent callers racing on one cold key trigger
        exactly one ``engine.compile()``; the rest await the same
        in-flight future (and see its exception if it fails).  The
        compile+price (and the store append, when persisting) runs in
        ``executor`` (``None`` = the loop's default thread pool), so the
        event loop keeps scheduling other coroutines -- submissions,
        warm dispatches -- for the duration.  A warm key returns
        immediately without touching the hit/miss counters; those belong
        to the pricing lookups.

        Returns ``True`` when this call performed the compile, ``False``
        when the key was already warm or another caller's in-flight
        compile covered it.
        """
        key = self.key_for(engine, batch, input_shape)
        if key in self._plans:
            return False
        inflight = self._inflight.get(key)
        if inflight is not None:
            self._coalesced += 1
            await inflight
            return False
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            plan, total = await loop.run_in_executor(
                executor, self._compile_and_persist,
                key, engine, batch, input_shape,
            )
        except BaseException as exc:
            future.set_exception(exc)
            # waiters re-raise on await; retrieve here so a waiterless
            # failure doesn't log "exception was never retrieved"
            future.exception()
            raise
        else:
            self._misses += 1
            self._insert(key, plan, total, persist=False)
            future.set_result(None)
            return True
        finally:
            del self._inflight[key]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._plans),
            compiles=self._compiles,
            inloop_compiles=self._inloop_compiles,
            coalesced=self._coalesced,
            persisted_entries=self._persisted_entries,
            persisted_hits=self._persisted_hits,
            compile_us=self._compile_us,
            store_recovered_lines=self._store_recovered_lines,
        )

    def clear(self) -> None:
        self._plans.clear()
        self._persisted.clear()
        self._hits = self._misses = self._evictions = 0
        self._compiles = self._inloop_compiles = self._coalesced = 0
        self._persisted_entries = self._persisted_hits = 0
        self._compile_us = 0.0
        self._store_recovered_lines = 0
