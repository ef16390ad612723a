"""Fault-injected cluster simulation for the serving stack.

A :class:`ClusterCoordinator` is an :class:`~repro.serve.server
.InferenceServer` over N named APNN workers.  It schedules through the
server's one worker loop -- dynamic batching under ``slo_ms``, the
queue discipline, admission, placement -- and only swaps what executes
a batch: an in-process simulation that prices each batch on the
simulated clock and fails where a :class:`FaultPlan` says.  The workers
share one plan cache, persisted as a
:class:`~repro.serve.plan_cache.PlanCacheStore` under ``cache_dir``
when one is given, which is what scripted store damage tears.

Failure handling, the point of the module:

* **crashes** -- a worker dies at the exact simulated instants a
  :class:`FaultPlan` scripts: before taking work if idle then,
  mid-batch (losing the batch to failover) if busy.
* **bounded retry with failover** (in the server loop) -- the in-flight
  requests of a dead worker's batch are requeued at the head of their
  model queue (they are the earliest arrivals) and re-dispatched to a
  surviving replica, at most ``max_attempts`` dispatches per request;
  exhausted requests fail loudly with :class:`~repro.serve.server
  .ClusterError` and count as ``dropped_requests``.
* **exactly-once completion** -- a request's future resolves at most
  once; retries never re-record the dispatch-order watermark (the first
  dispatch committed the order), so failover can never masquerade as a
  reorder, and the result payload is a pure function of (model,
  backend, device, request id, batch-1 price) -- byte-identical no
  matter which replica finally served it, which batch coalesced it, or
  how many times it was retried.
* **restart** -- a crashed worker comes back ``restart_delay_us`` later
  on the simulated clock, at most ``max_restarts`` times per worker.
* **graceful drain** -- ``stop()`` lets every queued and in-flight
  request complete, failing over if a worker dies mid-drain.

Determinism: nothing sleeps and nothing reads the wall clock --
crashes, slowdowns and store corruption all happen at scripted
simulated instants -- so every failure schedule replays bit-identically
and the invariant suite (zero ``dropped_requests``, zero
``reordered_dispatches``, byte-identical payloads vs the fault-free
run) holds without a single wall-clock sleep.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.types import PrecisionPair
from ..nn.engine import APNNBackend, backend_key
from ..nn.models import alexnet, micro_cnn, resnet18
from ..obs import Tracer
from ..tensorcore.device import RTX3090, DeviceSpec
from .placement import PlacementPolicy
from .plan_cache import PlanCache, PlanCacheStore
from .server import (
    ClusterPolicy,
    InferenceServer,
    ServedModel,
    WorkerCrashed,
    _Worker,
)

__all__ = [
    "ModelSpec",
    "FaultEvent",
    "FaultPlan",
    "ClusterCoordinator",
    "canonical_json",
    "result_payload",
]

_FAULT_KINDS = ("crash", "slow", "corrupt_store")

#: Candidate batch sizes of a cluster's dynamic batcher (batch 1 is
#: always added: result payloads carry the batch-1 price).
DEFAULT_CLUSTER_BATCHES = (1, 2, 4, 8)


# ----------------------------------------------------------------------
# model specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelSpec:
    """A model as data: the cluster builds each served model from one.

    Construction is deterministic (the builder seeded with ``seed``,
    fixed architecture per ``kind``, the model named ``name``), so one
    spec always yields identical layer geometry -- and therefore
    identical plan keys and identical plan prices, which a persisted
    plan store and byte-identical result payloads both rely on.  A plan
    key names the model but holds no class count, so specs that differ
    in ``num_classes`` need distinct names.
    """

    kind: str                          #: "micro" | "alexnet" | "resnet18"
    name: str
    seed: int = 0
    input_shape: tuple[int, int, int] = (3, 16, 16)
    num_classes: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("micro", "alexnet", "resnet18"):
            raise ValueError(f"unknown model spec kind {self.kind!r}")
        if len(self.input_shape) != 3:
            raise ValueError(
                f"input_shape must be (C, H, W), got {self.input_shape}"
            )

    def build(self):
        """Construct the model, named ``name`` and seeded ``seed``.

        A build draws no weight: the builders defer every draw to the
        first read of a weight, which planning, pricing and serving never
        make, so a cluster pays for shapes alone.  ``micro`` models are
        memoized by :func:`~repro.nn.models.micro_cnn`.
        """
        if self.kind == "micro":
            return micro_cnn(
                self.name, self.seed, self.input_shape, self.num_classes
            )
        builder = alexnet if self.kind == "alexnet" else resnet18
        model = builder(
            num_classes=self.num_classes, input_size=self.input_shape[1],
            seed=self.seed,
        )
        model.name = self.name
        return model


# ----------------------------------------------------------------------
# fault injection plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One scripted failure at a simulated instant.

    ``kind``:

    * ``"crash"`` -- ``worker`` dies at ``at_us``: before taking work if
      idle then, mid-batch (losing the batch to failover) if busy.
    * ``"slow"`` -- from ``at_us`` on, ``worker``'s modeled service time
      is multiplied by ``factor`` (a degraded replica, not a dead one).
    * ``"corrupt_store"`` -- at ``at_us`` the shared plan store gains a
      torn trailing line, exactly what a crash during an append leaves
      behind; the next load must skip it and count it recovered.
    """

    kind: str
    at_us: float
    worker: str = ""
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {_FAULT_KINDS}"
            )
        if self.at_us < 0:
            raise ValueError(f"at_us must be >= 0, got {self.at_us}")
        if self.kind != "corrupt_store" and not self.worker:
            raise ValueError(f"{self.kind} fault needs a worker name")
        if self.kind == "slow" and self.factor < 1.0:
            raise ValueError(
                f"slow factor must be >= 1 (a slowdown), got {self.factor}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic failure schedule for one simulated cluster run.

    Pure data: the coordinator's workers read their crash instants and
    slow factors from it, and the coordinator tears the store at its
    corruption instants.  Build with the named constructors::

        FaultPlan.of(
            FaultPlan.crash("worker-1", at_us=800.0),
            FaultPlan.slow("worker-0", at_us=0.0, factor=4.0),
            FaultPlan.corrupt_store(at_us=1200.0),
        )
    """

    events: tuple[FaultEvent, ...] = ()

    @staticmethod
    def crash(worker: str, at_us: float) -> FaultEvent:
        return FaultEvent(kind="crash", at_us=at_us, worker=worker)

    @staticmethod
    def slow(worker: str, at_us: float, factor: float) -> FaultEvent:
        return FaultEvent(
            kind="slow", at_us=at_us, worker=worker, factor=factor
        )

    @staticmethod
    def corrupt_store(at_us: float) -> FaultEvent:
        return FaultEvent(kind="corrupt_store", at_us=at_us)

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultPlan":
        return cls(events=tuple(events))

    def crash_times(self, worker: str) -> tuple[float, ...]:
        return tuple(sorted(
            e.at_us for e in self.events
            if e.kind == "crash" and e.worker == worker
        ))

    def slow_factor(self, worker: str, at_us: float) -> float:
        """The worker's service multiplier at ``at_us`` (latest slow
        event at or before that instant wins; 1.0 when none)."""
        factor = 1.0
        best = -1.0
        for e in self.events:
            if (
                e.kind == "slow" and e.worker == worker
                and best < e.at_us <= at_us
            ):
                best = e.at_us
                factor = e.factor
        return factor

    def corruption_times(self) -> tuple[float, ...]:
        return tuple(sorted(
            e.at_us for e in self.events if e.kind == "corrupt_store"
        ))


# ----------------------------------------------------------------------
# result payloads
# ----------------------------------------------------------------------
def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators, no NaN.

    Equal objects render to identical bytes whatever their key order --
    the property byte-identical result payloads and the gateway's
    digests rest on.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def result_payload(
    model: str, backend, device: DeviceSpec, unit_us: float, request_id: int
) -> str:
    """The canonical result body of one served request.

    Deliberately independent of batching, queueing, timing, replica
    identity and retry count: two dispatches of the same request on any
    replica at any time produce identical bytes, because the priced
    batch-1 total is a deterministic function of (model architecture,
    backend, device) and everything else here is identity.
    """
    return canonical_json({
        "backend": backend_key(backend),
        "device": device.name,
        "model": model,
        "request_id": request_id,
        "unit_us": unit_us,
    })


# ----------------------------------------------------------------------
# the cluster's executor (the workers of the server loop)
# ----------------------------------------------------------------------
class _SimWorker(_Worker):
    """In-process pricing under the cluster's :class:`FaultPlan`.

    Crashes at the plan's instants -- idle, before taking work, or
    mid-batch (losing the batch to failover) -- stretches service by the
    slow factor in force at dispatch, applies scheduled store damage,
    and stamps each result with its canonical payload.
    """

    def __init__(self, server, name: str, backend, device) -> None:
        super().__init__(server, name, backend, device)
        self._crashes: deque[float] = deque()

    async def start(self) -> None:
        await super().start()
        self._crashes = deque(self.server.faults.crash_times(self.name))

    def crash_due(self, now_us: float) -> float | None:
        if self._crashes and self._crashes[0] <= now_us:
            return self._crashes.popleft()
        return None

    async def run(
        self, model, engine, batch_size, requests, start_us, service_us
    ):
        cluster = self.server
        cluster._damage_store(start_us)
        service_us *= cluster.faults.slow_factor(self.name, start_us)
        if self._crashes and self._crashes[0] < start_us + service_us:
            # Mid-batch crash: the batch dies with the worker and fails
            # over; anything the worker "computed" is lost.
            raise WorkerCrashed(
                f"worker {self.name} crashed mid-batch",
                self._crashes.popleft(),
            )
        service_us, _ = await super().run(
            model, engine, batch_size, requests, start_us, service_us
        )
        shape = cluster.models[model].input_shape
        unit_us = cluster.plan_cache.total_us(engine, 1, shape)
        return service_us, [
            result_payload(
                model, engine.backend, engine.device, unit_us, r.request_id
            )
            for r in requests
        ]


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class ClusterCoordinator(InferenceServer):
    """An :class:`InferenceServer` over N APNN workers with failover.

    Models arrive as :class:`ModelSpec` data; ``num_workers`` workers
    named ``worker-0`` ... all serve ``pair`` on an RTX 3090.
    Scheduling is the server's: batches are sized by the dynamic batcher
    under ``slo_ms`` and picked by the queue ``discipline`` behind
    ``admission`` -- those and the server's other keyword options pass
    straight through -- and results are
    :class:`~repro.serve.server.RequestResult` with ``attempts`` and the
    canonical ``payload`` filled in.

    Each worker prices its batches in-process on the simulated clock,
    with ``faults`` scripting its crashes, slowdowns and store damage
    deterministically.  ``cache_dir`` persists the workers' shared plan
    cache as a :class:`~repro.serve.plan_cache.PlanCacheStore` there
    (pass it or ``plan_cache``, not both); the damaged lines its load
    skipped are counted in the metrics.  Pipeline sharding is not
    supported on clusters.
    ``start()`` prewarms every (model, candidate batch) plan by default,
    so no dispatch takes the cold-compile path: the batches a fault
    schedule produces then never depend on how long a compile took, and
    the ``faults`` study's rows rely on that.
    """

    def __init__(
        self,
        models: Mapping[str, ModelSpec],
        num_workers: int = 2,
        *,
        policy: ClusterPolicy | None = None,
        placement: PlacementPolicy | None = None,
        faults: FaultPlan | None = None,
        pair: str | PrecisionPair = "w1a2",
        candidate_batches: Sequence[int] = DEFAULT_CLUSTER_BATCHES,
        cache_dir: str | Path | None = None,
        tracer: Tracer | None = None,
        **options,
    ) -> None:
        if not models:
            raise ValueError("cluster needs at least one model")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if placement is not None and placement.shard:
            raise ValueError(
                "the cluster layer does not run pipeline-sharded models; "
                "use InferenceServer for shard specs"
            )
        for name, spec in models.items():
            if not isinstance(spec, ModelSpec):
                raise TypeError(
                    f"model {name!r}: cluster models must be ModelSpec, "
                    f"got {type(spec)}"
                )
        faults = faults if faults is not None else FaultPlan()
        self.faults = faults
        if isinstance(pair, str):
            pair = PrecisionPair.parse(pair)
        self._corruptions: deque[float] = deque(faults.corruption_times())
        self._store_damage_seen = 0
        if cache_dir is not None:
            if options.get("plan_cache") is not None:
                raise ValueError(
                    "pass plan_cache or cache_dir, not both (a supplied "
                    "cache keeps its own store configuration)"
                )
            options["plan_cache"] = PlanCache(store=PlanCacheStore(cache_dir))
        backend = APNNBackend(pair)
        super().__init__(
            {
                name: ServedModel(spec.build(), spec.input_shape)
                for name, spec in models.items()
            },
            [(backend, RTX3090)] * num_workers,
            candidate_batches=(*candidate_batches, 1),
            placement=placement,
            tracer=tracer,
            **options,
        )
        if cache_dir is not None:
            # the store just loaded: count the damaged lines it skipped
            # (crash-during-append debris)
            self.metrics.record_store_recovery(
                self.plan_cache.stats().store_recovered_lines
            )
        if policy is not None:
            self.policy = policy

    @staticmethod
    def _worker_names(workers) -> list[str]:
        return [f"worker-{i}" for i in range(len(workers))]

    def _make_worker(self, name: str, backend, device) -> _Worker:
        return _SimWorker(self, name, backend, device)

    async def start(self, *, prewarm: bool = True) -> None:
        """Start as the server does, prewarmed by default (see the
        class docstring)."""
        await super().start(prewarm=prewarm)

    @property
    def candidate_batches(self) -> tuple[int, ...]:
        return self.batcher.candidate_batches

    def alive_workers(self) -> tuple[str, ...]:
        return tuple(
            name for name, worker in self._workers.items() if worker.alive
        )

    def _damage_store(self, now_us: float) -> None:
        """Deterministic store damage: torn trailing line at scripted
        instants, then a fresh load proving recovery skips exactly it."""
        while self._corruptions and self._corruptions[0] <= now_us:
            at = self._corruptions.popleft()
            if self.plan_cache.store is None:
                continue  # nothing persistent to damage
            path = self.plan_cache.store.path
            with path.open("ab") as fh:
                # what a crash mid-append leaves: a torn JSON prefix
                # (newline-terminated so later appends stay on their
                # own lines, exactly like a partial O_APPEND write)
                fh.write(b'{"version": 1, "key": {"model\n')
            fresh = PlanCacheStore(self.plan_cache.store.cache_dir)
            fresh.load()
            recovered = fresh.recovered_lines - self._store_damage_seen
            self._store_damage_seen = fresh.recovered_lines
            self.metrics.record_store_recovery(recovered)
            if self.tracer.enabled:
                self.tracer.event(
                    "store:corrupt", "failover", at,
                    lane="store", recovered_lines=recovered,
                )
