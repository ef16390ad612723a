"""Asyncio inference server: submit requests, get cost-modeled latencies.

The server front-ends the repo's analytical stack the way a real serving
binary front-ends a GPU fleet: clients ``await submit(model)``; worker
loops -- one per (backend, device) pair -- coalesce queued requests into
batches sized by the :class:`~repro.serve.batcher.DynamicBatcher`,
"execute" them by pricing a plan-cache-backed
:class:`~repro.nn.engine.CompiledPlan`, and resolve each request with its
simulated latency.

Scheduling is pluggable (:mod:`repro.serve.scheduler`): each time a
worker frees up, the configured :class:`~repro.serve.scheduler.QueueDiscipline`
(FIFO / earliest-deadline-first / weighted fair queueing) picks which
model's queue to serve from snapshots of the *arrived-by-now* backlog.
Two load policies (:mod:`repro.serve.policies`) ride on the same clock:
an :class:`~repro.serve.policies.AdmissionPolicy` sheds or defers
requests past a queue-depth cap, and a
:class:`~repro.serve.policies.PrecisionAutoswitcher` downgrades APNN
workers' ``wXaY`` pair under backlog, pricing the degraded plan through
the same plan cache.

Time accounting is discrete-event on a simulated clock: each worker
carries a ``sim_free_at_us`` watermark; when it frees up (or the queue
head arrives, whichever is later) it coalesces only the requests that
have *arrived by that simulated instant* -- never future arrivals an
unscaled replay may already have enqueued -- and occupies itself for the
modeled batch latency.  Per-request latency is therefore queue wait plus
batch service, in the same microseconds the paper's tables use.
``time_scale`` (real seconds per simulated microsecond) optionally slows
the event loop down to interleave like real traffic; the default of 0
runs as fast as asyncio can schedule.

Cold starts never stall the event loop: when a worker's batching sweep
would need plans that are not cached yet, the worker releases the
condition lock and compiles them through
:meth:`~repro.serve.plan_cache.PlanCache.ensure_async` (thread executor,
single-flight across racing workers), then re-runs its selection against
the live queues -- other workers keep draining warm queues and clients
keep submitting for the whole compile.  ``start(prewarm=True)``
pre-compiles the batcher's candidate batches for every (model, worker)
pair before any traffic lands, and a plan cache over a
:class:`~repro.serve.plan_cache.PlanCacheStore`
(``plan_cache=PlanCache(store=PlanCacheStore(dir))``) persists every
compiled plan so a restarted server replans nothing.

Placement (:mod:`repro.serve.placement`) decides *which* models each
worker loop may dispatch.  Without a policy every worker serves every
model (the original behavior).  With one, each model starts on a single
worker; at rebalance epochs the controller compares windowed arrival
rates against modeled per-replica service rates and grows or shrinks
replica sets, swapping the immutable placement snapshot atomically
under the condition lock -- strictly between batches, so queued
requests simply re-route and nothing is dropped or reordered (both
guarded by metrics counters).  Sharded models run pipeline-parallel:
the stage-0 owner dispatches from the queue and runs the first stage,
and each later stage reaches its worker through per-worker stage
queues.  Every stage is priced through the same plan cache as whole
models.

Execution is the one seam between scheduling and workers.  Each worker
loop chooses a batch and records its hops: one for a whole model, one
per stage for a sharded model.  Every hop goes to its worker's
executor, which returns the hop's service time (and, for cluster
workers, each request's canonical result payload) or raises
:class:`WorkerCrashed`; the last hop completes the batch through one
completion path, whatever its hop count.  The base executor is the
in-process pricing path above; the cluster layer
(:mod:`repro.serve.cluster`) subclasses it to crash, slow down and
damage the plan store where a :class:`FaultPlan
<repro.serve.cluster.FaultPlan>` says.  Failover lives in the loop: a
crashed worker's batch requeues at the head of its model queue and
retries elsewhere, at most ``ClusterPolicy.max_attempts`` dispatches
per request, and crashed workers restart within
``ClusterPolicy.max_restarts``.  The base executor never crashes, so a
plain server never takes that path.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..core.types import PrecisionPair
from ..nn.engine import APNNBackend, InferenceEngine
from ..nn.module import Sequential
from ..obs import NULL_TRACER, Tracer
from ..tensorcore.counters import ExecutionCounters
from ..tensorcore.device import DeviceSpec
from .batcher import DEFAULT_CANDIDATE_BATCHES, DynamicBatcher
from .metrics import ServerMetrics
from .placement import (
    PlacementController,
    PlacementPolicy,
    StagePlan,
    pipeline_stages,
)
from .plan_cache import PlanCache
from .policies import (
    AdmissionPolicy,
    AdmissionRejected,
    PrecisionAutoswitcher,
    accuracy_delta,
)
from .scheduler import QueueDiscipline, QueueSnapshot, make_discipline

__all__ = [
    "ServedModel",
    "RequestResult",
    "ServerDraining",
    "ClusterPolicy",
    "ClusterError",
    "WorkerCrashed",
    "InferenceServer",
]


class ServerDraining(RuntimeError):
    """A submission arrived while the server is draining.

    Raised by :meth:`InferenceServer.submit` once ``begin_drain()`` has
    been called: in-flight requests run to completion, new ones are
    refused.  The HTTP gateway maps this (and its own drain state) to a
    503 so load balancers rotate traffic away during shutdown.
    """


class ClusterError(RuntimeError):
    """A request failed permanently (retry budget exhausted, or no
    worker left to serve it at stop)."""


class WorkerCrashed(RuntimeError):
    """A worker died with a batch in flight (retryable) at the simulated
    instant ``at_us``."""

    def __init__(self, message: str, at_us: float) -> None:
        super().__init__(message)
        self.at_us = at_us


@dataclass(frozen=True)
class ClusterPolicy:
    """Fault-tolerance knobs of one server.

    ``max_attempts`` bounds dispatches *per request* (first try plus
    retries); ``max_restarts`` bounds restarts *per worker name* (0: a
    crashed worker stays down), each ``restart_delay_us`` after its
    crash on the simulated clock.
    """

    max_attempts: int = 3
    max_restarts: int = 1
    restart_delay_us: float = 1_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.restart_delay_us < 0:
            raise ValueError(
                f"restart_delay_us must be >= 0, got {self.restart_delay_us}"
            )


DEFAULT_INPUT_SHAPE = (3, 224, 224)

#: Threads of the executor cold plan compilations run in (the worker
#: loops' off-loop compiles and ``prewarm``).
COMPILE_WORKERS = 2


@dataclass(frozen=True)
class ServedModel:
    """One deployable model plus the input geometry it expects.

    ``slo_ms`` optionally overrides the server-wide latency objective
    for this model (EDF deadlines and per-model batching use it);
    ``weight`` is the model's share under weighted fair queueing.
    """

    model: Sequential
    input_shape: tuple[int, int, int] = DEFAULT_INPUT_SHAPE
    slo_ms: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class RequestResult:
    """Outcome of one served request, all times in simulated microseconds."""

    request_id: int
    model: str
    worker: str
    batch_size: int      #: batch the plan was compiled for
    batch_requests: int  #: requests actually coalesced
    arrival_us: float
    start_us: float
    finish_us: float
    deadline_us: float = float("inf")  #: arrival + the model's SLO
    pair: str = ""        #: wXaY pair actually served (APNN workers)
    switched: bool = False  #: True when the pair was autoswitch-degraded
    #: Per-stage worker names for pipeline-sharded models (empty when
    #: the model ran whole on ``worker``).
    stages: tuple[str, ...] = ()
    attempts: int = 1     #: dispatches this request took (1 = no retry)
    #: Canonical result body (cluster workers only; see
    #: :func:`~repro.serve.cluster.result_payload`): a pure function of
    #: what was computed, byte-identical across replicas and retries.
    payload: str = ""

    @property
    def wait_us(self) -> float:
        return self.start_us - self.arrival_us

    @property
    def service_us(self) -> float:
        return self.finish_us - self.start_us

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.arrival_us

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0

    @property
    def met_deadline(self) -> bool:
        return self.finish_us <= self.deadline_us


@dataclass
class _PendingRequest:
    request_id: int
    model: str
    arrival_us: float
    future: asyncio.Future = field(repr=False)
    attempts: int = 0    #: dispatches so far (incremented at each take)


class _Worker:
    """One worker slot: its simulated clock, liveness and executor.

    This base class is the in-process executor: each hop -- a whole
    model's batch, or one pipeline stage of it -- occupies the worker
    for its modeled price on the simulated clock (sleeping
    ``time_scale`` real seconds per microsecond) and never crashes.
    :mod:`repro.serve.cluster` subclasses it with a ``FaultPlan``-driven
    simulation; a cluster rejects shard specs, so that executor only
    sees whole models.

    ``generation`` increments at every crash; a worker loop carries the
    generation it was spawned for and exits once it has moved on, so a
    stale loop can never act on a restarted worker.
    """

    def __init__(self, server, name: str, backend, device) -> None:
        self.server = server
        self.name = name
        self.backend = backend
        self.device = device
        self.alive = True
        self.generation = 0
        self.restarts = 0
        self.sim_free_at_us = 0.0

    async def start(self) -> None:
        """Go live at simulated time zero (every server start)."""
        self.alive = True
        self.sim_free_at_us = 0.0

    def crash_due(self, now_us: float) -> float | None:
        """Pop a scripted crash instant at or before ``now_us``."""
        return None

    async def run(
        self, model: str, engine: InferenceEngine, batch_size: int,
        requests: list[_PendingRequest], start_us: float, service_us: float,
    ) -> tuple[float, list[str] | None]:
        """Execute one hop priced at ``service_us`` from ``start_us``.

        Occupies the worker (:meth:`InferenceServer._occupy`) for the
        actual service time and returns it, with per-request result
        payloads or ``None``.  Raises :class:`WorkerCrashed` if the
        worker dies with the batch in flight.  The clock advances
        *before* the yield, so concurrent loops see this worker busy.
        """
        self.server._occupy(self, start_us + service_us)
        # Occupy the (scaled) event loop for the modeled service time so
        # concurrent workers interleave like real executors.
        await asyncio.sleep(service_us * self.server.time_scale)
        return service_us, None


@dataclass
class _Batch:
    """One dispatched batch and the hops it runs through.

    A whole model is one hop on the dispatching worker; a sharded model
    has one hop per pipeline stage, handed worker to worker through the
    per-worker stage queues.  The batch carries the hops it was
    dispatched with, so a rebalance can never strand it mid-pipeline.
    Its last hop completes it.
    """

    model: str
    #: (worker, engine, per-sample input shape) of every hop, in order.
    hops: tuple[tuple[str, InferenceEngine, tuple[int, ...]], ...]
    requests: list[_PendingRequest]
    batch_size: int
    expected_latency_us: float  #: modeled latency over every hop
    meets_slo: bool
    depth: int       #: queue depth at dispatch
    slo_us: float
    pair_name: str
    switched: bool
    accuracy_delta: float
    ready_us: float  #: simulated instant the next hop's input is ready
    #: Tracing context (populated only when the server's tracer is
    #: enabled): the scheduling decision captured at dispatch.
    sched_attrs: dict | None = None
    cold: bool = False  #: dispatched through the cold-compile path
    #: (start_us, service_us) of every hop run so far; the next hop is
    #: ``hops[len(ran)]``.
    ran: list[tuple[float, float]] = field(default_factory=list)

    @property
    def start_us(self) -> float:
        """First hop's service start (the requests' start)."""
        return self.ran[0][0]

    @property
    def finish_us(self) -> float:
        """Latest hop's service finish."""
        start_us, service_us = self.ran[-1]
        return start_us + service_us


class InferenceServer:
    """Dispatches submitted requests across backend/device worker pairs.

    Parameters
    ----------
    models:
        name -> :class:`ServedModel` (or bare :class:`Sequential`, served
        at the default 3x224x224 geometry).
    workers:
        ``(backend, device)`` pairs; each becomes one worker loop with its
        own simulated clock.  Backends are the engine's
        (:class:`~repro.nn.engine.APNNBackend` /
        :class:`~repro.nn.engine.BNNBackend` /
        :class:`~repro.nn.engine.LibraryBackend`).
    slo_ms:
        Latency objective handed to the dynamic batcher; individual
        models may override it via :attr:`ServedModel.slo_ms`.
    discipline:
        Queue discipline name (``"fifo"`` / ``"edf"`` / ``"wfq"``) or a
        :class:`~repro.serve.scheduler.QueueDiscipline` instance.
    admission:
        Optional :class:`~repro.serve.policies.AdmissionPolicy` bounding
        the queue (shed or defer past the cap).
    autoswitch:
        Optional :class:`~repro.serve.policies.PrecisionAutoswitcher`
        downgrading APNN workers' precision under backlog.
    placement:
        Optional :class:`~repro.serve.placement.PlacementPolicy`.  When
        given, each model starts on one worker and the server rebalances
        replica sets at epoch boundaries from the metrics layer's
        arrival-rate windows; models named in the policy's ``shard``
        spec run pipeline-parallel across distinct workers.  ``None``
        keeps the original any-worker-serves-any-model behavior.
    time_scale:
        Real seconds slept per simulated microsecond of batch service
        (0 = don't sleep, just yield).
    tracer:
        Optional :class:`repro.obs.Tracer`.  When given, the server
        records hierarchical spans on the simulated clock -- admission
        events, batch/stage dispatches with per-fused-group kernel
        child spans (carrying :class:`~repro.tensorcore.counters
        .ExecutionCounters` attributes), per-request request/queue/
        execute spans, placement swaps -- plus wall-clock plan-compile
        spans, and installs itself into the plan cache and placement
        controller.  The default is the shared no-op tracer: every
        instrumentation site is guarded by ``tracer.enabled``, so an
        untraced server does no tracing work and behaves byte-
        identically to one built before tracing existed.
    """

    def __init__(
        self,
        models: Mapping[str, ServedModel | Sequential],
        workers: Sequence[tuple[object, DeviceSpec]],
        *,
        slo_ms: float = 5.0,
        candidate_batches: Sequence[int] = DEFAULT_CANDIDATE_BATCHES,
        plan_cache: PlanCache | None = None,
        discipline: str | QueueDiscipline = "fifo",
        admission: AdmissionPolicy | None = None,
        autoswitch: PrecisionAutoswitcher | None = None,
        placement: PlacementPolicy | None = None,
        time_scale: float = 0.0,
        tracer: Tracer | None = None,
    ) -> None:
        if not models:
            raise ValueError("server needs at least one model")
        if not workers:
            raise ValueError("server needs at least one (backend, device)")
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.models: dict[str, ServedModel] = {
            name: m if isinstance(m, ServedModel) else ServedModel(m)
            for name, m in models.items()
        }
        self.batcher = DynamicBatcher(slo_ms, candidate_batches)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._executor: ThreadPoolExecutor | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            # Compiles trace as wall-track spans from executor threads;
            # placement decisions as sim-track instants.  Both hooks
            # default to the null tracer, so only a traced server pays.
            self.plan_cache.tracer = self.tracer
        self.metrics = ServerMetrics()
        self.discipline = make_discipline(discipline)
        self.admission = admission
        self.autoswitch = autoswitch
        self.time_scale = time_scale

        self.policy = ClusterPolicy()
        self._worker_specs: list[tuple[str, object, DeviceSpec]] = [
            (name, backend, device)
            for name, (backend, device) in zip(
                self._worker_names(workers), workers
            )
        ]
        self._workers: dict[str, _Worker] = {
            name: self._make_worker(name, backend, device)
            for name, backend, device in self._worker_specs
        }

        self.placement_controller: PlacementController | None = None
        if placement is not None:
            self.placement_controller = PlacementController(
                placement, self.models, [n for n, _, _ in self._worker_specs]
            )
            if self.tracer.enabled:
                self.placement_controller.tracer = self.tracer
            self.metrics.replica_counts = (
                self.placement_controller.placement.replica_counts()
            )
        #: Per-worker queues of in-flight pipeline handoffs.
        self._stage_queues: dict[str, deque[_Batch]] = {
            name: deque() for name, _, _ in self._worker_specs
        }
        #: Engines of pipeline stages, keyed (model, stage index, worker).
        self._stage_engines: dict[tuple[str, int, str], InferenceEngine] = {}

        # One engine per (model, worker, precision): planning state (fused
        # groups, latency model) is reusable across requests.  Key "" is
        # the worker's configured precision; autoswitch-degraded engines
        # are built lazily under the degraded pair's name.
        self._engines: dict[tuple[str, str, str], InferenceEngine] = {}
        for model_name, served in self.models.items():
            for wname, backend, device in self._worker_specs:
                self._engines[(model_name, wname, "")] = InferenceEngine(
                    served.model, backend, device
                )

        self._queues: dict[str, deque[_PendingRequest]] = {
            name: deque() for name in self.models
        }
        self._deferred: deque[_PendingRequest] = deque()
        self._served_counts: dict[str, int] = {name: 0 for name in self.models}
        # Latest per-model dispatch feasibility (not BatchDecision.meets_slo):
        # the trigger signal for slo_gated admission.  Starts attainable.
        self._slo_infeasible: dict[str, bool] = {
            name: False for name in self.models
        }
        self._cond: asyncio.Condition | None = None
        self._stopped: asyncio.Event | None = None
        self._tasks: list[asyncio.Task] = []
        self._running = False
        self._draining = False
        #: Requests dispatched to a worker and not yet resolved or
        #: requeued (a crash may hand them back to the queues).
        self._inflight = 0
        self._ids = itertools.count()
        self._sim_now_us = 0.0
        self._last_finish_us = 0.0

    @staticmethod
    def _worker_names(workers) -> list[str]:
        """``backend@device`` per worker, ``#k``-suffixed on repeats."""
        names: list[str] = []
        seen: dict[str, int] = {}
        for backend, device in workers:
            base = f"{backend.name}@{device.name}"
            seen[base] = seen.get(base, 0) + 1
            names.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
        return names

    def _make_worker(self, name: str, backend, device) -> _Worker:
        """The executor behind one worker loop (in-process pricing)."""
        return _Worker(self, name, backend, device)

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def submit(
        self, model: str, arrival_us: float | None = None
    ) -> RequestResult:
        """Enqueue one request and await its simulated completion.

        Raises :class:`~repro.serve.policies.AdmissionRejected` when the
        admission policy sheds the request at the queue-depth cap.
        """
        if model not in self.models:
            raise KeyError(
                f"unknown model {model!r}; served: {sorted(self.models)}"
            )
        cond = self._require_started()
        if self._draining:
            raise ServerDraining(
                f"server is draining; request for {model!r} refused"
            )
        req = _PendingRequest(
            request_id=next(self._ids),
            model=model,
            arrival_us=(
                arrival_us if arrival_us is not None else self._sim_now_us
            ),
            future=asyncio.get_running_loop().create_future(),
        )
        async with cond:
            # Re-check under the lock: a stop() that completed while we
            # awaited it would leave this request queued forever.
            if not self._running:
                raise RuntimeError("server is stopped; no worker will serve")
            if self._draining:
                raise ServerDraining(
                    f"server is draining; request for {model!r} refused"
                )
            # Demand is recorded before admission: a shed request is
            # still arrival pressure the placement layer should see.
            self.metrics.record_arrival(model, req.arrival_us)
            if self.admission is not None and not self.admission.admits(
                self.queue_depth, self._slo_infeasible[model]
            ):
                if self.admission.mode == "shed":
                    # shed before touching the clock: a rejected request
                    # must not skew later default-arrival stamps
                    self.metrics.record_rejection(model)
                    if self.tracer.enabled:
                        self._trace_admission(req, "shed")
                    raise AdmissionRejected(
                        model, self.queue_depth, self.admission.max_queue_depth
                    )
                self.metrics.record_deferral(model)
                self._deferred.append(req)
                if self.tracer.enabled:
                    self._trace_admission(req, "deferred")
            else:
                self._enqueue(req)
                self.metrics.record_queue_depth(self.queue_depth)
                if self.tracer.enabled:
                    self._trace_admission(req, "admitted")
            self._sim_now_us = max(self._sim_now_us, req.arrival_us)
            cond.notify_all()
        return await req.future

    async def start(self, *, prewarm: bool = False) -> None:
        """Spawn the worker loops (idempotent).

        ``prewarm=True`` compiles the batcher's candidate batches for
        every (model, worker) pair -- through the same single-flight
        async path and executor the worker loops use -- before any
        worker runs, so the first real traffic finds a warm plan cache.
        """
        if self._running:
            return
        self._running = True
        self._draining = False
        self._cond = asyncio.Condition()
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=COMPILE_WORKERS,
            thread_name_prefix="plan-compile",
        )
        # Mark once per server lifetime: re-marking on a restart would
        # silently zero the autotune delta accumulated by earlier runs
        # (the restart-metrics regression test guards this).
        if not self.metrics.has_autotune_baseline:
            self.metrics.mark_autotune_baseline()
        if self.placement_controller is not None:
            await self._install_pipelines()
        if prewarm:
            await self._prewarm()
        for worker in self._workers.values():
            await worker.start()
        self._tasks = [
            asyncio.create_task(
                self._worker_loop(worker, worker.generation),
                name=f"serve-{worker.name}",
            )
            for worker in self._workers.values()
        ]

    async def stop(self) -> None:
        """Drain the queues (deferred requests included), then stop."""
        if not self._running:
            return
        self._running = False
        async with self._cond:
            self._cond.notify_all()
        # A worker crashing mid-drain still fails over and restarts, so
        # loops can be spawned while we wait: gather until none are left.
        while self._tasks:
            tasks, self._tasks = self._tasks, []
            await asyncio.gather(*tasks)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # Drain accounting: workers exit only once every queue, stage
        # queue and pipeline is empty, so leftovers here mean no worker
        # was left to serve them (or a bug).  The counter makes it loud
        # and the failed futures keep clients from hanging on it.
        leftovers = [r for q in self._queues.values() for r in q]
        leftovers += list(self._deferred)
        leftovers += [
            r
            for jobs in self._stage_queues.values()
            for job in jobs
            for r in job.requests
        ]
        if leftovers:
            self.metrics.record_dropped(len(leftovers))
            for q in self._queues.values():
                q.clear()
            self._deferred.clear()
            for jobs in self._stage_queues.values():
                jobs.clear()
            for r in leftovers:
                if not r.future.done():
                    r.future.set_exception(ClusterError(
                        f"request {r.request_id} for {r.model!r} was "
                        f"dropped at stop (no worker left to serve it)"
                    ))
        self._stopped.set()

    def begin_drain(self) -> None:
        """Refuse new submissions while in-flight requests complete.

        The one external-facing drain hook: after this, :meth:`submit`
        raises :class:`ServerDraining`, while everything
        already queued or dispatched runs to completion -- call
        :meth:`stop` afterwards to actually wait for the drain.  A later
        :meth:`start` clears the state.
        """
        self._draining = True

    @property
    def draining(self) -> bool:
        """True once drain has begun (or the server is fully stopped).

        The gateway polls this to answer health checks and to 503 new
        connections during shutdown.
        """
        return self._draining or not self._running

    async def unit_price_us(self, model: str) -> float:
        """Modeled batch-1 service microseconds of ``model``.

        Deterministic function of (model, backend, device, precision) on
        the first worker -- the pricing quantity the HTTP gateway folds
        into result digests, so a gateway response and a direct
        :meth:`submit` against the same server derive identical bytes.
        Compiles the batch-1 plan off-loop on first use.
        """
        if model not in self.models:
            raise KeyError(
                f"unknown model {model!r}; served: {sorted(self.models)}"
            )
        ref_name = self._worker_specs[0][0]
        engine = self._engines[(model, ref_name, "")]
        shape = self.models[model].input_shape
        await self.plan_cache.ensure_async(
            engine, 1, shape, executor=self._executor
        )
        return self.plan_cache.total_us(engine, 1, shape)

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called from another task."""
        await self.start()
        await self._stopped.wait()

    @property
    def queue_depth(self) -> int:
        """Admitted (non-deferred) requests currently queued."""
        return sum(len(q) for q in self._queues.values())

    @property
    def deferred_depth(self) -> int:
        """Requests parked by the admission policy's defer mode."""
        return len(self._deferred)

    @property
    def sim_duration_us(self) -> float:
        """Simulated time from first arrival to last batch completion."""
        return self._last_finish_us

    def slo_ms_for(self, model: str) -> float:
        """Effective latency objective of one model (override or global)."""
        override = self.models[model].slo_ms
        return self.batcher.slo_ms if override is None else override

    def _enqueue(self, req: _PendingRequest) -> None:
        """Insert one admitted request by arrival time (under the lock).

        Queues must stay arrival-sorted: the worker loop's visibility
        scan and its take-from-head dispatch both assume the head is the
        earliest arrival, so an out-of-order ``submit(model,
        arrival_us=...)`` appended at the tail would let a worker couple
        an already-arrived request to a far-future one (or dispatch the
        future one outright), violating non-clairvoyance.  Ties keep
        submission order.
        """
        # A stamp behind already-dispatched arrivals is the client
        # reordering, not the server: rewind the dispatch-order
        # watermark so serving it later does not count against the
        # placement invariant (no-op for in-order traffic).
        self.metrics.note_out_of_order_submit(req.model, req.arrival_us)
        queue = self._queues[req.model]
        if not queue or req.arrival_us >= queue[-1].arrival_us:
            queue.append(req)
            return
        stamps = [r.arrival_us for r in queue]
        queue.insert(bisect.bisect_right(stamps, req.arrival_us), req)

    async def _prewarm(self) -> None:
        """Pre-compile candidate plans for every (model, worker) pair.

        Runs through :meth:`PlanCache.ensure_async`, so racing keys
        dedupe (two workers with the same backend+device share plans)
        and everything compiles in the executor concurrently.  Records
        how many plans were actually compiled -- a persisted store may
        already hold them all.
        """
        t0 = time.perf_counter()
        jobs = []
        seen = set()

        def submit(engine, batch, shape):
            key = self.plan_cache.key_for(engine, batch, shape)
            if key in seen:
                return
            seen.add(key)
            jobs.append(
                self.plan_cache.ensure_async(
                    engine, batch, shape, executor=self._executor
                )
            )

        for model_name, served in self.models.items():
            stages = self._stages_of(model_name)
            if stages is not None:
                # Sharded models execute stage-wise only: prewarm the
                # stage plans on their pinned workers, not whole-model
                # plans that no worker will ever dispatch.
                for stage in stages:
                    engine = self._stage_engines[
                        (model_name, stage.index, stage.worker)
                    ]
                    for batch in self.batcher.candidate_batches:
                        submit(engine, batch, stage.input_shape)
                continue
            for wname, backend, device in self._worker_specs:
                engine = self._engines[(model_name, wname, "")]
                for batch in self.batcher.candidate_batches:
                    submit(engine, batch, served.input_shape)
        compiled = await asyncio.gather(*jobs)
        self.metrics.record_prewarm(
            sum(compiled), (time.perf_counter() - t0) * 1e6
        )

    async def _install_pipelines(self) -> None:
        """Partition and pin the policy's sharded models (start-time).

        The split is driven by the unsharded model's compiled plan --
        ensured through the normal async single-flight path, so even a
        cold partition never stalls the event loop -- priced per fused
        group and balanced over the model's top-level layers.  Stage
        submodels get their own engines on their pinned workers; their
        plans compile through the same plan cache as everything else.
        Idempotent across restarts: an installed pipeline stays put.
        """
        ctl = self.placement_controller
        for model_name, num_stages in ctl.policy.shard:
            if ctl.placement.stages_of(model_name) is not None:
                continue  # restart: already partitioned and pinned
            served = self.models[model_name]
            ref_name = self._worker_specs[0][0]
            engine = self._engines[(model_name, ref_name, "")]
            await self.plan_cache.ensure_async(
                engine, ctl.policy.partition_batch, served.input_shape,
                executor=self._executor,
            )
            plan = self.plan_cache.get(
                engine, ctl.policy.partition_batch, served.input_shape
            )
            stages = pipeline_stages(
                model_name, served.model, served.input_shape, num_stages,
                plan, engine.latency_model,
            )
            pinned = ctl.install_stages(model_name, stages, self._sim_now_us)
            for stage in pinned:
                worker = self._workers[stage.worker]
                self._stage_engines[(model_name, stage.index, stage.worker)] = (
                    InferenceEngine(
                        stage.submodel, worker.backend, worker.device
                    )
                )
        self.metrics.replica_counts = ctl.placement.replica_counts()

    def _require_started(self) -> asyncio.Condition:
        if self._cond is None or not self._running:
            raise RuntimeError(
                "server not running; call await server.start() first"
            )
        return self._cond

    # ------------------------------------------------------------------
    # worker loops
    # ------------------------------------------------------------------
    def _engine_for(
        self, model: str, worker: str, backend, device,
        pair: PrecisionPair | None,
    ) -> InferenceEngine:
        """Engine serving ``model`` on ``worker``, optionally downgraded.

        Degraded-precision engines are created lazily and memoized so an
        autoswitch rung costs one planning pass per (model, worker, pair)
        for the process lifetime; their plans land in the same plan cache
        under the degraded backend's key.  Per-layer mixed-precision
        overrides are preserved: each override keeps its own pair when it
        is already below the rung, and is capped at the rung otherwise --
        a downgrade never raises any layer's precision.
        """
        key = (model, worker, pair.name if pair is not None else "")
        engine = self._engines.get(key)
        if engine is None:
            layer_pairs = tuple(
                (name, lp if lp.plane_product < pair.plane_product else pair)
                for name, lp in backend.layer_pairs
            )
            degraded = replace(backend, pair=pair, layer_pairs=layer_pairs)
            engine = InferenceEngine(
                self.models[model].model, degraded, device
            )
            self._engines[key] = engine
        return engine

    def _promote_deferred(self) -> None:
        """Admit deferred requests (oldest first) as capacity frees.

        Must be called under the condition lock.  A stopping server
        flushes everything so drain-on-stop still answers every request;
        a running one respects the admission cap.  Promoted requests
        keep their original arrival stamp and rejoin in arrival order
        (the queues' sorted invariant; ties land behind equal stamps,
        i.e. at the tail for burst traffic).
        """
        if not self._deferred:
            return
        cap = (
            self.admission.max_queue_depth
            if self.admission is not None else None
        )
        promoted = False
        while self._deferred and (
            not self._running or cap is None or self.queue_depth < cap
        ):
            self._enqueue(self._deferred.popleft())
            promoted = True
        if promoted:
            if self._running:
                # the stop()-time flush ignores the cap by design; don't
                # let it poison the <= cap invariant of the high-water mark
                self.metrics.record_queue_depth(self.queue_depth)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # placement routing
    # ------------------------------------------------------------------
    def _serves(self, worker: str, model: str) -> bool:
        """May ``worker`` dispatch ``model`` from its queue?

        Placement decides while the worker is alive; a model whose whole
        replica set is dead is adopted by the first alive worker, so a
        placed request is never stranded behind a placement that names
        no survivor.
        """
        if not self._workers[worker].alive:
            return False
        ctl = self.placement_controller
        if ctl is None:
            return True
        placement = ctl.placement
        if placement.serves(worker, model):
            return True
        return worker == self._first_alive() and not any(
            self._workers[w].alive for w in placement.replicas_of(model)
        )

    def _first_alive(self) -> str | None:
        for name, worker in self._workers.items():
            if worker.alive:
                return name
        return None

    def _stages_of(self, model: str) -> tuple[StagePlan, ...] | None:
        if self.placement_controller is None:
            return None
        return self.placement_controller.placement.stages_of(model)

    def _replica_count(self, model: str) -> int:
        """Workers sharing this model's queue (batch-share divisor)."""
        if self.placement_controller is None:
            return 1
        mp = self.placement_controller.placement.placements[model]
        return 1 if mp.stages is not None else len(mp.replicas)

    def _routable_depth(self, worker: str) -> int:
        """Queued requests in queues this worker may dispatch from."""
        return sum(
            len(q)
            for model, q in self._queues.items()
            if q and self._serves(worker, model)
        )

    def _maybe_rebalance(self) -> None:
        """Swap the placement at epoch boundaries (under the lock).

        Runs strictly between batches: whichever worker iterates first
        past an epoch boundary evaluates it.  Demand comes from the
        metrics layer's arrival windows; per-replica service rates come
        from *warm* plan-cache totals only (a cold model holds its
        placement rather than compiling inside the lock).  The swap is
        one reference assignment, so queued requests re-route wholesale
        and in-flight work keeps the assignment it started with.
        """
        ctl = self.placement_controller
        if ctl is None or not ctl.due(self._sim_now_us):
            return
        now = self._sim_now_us
        rates: dict[str, float] = {}
        service: dict[str, float | None] = {}
        for model, served in self.models.items():
            if ctl.placement.stages_of(model) is not None:
                continue
            count, rate = self.metrics.arrival_stats(
                model, now, ctl.policy.window_us
            )
            if count < ctl.policy.min_requests:
                continue
            rates[model] = rate
            primary = ctl.placement.replicas_of(model)[0]
            engine = self._engines[(model, primary, "")]
            total = self.plan_cache.peek_total_us(
                engine, ctl.policy.service_batch, served.input_shape
            )
            service[model] = (
                None if total is None
                else ctl.policy.service_batch / (total * 1e-6)
            )
        swap = ctl.rebalance(now, rates, service)
        if swap is not None:
            adds, removes = swap
            self.metrics.record_rebalance(
                ctl.placement.epoch, adds, removes,
                ctl.placement.replica_counts(),
            )
            # New owners may now serve queues they previously ignored.
            self._cond.notify_all()

    def _visible_snapshots(
        self, now_us: float, worker: str | None = None
    ) -> tuple[list[QueueSnapshot], dict[str, int]]:
        """Per-model views of requests arrived by ``now_us``.

        With a placement layer, only queues routed to ``worker`` are
        visible -- the discipline chooses among the models this worker
        actually hosts.
        """
        snapshots: list[QueueSnapshot] = []
        depths: dict[str, int] = {}
        for model, queue in self._queues.items():
            if not queue or queue[0].arrival_us > now_us:
                continue
            if worker is not None and not self._serves(worker, model):
                continue
            depth = 0
            for r in queue:
                if r.arrival_us > now_us:
                    break
                depth += 1
            depths[model] = depth
            served = self.models[model]
            slo_us = self.slo_ms_for(model) * 1000.0
            snapshots.append(
                QueueSnapshot(
                    model=model,
                    depth=depth,
                    head_arrival_us=queue[0].arrival_us,
                    head_deadline_us=queue[0].arrival_us + slo_us,
                    weight=served.weight,
                    served=self._served_counts[model],
                    replicas=self._replica_count(model),
                )
            )
        return snapshots, depths

    async def _worker_loop(self, worker: _Worker, generation: int) -> None:
        cond = self._cond
        name, backend, device = worker.name, worker.backend, worker.device
        while True:
            job: _Batch | None = None
            cold_specs: tuple = ()
            async with cond:
                self._promote_deferred()
                while True:
                    if worker.generation != generation:
                        return  # crashed; a restart runs a fresh loop
                    self._maybe_rebalance()
                    if self._stage_queues[name] or (
                        self._routable_depth(name) > 0
                    ):
                        break
                    crash_us = worker.crash_due(self._sim_now_us)
                    if crash_us is not None:
                        # Idle crash: the scripted instant passed while
                        # this worker had nothing to do.
                        self._crash_locked(worker, crash_us, generation)
                        return
                    if (
                        not self._running
                        and self.queue_depth == 0
                        and self._inflight == 0
                    ):
                        return
                    await cond.wait()
                    self._promote_deferred()
                if self._stage_queues[name]:
                    # Pipeline handoffs first: draining in-flight work
                    # bounds the pipeline and keeps stage order FIFO.
                    job = self._stage_queues[name].popleft()
            if job is not None:
                if not await self._run_hop(worker, generation, job):
                    return
                continue

            async with cond:
                if self._routable_depth(name) == 0:
                    continue  # drained (or this worker died) as we re-locked
                # Non-clairvoyant dispatch: when the worker frees up (or
                # the earliest queued request arrives, if later) it can
                # only see requests that have arrived by that simulated
                # instant -- even if an unscaled replay has already
                # enqueued the future.
                earliest = min(
                    q[0].arrival_us
                    for model, q in self._queues.items()
                    if q and self._serves(name, model)
                )
                now_us = max(worker.sim_free_at_us, earliest)
                crash_us = worker.crash_due(now_us)
                if crash_us is not None:
                    # Dies at the scripted instant, before taking work.
                    self._crash_locked(worker, crash_us, generation)
                    return
                snapshots, depths = self._visible_snapshots(now_us, name)
                model = self.discipline.select(tuple(snapshots))
                # Captured at selection time (the snapshots die with the
                # lock); attached to the batch span at dispatch.
                sched_attrs = (
                    self.discipline.trace_attributes(snapshots, model)
                    if self.tracer.enabled else None
                )
                queue = self._queues[model]
                depth = depths[model]
                visible_total = sum(depths.values())
                stages = self._stages_of(model)
                replicas = self._replica_count(model)

                # Precision autoswitching: under backlog, serve APNN
                # traffic at a downgraded wXaY pair priced through the
                # same plan cache.  Sharded models always run at their
                # configured precision: a mid-pipeline precision change
                # would split one batch across two plans.
                switched = False
                batch_accuracy_delta = 0.0
                pair = getattr(backend, "pair", None)
                if (
                    stages is None
                    and self.autoswitch is not None
                    and isinstance(backend, APNNBackend)
                ):
                    degraded = self.autoswitch.pair_for_depth(
                        backend.pair, visible_total
                    )
                    if degraded != backend.pair:
                        switched = True
                        # priced at the backend's default pair; for
                        # mixed-precision backends (whose sub-rung layer
                        # overrides are preserved) this is an upper bound
                        batch_accuracy_delta = accuracy_delta(
                            backend.pair, degraded
                        )
                        pair = degraded
                if stages is not None:
                    hops = tuple(
                        (
                            s.worker,
                            self._stage_engines[(model, s.index, s.worker)],
                            s.input_shape,
                        )
                        for s in stages
                    )
                else:
                    engine = self._engine_for(
                        model, name, backend, device,
                        pair if switched else None,
                    )
                    hops = ((name, engine, self.models[model].input_shape),)
                slo_ms = self.slo_ms_for(model)
                price = self._price_fn(hops)
                eligible = self.batcher.eligible_batches(depth, replicas)
                cold_specs = tuple(
                    (e, b, s)
                    for _, e, s in hops
                    for b in self.plan_cache.missing_batches(e, eligible, s)
                )
                if cold_specs:
                    # Cold cache: the batch sweep would compile inside
                    # the lock and stall the whole event loop until the
                    # cache warmed.  Reserve the visible requests (so
                    # this worker's claim survives the await, exactly as
                    # the old synchronous compile implied) and compile
                    # them off-loop below.
                    reserved = [queue.popleft() for _ in range(depth)]
                    # The reservation *is* the dispatch-order commitment
                    # (it pops the arrival-sorted head under the lock),
                    # so the reorder watermark advances here -- a
                    # co-replica warm-dispatching later arrivals during
                    # this worker's off-loop compile is not a reorder.
                    self._record_dispatch(model, reserved)
                else:
                    try:
                        decision = self.batcher.choose(
                            depth, price, slo_ms=slo_ms, replicas=replicas,
                        )
                    except Exception as exc:
                        # Pricing failed on a warm plan (rare; compile
                        # failures surface on the cold path below).
                        # Fail the visible requests' futures instead of
                        # killing the worker and hanging every submit().
                        for r in [queue.popleft() for _ in range(depth)]:
                            if not r.future.done():
                                r.future.set_exception(exc)
                        # the queue shrank: wake placement-parked
                        # workers so a stop()-drain re-checks its exit
                        cond.notify_all()
                        continue
                    take = min(decision.batch_size, depth)
                    batch = [queue.popleft() for _ in range(take)]
                    self._record_dispatch(model, batch)
                    self._commit_locked(model, batch, decision)

            if cold_specs:
                # Compile off-loop; single-flight dedupes racing workers
                # on shared keys.  Only this batch's dispatch waits --
                # other workers keep draining warm queues and clients
                # keep submitting for the whole compile.
                stall_t0 = time.perf_counter()
                try:
                    compiled = await asyncio.gather(*(
                        self.plan_cache.ensure_async(
                            e, b, s, executor=self._executor
                        )
                        for e, b, s in cold_specs
                    ))
                except Exception as exc:
                    # Compilation failed (e.g. a model/input-shape
                    # mismatch).  Mirror the warm path's planning-error
                    # handling: fail the reserved requests' futures and
                    # keep the worker alive.  (Compiles this worker did
                    # perform before the failure are counted by the plan
                    # cache's own stats.)
                    self.metrics.record_cold_compile(
                        0, (time.perf_counter() - stall_t0) * 1e6
                    )
                    for r in reserved:
                        if not r.future.done():
                            r.future.set_exception(exc)
                    async with cond:
                        # reserved work evaporated: wake parked workers
                        # so a stop()-drain re-checks its exit condition
                        cond.notify_all()
                    continue
                # sum(compiled): only keys *this* worker actually
                # compiled -- coalesced waits on another worker's
                # in-flight compile must not double-count.
                stall_us = (time.perf_counter() - stall_t0) * 1e6
                self.metrics.record_cold_compile(sum(compiled), stall_us)
                if self.tracer.enabled:
                    # The compiles themselves are wall-track spans from
                    # the plan cache; this sim-track instant marks which
                    # dispatch absorbed the stall.
                    self.tracer.event(
                        f"cold-dispatch:{model}", "compile", now_us,
                        lane=name, model=model, worker=name,
                        plans=sum(compiled), stall_wall_us=stall_us,
                    )
                async with cond:
                    # Decide with the depth captured at selection time:
                    # the old in-lock compile saw exactly this backlog,
                    # so warm-up must not change any batching outcome.
                    try:
                        decision = self.batcher.choose(
                            depth, price, slo_ms=slo_ms, replicas=replicas,
                        )
                    except Exception as exc:
                        # A capacity-squeezed cache may have evicted a
                        # just-compiled key; a recompile can re-raise.
                        for r in reserved:
                            if not r.future.done():
                                r.future.set_exception(exc)
                        cond.notify_all()
                        continue
                    take = min(decision.batch_size, depth)
                    batch = reserved[:take]
                    rest = reserved[take:]
                    if rest:
                        # Un-commit the returned leftovers first: the
                        # reserve advanced the reorder watermark over
                        # them, and their later (front-of-queue)
                        # dispatch must not count as a reorder.
                        self.metrics.note_out_of_order_submit(
                            model, rest[0].arrival_us
                        )
                        # Unclaimed leftovers rejoin at the head (they
                        # are the earliest arrivals) and idle workers
                        # are woken to serve them.
                        queue.extendleft(reversed(rest))
                        stamps = [r.arrival_us for r in queue]
                        if any(
                            a > b for a, b in zip(stamps, stamps[1:])
                        ):
                            # an out-of-order submit landed mid-compile;
                            # restore the arrival-sorted invariant
                            # _enqueue's bisect relies on (stable: ties
                            # keep leftovers-first order)
                            ordered = sorted(
                                queue, key=lambda r: r.arrival_us
                            )
                            queue.clear()
                            queue.extend(ordered)
                        cond.notify_all()
                    self._commit_locked(model, batch, decision)

            job = _Batch(
                model=model,
                hops=hops,
                requests=batch,
                batch_size=decision.batch_size,
                expected_latency_us=decision.expected_latency_us,
                meets_slo=decision.meets_slo,
                depth=depth,
                slo_us=slo_ms * 1000.0,
                pair_name=pair.name if pair is not None else "",
                switched=switched,
                accuracy_delta=batch_accuracy_delta,
                ready_us=now_us,
                sched_attrs=sched_attrs,
                cold=bool(cold_specs),
            )
            if not await self._run_hop(worker, generation, job):
                return

    def _record_dispatch(
        self, model: str, batch: list[_PendingRequest]
    ) -> None:
        """Advance the reorder watermark over first dispatches only.

        A retried request committed its dispatch order the first time
        it ran, so failover can never masquerade as a reorder.
        """
        fresh = [r for r in batch if not r.attempts]
        if fresh:
            self.metrics.record_dispatch(
                model, fresh[0].arrival_us, fresh[-1].arrival_us
            )

    def _commit_locked(
        self, model: str, batch: list[_PendingRequest], decision
    ) -> None:
        """Book one batch leaving ``model``'s queue (under the lock)."""
        for r in batch:
            r.attempts += 1
        self._served_counts[model] += len(batch)
        self._slo_infeasible[model] = not decision.meets_slo
        self._inflight += len(batch)
        self._promote_deferred()

    def _occupy(self, worker: _Worker, finish_us: float) -> None:
        """Mark ``worker`` busy until ``finish_us`` on the simulated clock."""
        worker.sim_free_at_us = finish_us
        self._sim_now_us = max(self._sim_now_us, finish_us)
        self._last_finish_us = max(self._last_finish_us, finish_us)

    async def _run_hop(
        self, worker: _Worker, generation: int, job: _Batch
    ) -> bool:
        """Run ``job``'s next hop on ``worker``, then forward or complete it.

        Returns False once the worker crashed (its loop must exit).  A
        whole model runs at its dispatch price.  A pipeline stage is
        looked up at its hop: the stage-0 dispatch compiled every
        stage's eligible batches, but a capacity-squeezed cache may
        have evicted this one since, so it recompiles off-loop
        (single-flight) rather than stalling the event loop.
        """
        _, engine, shape = job.hops[len(job.ran)]
        pipeline = len(job.hops) > 1
        try:
            price_us = job.expected_latency_us
            if pipeline:
                if self.plan_cache.peek_total_us(
                    engine, job.batch_size, shape
                ) is None:
                    await self.plan_cache.ensure_async(
                        engine, job.batch_size, shape,
                        executor=self._executor,
                    )
                # no awaits since the ensure: the plan is still cached
                price_us = self.plan_cache.total_us(
                    engine, job.batch_size, shape
                )
            start_us = max(worker.sim_free_at_us, job.ready_us)
            service_us, payloads = await worker.run(
                job.model, engine, job.batch_size, job.requests,
                start_us, price_us,
            )
        except WorkerCrashed as exc:
            async with self._cond:
                self._crash_locked(
                    worker, exc.at_us, generation, job.requests, job.model
                )
            return False
        except Exception as exc:
            # A deterministic serving error (the worker's answer, or a
            # failed stage recompile): retrying elsewhere would fail
            # identically, so fail the batch's futures and keep the
            # worker alive -- a dead loop would strand _inflight and
            # hang stop() and every client.
            for r in job.requests:
                if not r.future.done():
                    r.future.set_exception(exc)
            async with self._cond:
                self._inflight -= len(job.requests)
                self._cond.notify_all()
            return True
        job.ran.append((start_us, service_us))
        if pipeline:
            self.metrics.record_stage(
                job.model, len(job.ran) - 1, worker.name, service_us,
                len(job.requests),
            )
        if len(job.ran) < len(job.hops):
            job.ready_us = job.finish_us
            async with self._cond:
                self._stage_queues[job.hops[len(job.ran)][0]].append(job)
                self._cond.notify_all()
            return True
        await self._complete(worker.name, job, payloads)
        return True

    async def _complete(
        self, worker: str, job: _Batch, payloads: list[str] | None
    ) -> None:
        """Resolve a batch whose last hop ran on ``worker``."""
        self._inflight -= len(job.requests)
        start_us, finish_us = job.start_us, job.finish_us
        stages = (
            tuple(w for w, _, _ in job.hops) if len(job.hops) > 1 else ()
        )
        results = [
            RequestResult(
                request_id=r.request_id,
                model=r.model,
                worker=worker,
                batch_size=job.batch_size,
                batch_requests=len(job.requests),
                arrival_us=r.arrival_us,
                start_us=start_us,
                finish_us=finish_us,
                deadline_us=r.arrival_us + job.slo_us,
                pair=job.pair_name,
                switched=job.switched,
                stages=stages,
                attempts=r.attempts,
                payload=payload,
            )
            for r, payload in zip(
                job.requests, payloads or itertools.repeat("")
            )
        ]
        self.metrics.record_batch(
            worker,
            batch_size=job.batch_size,
            requests=len(job.requests),
            queue_depth=job.depth,
            # executed service over every hop; a pipeline's inter-stage
            # queueing shows up in the request latencies, and its
            # per-stage service is billed to StageMetrics
            service_us=sum(service_us for _, service_us in job.ran),
            request_latencies_us=[res.latency_us for res in results],
            meets_slo=job.meets_slo,
            deadline_misses=sum(not res.met_deadline for res in results),
            switched=job.switched,
            accuracy_delta=job.accuracy_delta,
        )
        if self.tracer.enabled:
            self._trace_batch(worker, job, results)
        for r, res in zip(job.requests, results):
            if not r.future.done():
                # Exactly-once: the future is the single completion
                # point, and only the dispatch that finished holds it.
                r.future.set_result(res)
        if self.placement_controller is not None or not self._running:
            # Placement routing, and waiting out in-flight batches
            # (a crash may requeue them), can leave workers parked on
            # the condition during a stop()-drain; wake them so they
            # re-check the exit condition once work resolves.
            async with self._cond:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # failover (only executors that can crash ever reach it)
    # ------------------------------------------------------------------
    def _crash_locked(
        self,
        worker: _Worker,
        at_us: float,
        generation: int,
        lost: Sequence[_PendingRequest] = (),
        model: str = "",
    ) -> None:
        """Mark ``worker`` dead and fail its lost batch over (under the lock).

        Only a call from the loop of the worker's live generation marks
        the crash and restarts the worker, so a stale loop can never
        crash a restarted one; ``lost`` requests are requeued regardless,
        because only their dispatching loop holds them.  A restart brings
        the worker back ``restart_delay_us`` after the crash, with a
        fresh loop for its new generation.
        """
        first = worker.alive and worker.generation == generation
        if first:
            worker.alive = False
            worker.generation += 1
            self.metrics.record_worker_crash(worker.name)
            self._sim_now_us = max(self._sim_now_us, at_us)
            if self.tracer.enabled:
                self.tracer.event(
                    f"crash:{worker.name}", "failover", at_us,
                    lane=worker.name, worker=worker.name,
                    restarts_used=worker.restarts,
                )
        if lost:
            self._inflight -= len(lost)
            retry: list[_PendingRequest] = []
            exhausted: list[_PendingRequest] = []
            for r in lost:
                if not r.future.done():
                    budget_left = r.attempts < self.policy.max_attempts
                    (retry if budget_left else exhausted).append(r)
            if retry:
                self.metrics.record_failover(worker.name, len(retry))
                # Requeue at the head: these are the earliest arrivals of
                # their queue, so head insertion keeps it sorted.
                self._queues[model].extendleft(reversed(retry))
                if self.tracer.enabled:
                    self.tracer.event(
                        f"failover:{model}", "failover", at_us,
                        lane=worker.name, worker=worker.name, model=model,
                        requests=len(retry),
                        attempts=max(r.attempts for r in retry),
                    )
            if exhausted:
                self.metrics.record_dropped(len(exhausted))
                for r in exhausted:
                    r.future.set_exception(ClusterError(
                        f"request {r.request_id} for {r.model!r} failed "
                        f"{r.attempts} dispatches (max_attempts="
                        f"{self.policy.max_attempts})"
                    ))
        if first and worker.restarts < self.policy.max_restarts:
            worker.restarts += 1
            worker.alive = True
            worker.sim_free_at_us = at_us + self.policy.restart_delay_us
            self.metrics.record_worker_restart(worker.name)
            if self.tracer.enabled:
                self.tracer.event(
                    f"restart:{worker.name}", "failover",
                    worker.sim_free_at_us, lane=worker.name,
                    worker=worker.name,
                )
            self._tasks.append(asyncio.create_task(
                self._worker_loop(worker, worker.generation),
                name=f"serve-{worker.name}-r{worker.restarts}",
            ))
        self._cond.notify_all()

    def _price_fn(self, hops):
        """Whole-request price: the sum of every hop's plan total."""
        return lambda batch: sum(
            self.plan_cache.total_us(e, batch, s) for _, e, s in hops
        )

    # ------------------------------------------------------------------
    # tracing (every caller guards with ``self.tracer.enabled``)
    # ------------------------------------------------------------------
    def _trace_admission(self, req: _PendingRequest, outcome: str) -> None:
        """Instant event for one admission decision, at the arrival stamp."""
        self.tracer.event(
            f"admission:{outcome}", "admission", req.arrival_us,
            lane="admission",
            model=req.model, request_id=req.request_id, outcome=outcome,
            queue_depth=self.queue_depth, deferred_depth=self.deferred_depth,
        )

    def _trace_batch(
        self, worker: str, job: _Batch, results: list[RequestResult]
    ) -> None:
        """One completed batch: batch span + kernels + requests.

        A pipeline's batch span (stage-0 start to last-stage finish)
        gets one stage child per hop on its own worker lane, each with
        its kernel children; any other batch gets its kernel children
        directly.
        """
        pipeline = len(job.hops) > 1
        attrs = {
            "model": job.model, "worker": worker,
            "batch_size": job.batch_size, "requests": len(results),
            "queue_depth": job.depth,
            "expected_latency_us": job.expected_latency_us,
            "meets_slo": job.meets_slo,
            "pair": job.pair_name, "switched": job.switched,
            "plan_cache_hit": not job.cold,
        }
        if pipeline:
            attrs["pipeline"] = True
            attrs["stages"] = [w for w, _, _ in job.hops]
        if job.sched_attrs:
            attrs.update(job.sched_attrs)
        batch_id = self.tracer.span(
            f"batch:{job.model}", "batch", job.start_us, job.finish_us,
            lane=worker, **attrs,
        )
        for index, ((lane, engine, shape), (start_us, service_us)) in (
            enumerate(zip(job.hops, job.ran))
        ):
            parent_id = batch_id
            if pipeline:
                parent_id = self.tracer.span(
                    f"stage:{job.model}[{index}]", "stage",
                    start_us, start_us + service_us,
                    parent_id=batch_id, lane=lane,
                    model=job.model, stage=index,
                    batch_size=job.batch_size, requests=len(results),
                )
            self._trace_kernels(
                parent_id, lane, engine, job.batch_size, shape, start_us
            )
        self._trace_requests(batch_id, worker, results)

    def _trace_kernels(
        self,
        parent_id: int,
        lane: str,
        engine: InferenceEngine,
        batch_size: int,
        input_shape: tuple[int, ...],
        start_us: float,
    ) -> None:
        """Per-fused-group kernel child spans under one batch/stage span.

        The plan is read through :meth:`PlanCache.peek_plan` (pure read:
        no hit/miss churn, no LRU reorder -- a traced run's cache stats
        stay byte-identical to an untraced one) and priced with the
        engine's own latency model, so the children tile the parent
        exactly: group latencies sum to the plan total the dispatch was
        priced with.  Each child carries the group's merged
        :class:`ExecutionCounters` as attributes -- the counter-to-phase
        attribution at the kernel boundary.
        """
        plan = self.plan_cache.peek_plan(engine, batch_size, input_shape)
        if plan is None:
            return  # evicted since dispatch: keep the parent span only
        latency_model = engine.latency_model
        t = start_us
        for group in plan.groups:
            duration_us = sum(
                latency_model.latency_us(c) for c in group.costs
            )
            counters = ExecutionCounters()
            for c in group.costs:
                counters.merge(c.counters)
            self.tracer.span(
                f"kernel:{group.name}", "kernel", t, t + duration_us,
                parent_id=parent_id, lane=lane,
                kind=group.kind, kernels=len(group.costs),
                **counters.as_dict(),
            )
            t += duration_us

    def _trace_requests(
        self, batch_id: int, worker: str, results: list[RequestResult]
    ) -> None:
        """Request spans: arrival -> finish, with queue/execute children.

        The two children partition the request exactly -- queue wait
        (arrival to batch start) plus execution (batch start to finish)
        is the whole simulated latency, which is what lets the coverage
        test demand >= 95% attribution for every request.
        """
        for res in results:
            req_span = self.tracer.span(
                f"request:{res.request_id}", "request",
                res.arrival_us, res.finish_us, lane=res.model,
                request_id=res.request_id, model=res.model,
                worker=worker, attempts=res.attempts, batch_span=batch_id,
            )
            self.tracer.span(
                "queue", "queue", res.arrival_us, res.start_us,
                parent_id=req_span, lane=res.model,
            )
            self.tracer.span(
                "execute", "dispatch", res.start_us, res.finish_us,
                parent_id=req_span, lane=res.model, batch_span=batch_id,
            )
