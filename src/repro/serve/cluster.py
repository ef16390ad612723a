"""Fault-tolerant multi-process scale-out for the serving stack.

A :class:`ClusterCoordinator` is an :class:`~repro.serve.server
.InferenceServer` over N named APNN workers.  It schedules through the
server's one worker loop -- dynamic batching under ``slo_ms``, the
queue discipline, admission, placement -- and only swaps what executes
a batch: a deterministic in-process simulation driven by a
:class:`FaultPlan` (``mode="sim"``), or a **real subprocess**
(``mode="process"``) speaking the length-prefixed JSON protocol of
:mod:`repro.serve.ipc` over its stdin/stdout pipes.  Both modes share
the persistent :class:`~repro.serve.plan_cache.PlanCacheStore`: the
coordinator prewarms every candidate plan into ``cache_dir`` and each
worker subprocess loads the same store, so no process ever replans what
another already priced.

Failure handling, the point of the module:

* **crash detection** -- a subprocess worker that dies (kill -9, OOM,
  bug) surfaces as EOF or a torn frame on its pipe; a wedged-but-alive
  one is caught by the coordinator's heartbeat pings
  (``heartbeat_timeout_s`` without any frame -> declared dead and
  killed).  Simulated workers crash at the exact simulated instants a
  :class:`FaultPlan` scripts.
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
* **restart** -- crashed workers optionally respawn (``max_restarts``
  per worker): simulated workers come back ``restart_delay_us`` later
  on the simulated clock; subprocess workers are re-spawned and reload
  their plans from the shared store.
* **graceful drain** -- ``stop()`` lets every queued and in-flight
  request complete (failing over if a worker dies mid-drain) before
  shutting worker processes down with a ``shutdown`` frame.

Determinism: in sim mode nothing sleeps and nothing reads the wall
clock -- crashes, slowdowns and store corruption all happen at scripted
simulated instants -- so every failure schedule replays bit-identically
and the invariant suite (zero ``dropped_requests``, zero
``reordered_dispatches``, byte-identical payloads vs the fault-free
run) holds without a single wall-clock sleep.  Process mode keeps the
same simulated-time accounting (service comes from the worker's priced
plan, not elapsed wall time); only crash *detection* is wall-clock,
because real processes die in real time.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from ..core.types import PrecisionPair
from ..nn.engine import APNNBackend, InferenceEngine, backend_key
from ..nn.models import alexnet, micro_cnn, resnet18
from ..obs import Tracer
from ..tensorcore.device import RTX3090, DeviceSpec
from .ipc import (
    IPC_SCHEMA_VERSION,
    canonical_json,
    read_frame,
    read_frame_async,
    write_frame,
    write_frame_async,
)
from .metrics import ServerMetrics
from .placement import PlacementPolicy
from .plan_cache import PlanCache, PlanCacheStore
from .server import (
    ClusterError,
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
    "result_payload",
]

_FAULT_KINDS = ("crash", "slow", "corrupt_store")

#: Candidate batch sizes of a cluster's dynamic batcher (batch 1 is
#: always added: result payloads carry the batch-1 price).
DEFAULT_CLUSTER_BATCHES = (1, 2, 4, 8)


# ----------------------------------------------------------------------
# model specs (serializable: workers rebuild models from these)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelSpec:
    """A model as data, so worker subprocesses can rebuild it.

    Subprocess workers cannot receive live :class:`~repro.nn.module
    .Sequential` objects over a JSON pipe; they receive specs and call
    :meth:`build`.  Construction is deterministic (the builder seeded
    with ``seed``, fixed architecture per ``kind``, the model named
    ``name``), so the coordinator and every worker derive identical
    layer geometry -- and therefore identical plan keys and identical
    plan prices -- from the same spec.  A plan key names the model but
    holds no class count, so specs that differ in ``num_classes`` need
    distinct names.
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelSpec":
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            seed=int(data["seed"]),
            input_shape=tuple(data["input_shape"]),
            num_classes=int(data["num_classes"]),
        )

    def build(self):
        """Construct the model, named ``name`` and seeded ``seed``.

        A build draws no weight: the builders defer every draw to the
        first read of a weight, which planning, pricing and serving never
        make, so each worker spawn and restart pays for shapes alone.
        ``micro`` models are memoized by :func:`~repro.nn.models
        .micro_cnn`.
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

    Pure data: the coordinator consumes it in sim mode only (real
    subprocesses are failed with real signals via
    :meth:`ClusterCoordinator.kill_worker`).  Build with the named
    constructors::

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

    def __bool__(self) -> bool:
        return bool(self.events)

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
# subprocess transport (process mode)
# ----------------------------------------------------------------------
class _WorkerProcess:
    """One live worker subprocess: pipes, reader task, heartbeats.

    ``call()`` is request/response over sequence numbers; the reader
    task demultiplexes replies and pongs.  Any EOF or torn frame fails
    every pending call with :class:`WorkerCrashed` and fires
    ``on_death`` exactly once -- the coordinator's crash path -- whether
    the process was killed, crashed, or timed out and was killed by the
    heartbeat monitor here.
    """

    def __init__(
        self,
        name: str,
        hello: dict,
        policy: ClusterPolicy,
        metrics: ServerMetrics,
        on_death,
    ) -> None:
        self.name = name
        self._hello = hello
        self._policy = policy
        self._metrics = metrics
        self._on_death = on_death
        self.proc: asyncio.subprocess.Process | None = None
        self.ready: dict = {}
        self._seq = itertools.count()
        self._pending: dict[int, asyncio.Future] = {}
        self._tasks: list[asyncio.Task] = []
        self._closing = False
        self._dead = False
        self._last_contact = 0.0

    async def start(self) -> None:
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src_root) + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else str(src_root)
        )
        # -c instead of -m: the package re-exports this module, so
        # runpy's re-execution under -m would warn about the duplicate.
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-c",
            "import sys; from repro.serve.cluster import _worker_main; "
            "sys.exit(_worker_main())",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        await write_frame_async(self.proc.stdin, self._hello)
        ready = await read_frame_async(self.proc.stdout)
        if ready is None or ready.get("type") != "ready":
            raise RuntimeError(
                f"worker {self.name} failed its handshake: {ready!r}"
            )
        self.ready = ready
        self._last_contact = time.monotonic()  # repro: allow-wall-clock -- process-mode heartbeat bookkeeping
        self._tasks = [
            asyncio.create_task(
                self._read_loop(), name=f"cluster-read-{self.name}"
            ),
            asyncio.create_task(
                self._heartbeat_loop(), name=f"cluster-hb-{self.name}"
            ),
        ]

    # ------------------------------------------------------------------
    async def call(self, message: dict) -> dict:
        """Send one frame and await its reply (same ``seq``)."""
        if self._dead or self.proc is None:
            raise WorkerCrashed(f"worker {self.name} is dead")
        seq = next(self._seq)
        message = dict(message, seq=seq)
        fut = asyncio.get_running_loop().create_future()
        self._pending[seq] = fut
        try:
            await write_frame_async(self.proc.stdin, message)
        except (ConnectionError, RuntimeError, OSError) as exc:
            self._pending.pop(seq, None)
            raise WorkerCrashed(
                f"worker {self.name} pipe closed mid-send"
            ) from exc
        return await fut

    def kill(self) -> None:
        """SIGKILL the worker process (the tests' mid-batch murder)."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()

    async def close(self) -> None:
        """Graceful shutdown: drain frame, bounded wait, then kill."""
        self._closing = True
        if self.proc is not None and self.proc.returncode is None:
            try:
                await asyncio.wait_for(
                    self.call({"type": "shutdown"}), timeout=5.0
                )
            except (WorkerCrashed, asyncio.TimeoutError, OSError):  # repro: allow-swallowed-exception -- best-effort shutdown of a dying subprocess
                pass
            try:
                await asyncio.wait_for(self.proc.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                self.kill()
                await self.proc.wait()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # repro: allow-swallowed-exception -- reaping cancelled reader/heartbeat tasks
                pass
        self._tasks = []

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        assert self.proc is not None
        try:
            while True:
                msg = await read_frame_async(self.proc.stdout)
                if msg is None:
                    break
                self._last_contact = time.monotonic()  # repro: allow-wall-clock -- real subprocess liveness, not sim time
                if msg.get("type") == "pong":
                    continue
                seq = msg.get("seq")
                fut = self._pending.pop(seq, None)
                if fut is not None and not fut.done():
                    fut.set_result(msg)
        except Exception:  # repro: allow-swallowed-exception -- torn frame or closed pipe: same as EOF below
            pass
        self._mark_dead()

    async def _heartbeat_loop(self) -> None:
        """Ping on an interval; declare death on silence past timeout.

        A worker busy pricing a batch does not pong (its loop is
        single-threaded on purpose -- a worker that cannot serve *is*
        degraded), so the timeout must exceed any honest batch; the
        slow-worker tests shrink it to catch a wedged worker quickly.
        """
        assert self.proc is not None
        while not self._closing and not self._dead:
            await asyncio.sleep(self._policy.heartbeat_interval_s)
            if self._closing or self._dead:
                return
            silent_s = time.monotonic() - self._last_contact  # repro: allow-wall-clock -- heartbeat staleness is wall time
            if silent_s > self._policy.heartbeat_timeout_s:
                self._metrics.record_heartbeat_timeout(self.name)
                self.kill()  # EOF lands in the read loop -> death path
                return
            try:
                await write_frame_async(
                    self.proc.stdin, {"type": "ping"}
                )
            except (ConnectionError, RuntimeError, OSError):
                return  # pipe gone; the read loop handles it

    def _mark_dead(self) -> None:
        if self._dead:
            return
        self._dead = True
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(
                    WorkerCrashed(f"worker {self.name} died in flight")
                )
        self._pending.clear()
        if not self._closing:
            self._on_death(self)


# ----------------------------------------------------------------------
# worker subprocess entry point
# ----------------------------------------------------------------------
def _worker_main() -> int:
    """Serve batches over stdin/stdout frames until shutdown or EOF.

    The loop is deliberately sequential and blocking: one frame in, one
    frame out.  All pricing state (engines, plan cache over the shared
    store) is rebuilt from the ``hello`` message, so a respawned worker
    is indistinguishable from the original -- same plan keys, same
    totals, same result bytes.
    """
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Frames own the real stdout; redirect stray prints from model /
    # kernel code to stderr so they can never corrupt the stream.
    sys.stdout = sys.stderr

    hello = read_frame(stdin)
    if hello is None:
        return 0
    if (
        hello.get("type") != "hello"
        or hello.get("ipc") != IPC_SCHEMA_VERSION
    ):
        write_frame(stdout, {
            "type": "error", "seq": hello.get("seq"),
            "message": f"bad hello (ipc {hello.get('ipc')!r} "
                       f"!= {IPC_SCHEMA_VERSION})",
        })
        return 1
    name = hello["worker"]
    if hello["device"] != RTX3090.name:
        write_frame(stdout, {
            "type": "error", "seq": hello.get("seq"),
            "message": f"unknown device {hello['device']!r}",
        })
        return 1
    backend = APNNBackend(PrecisionPair.parse(hello["pair"]))
    device = RTX3090
    cache_dir = hello.get("cache_dir")
    cache = (
        PlanCache(store=PlanCacheStore(cache_dir))
        if cache_dir else PlanCache()
    )
    specs = {
        n: ModelSpec.from_dict(d) for n, d in hello["models"].items()
    }
    engines = {
        n: InferenceEngine(spec.build(), backend, device)
        for n, spec in specs.items()
    }
    write_frame(stdout, {
        "type": "ready",
        "worker": name,
        "pid": os.getpid(),
        "plans_loaded": len(cache),
        "store_recovered_lines": cache.stats().store_recovered_lines,
    })

    slow_sleep_s = float(hello.get("slow_sleep_s", 0.0))
    while True:
        msg = read_frame(stdin)
        if msg is None:
            return 0  # coordinator hung up: treat as shutdown
        mtype = msg.get("type")
        if mtype == "ping":
            write_frame(stdout, {"type": "pong", "seq": msg.get("seq")})
        elif mtype == "set_slow":
            # Test hook: wedge this worker (sleep before every reply) so
            # the heartbeat monitor has something real to catch.
            slow_sleep_s = float(msg["seconds"])
            write_frame(stdout, {"type": "ok", "seq": msg.get("seq")})
        elif mtype == "batch":
            model = msg["model"]
            batch_size = int(msg["batch_size"])
            try:
                engine = engines[model]
                shape = specs[model].input_shape
                service_us = cache.total_us(engine, batch_size, shape)
                unit_us = cache.total_us(engine, 1, shape)
                results = [
                    {
                        "request_id": rid,
                        "payload": result_payload(
                            model, backend, device, unit_us, rid
                        ),
                    }
                    for rid in msg["requests"]
                ]
            except Exception as exc:
                write_frame(stdout, {
                    "type": "error", "seq": msg.get("seq"),
                    "message": f"{type(exc).__name__}: {exc}",
                })
                continue
            if slow_sleep_s > 0:
                time.sleep(slow_sleep_s)  # repro: allow-wall-clock -- fault-injection wedge hook in the real subprocess
            write_frame(stdout, {
                "type": "result",
                "seq": msg.get("seq"),
                "service_us": service_us,
                "compiles": cache.stats().compiles,
                "results": results,
            })
        elif mtype == "shutdown":
            write_frame(stdout, {"type": "bye", "seq": msg.get("seq")})
            return 0
        else:
            write_frame(stdout, {
                "type": "error", "seq": msg.get("seq"),
                "message": f"unknown message type {mtype!r}",
            })


# ----------------------------------------------------------------------
# cluster executors (workers of the server loop)
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


class _ProcessWorker(_Worker):
    """A worker subprocess speaking :mod:`repro.serve.ipc` frames.

    The subprocess prices each batch at the pair it was started with
    and returns the result payloads; its transport's death (EOF, torn
    frame, heartbeat silence) crashes the worker through the server's
    failover path.
    """

    def __init__(self, server, name: str, backend, device) -> None:
        super().__init__(server, name, backend, device)
        self.transport: _WorkerProcess | None = None

    async def start(self) -> None:
        await super().start()
        self.transport = await self._spawn()

    async def _spawn(self) -> _WorkerProcess:
        cluster = self.server
        store = cluster.plan_cache.store
        hello = {
            "type": "hello",
            "ipc": IPC_SCHEMA_VERSION,
            "worker": self.name,
            "pair": cluster.pair.name,
            "device": self.device.name,
            "cache_dir": str(store.cache_dir) if store is not None else None,
            "models": {
                n: spec.to_dict() for n, spec in cluster.specs.items()
            },
        }
        transport = _WorkerProcess(
            self.name, hello, cluster.policy, cluster.metrics,
            self._transport_died,
        )
        await transport.start()
        return transport

    def _transport_died(self, transport: _WorkerProcess) -> None:
        """Reader-task callback: a live process's pipe went away.

        Handled in a tracked task (stop() gathers it) because the
        callback fires inside the transport's reader task, which must
        not block on the server lock.
        """
        self.server._tasks.append(asyncio.get_running_loop().create_task(
            self._on_transport_death(transport),
            name=f"cluster-death-{self.name}",
        ))

    async def _on_transport_death(self, transport: _WorkerProcess) -> None:
        cluster = self.server
        async with cluster._cond:
            if self.transport is not transport:
                return  # stale: a restart already replaced it
            if self.alive:
                cluster._crash_locked(
                    self, cluster._sim_now_us, self.generation
                )
            cluster._cond.notify_all()

    async def run(
        self, model, engine, batch_size, requests, start_us, service_us
    ):
        if self.transport is None:
            raise WorkerCrashed(f"worker {self.name} has no live process")
        reply = await self.transport.call({
            "type": "batch",
            "model": model,
            "batch_size": batch_size,
            "requests": [r.request_id for r in requests],
        })
        if reply.get("type") == "error":
            raise ClusterError(
                f"worker {self.name} failed batch for {model!r}: "
                f"{reply.get('message')}"
            )
        service_us = float(reply["service_us"])
        self.server._occupy(self, start_us + service_us)
        payloads = {
            int(r["request_id"]): r["payload"] for r in reply["results"]
        }
        return service_us, [payloads[r.request_id] for r in requests]

    def restart(self, at_us: float) -> None:
        self.server._tasks.append(asyncio.create_task(
            self.respawn(self.generation), name=f"cluster-respawn-{self.name}"
        ))

    async def respawn(self, generation: int) -> None:
        """Replace the dead subprocess and bring the worker back alive."""
        cluster = self.server
        old = self.transport
        try:
            transport = await self._spawn()
        except Exception as exc:
            # The worker stays dead and survivors carry the load, but
            # the dead transport must still be reaped (it holds the
            # crashed subprocess plus its reader/heartbeat tasks) and
            # the spawn failure must surface as a failover event, not
            # vanish.
            if cluster.tracer.enabled:
                cluster.tracer.event(
                    f"restart-failed:{self.name}", "failover",
                    cluster._sim_now_us, lane=self.name, worker=self.name,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if old is not None:
                await old.close()
            async with cluster._cond:
                cluster._cond.notify_all()
            return
        installed = False
        async with cluster._cond:
            if self.generation == generation:
                self.transport = transport
                cluster._revive_locked(
                    self, max(self.sim_free_at_us, cluster._sim_now_us)
                )
                installed = True
            cluster._cond.notify_all()
        if not installed:
            await transport.close()  # lost the race to a newer crash
        elif old is not None:
            await old.close()  # reap the killed process

    async def close(self) -> None:
        if self.transport is not None:
            await self.transport.close()
            self.transport = None


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class ClusterCoordinator(InferenceServer):
    """An :class:`InferenceServer` over N APNN workers with failover.

    Models arrive as :class:`ModelSpec` data (worker subprocesses
    rebuild them); ``num_workers`` workers named ``worker-0`` ... all
    serve ``pair`` on an RTX 3090.  Scheduling is the server's: batches
    are sized by the dynamic batcher under ``slo_ms`` and picked by the
    queue ``discipline`` behind ``admission`` -- those and the server's
    other keyword options pass straight through -- and results are
    :class:`~repro.serve.server.RequestResult` with ``attempts`` and the
    canonical ``payload`` filled in.

    ``mode="sim"`` prices batches in-process on the simulated clock,
    with a :class:`FaultPlan` scripting failures deterministically;
    ``mode="process"`` spawns one real Python subprocess per worker (see
    :func:`_worker_main`) and prices batches there, with real crash
    detection.  A subprocess prices at the pair it was started with, so
    precision autoswitching needs ``mode="sim"``; pipeline sharding is
    not supported on clusters.  ``start()`` prewarms every (model,
    candidate batch) plan by default, so worker subprocesses find a
    fully warm shared store.
    """

    def __init__(
        self,
        models: Mapping[str, ModelSpec],
        num_workers: int = 2,
        *,
        mode: str = "sim",
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
        if mode not in ("sim", "process"):
            raise ValueError(f"mode must be 'sim' or 'process', got {mode!r}")
        faults = faults if faults is not None else FaultPlan()
        if faults and mode == "process":
            raise ValueError(
                "FaultPlan schedules simulated instants; in process mode "
                "inject real faults via kill_worker()/set_slow()"
            )
        if options.get("autoswitch") is not None and mode == "process":
            raise ValueError(
                "a worker subprocess prices at the precision pair it was "
                "started with; precision autoswitching needs mode='sim'"
            )
        if placement is not None and placement.shard:
            raise ValueError(
                "the cluster layer does not run pipeline-sharded models; "
                "use InferenceServer for shard specs"
            )
        for name, spec in models.items():
            if not isinstance(spec, ModelSpec):
                raise TypeError(
                    f"model {name!r}: cluster models must be ModelSpec "
                    f"(workers rebuild them from data), got {type(spec)}"
                )
        self.mode = mode
        self.faults = faults
        self.specs: dict[str, ModelSpec] = dict(models)
        if isinstance(pair, str):
            pair = PrecisionPair.parse(pair)
        self.pair = pair
        self._corruptions: deque[float] = deque(faults.corruption_times())
        self._store_damage_seen = 0
        backend = APNNBackend(self.pair)
        super().__init__(
            {
                name: ServedModel(spec.build(), spec.input_shape)
                for name, spec in self.specs.items()
            },
            [(backend, RTX3090)] * num_workers,
            candidate_batches=(*candidate_batches, 1),
            placement=placement,
            cache_dir=cache_dir,
            tracer=tracer,
            **options,
        )
        if policy is not None:
            self.policy = policy

    @staticmethod
    def _worker_names(workers) -> list[str]:
        return [f"worker-{i}" for i in range(len(workers))]

    def _make_worker(self, name: str, backend, device) -> _Worker:
        worker = _ProcessWorker if self.mode == "process" else _SimWorker
        return worker(self, name, backend, device)

    async def start(self, *, prewarm: bool = True) -> None:
        """Start as the server does, prewarmed by default so worker
        subprocesses load every candidate plan from the shared store."""
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

    # ------------------------------------------------------------------
    # test hooks (process mode)
    # ------------------------------------------------------------------
    def worker_pids(self) -> dict[str, int]:
        if self.mode != "process":
            return {}
        return {
            name: worker.transport.ready["pid"]
            for name, worker in self._workers.items()
            if worker.transport is not None and worker.transport.ready
        }

    def kill_worker(self, name: str) -> None:
        """SIGKILL a real worker subprocess (mid-batch murder hook)."""
        if self.mode != "process":
            raise RuntimeError(
                "kill_worker needs mode='process'; script a FaultPlan "
                "crash for simulated clusters"
            )
        transport = self._workers[name].transport
        if transport is not None:
            transport.kill()

    async def set_slow(self, name: str, seconds: float) -> None:
        """Make a real worker sleep before every reply (wedge hook)."""
        if self.mode != "process":
            raise RuntimeError("set_slow needs mode='process'")
        transport = self._workers[name].transport
        if transport is None:
            raise RuntimeError(f"worker {name} has no live process")
        await transport.call({"type": "set_slow", "seconds": seconds})

