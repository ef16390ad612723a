"""Async batched inference serving on top of the analytical cost stack.

This package turns the per-model pricing of
:class:`~repro.nn.engine.InferenceEngine` into a throughput-oriented
request-serving pipeline -- the road from the paper's offline wXaY
latency tables (Tables 2-4) toward serving live traffic:

``plan_cache``
    LRU memo of compiled engine plans (fused groups + dataflow +
    autotuned tiles + kernel cost chains) keyed by (model, backend,
    precision, device, batch, input shape), so repeat requests never
    re-plan.  Cold keys compile off-loop with single-flight dedup
    (``ensure_async``), and a ``PlanCacheStore`` persists plans as
    JSON lines so restarted servers start warm.
``batcher``
    Dynamic batching: sweeps candidate batch sizes through the latency
    model and picks the one maximizing modeled throughput under an SLO.
``scheduler``
    Pluggable queue disciplines deciding which model a freed worker
    serves next: FIFO (default), SLO-aware earliest-deadline-first, and
    per-model weighted fair queueing.
``policies``
    Load management: admission control (shed/defer past a queue-depth
    cap) and precision autoswitching (degrade ``wXaY`` under backlog,
    trading modeled Table-1 accuracy for latency).
``placement``
    Which models live on which workers: metrics-driven replication of
    hot models (windowed arrival rates vs modeled per-replica service
    rates, rebalanced atomically at epoch boundaries) and
    pipeline-parallel sharding of large models into cost-balanced
    stages on distinct workers.
``server``
    Asyncio front end (``submit()`` / ``serve_forever()``) dispatching
    coalesced batches to worker loops across backends and devices on a
    simulated clock -- the one serving core.  Each loop hands its batch
    to the worker's executor, and fails a crashed worker's batch over
    with bounded retry and restarts.
``cluster``
    Fault-injected cluster simulation: a server subclass over N named
    workers that crash, slow down and damage the shared
    ``PlanCacheStore`` at the simulated instants a ``FaultPlan``
    scripts, with bounded retry, failover, restarts and exactly-once,
    byte-identical result payloads (``result_payload``, rendered by
    ``canonical_json``).
``http``
    Network ingress (subpackage :mod:`repro.serve.http`, imported on
    demand): a stdlib HTTP/1.1 + WebSocket gateway over an
    ``InferenceServer``'s ``submit()`` with streaming result delivery,
    per-client bounded send queues (backpressure) and graceful drain
    behind the shared ``draining`` state.
``metrics``
    Per-worker p50/p95 simulated latency, queue depth, batch occupancy,
    admission/autoswitch counters, and plan-/autotune-cache hit rates.
``trace``
    Poisson / burst load generators and a trace replayer.
"""

from .batcher import DEFAULT_CANDIDATE_BATCHES, BatchDecision, DynamicBatcher
from .cluster import (
    ClusterCoordinator,
    FaultEvent,
    FaultPlan,
    ModelSpec,
    canonical_json,
    result_payload,
)
from .metrics import (
    METRICS_SCHEMA_VERSION,
    ServerMetrics,
    StageMetrics,
    WorkerMetrics,
    percentile,
)
from .placement import (
    ModelPlacement,
    Placement,
    PlacementController,
    PlacementDecision,
    PlacementPolicy,
    StagePlan,
    partition_units,
    pipeline_stages,
    run_pipeline,
)
from .plan_cache import (
    STORE_SCHEMA_VERSION,
    PlanCache,
    PlanCacheStats,
    PlanCacheStore,
    PlanKey,
)
from .policies import (
    AdmissionPolicy,
    AdmissionRejected,
    PrecisionAutoswitcher,
    accuracy_delta,
    modeled_accuracy,
)
from .scheduler import (
    DISCIPLINES,
    EDFDiscipline,
    FIFODiscipline,
    QueueDiscipline,
    QueueSnapshot,
    WFQDiscipline,
    make_discipline,
)
from .server import (
    ClusterError,
    ClusterPolicy,
    InferenceServer,
    RequestResult,
    ServedModel,
    ServerDraining,
    WorkerCrashed,
)
from .trace import (
    RejectedRequest,
    TraceEvent,
    burst_trace,
    poisson_trace,
    replay,
    skewed_trace,
)

__all__ = [
    "PlanKey",
    "PlanCache",
    "PlanCacheStats",
    "PlanCacheStore",
    "STORE_SCHEMA_VERSION",
    "BatchDecision",
    "DynamicBatcher",
    "DEFAULT_CANDIDATE_BATCHES",
    "ServerMetrics",
    "StageMetrics",
    "WorkerMetrics",
    "METRICS_SCHEMA_VERSION",
    "percentile",
    "PlacementPolicy",
    "PlacementController",
    "PlacementDecision",
    "Placement",
    "ModelPlacement",
    "StagePlan",
    "partition_units",
    "pipeline_stages",
    "run_pipeline",
    "QueueDiscipline",
    "QueueSnapshot",
    "FIFODiscipline",
    "EDFDiscipline",
    "WFQDiscipline",
    "DISCIPLINES",
    "make_discipline",
    "AdmissionPolicy",
    "AdmissionRejected",
    "PrecisionAutoswitcher",
    "modeled_accuracy",
    "accuracy_delta",
    "InferenceServer",
    "RequestResult",
    "ServedModel",
    "ServerDraining",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterPolicy",
    "FaultEvent",
    "FaultPlan",
    "ModelSpec",
    "WorkerCrashed",
    "result_payload",
    "canonical_json",
    "TraceEvent",
    "RejectedRequest",
    "poisson_trace",
    "burst_trace",
    "skewed_trace",
    "replay",
]
