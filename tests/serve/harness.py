"""Deterministic simulated-clock harness for serving tests.

Every scheduling policy in :mod:`repro.serve` is assertable without
wall-clock sleeps because the server does its time accounting on a
simulated microsecond clock (``time_scale=0`` never sleeps, it only
yields).  This harness packages the boilerplate:

* :func:`run_trace` replays a trace against a server inside a fresh
  event loop and returns a :class:`HarnessRun` with the results, the
  admission rejections, and percentile/violation helpers;
* :func:`make_server` builds a small two-model server (64x64 AlexNet
  with a tight SLO, 32x32 ResNet-18 with a loose one) on one APNN
  worker, so queues actually back up and disciplines differ;
* :func:`make_cluster` scales that up to a simulated *cluster*: N
  identical APNN workers serving a scripted hot/cold model population
  (:func:`hot_cold_models`, cheap micro-CNNs so ten distinct models
  plan in milliseconds), with an optional
  :class:`~repro.serve.placement.PlacementPolicy` driving replication
  and sharding -- the bench the placement tests assert on;
* :func:`skew_trace` scripts the per-model arrival skew those tests
  replay (a thin, constants-pinned wrapper over
  :func:`repro.serve.skewed_trace`);
* :class:`RecordingPlacementObserver` subscribes to the placement
  controller and records every decision plus each epoch's replica
  gauge, so tests can assert *which* models replicated, *when*, and
  that two seeded runs decide identically;
* :class:`RecordingPlanCache` is the compile-call/stall recorder: it
  logs every ``engine.compile()`` the cache performs and whether it ran
  synchronously on the caller's thread (``in_loop``, the event-loop
  stall) or in an executor, so cold-start tests can assert *zero*
  compiles after a persisted restart and single-flight dedup under
  racing workers;
* :class:`RecordingTracer` is a real :class:`repro.obs.Tracer` with
  span-slicing helpers (by prefix/phase, parent coverage, nesting
  assertions) for the end-to-end tracing tests;
* model construction is memoized per test session -- planning state
  lives in engines, so tests can share the network objects freely.

Determinism: a single-threaded event loop, a seeded trace, and the
simulated clock give bit-identical latencies run-over-run; the
determinism test in ``test_determinism.py`` guards exactly that, and
``test_placement.py`` extends it to placement decisions.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field

from repro.core import PrecisionPair
from repro.nn import APNNBackend, alexnet, resnet18
from repro.nn.module import Sequential
from repro.obs import Span, Tracer
from repro.serve import (
    ClusterCoordinator,
    ClusterPolicy,
    FaultPlan,
    InferenceServer,
    ModelSpec,
    PlacementDecision,
    PlacementPolicy,
    PlanCache,
    RejectedRequest,
    RequestResult,
    ServedModel,
    TraceEvent,
    percentile,
    replay,
    skewed_trace,
)
from repro.tensorcore import RTX3090

W1A2 = PrecisionPair.parse("w1a2")
W2A8 = PrecisionPair.parse("w2a8")

#: Default per-model SLOs, shared with the `scheduling` experiment so
#: workload retunes cannot drift apart.  Tight = 0.4 ms: a ~50 us/batch
#: alexnet meets it when dispatched promptly but not behind a
#: drained-first resnet backlog (~125 us/batch); loose = 50 ms absorbs
#: any queueing here.
from repro.experiments.figures import (  # noqa: E402
    SCHEDULING_LOOSE_SLO_MS as LOOSE_SLO_MS,
    SCHEDULING_TIGHT_SLO_MS as TIGHT_SLO_MS,
)


@functools.lru_cache(maxsize=None)
def small_alexnet():
    return alexnet(num_classes=10, input_size=64)


@functools.lru_cache(maxsize=None)
def small_resnet():
    return resnet18(num_classes=10, input_size=32)


def default_models() -> dict[str, ServedModel]:
    """Two small models with contrasting SLOs (and equal WFQ weights)."""
    return {
        "alexnet-tight": ServedModel(
            small_alexnet(), (3, 64, 64), slo_ms=TIGHT_SLO_MS
        ),
        "resnet-loose": ServedModel(
            small_resnet(), (3, 32, 32), slo_ms=LOOSE_SLO_MS
        ),
    }


def make_server(
    models: dict[str, ServedModel] | None = None,
    workers=None,
    **kwargs,
) -> InferenceServer:
    """A small single-worker server; keyword args pass through."""
    kwargs.setdefault("slo_ms", 5.0)
    return InferenceServer(
        models if models is not None else default_models(),
        workers if workers is not None else [(APNNBackend(W1A2), RTX3090)],
        **kwargs,
    )


# ----------------------------------------------------------------------
# simulated cluster (placement tests)
# ----------------------------------------------------------------------
#: Cluster workload constants, shared with the `placement` experiment
#: (the single source, same as the scheduling workload above) so the
#: study and its tests can never drift onto different workloads.
from repro.experiments.figures import (  # noqa: E402
    PLACEMENT_BATCHES as CLUSTER_BATCHES,
    PLACEMENT_COLD as CLUSTER_COLD,
    PLACEMENT_HOT as CLUSTER_HOT,
    PLACEMENT_HOT_FRACTION as CLUSTER_HOT_FRACTION,
    PLACEMENT_INPUT_SHAPE as CLUSTER_INPUT_SHAPE,
    PLACEMENT_RATE_RPS as CLUSTER_RATE_RPS,
    PLACEMENT_WORKERS as CLUSTER_WORKERS,
    placement_micro_net,
    placement_policy,
)


def micro_net(name: str, seed: int = 0) -> Sequential:
    """The placement workload's micro-CNN (memoized by ``micro_cnn``)."""
    return placement_micro_net(name, seed)


def hot_cold_models(
    hot: tuple[str, ...] = CLUSTER_HOT,
    cold: tuple[str, ...] = CLUSTER_COLD,
) -> dict[str, ServedModel]:
    """The cluster's model population: distinct micro-nets per name."""
    return {
        name: ServedModel(micro_net(name, seed), CLUSTER_INPUT_SHAPE)
        for seed, name in enumerate(hot + cold)
    }


def cluster_policy(**overrides) -> PlacementPolicy:
    """The placement policy the cluster tests exercise.

    ``service_batch=1`` keys one replica's modeled capacity to its
    batch-1 rate (~59k rps for the micro-net), so the scripted hot rate
    (~64k rps per hot model at the pinned skew) genuinely exceeds one
    replica at 50% target utilization while the cold tail stays far
    below it -- replication must target exactly the hot set.
    """
    return placement_policy(**overrides)


def make_cluster(
    models: dict[str, ServedModel] | None = None,
    *,
    num_workers: int = CLUSTER_WORKERS,
    placement: PlacementPolicy | None = None,
    **kwargs,
) -> InferenceServer:
    """N identical APNN workers over the hot/cold population."""
    kwargs.setdefault("slo_ms", 5.0)
    kwargs.setdefault("candidate_batches", CLUSTER_BATCHES)
    return InferenceServer(
        models if models is not None else hot_cold_models(),
        [(APNNBackend(W1A2), RTX3090)] * num_workers,
        placement=placement,
        **kwargs,
    )


def skew_trace(
    num_requests: int = 400, seed: int = 7
) -> tuple[TraceEvent, ...]:
    """The scripted hot/cold arrival skew the placement tests replay.

    Same generator and skew as :func:`repro.experiments.figures
    .placement_trace`, with the length and seed free so tests can span
    more (or different) rebalance epochs.
    """
    return skewed_trace(
        CLUSTER_RATE_RPS,
        num_requests,
        CLUSTER_HOT,
        CLUSTER_COLD,
        hot_fraction=CLUSTER_HOT_FRACTION,
        seed=seed,
    )


class RecordingPlacementObserver:
    """Observer logging every placement decision and epoch gauge.

    Attach with :meth:`attach` before ``start()``; afterwards
    ``decisions`` holds each :class:`PlacementDecision` in commit order
    and ``epochs`` the replica gauge after every decision -- enough to
    assert which models replicated, onto how many workers, and that two
    seeded runs decided identically (compare :meth:`keys`).
    """

    def __init__(self) -> None:
        self.decisions: list[PlacementDecision] = []
        self.epochs: list[tuple[int, dict[str, int]]] = []
        self._server: InferenceServer | None = None

    def attach(self, server: InferenceServer) -> "RecordingPlacementObserver":
        if server.placement_controller is None:
            raise ValueError("server has no placement controller to observe")
        self._server = server
        server.placement_controller.observers.append(self._on_decision)
        return self

    def _on_decision(self, decision: PlacementDecision) -> None:
        self.decisions.append(decision)
        ctl = self._server.placement_controller
        self.epochs.append(
            (decision.epoch, ctl.placement.replica_counts())
        )

    def keys(self) -> list[tuple]:
        """Comparable decision identities (reproducibility assertions)."""
        return [d.key() for d in self.decisions]

    def models_with(self, action: str) -> set[str]:
        return {d.model for d in self.decisions if d.action == action}


@dataclass(frozen=True)
class CompileCall:
    """One ``engine.compile()`` performed by a :class:`RecordingPlanCache`.

    ``in_loop=True`` means the compile ran synchronously on the calling
    thread -- inside the server that would be the event-loop stall the
    async plan path exists to eliminate, so serving tests assert it
    never happens.
    """

    model: str
    backend: str
    batch: int
    in_loop: bool


class RecordingPlanCache(PlanCache):
    """Plan cache that records every compile it performs (stall recorder).

    Events append in completion order (executor compiles may finish out
    of submission order); the list is safe to read after ``run_trace``
    returns.  Only successful compiles are recorded -- a failing
    ``engine.compile()`` raises through the normal error paths.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.compile_calls: list[CompileCall] = []

    def _compile(self, key, engine, batch, input_shape, inloop):
        result = super()._compile(key, engine, batch, input_shape, inloop)
        self.compile_calls.append(
            CompileCall(
                model=key.model, backend=key.backend,
                batch=batch, in_loop=inloop,
            )
        )
        return result

    @property
    def in_loop_calls(self) -> list[CompileCall]:
        """Compiles that stalled their caller (must stay empty in serving)."""
        return [c for c in self.compile_calls if c.in_loop]

    def compiled_keys(self) -> list[tuple[str, str, int]]:
        """(model, backend, batch) per compile, for dedup assertions."""
        return [(c.model, c.backend, c.batch) for c in self.compile_calls]


class RecordingTracer(Tracer):
    """A real :class:`~repro.obs.Tracer` plus serving-test helpers.

    Pass it to ``make_server(tracer=...)`` / ``make_cluster(tracer=...)``
    and read spans back after :func:`run_trace`.  The helpers slice the
    flat span list the way the tracing tests assert on it: by name
    prefix, by phase, and as parent->children coverage fractions.
    """

    def named(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(prefix)]

    def request_spans(self) -> list[Span]:
        return self.spans_in("request")

    def batch_spans(self) -> list[Span]:
        return self.spans_in("batch")

    def kernel_spans(self) -> list[Span]:
        return self.spans_in("kernel")

    def coverage(self, span: Span) -> float:
        """Fraction of ``span``'s duration covered by its direct children.

        Children never overlap in the serving hierarchy (queue then
        execute; kernels tile their batch), so a straight sum is exact.
        """
        if span.duration_us <= 0.0:
            return 1.0
        covered = sum(c.duration_us for c in self.children_of(span.span_id))
        return covered / span.duration_us

    def assert_nested(self) -> None:
        """Every child span must lie within its parent's bounds."""
        for child in self.spans:
            if child.parent_id is None:
                continue
            parent = self.find(child.parent_id)
            assert parent is not None, f"dangling parent for {child.name}"
            assert parent.track == child.track, (child.name, parent.name)
            assert parent.start_us <= child.start_us + 1e-6, (
                child.name, parent.name)
            assert child.end_us <= parent.end_us + 1e-6, (
                child.name, parent.name)


@dataclass
class HarnessRun:
    """One deterministic serving run plus assertion helpers."""

    server: InferenceServer
    results: list[RequestResult]
    rejections: list[RejectedRequest] = field(default_factory=list)

    def results_for(self, model: str) -> list[RequestResult]:
        return [r for r in self.results if r.model == model]

    def latencies_us(self, model: str | None = None) -> list[float]:
        results = self.results if model is None else self.results_for(model)
        return [r.latency_us for r in results]

    def p95_latency_us(self, model: str | None = None) -> float:
        return percentile(self.latencies_us(model), 95)

    def mean_latency_us(self, model: str | None = None) -> float:
        lats = self.latencies_us(model)
        return sum(lats) / len(lats) if lats else 0.0

    def deadline_violations(self, model: str | None = None) -> int:
        """Served requests that finished past arrival + their model SLO."""
        results = self.results if model is None else self.results_for(model)
        return sum(not r.met_deadline for r in results)


def run_trace(
    server: InferenceServer,
    trace: tuple[TraceEvent, ...] | list[TraceEvent],
    *,
    prewarm: bool = False,
) -> HarnessRun:
    """Start, replay, stop -- entirely on the simulated clock."""

    async def _run():
        await server.start(prewarm=prewarm)
        results, rejections = await replay(
            server, trace, include_rejections=True
        )
        await server.stop()
        return results, rejections

    results, rejections = asyncio.run(_run())
    return HarnessRun(server=server, results=results, rejections=rejections)


# ----------------------------------------------------------------------
# cluster (fault-tolerance tests)
# ----------------------------------------------------------------------
def cluster_specs(
    hot: tuple[str, ...] = CLUSTER_HOT,
    cold: tuple[str, ...] = CLUSTER_COLD,
) -> dict[str, ModelSpec]:
    """The cluster population as :class:`ModelSpec` data.

    Same names, seeds, architecture and input geometry as
    :func:`hot_cold_models`, but as specs -- the only form
    :class:`ClusterCoordinator` accepts.
    """
    return {
        name: ModelSpec(
            kind="micro", name=name, seed=seed,
            input_shape=CLUSTER_INPUT_SHAPE,
        )
        for seed, name in enumerate(hot + cold)
    }


def make_fault_cluster(
    models: dict[str, ModelSpec] | None = None,
    *,
    num_workers: int = CLUSTER_WORKERS,
    faults: FaultPlan | None = None,
    policy: ClusterPolicy | None = None,
    **kwargs,
) -> ClusterCoordinator:
    """A coordinator over the standard population.

    Restart delay defaults small so scripted crash / restart sequences
    fit inside short test traces.
    """
    kwargs.setdefault("candidate_batches", CLUSTER_BATCHES)
    return ClusterCoordinator(
        models if models is not None else cluster_specs(),
        num_workers,
        faults=faults,
        policy=(
            policy if policy is not None
            else ClusterPolicy(restart_delay_us=500.0)
        ),
        **kwargs,
    )


@dataclass
class ClusterRun:
    """One cluster run plus the fault-tolerance assertion helpers."""

    cluster: ClusterCoordinator
    results: list[RequestResult]

    def payloads(self) -> list[str]:
        """Result bodies, sorted -- the byte-identity comparison key."""
        return sorted(r.payload for r in self.results)

    def results_for(self, model: str) -> list[RequestResult]:
        return [r for r in self.results if r.model == model]

    def retried(self) -> list[RequestResult]:
        return [r for r in self.results if r.attempts > 1]

    def latencies_us(self) -> list[float]:
        return [r.latency_us for r in self.results]

    def assert_invariants(self, expected_requests: int) -> None:
        """The cluster's zero-tolerance guarantees, in one place.

        Every submitted request completed exactly once (unique ids, no
        drops) and dispatch order never violated arrival order -- the
        same invariants the placement tests pin, now required to hold
        through any fault schedule.
        """
        assert len(self.results) == expected_requests, (
            len(self.results), expected_requests
        )
        ids = [r.request_id for r in self.results]
        assert len(set(ids)) == len(ids), "a request completed twice"
        m = self.cluster.metrics
        assert m.dropped_requests == 0, m.dropped_requests
        assert m.reordered_dispatches == 0, m.reordered_dispatches
        assert m.total_requests == expected_requests, (
            m.total_requests, expected_requests
        )


def run_cluster_trace(
    cluster: ClusterCoordinator,
    trace: tuple[TraceEvent, ...] | list[TraceEvent],
) -> ClusterRun:
    """Start, replay, stop a cluster (a cluster is an InferenceServer,
    so the server's replayer drives it)."""

    async def _run():
        await cluster.start()
        results = await replay(cluster, trace)
        await cluster.stop()
        return results

    return ClusterRun(cluster=cluster, results=asyncio.run(_run()))
