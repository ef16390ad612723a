"""End-to-end request tracing: hierarchy, coverage, and the no-op contract.

The acceptance bars this file holds:

* tracing **off** (the default null tracer) changes nothing -- results
  and metrics snapshots are byte-identical with tracing on, off, and
  absent, on a plain server and on a simulated cluster alike;
* every request span's queue/execute children cover >= 95% of its
  end-to-end simulated latency (the partition is exact, so it's 100%);
* kernel spans tile their batch/stage parent exactly and carry nonzero
  :class:`~repro.tensorcore.counters.ExecutionCounters` attributes;
* per-worker batch spans stay monotone on the simulated clock across
  placement rebalances;
* the exported Chrome trace is structurally valid.
"""

from dataclasses import fields

import pytest

from repro.serve import (
    AdmissionPolicy,
    FaultPlan,
    PlacementPolicy,
    ServedModel,
    burst_trace,
    poisson_trace,
)
from repro.obs import chrome_trace, validate_chrome_trace
from repro.tensorcore.counters import ExecutionCounters

from harness import (
    RecordingTracer,
    cluster_policy,
    cluster_specs,
    make_cluster,
    make_fault_cluster,
    make_server,
    run_trace,
    skew_trace,
    small_alexnet,
)

pytestmark = pytest.mark.serving

COUNTER_FIELDS = [f.name for f in fields(ExecutionCounters)]


def _trace():
    return poisson_trace(
        200_000, 60, ["alexnet-tight", "resnet-loose"], seed=3
    )


def _traced_run(**server_kwargs):
    tracer = RecordingTracer()
    run = run_trace(
        make_server(tracer=tracer, **server_kwargs), _trace(), prewarm=True
    )
    return tracer, run


def _result_key(r):
    return (
        r.request_id, r.model, r.worker, r.batch_size, r.batch_requests,
        r.arrival_us, r.start_us, r.finish_us, r.pair, r.switched, r.stages,
        r.attempts, r.payload,
    )


#: Deployments the no-op contract must hold on: (factory, trace,
#: worker crashes the run must see).  The faulted cluster crashes a
#: worker mid-batch, so the traced crash / failover / restart branches
#: are held to the contract too.
_CLUSTER_MODELS = dict(list(cluster_specs().items())[:3])


def _cluster_trace():
    return poisson_trace(200_000, 60, list(_CLUSTER_MODELS), seed=3)


DEPLOYMENTS = {
    "server": (make_server, _trace, 0),
    "cluster": (
        lambda **kw: make_fault_cluster(_CLUSTER_MODELS, num_workers=2, **kw),
        _cluster_trace,
        0,
    ),
    "cluster-faulted": (
        lambda **kw: make_fault_cluster(
            _CLUSTER_MODELS, num_workers=2,
            faults=FaultPlan.of(FaultPlan.crash("worker-0", 50.0)), **kw,
        ),
        _cluster_trace,
        1,
    ),
}


# ----------------------------------------------------------------------
# the no-op contract: tracing must observe, never perturb
# ----------------------------------------------------------------------
@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_tracing_on_off_byte_identical_results_and_metrics(deployment):
    from repro.kernels.autotune import clear_cache

    make, trace, crashes = DEPLOYMENTS[deployment]
    # the autotune memo is process-global, so its hit counters depend on
    # every run before this one; level the field so the snapshots below
    # compare tracing on/off rather than cache history
    clear_cache()
    baseline = run_trace(make(), trace(), prewarm=True)
    clear_cache()
    explicit_off = run_trace(make(tracer=None), trace(), prewarm=True)
    clear_cache()
    tracer = RecordingTracer()
    traced = run_trace(make(tracer=tracer), trace(), prewarm=True)

    assert len(tracer) > 0  # the traced run really recorded spans
    assert traced.server.metrics.total_worker_crashes == crashes
    base_keys = [_result_key(r) for r in baseline.results]
    assert [_result_key(r) for r in explicit_off.results] == base_keys
    assert [_result_key(r) for r in traced.results] == base_keys
    # metrics snapshots (dispatch counts, occupancy, cache hit rates)
    # are byte-identical too: peek-only plan reads leave no stats churn
    assert traced.server.metrics.snapshot() == \
        baseline.server.metrics.snapshot()


# ----------------------------------------------------------------------
# hierarchy + coverage
# ----------------------------------------------------------------------
def test_every_request_has_a_span_covered_at_least_95_percent():
    tracer, run = _traced_run()
    request_spans = tracer.request_spans()
    assert len(request_spans) == len(run.results)
    for span in request_spans:
        assert tracer.coverage(span) >= 0.95
    by_id = {s.attributes["request_id"]: s for s in request_spans}
    for res in run.results:
        span = by_id[res.request_id]
        assert span.start_us == res.arrival_us
        assert span.end_us == res.finish_us
        assert span.attributes["model"] == res.model


def test_request_children_are_queue_then_execute():
    tracer, _ = _traced_run()
    for span in tracer.request_spans():
        children = sorted(
            tracer.children_of(span.span_id), key=lambda s: s.start_us
        )
        assert [c.phase for c in children] == ["queue", "dispatch"]
        queue, execute = children
        assert queue.end_us == execute.start_us  # exact partition


def test_kernel_spans_tile_batch_span_and_carry_counters():
    tracer, _ = _traced_run()
    batches = tracer.batch_spans()
    assert batches
    total_macs = 0
    for batch in batches:
        kernels = sorted(
            tracer.children_of(batch.span_id), key=lambda s: s.start_us
        )
        assert kernels, f"batch span {batch.name} has no kernel children"
        covered = sum(k.duration_us for k in kernels)
        assert covered == pytest.approx(batch.duration_us, rel=1e-9)
        # children abut: each starts where the previous ended
        for prev, cur in zip(kernels, kernels[1:]):
            assert cur.start_us == pytest.approx(prev.end_us)
        for k in kernels:
            tallies = {name: k.attributes[name] for name in COUNTER_FIELDS}
            assert any(v > 0 for v in tallies.values()), k.name
            total_macs += tallies["tc_macs"]
        assert batch.attributes["plan_cache_hit"] is True  # prewarmed
        assert "discipline" in batch.attributes  # scheduler context
    assert total_macs > 0


def test_span_nesting_invariants_hold():
    tracer, _ = _traced_run()
    tracer.assert_nested()


def test_batch_spans_per_worker_lane_never_overlap():
    tracer, _ = _traced_run()
    lanes = {s.lane for s in tracer.batch_spans()}
    for lane in lanes:
        spans = sorted(
            (s for s in tracer.batch_spans() if s.lane == lane),
            key=lambda s: s.start_us,
        )
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start_us >= prev.end_us - 1e-6


# ----------------------------------------------------------------------
# admission + compile instrumentation
# ----------------------------------------------------------------------
def test_admission_events_record_shed_and_admitted():
    tracer = RecordingTracer()
    server = make_server(
        tracer=tracer,
        admission=AdmissionPolicy(max_queue_depth=4, mode="shed"),
    )
    run = run_trace(server, burst_trace(24, ["alexnet-tight"]), prewarm=True)
    events = tracer.spans_in("admission")
    assert all(e.is_event for e in events)
    outcomes = {e.attributes["outcome"] for e in events}
    assert "admitted" in outcomes
    shed = [e for e in events if e.attributes["outcome"] == "shed"]
    assert len(shed) == len(run.rejections) > 0
    assert len(events) == 24  # one decision per submitted request


def test_admission_events_record_deferrals():
    tracer = RecordingTracer()
    server = make_server(
        tracer=tracer,
        admission=AdmissionPolicy(max_queue_depth=4, mode="defer"),
    )
    run_trace(server, burst_trace(24, ["alexnet-tight"]), prewarm=True)
    deferred = [
        e for e in tracer.spans_in("admission")
        if e.attributes["outcome"] == "deferred"
    ]
    assert deferred
    assert all(e.attributes["deferred_depth"] >= 1 for e in deferred)


def test_cold_start_emits_wall_clock_compile_spans():
    tracer = RecordingTracer()
    # fresh (non-shared) models would re-plan anyway; no prewarm = cold
    run_trace(make_server(tracer=tracer), _trace(), prewarm=False)
    compiles = tracer.spans_in("compile")
    assert any(s.name.startswith("plan-compile:") for s in compiles)
    for span in compiles:
        if span.name.startswith("plan-compile:"):
            assert span.track == "wall"
            assert span.duration_us > 0
            assert span.attributes["priced_total_us"] > 0


# ----------------------------------------------------------------------
# placement: rebalances + pipeline sharding
# ----------------------------------------------------------------------
def test_cluster_tracing_monotone_across_rebalances():
    tracer = RecordingTracer()
    server = make_cluster(tracer=tracer, placement=cluster_policy())
    run_trace(server, skew_trace(400, seed=7), prewarm=True)
    placements = tracer.spans_in("placement")
    assert placements, "no placement decisions traced across the run"
    epochs = [e.attributes["epoch"] for e in placements]
    assert epochs == sorted(epochs)
    # simulated stamps stay monotone per worker lane through rebalances
    for lane in {s.lane for s in tracer.batch_spans()}:
        spans = sorted(
            (s for s in tracer.batch_spans() if s.lane == lane),
            key=lambda s: s.start_us,
        )
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start_us >= prev.end_us - 1e-6
    tracer.assert_nested()


def test_pipeline_batches_trace_stage_hierarchy():
    tracer = RecordingTracer()
    server = make_cluster(
        {"alex": ServedModel(small_alexnet(), (3, 64, 64))},
        num_workers=2,
        placement=PlacementPolicy.sharded({"alex": 2}, rebalance_every_us=1e9),
        tracer=tracer,
    )
    run = run_trace(
        server, poisson_trace(100_000, 20, ["alex"], seed=5), prewarm=True
    )
    batches = [s for s in tracer.batch_spans()
               if s.attributes.get("pipeline")]
    assert batches
    stage_lanes = set()
    for batch in batches:
        children = tracer.children_of(batch.span_id)
        stages = [c for c in children if c.phase == "stage"]
        assert [s.attributes["stage"] for s in stages] == [0, 1]
        stage_lanes.update(s.lane for s in stages)
        for stage in stages:
            kernels = tracer.children_of(stage.span_id)
            assert kernels
            covered = sum(k.duration_us for k in kernels)
            assert covered == pytest.approx(stage.duration_us, rel=1e-9)
    assert len(stage_lanes) == 2  # the two stages run on distinct workers
    assert len(tracer.request_spans()) == len(run.results)
    for span in tracer.request_spans():
        assert tracer.coverage(span) >= 0.95
    tracer.assert_nested()


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def test_serving_trace_exports_valid_chrome_json():
    tracer, _ = _traced_run()
    trace = chrome_trace(tracer)
    validate_chrome_trace(trace)
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["cat"] for e in xs} >= {"request", "queue", "dispatch",
                                      "batch", "kernel"}
