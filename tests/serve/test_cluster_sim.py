"""Deterministic fault injection against the simulated cluster.

Every failure mode the cluster coordinator handles -- worker crash
(idle, pre-dispatch, mid-batch), slow worker, plan-store corruption --
is scripted here as a :class:`FaultPlan` at exact
simulated instants, so each scenario replays bit-identically with no
wall-clock sleeps.  The invariants under *every* schedule:

* every submitted request completes exactly once (no drops, no dupes);
* results are byte-identical to the fault-free run of the same trace
  (failover may change *where* and *when* a request ran, never *what*
  it returned);
* ``reordered_dispatches`` stays zero -- failover requeues at the head,
  so retried work cannot overtake earlier arrivals.

The property suite (``test_cluster_properties.py``) asserts the same
invariants over random schedules; this file pins the named scenarios.
"""

import asyncio

import numpy as np
import pytest

from repro.nn import APNNBackend, InferenceEngine, resnet18
from repro.serve import (
    AdmissionPolicy,
    ClusterCoordinator,
    ClusterError,
    ClusterPolicy,
    FaultEvent,
    FaultPlan,
    ModelSpec,
    PlacementPolicy,
    PlanCache,
    PlanCacheStore,
    poisson_trace,
)
from repro.tensorcore import RTX3090

from harness import (
    W1A2,
    ClusterRun,
    RecordingTracer,
    cluster_specs,
    make_fault_cluster,
    run_cluster_trace,
    run_trace,
)

pytestmark = pytest.mark.serving

#: Three models keep plan prewarm cheap while still exercising
#: cross-model FIFO routing; the high rate packs all arrivals into a
#: ~200 us window so batches coalesce and crashes land mid-batch.
MODELS = {k: v for k, v in list(cluster_specs().items())[:3]}
TRACE = poisson_trace(
    models=list(MODELS), num_requests=24, rate_rps=120_000, seed=3
)
N = len(TRACE)

#: A crash instant inside the busy window of TRACE (fault-free run
#: finishes near 190 us on the simulated clock).
MID_BATCH_US = 50.0

#: A restart delay short enough that a restarted worker rejoins while
#: TRACE still has work queued.
QUICK_RESTART_US = 5.0


@pytest.fixture(scope="module")
def baseline():
    """The fault-free run every scenario's payloads must match."""
    run = run_cluster_trace(make_fault_cluster(MODELS, num_workers=2), TRACE)
    run.assert_invariants(N)
    return run


def _outcomes(cluster) -> list:
    """Replay TRACE through ``cluster`` and return each submit's result
    or exception, in trace order (``run_cluster_trace`` raises on the
    first failed request instead)."""

    async def run():
        await cluster.start()
        outcomes = await asyncio.gather(
            *(cluster.submit(e.model, arrival_us=e.t_us) for e in TRACE),
            return_exceptions=True,
        )
        await cluster.stop()
        return outcomes

    return asyncio.run(run())


class TestFaultFree:
    def test_all_requests_complete_exactly_once(self, baseline):
        assert len(baseline.results) == N
        assert len({r.request_id for r in baseline.results}) == N
        assert not baseline.retried()

    def test_no_fault_counters_move(self, baseline):
        m = baseline.cluster.metrics
        assert m.total_worker_crashes == 0
        assert m.total_worker_restarts == 0
        assert m.failovers == 0
        assert m.retries == 0
        assert m.dropped_requests == 0

    def test_batches_coalesce(self, baseline):
        assert any(r.batch_size > 1 for r in baseline.results)

    def test_start_prewarms_every_candidate_plan_into_the_store(
        self, baseline, tmp_path
    ):
        """``start()`` prewarms by default: no dispatch compiles a cold
        plan, and the store under ``cache_dir`` holds every (model,
        candidate batch) plan, so a later run over it replans nothing."""
        cluster = make_fault_cluster(MODELS, num_workers=2, cache_dir=tmp_path)
        run = run_cluster_trace(cluster, TRACE)
        run.assert_invariants(N)
        assert run.payloads() == baseline.payloads()
        expected = len(MODELS) * len(cluster.candidate_batches)
        assert cluster.metrics.prewarmed_plans == expected
        assert cluster.metrics.cold_dispatches == 0
        stored = PlanCache(store=PlanCacheStore(tmp_path)).stats()
        assert stored.persisted_entries == expected


class TestMidBatchCrash:
    """The headline scenario: a worker dies with a batch in flight."""

    @pytest.fixture(scope="class")
    def run(self):
        faults = FaultPlan.of(FaultPlan.crash("worker-0", MID_BATCH_US))
        run = run_cluster_trace(
            make_fault_cluster(MODELS, num_workers=2, faults=faults), TRACE
        )
        run.assert_invariants(N)
        return run

    def test_byte_identical_to_fault_free(self, run, baseline):
        assert run.payloads() == baseline.payloads()

    def test_crash_restart_failover_counted(self, run):
        m = run.cluster.metrics
        assert m.total_worker_crashes == 1
        assert m.worker_crashes == {"worker-0": 1}
        assert m.total_worker_restarts == 1
        assert m.failovers >= 1
        assert m.retries >= 1

    def test_some_result_was_retried(self, run):
        retried = run.retried()
        assert retried
        assert all(r.attempts == 2 for r in retried)

    def test_failover_never_reorders(self, run):
        assert run.cluster.metrics.reordered_dispatches == 0


class TestIdleCrash:
    """A worker that dies before taking any work loses no batch."""

    @pytest.fixture(scope="class")
    def run(self):
        faults = FaultPlan.of(FaultPlan.crash("worker-0", 0.0))
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults,
                policy=ClusterPolicy(max_restarts=0),
            ),
            TRACE,
        )
        run.assert_invariants(N)
        return run

    def test_byte_identical_to_fault_free(self, run, baseline):
        assert run.payloads() == baseline.payloads()

    def test_nothing_is_failed_over(self, run):
        m = run.cluster.metrics
        assert m.worker_crashes == {"worker-0": 1}
        assert m.failovers == 0
        assert m.retries == 0
        assert not run.retried()

    def test_dead_worker_serves_nothing(self, run):
        assert run.cluster.alive_workers() == ("worker-1",)
        assert {r.worker for r in run.results} == {"worker-1"}


class TestPostTraceCrash:
    def test_crash_after_the_last_dispatch_never_fires(self, baseline):
        """A scripted instant the simulated clock never reaches is a
        no-op: no crash is counted and no worker goes down."""
        faults = FaultPlan.of(FaultPlan.crash("worker-0", 10_000.0))
        run = run_cluster_trace(
            make_fault_cluster(MODELS, num_workers=2, faults=faults), TRACE
        )
        run.assert_invariants(N)
        assert run.payloads() == baseline.payloads()
        assert run.cluster.metrics.total_worker_crashes == 0
        assert run.cluster.alive_workers() == ("worker-0", "worker-1")


class TestRestart:
    """A crashed worker comes back ``restart_delay_us`` later and serves
    again."""

    @pytest.fixture(scope="class")
    def traced(self):
        tracer = RecordingTracer()
        faults = FaultPlan.of(FaultPlan.crash("worker-0", MID_BATCH_US))
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults, tracer=tracer,
                policy=ClusterPolicy(restart_delay_us=QUICK_RESTART_US),
            ),
            TRACE,
        )
        run.assert_invariants(N)
        return run, tracer

    def test_restart_lands_restart_delay_after_the_crash(self, traced):
        _, tracer = traced
        at = {e.name: e.start_us for e in tracer.events_in("failover")}
        assert at["crash:worker-0"] == MID_BATCH_US
        assert at["restart:worker-0"] == MID_BATCH_US + QUICK_RESTART_US

    def test_restarted_worker_serves_again(self, traced):
        run, _ = traced
        assert run.cluster.alive_workers() == ("worker-0", "worker-1")
        assert any(
            r.worker == "worker-0"
            and r.start_us >= MID_BATCH_US + QUICK_RESTART_US
            for r in run.results
        )

    def test_byte_identical_to_fault_free(self, traced, baseline):
        run, _ = traced
        assert run.payloads() == baseline.payloads()


class TestRestartBudget:
    """``max_restarts`` is per worker: a crash past it keeps the worker
    down, and the survivor serves the rest."""

    SECOND_CRASH_US = 60.0

    @pytest.fixture(scope="class")
    def run(self):
        faults = FaultPlan.of(
            FaultPlan.crash("worker-0", 30.0),
            FaultPlan.crash("worker-0", self.SECOND_CRASH_US),
        )
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults,
                policy=ClusterPolicy(
                    max_restarts=1, restart_delay_us=QUICK_RESTART_US
                ),
            ),
            TRACE,
        )
        run.assert_invariants(N)
        return run

    def test_only_the_first_crash_is_restarted(self, run):
        m = run.cluster.metrics
        assert m.worker_crashes == {"worker-0": 2}
        assert m.worker_restarts == {"worker-0": 1}

    def test_worker_stays_down_once_the_budget_is_spent(self, run):
        assert run.cluster.alive_workers() == ("worker-1",)
        assert all(
            r.worker == "worker-1"
            for r in run.results if r.start_us >= self.SECOND_CRASH_US
        )

    def test_byte_identical_to_fault_free(self, run, baseline):
        assert run.payloads() == baseline.payloads()


class TestCrashWithoutRestart:
    """No restart budget: survivors adopt the dead worker's models."""

    def test_survivor_serves_everything(self, baseline):
        faults = FaultPlan.of(FaultPlan.crash("worker-0", MID_BATCH_US))
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults,
                policy=ClusterPolicy(max_restarts=0),
            ),
            TRACE,
        )
        run.assert_invariants(N)
        assert run.payloads() == baseline.payloads()
        m = run.cluster.metrics
        assert m.total_worker_crashes == 1
        assert m.total_worker_restarts == 0
        assert run.cluster.alive_workers() == ("worker-1",)
        # Everything after the crash ran on the survivor.
        assert all(
            r.worker == "worker-1"
            for r in run.results if r.start_us > MID_BATCH_US
        )

    def test_every_replica_dead_drops_loudly(self):
        """A single worker crashing with no restart budget cannot
        complete the backlog: stop() fails the stranded futures with
        ClusterError and counts them dropped -- never a silent hang."""
        faults = FaultPlan.of(FaultPlan.crash("worker-0", MID_BATCH_US))
        cluster = make_fault_cluster(
            MODELS, num_workers=1, faults=faults,
            policy=ClusterPolicy(max_restarts=0),
        )

        async def run():
            await cluster.start()
            outcomes = await asyncio.gather(
                *(cluster.submit(e.model, arrival_us=e.t_us) for e in TRACE),
                asyncio.ensure_future(_stop_soon(cluster)),
                return_exceptions=True,
            )
            return outcomes[:-1]

        async def _stop_soon(cluster):
            # Let the loop run the crash to completion, then drain.
            for _ in range(200):
                await asyncio.sleep(0)
            await cluster.stop()

        outcomes = asyncio.run(run())
        errors = [o for o in outcomes if isinstance(o, ClusterError)]
        assert errors, "stranded requests must fail, not hang"
        m = cluster.metrics
        assert m.dropped_requests == len(errors)
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(served) + len(errors) == N


class TestRetryBudget:
    def test_repeated_crashes_exhaust_max_attempts(self, baseline):
        """Crash the same worker's replacement over and over: requests
        retry up to ``max_attempts`` and still complete on the other
        worker, byte-identically."""
        faults = FaultPlan.of(
            FaultPlan.crash("worker-0", 30.0),
            FaultPlan.crash("worker-0", 60.0),
            FaultPlan.crash("worker-0", 90.0),
        )
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults,
                policy=ClusterPolicy(
                    max_attempts=4, max_restarts=3, restart_delay_us=5.0
                ),
            ),
            TRACE,
        )
        run.assert_invariants(N)
        assert run.payloads() == baseline.payloads()
        m = run.cluster.metrics
        assert m.total_worker_crashes >= 2
        assert max(r.attempts for r in run.results) <= 4

    @pytest.fixture(scope="class")
    def exhausted(self):
        """One dispatch per request: a batch lost mid-flight has no
        retry left."""
        faults = FaultPlan.of(FaultPlan.crash("worker-0", MID_BATCH_US))
        cluster = make_fault_cluster(
            MODELS, num_workers=2, faults=faults,
            policy=ClusterPolicy(max_attempts=1),
        )
        return cluster, _outcomes(cluster)

    def test_exhausted_requests_fail_loudly_and_count_dropped(
        self, exhausted
    ):
        cluster, outcomes = exhausted
        errors = [o for o in outcomes if isinstance(o, ClusterError)]
        assert errors, "the lost batch must fail, not hang or vanish"
        assert all("max_attempts=1" in str(e) for e in errors)
        assert cluster.metrics.dropped_requests == len(errors)
        assert cluster.metrics.failovers == 0
        assert cluster.metrics.retries == 0

    def test_everything_else_completes_byte_identically(
        self, exhausted, baseline
    ):
        cluster, outcomes = exhausted
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert len(served) + len(errors) == N
        assert all(r.attempts == 1 for r in served)
        assert {r.payload for r in served} < set(baseline.payloads())
        assert cluster.metrics.reordered_dispatches == 0


class TestSlowWorker:
    def test_slowdown_changes_timing_not_results(self, baseline):
        faults = FaultPlan.of(FaultPlan.slow("worker-0", 0.0, factor=50.0))
        run = run_cluster_trace(
            make_fault_cluster(MODELS, num_workers=2, faults=faults), TRACE
        )
        run.assert_invariants(N)
        assert run.payloads() == baseline.payloads()
        slow_services = [
            r.service_us for r in run.results if r.worker == "worker-0"
        ]
        assert slow_services, "worker-0 should still take work"
        base_max = max(r.service_us for r in baseline.results)
        assert min(slow_services) > base_max

    def test_latest_slow_event_wins(self):
        plan = FaultPlan.of(
            FaultPlan.slow("w", 0.0, factor=10.0),
            FaultPlan.slow("w", 100.0, factor=1.0),
        )
        assert plan.slow_factor("w", 50.0) == 10.0
        assert plan.slow_factor("w", 100.0) == 1.0
        assert plan.slow_factor("other", 50.0) == 1.0


class TestStoreCorruption:
    def test_corruption_recovered_and_counted(self, baseline, tmp_path):
        faults = FaultPlan.of(FaultPlan.corrupt_store(MID_BATCH_US))
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults,
                cache_dir=tmp_path / "plans",
            ),
            TRACE,
        )
        run.assert_invariants(N)
        assert run.payloads() == baseline.payloads()
        assert run.cluster.metrics.store_recovered_lines == 1

    def test_each_corruption_counts_once(self, tmp_path):
        faults = FaultPlan.of(
            FaultPlan.corrupt_store(30.0),
            FaultPlan.corrupt_store(80.0),
        )
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults,
                cache_dir=tmp_path / "plans",
            ),
            TRACE,
        )
        run.assert_invariants(N)
        assert run.cluster.metrics.store_recovered_lines == 2

    def test_damage_already_in_the_store_is_counted_at_construction(
        self, tmp_path
    ):
        store = PlanCacheStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text('{"version": 1, "key": {"model\n')
        cluster = make_fault_cluster(MODELS, num_workers=2, cache_dir=tmp_path)
        assert cluster.plan_cache.store.cache_dir == store.cache_dir
        assert cluster.metrics.store_recovered_lines == 1

    def test_plan_cache_and_cache_dir_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            make_fault_cluster(MODELS, num_workers=2, plan_cache=PlanCache(),
                               cache_dir=tmp_path)


class TestDeterminism:
    def test_same_fault_plan_replays_bit_identically(self):
        faults = FaultPlan.of(
            FaultPlan.crash("worker-0", MID_BATCH_US),
            FaultPlan.slow("worker-1", 0.0, factor=3.0),
        )

        def once():
            run = run_cluster_trace(
                make_fault_cluster(MODELS, num_workers=2, faults=faults),
                TRACE,
            )
            run.assert_invariants(N)
            m = run.cluster.metrics
            return (
                sorted((r.request_id, r.worker, r.finish_us, r.payload)
                       for r in run.results),
                (m.total_worker_crashes, m.total_worker_restarts,
                 m.failovers, m.retries),
            )

        assert once() == once()

    def test_micro_spec_builds_the_placement_study_model(self):
        """Cluster specs and the placement study share one micro-CNN."""
        from repro.experiments.figures import placement_micro_net

        for name, spec in MODELS.items():
            net = spec.build()
            assert net is placement_micro_net(name, spec.seed)
            assert net.name == name


class TestModelSpecs:
    def test_specs_of_one_kind_get_their_own_plans(self):
        """The built model carries the spec's name, so AlexNet specs that
        differ in class count key and price their own plans."""
        shape = (3, 64, 64)
        engines = [
            InferenceEngine(
                ModelSpec(
                    kind="alexnet", name=f"alexnet-{classes}",
                    input_shape=shape, num_classes=classes,
                ).build(),
                APNNBackend(W1A2), RTX3090,
            )
            for classes in (10, 1000)
        ]
        cache = PlanCache()
        assert len({cache.key_for(e, 8, shape) for e in engines}) == 2
        for engine in engines:
            own = engine.estimate(8, shape).total_us
            assert cache.total_us(engine, 8, shape) == own

    def test_spec_builds_from_its_seed(self):
        spec = ModelSpec(
            kind="resnet18", name="r-seed5", seed=5, input_shape=(3, 32, 32)
        )
        built = spec.build()
        eager = resnet18(num_classes=10, input_size=32, seed=5)
        assert built.name == "r-seed5"
        assert np.array_equal(
            built.layers[0].weight.data, eager.layers[0].weight.data
        )


class TestFailoverTracing:
    """Crash / failover / restart instants land on the failover lane."""

    @pytest.fixture(scope="class")
    def traced(self):
        tracer = RecordingTracer()
        faults = FaultPlan.of(FaultPlan.crash("worker-0", MID_BATCH_US))
        run = run_cluster_trace(
            make_fault_cluster(
                MODELS, num_workers=2, faults=faults, tracer=tracer
            ),
            TRACE,
        )
        run.assert_invariants(N)
        return run, tracer

    def test_failover_events_emitted(self, traced):
        run, tracer = traced
        events = tracer.events_in("failover")
        names = [e.name for e in events]
        assert "crash:worker-0" in names
        assert "restart:worker-0" in names
        assert any(n.startswith("failover:") for n in names)

    def test_span_counts_agree_with_metrics(self, traced):
        run, tracer = traced
        m = run.cluster.metrics
        counts = tracer.counts_by_phase()
        # One request span per *completed* request -- exactly-once means
        # retries never double-emit.
        assert counts["request"] == N
        assert counts["batch"] == m.total_batches
        crash_events = [
            e for e in tracer.events_in("failover")
            if e.name.startswith("crash:")
        ]
        assert len(crash_events) == m.total_worker_crashes


class TestGracefulDrain:
    """stop() mid-batch finishes accepted work and keeps the books."""

    @pytest.fixture(scope="class")
    def drained(self):
        tracer = RecordingTracer()
        cluster = make_fault_cluster(MODELS, num_workers=2, tracer=tracer)

        async def run():
            await cluster.start()
            futures = [
                asyncio.ensure_future(
                    cluster.submit(e.model, arrival_us=e.t_us)
                )
                for e in TRACE
            ]
            # Let every submit enqueue (stop() stops accepting new work
            # immediately), then drain with batches still in flight.
            while cluster.metrics.total_requests < N:
                await asyncio.sleep(0)
            await cluster.stop()
            return await asyncio.gather(*futures)

        return cluster, tracer, asyncio.run(run())

    def test_all_in_flight_requests_complete(self, drained, baseline):
        cluster, _, results = drained
        assert len(results) == N
        assert len({r.request_id for r in results}) == N
        assert sorted(r.payload for r in results) == baseline.payloads()
        assert cluster.metrics.dropped_requests == 0
        assert cluster.queue_depth == 0

    def test_metrics_snapshot_agrees_with_span_counts(self, drained):
        """The snapshot's totals and the exported trace must tell the
        same story -- a drain that dropped a span (or double-counted a
        batch) shows up as a mismatch here."""
        cluster, tracer, results = drained
        snap = cluster.metrics.snapshot()
        counts = tracer.counts_by_phase()
        assert counts["request"] == snap["requests"] == N
        assert counts["batch"] == snap["batches"]
        assert counts.get("failover", 0) == 0  # fault-free drain
        per_worker_batches = sum(
            w.batches for w in cluster.metrics.workers.values()
        )
        assert per_worker_batches == counts["batch"]


class TestSchedulingPolicies:
    """The server's policies hold on a cluster: it schedules through the
    same loop, so EDF and shed admission apply to its queues too."""

    def test_edf_with_shed_admission(self):
        cluster = make_fault_cluster(
            MODELS, num_workers=2, discipline="edf",
            admission=AdmissionPolicy(max_queue_depth=8, mode="shed"),
        )
        run = run_trace(cluster, TRACE)
        shed = len(run.rejections)
        assert shed > 0
        assert cluster.metrics.total_rejected == shed
        # every admitted request completes exactly once, nothing is
        # dropped or reordered
        ClusterRun(cluster, run.results).assert_invariants(N - shed)


class TestValidation:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", at_us=0.0)

    def test_crash_needs_a_worker(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", at_us=0.0, worker=None)

    def test_slow_needs_a_worker(self):
        with pytest.raises(ValueError, match="needs a worker"):
            FaultEvent(kind="slow", at_us=0.0, factor=2.0)

    def test_store_damage_needs_no_worker(self):
        plan = FaultPlan.of(
            FaultPlan.corrupt_store(80.0), FaultPlan.corrupt_store(30.0)
        )
        assert plan.corruption_times() == (30.0, 80.0)

    @pytest.mark.parametrize("kind", ["crash", "slow", "corrupt_store"])
    def test_negative_instant_rejected(self, kind):
        with pytest.raises(ValueError, match="at_us"):
            FaultEvent(kind=kind, at_us=-1.0, worker="worker-0")

    def test_slow_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="slow factor"):
            FaultPlan.slow("worker-0", 0.0, factor=0.5)

    def test_crash_times_are_per_worker_and_sorted(self):
        plan = FaultPlan.of(
            FaultPlan.crash("worker-1", 90.0),
            FaultPlan.crash("worker-0", 60.0),
            FaultPlan.crash("worker-1", 30.0),
        )
        assert plan.crash_times("worker-1") == (30.0, 90.0)
        assert plan.crash_times("worker-0") == (60.0,)
        assert plan.crash_times("worker-2") == ()

    @pytest.mark.parametrize(
        "field, value",
        [("max_attempts", 0), ("max_restarts", -1),
         ("restart_delay_us", -1.0)],
    )
    def test_cluster_policy_bounds(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterPolicy(**{field: value})

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec(kind="vgg16", name="v")

    def test_input_shape_must_be_chw(self):
        with pytest.raises(ValueError, match="input_shape"):
            ModelSpec(kind="micro", name="m", input_shape=(16, 16))


class TestCoordinatorValidation:
    def test_needs_a_model(self):
        with pytest.raises(ValueError, match="at least one model"):
            ClusterCoordinator({})

    def test_needs_a_worker(self):
        with pytest.raises(ValueError, match="num_workers"):
            ClusterCoordinator(MODELS, num_workers=0)

    def test_models_must_be_specs(self):
        spec = next(iter(MODELS.values()))
        with pytest.raises(TypeError, match="ModelSpec"):
            ClusterCoordinator({spec.name: spec.build()})

    def test_sharded_placement_rejected(self):
        name = next(iter(MODELS))
        with pytest.raises(ValueError, match="pipeline-sharded"):
            ClusterCoordinator(
                MODELS, placement=PlacementPolicy(shard=((name, 2),))
            )

    def test_execution_mode_is_not_an_option(self):
        """The cluster has one executor and no option to pick one: a
        ``mode`` keyword is an error, never silently ignored."""
        with pytest.raises(TypeError, match="mode"):
            ClusterCoordinator(MODELS, mode="sim")
