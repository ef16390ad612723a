"""End-to-end serving: asyncio dispatch, coalescing, traces, lifecycle."""

import asyncio

import pytest

from repro.core import PrecisionPair
from repro.nn import APNNBackend, BNNBackend, alexnet, resnet18
from repro.serve import (
    AdmissionPolicy,
    InferenceServer,
    PlanCache,
    ServedModel,
    burst_trace,
    poisson_trace,
    replay,
)
from repro.tensorcore import A100, RTX3090

pytestmark = pytest.mark.serving

W1A2 = PrecisionPair.parse("w1a2")


@pytest.fixture(scope="module")
def models():
    return {
        "alexnet-64": ServedModel(
            alexnet(num_classes=10, input_size=64), (3, 64, 64)
        ),
        "resnet18-32": ServedModel(
            resnet18(num_classes=10, input_size=32), (3, 32, 32)
        ),
    }


def _server(models, **kw):
    kw.setdefault("slo_ms", 5.0)
    return InferenceServer(
        models,
        workers=[(APNNBackend(W1A2), RTX3090), (BNNBackend(), A100)],
        **kw,
    )


def _serve(server, trace):
    async def run():
        await server.start()
        results = await replay(server, trace)
        await server.stop()
        return results

    return asyncio.run(run())


class TestServing:
    def test_burst_serves_every_request(self, models):
        server = _server(models)
        trace = burst_trace(60, sorted(models))
        results = _serve(server, trace)
        assert len(results) == 60
        assert {r.model for r in results} == set(models)
        assert server.metrics.total_requests == 60
        assert server.queue_depth == 0

    def test_requests_coalesce_into_batches(self, models):
        server = _server(models)
        results = _serve(server, burst_trace(64, ["alexnet-64"]))
        assert server.metrics.total_batches < 64
        assert max(r.batch_requests for r in results) > 1

    def test_latency_accounting_consistent(self, models):
        server = _server(models)
        results = _serve(server, poisson_trace(50_000, 40, sorted(models)))
        for r in results:
            assert r.finish_us > r.start_us >= r.arrival_us
            assert r.latency_us == pytest.approx(r.wait_us + r.service_us)
            assert r.latency_ms == pytest.approx(r.latency_us / 1000)
        assert server.sim_duration_us >= max(r.finish_us for r in results)

    def test_multiple_backends_used_under_load(self, models):
        server = _server(models)
        _serve(server, burst_trace(100, sorted(models)))
        busy = [w for w in server.metrics.workers.values() if w.requests]
        assert len(busy) == 2

    def test_plan_cache_shared_and_hot(self, models):
        # only round 1 plans; a Poisson trace's many more batch
        # decisions land on those plans, so its hit rate climbs higher
        for trace, floor in (
            (burst_trace(60, sorted(models)), 0.6),
            (poisson_trace(50_000, 200, sorted(models), seed=7), 0.9),
        ):
            cache = PlanCache()
            for _ in range(3):
                server = _server(models, plan_cache=cache)
                _serve(server, trace)
            assert cache.stats().hit_rate > floor
            assert cache.stats().entries > 0

    def test_tight_slo_prefers_smaller_batches(self, models):
        loose = _server(models, slo_ms=50.0)
        _serve(loose, burst_trace(64, ["alexnet-64"]))
        tight = _server(models, slo_ms=0.06)
        _serve(tight, burst_trace(64, ["alexnet-64"]))
        loose_max = max(loose.metrics.batch_size_histogram())
        tight_max = max(tight.metrics.batch_size_histogram())
        assert tight_max < loose_max

    def test_no_clairvoyant_batching(self, models):
        """A worker never coalesces requests that have not yet arrived.

        At a slow arrival rate an unscaled replay enqueues the whole
        trace up front, but simulated dispatch must still serve early
        requests near batch-1 service time instead of waiting on
        far-future arrivals.
        """
        server = _server(models, slo_ms=1000.0)
        # ~10 ms simulated between arrivals >> ~0.15 ms service time
        results = _serve(server, poisson_trace(100, 30, ["resnet18-32"]))
        for r in results:
            assert r.start_us >= r.arrival_us
            assert r.batch_requests <= 2  # server keeps up; no pile-up
        first = min(results, key=lambda r: r.arrival_us)
        assert first.latency_us < 1000  # not penalized by later arrivals

    def test_scaled_time_sleeps_but_completes(self, models):
        server = _server(models, time_scale=1e-9)
        results = _serve(server, burst_trace(16, sorted(models)))
        assert len(results) == 16

    def test_out_of_order_submission_not_clairvoyant(self, models):
        """Regression: queues are arrival-sorted, not submission-sorted.

        Submitting a far-future arrival before an immediate one used to
        leave the later stamp at the queue head, so the worker's
        visibility scan (head-anchored) coupled the immediate request to
        the future one: both dispatched together at the future stamp.
        The immediate request must dispatch alone at its own arrival.
        """
        server = _server(models)

        async def run():
            await server.start()
            late = asyncio.ensure_future(
                server.submit("resnet18-32", arrival_us=50_000.0)
            )
            early = asyncio.ensure_future(
                server.submit("resnet18-32", arrival_us=0.0)
            )
            out = await asyncio.gather(late, early)
            await server.stop()
            return out

        late_res, early_res = asyncio.run(run())
        assert early_res.start_us == 0.0
        assert early_res.batch_requests == 1
        assert late_res.start_us >= 50_000.0

    def test_deferred_promotion_keeps_arrival_order(self, models):
        """A promoted deferred request rejoins by arrival stamp, not at
        the tail: behind an already-queued far-future arrival it would
        otherwise be invisible (head-anchored scan) until that future
        stamp, recreating the out-of-order coupling bug."""
        server = InferenceServer(
            models,
            [(APNNBackend(W1A2), RTX3090)],
            slo_ms=5.0,
            admission=AdmissionPolicy(max_queue_depth=2, mode="defer"),
        )

        async def run():
            await server.start()
            a = asyncio.ensure_future(
                server.submit("resnet18-32", arrival_us=0.0)
            )
            late = asyncio.ensure_future(
                server.submit("resnet18-32", arrival_us=100_000.0)
            )
            # deferred at the cap; must rejoin *before* `late`
            deferred = asyncio.ensure_future(
                server.submit("resnet18-32", arrival_us=10.0)
            )
            out = await asyncio.gather(a, late, deferred)
            await server.stop()
            return out

        a_res, late_res, deferred_res = asyncio.run(run())
        assert a_res.start_us == 0.0
        assert deferred_res.start_us < 100_000.0
        assert late_res.start_us >= 100_000.0


class TestLifecycle:
    def test_unknown_model_rejected(self, models):
        server = _server(models)

        async def run():
            await server.start()
            with pytest.raises(KeyError, match="unknown model"):
                await server.submit("nope")
            await server.stop()

        asyncio.run(run())

    def test_submit_before_start_raises(self, models):
        server = _server(models)
        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(server.submit("alexnet-64"))

    def test_submit_after_stop_raises_instead_of_hanging(self, models):
        server = _server(models)

        async def run():
            await server.start()
            await server.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await server.submit("alexnet-64")

        asyncio.run(run())

    def test_stop_idempotent(self, models):
        server = _server(models)

        async def run():
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(run())

    def test_serve_forever_until_stopped(self, models):
        server = _server(models)

        async def run():
            forever = asyncio.create_task(server.serve_forever())
            await asyncio.sleep(0)
            result, _ = await asyncio.gather(
                server.submit("alexnet-64"), server.stop()
            )
            await asyncio.wait_for(forever, timeout=5)
            return result

        result = asyncio.run(run())
        assert result.model == "alexnet-64"

    def test_plan_failure_fails_the_request_not_the_worker(self, models):
        """A model/shape mismatch surfaces on the awaiting client, and
        the worker survives to serve well-formed models."""
        from repro.nn import alexnet

        bad = dict(models)
        bad["broken"] = ServedModel(
            alexnet(num_classes=10, input_size=224), (3, 32, 32)
        )
        server = _server(bad)

        async def run():
            await server.start()
            with pytest.raises(ValueError):
                await asyncio.wait_for(server.submit("broken"), timeout=5)
            ok = await asyncio.wait_for(
                server.submit("alexnet-64"), timeout=5
            )
            await server.stop()
            return ok

        result = asyncio.run(run())
        assert result.model == "alexnet-64"

    def test_constructor_validation(self, models):
        with pytest.raises(ValueError):
            InferenceServer({}, [(APNNBackend(W1A2), RTX3090)])
        with pytest.raises(ValueError):
            InferenceServer(models, [])
        with pytest.raises(ValueError):
            _server(models, time_scale=-1)

    def test_bare_sequential_accepted(self):
        net = resnet18(num_classes=10, input_size=224)
        server = InferenceServer(
            {"resnet": net}, [(APNNBackend(W1A2), RTX3090)]
        )
        assert server.models["resnet"].input_shape == (3, 224, 224)

    def test_duplicate_worker_names_disambiguated(self, models):
        server = InferenceServer(
            models,
            workers=[(APNNBackend(W1A2), RTX3090), (APNNBackend(W1A2), RTX3090)],
        )
        names = [n for n, _, _ in server._worker_specs]
        assert len(set(names)) == 2


class TestTraces:
    def test_poisson_trace_shape(self):
        trace = poisson_trace(1000, 50, ["a", "b"], seed=1)
        assert len(trace) == 50
        times = [e.t_us for e in trace]
        assert times == sorted(times)
        assert {e.model for e in trace} == {"a", "b"}

    def test_poisson_rate_sets_mean_gap(self):
        trace = poisson_trace(10_000, 2000, ["a"], seed=2)
        mean_gap = trace[-1].t_us / len(trace)
        assert mean_gap == pytest.approx(100.0, rel=0.1)

    def test_poisson_weights(self):
        trace = poisson_trace(1000, 300, ["a", "b"], weights=[1, 0], seed=3)
        assert {e.model for e in trace} == {"a"}

    def test_burst_all_at_zero(self):
        trace = burst_trace(10, ["a", "b"])
        assert all(e.t_us == 0.0 for e in trace)
        assert sum(e.model == "a" for e in trace) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 10, ["a"])
        with pytest.raises(ValueError):
            poisson_trace(10, 0, ["a"])
        with pytest.raises(ValueError):
            poisson_trace(10, 10, [])
        with pytest.raises(ValueError):
            poisson_trace(10, 10, ["a", "b"], weights=[1])
        with pytest.raises(ValueError):
            burst_trace(0, ["a"])
