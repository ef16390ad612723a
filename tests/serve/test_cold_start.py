"""Cold-start behavior: single-flight compiles, persistence, prewarm.

The stall fix's acceptance criteria, asserted through the harness's
:class:`~harness.RecordingPlanCache`:

* no server code path ever compiles synchronously on the event-loop
  thread (``in_loop`` stays empty everywhere);
* N coroutines/workers racing on one shared cold key compile it exactly
  once (single-flight) and failures propagate to every waiter;
* a cold start over a persisted store performs **zero**
  ``engine.compile()`` calls;
* warm-up must not change scheduling: cold, warm, and prewarmed runs of
  the same trace produce byte-identical results;
* pricing never loads the compiled kernels, so a serving process with a
  cold C build cache never runs the C compiler.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import PrecisionPair
from repro.nn import APNNBackend, InferenceEngine
from repro.serve import PlanCacheStore, burst_trace
from repro.tensorcore import RTX3090

from harness import RecordingPlanCache, make_server, run_trace, small_alexnet

pytestmark = pytest.mark.serving

W1A2 = PrecisionPair.parse("w1a2")
SHAPE = (3, 64, 64)


def _trace(n: int = 24):
    return burst_trace(n, ["alexnet-tight", "resnet-loose"])


class TestSingleFlightCache:
    def test_concurrent_ensure_compiles_once(self):
        cache = RecordingPlanCache()
        engine = InferenceEngine(small_alexnet(), APNNBackend(W1A2), RTX3090)

        async def run():
            return await asyncio.gather(
                *(cache.ensure_async(engine, 8, SHAPE) for _ in range(8))
            )

        compiled = asyncio.run(run())
        # exactly one caller did the compile; the rest coalesced
        assert sorted(compiled) == [False] * 7 + [True]
        assert len(cache.compile_calls) == 1
        stats = cache.stats()
        assert stats.coalesced == 7
        assert stats.misses == 1
        assert not cache.in_loop_calls
        # the ensured plan is warm: the pricing lookup is a pure hit
        cache.total_us(engine, 8, SHAPE)
        assert cache.stats().hits == 1
        assert len(cache.compile_calls) == 1

    def test_distinct_keys_compile_independently(self):
        cache = RecordingPlanCache()
        engine = InferenceEngine(small_alexnet(), APNNBackend(W1A2), RTX3090)

        async def run():
            await asyncio.gather(
                *(cache.ensure_async(engine, b, SHAPE) for b in (1, 2, 4))
            )

        asyncio.run(run())
        assert sorted(c.batch for c in cache.compile_calls) == [1, 2, 4]
        assert cache.stats().coalesced == 0

    def test_failure_propagates_to_every_waiter(self):
        cache = RecordingPlanCache()
        # 64x64 alexnet walked at 8x8: the shape walk underflows
        engine = InferenceEngine(small_alexnet(), APNNBackend(W1A2), RTX3090)

        async def run():
            return await asyncio.gather(
                *(cache.ensure_async(engine, 4, (3, 8, 8)) for _ in range(4)),
                return_exceptions=True,
            )

        outcomes = asyncio.run(run())
        assert len(outcomes) == 4
        assert all(isinstance(o, ValueError) for o in outcomes)
        assert not cache._inflight  # registry drained despite the failure
        assert cache.compile_calls == []  # nothing recorded as compiled


class TestSingleFlightServer:
    def test_racing_workers_compile_each_key_once(self):
        """Three identical workers share every PlanKey: the burst's cold
        sweep must compile each (model, batch) exactly once."""
        cache = RecordingPlanCache()
        server = make_server(
            workers=[(APNNBackend(W1A2), RTX3090)] * 3,
            plan_cache=cache,
        )
        run = run_trace(server, _trace(48))
        assert len(run.results) == 48
        keys = cache.compiled_keys()
        assert keys, "cold start must have compiled something"
        assert len(keys) == len(set(keys)), keys
        assert not cache.in_loop_calls
        # coalesced waiters must not inflate the server-side counter:
        # cold_compiles == compiles this server's workers performed
        assert server.metrics.cold_compiles == len(keys)


class TestPersistedColdStart:
    def test_persisted_restart_compiles_nothing(self, tmp_path):
        first = RecordingPlanCache(store=PlanCacheStore(tmp_path))
        run1 = run_trace(make_server(plan_cache=first), _trace())
        assert first.compile_calls  # the cold run planned
        assert not first.in_loop_calls

        restarted = RecordingPlanCache(store=PlanCacheStore(tmp_path))
        run2 = run_trace(make_server(plan_cache=restarted), _trace())
        assert len(run2.results) == len(run1.results)
        assert restarted.compile_calls == []  # ISSUE criterion (a)
        stats = restarted.stats()
        assert stats.persisted_entries == len(first.compile_calls)
        assert stats.persisted_hits > 0
        # identical trace, identical plans -> identical scheduling
        assert run2.results == run1.results



class TestWarmupEquivalence:
    def test_cold_warm_and_prewarmed_results_identical(self):
        """ISSUE criterion (c): warm-path behavior is byte-identical.

        The same trace through (1) a cold cache, (2) the now-warm cache,
        and (3) a prewarmed start must produce identical RequestResults
        -- warmth changes when plans are made, never what the batcher
        decides.
        """
        trace = _trace(40)
        cache = RecordingPlanCache()
        cold = run_trace(make_server(plan_cache=cache), trace)
        compiled_cold = len(cache.compile_calls)
        assert compiled_cold > 0

        warm = run_trace(make_server(plan_cache=cache), trace)
        assert len(cache.compile_calls) == compiled_cold  # no replans
        assert warm.results == cold.results

        pre_cache = RecordingPlanCache()
        pre_server = make_server(plan_cache=pre_cache)
        pre = run_trace(pre_server, trace, prewarm=True)
        assert pre.results == cold.results
        assert pre_server.metrics.prewarmed_plans == len(
            pre_cache.compile_calls
        )
        assert pre_server.metrics.cold_compiles == 0  # prewarm beat traffic
        assert not pre_cache.in_loop_calls

    def test_cold_start_metrics_populated(self):
        cache = RecordingPlanCache()
        server = make_server(plan_cache=cache)
        run_trace(server, _trace())
        m = server.metrics
        assert m.cold_compiles == len(cache.compile_calls) > 0
        assert m.cold_dispatches > 0
        assert m.compile_stall_us > 0.0
        assert m.prewarmed_plans == 0
        report = m.report(cache)
        assert "cold start" in report
        assert "persisted" in report

    def test_compile_failure_still_fails_request_not_worker(self):
        """The cold path's error handling matches the old in-loop one."""
        from repro.nn import alexnet
        from repro.serve import ServedModel

        models = {
            "ok": ServedModel(small_alexnet(), (3, 64, 64)),
            "broken": ServedModel(
                alexnet(num_classes=10, input_size=224), (3, 32, 32)
            ),
        }
        cache = RecordingPlanCache()
        server = make_server(models, plan_cache=cache)

        async def run():
            await server.start()
            with pytest.raises(ValueError):
                await asyncio.wait_for(server.submit("broken"), timeout=5)
            ok = await asyncio.wait_for(server.submit("ok"), timeout=5)
            await server.stop()
            return ok

        result = asyncio.run(run())
        assert result.model == "ok"
        assert not cache.in_loop_calls


class TestPricingNeverLoadsKernels:
    #: Compile and look up a plan, then snapshot the metrics.
    SCRIPT = """
import sys
from repro.core import PrecisionPair
from repro.nn import APNNBackend, InferenceEngine, alexnet
from repro.serve import PlanCache, ServerMetrics
from repro.tensorcore import RTX3090

engine = InferenceEngine(
    alexnet(num_classes=10, input_size=64),
    APNNBackend(PrecisionPair.parse("w1a2")), RTX3090,
)
cache = PlanCache()
cache.get(engine, 4, (3, 64, 64))
cache.total_us(engine, 4, (3, 64, 64))
assert cache.stats().hits >= 1
ServerMetrics().snapshot()
print("repro.core._backend_cffi" in sys.modules)
"""

    def test_plan_lookup_and_snapshot_leave_the_cffi_cache_cold(
        self, tmp_path
    ):
        cffi_cache = tmp_path / "cffi"
        cffi_cache.mkdir()
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(
            os.environ, PYTHONPATH=str(src), REPRO_CFFI_CACHE=str(cffi_cache)
        )
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "False"
        assert list(cffi_cache.iterdir()) == []
