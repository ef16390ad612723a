"""Plan-cache invariants: keying, hit/miss accounting, pricing parity."""

from dataclasses import fields

import pytest

from repro.core import PrecisionPair
from repro.nn import (
    APNNBackend,
    BNNBackend,
    InferenceEngine,
    LibraryBackend,
    alexnet,
    backend_key,
)
from repro.serve import PlanCache, PlanKey
from repro.tensorcore import A100, RTX3090

pytestmark = pytest.mark.serving

W1A2 = PrecisionPair.parse("w1a2")
SHAPE = (3, 64, 64)


@pytest.fixture(scope="module")
def net():
    return alexnet(num_classes=10, input_size=64)


@pytest.fixture(scope="module")
def engine(net):
    return InferenceEngine(net, APNNBackend(W1A2))


class TestKeying:
    def test_identical_request_hits(self, engine):
        cache = PlanCache()
        first = cache.get(engine, 8, SHAPE)
        second = cache.get(engine, 8, SHAPE)
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_changing_batch_misses(self, engine):
        cache = PlanCache()
        cache.get(engine, 8, SHAPE)
        cache.get(engine, 16, SHAPE)
        assert cache.stats().misses == 2

    def test_changing_backend_misses(self, net):
        cache = PlanCache()
        for backend in (APNNBackend(W1A2), BNNBackend(), LibraryBackend("int8")):
            cache.get(InferenceEngine(net, backend), 8, SHAPE)
        assert cache.stats().misses == 3
        assert cache.stats().hits == 0

    def test_changing_precision_misses(self, net):
        cache = PlanCache()
        for pair in ("w1a2", "w2a2"):
            eng = InferenceEngine(net, APNNBackend(PrecisionPair.parse(pair)))
            cache.get(eng, 8, SHAPE)
        assert cache.stats().misses == 2

    def test_changing_device_misses(self, net):
        cache = PlanCache()
        backend = APNNBackend(W1A2)
        cache.get(InferenceEngine(net, backend, RTX3090), 8, SHAPE)
        cache.get(InferenceEngine(net, backend, A100), 8, SHAPE)
        assert cache.stats().misses == 2

    def test_changing_input_shape_misses(self):
        # resnet18's global pooling accepts any /32 input resolution
        from repro.nn import resnet18

        cache = PlanCache()
        eng = InferenceEngine(
            resnet18(num_classes=10, input_size=32), APNNBackend(W1A2)
        )
        cache.get(eng, 8, (3, 32, 32))
        cache.get(eng, 8, (3, 64, 64))
        assert cache.stats().misses == 2

    def test_key_is_engine_identity_plus_batch_and_shape(self, engine):
        cache = PlanCache()
        key = cache.key_for(engine, 8, SHAPE)
        assert engine.plan_identity == (
            engine.model.name, backend_key(engine.backend), engine.device.name
        )
        assert (key.model, key.backend, key.device) == engine.plan_identity
        assert (key.batch, key.input_shape) == (8, SHAPE)
        assert [f.name for f in fields(PlanKey)] == [
            "model", "backend", "device", "batch", "input_shape"
        ]
        # a second engine over an equal backend object shares the key
        twin = InferenceEngine(engine.model, APNNBackend(W1A2))
        assert cache.key_for(twin, 8, SHAPE) == key

    def test_mixed_precision_overrides_distinct_keys(self):
        base = APNNBackend(W1A2)
        mixed_a = APNNBackend.mixed("w1a2", {"conv2": "w2a2"})
        mixed_b = APNNBackend.mixed("w1a2", {"conv2": "w2a8"})
        keys = {backend_key(b) for b in (base, mixed_a, mixed_b)}
        assert len(keys) == 3


class TestPricingParity:
    def test_cached_plan_prices_like_fresh_estimate(self, engine):
        """The ISSUE invariant: cache must not change what things cost."""
        cache = PlanCache()
        for batch in (1, 8, 32):
            cached = cache.get(engine, batch, SHAPE)
            fresh = engine.estimate(batch, SHAPE)
            priced = cached.price(engine.latency_model)
            assert priced.total_us == pytest.approx(fresh.total_us, rel=1e-12)
            assert cache.total_us(engine, batch, SHAPE) == pytest.approx(
                fresh.total_us, rel=1e-12
            )

    def test_total_us_and_get_share_entries(self, engine):
        cache = PlanCache()
        cache.get(engine, 8, SHAPE)
        cache.total_us(engine, 8, SHAPE)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)


class TestEviction:
    def test_lru_eviction(self, engine):
        cache = PlanCache(max_entries=2)
        cache.get(engine, 1, SHAPE)
        cache.get(engine, 2, SHAPE)
        cache.get(engine, 1, SHAPE)  # refresh batch-1
        cache.get(engine, 4, SHAPE)  # evicts batch-2
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        cache.get(engine, 2, SHAPE)  # must re-plan
        assert cache.stats().misses == 4

    def test_clear(self, engine):
        cache = PlanCache()
        cache.get(engine, 8, SHAPE)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().lookups == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)
