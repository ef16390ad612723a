"""Deferred weight draws: planning and pricing allocate no weight, the
first read draws a model's weights exactly as an eager build would, and
each draw streams into its float32 output chunk by chunk."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import PrecisionPair
from repro.core.quantize import STREAM_CHUNK
from repro.nn import (
    APNNBackend,
    BasicBlock,
    Conv2d,
    InferenceEngine,
    Linear,
    alexnet,
    resnet18,
    vgg_variant,
)
from repro.nn import layers
from repro.nn.models import micro_cnn
from repro.serve import PlanCache
from repro.tensorcore import RTX3090

W1A2 = PrecisionPair.parse("w1a2")

#: sha256 over every parameter's bytes, in ``parameters()`` order, of
#: each builder's eager build before draws were deferred.
PINNED = {
    "alexnet": (
        lambda: alexnet(num_classes=10, input_size=64),
        "00e99dd20c7c639139a45815d20da265d131bc986f1133ae1801d390f91de7d3",
    ),
    "vgg_variant": (
        lambda: vgg_variant(num_classes=10, input_size=32),
        "a0327825d5b377034022bce417ec5712b10f196fe7ee59616547d4d3dec0bfed",
    ),
    "resnet18": (
        lambda: resnet18(num_classes=10, input_size=32),
        "a91a7d13ff1e0bec9aabbe83e32e1e5687fab312b88510bfc8358b1bca7046db",
    ),
    "micro_cnn": (
        # a name no other test builds, so the memo hands out a fresh model
        lambda: micro_cnn("draw-plan-micro", 3, (3, 16, 16)),
        "dc5a62570c56917348b889538d9971fca94b3248b3ca27b35bbc88e02c62b63f",
    ),
    "conv2d": (
        lambda: Conv2d(3, 4, 3),
        "15b676fc217627e6990f72b603352a7336ff5893d3698680e46e10b402bd5a7b",
    ),
    "linear": (
        lambda: Linear(5, 3),
        "672dea95157813bfbd8bc2016350d99b87f02b3246113b1aedff25fd2f619bd3",
    ),
    "basic_block": (
        lambda: BasicBlock(4, 8, stride=2),
        "644abe46f303409877d2520ece15bdf54d726bb133b608d8b147b17da7386a1c",
    ),
}


@pytest.fixture
def draws(monkeypatch):
    """Every ``_kaiming`` call made while the test runs, as its shape."""
    calls = []
    real = layers._kaiming

    def counting(rng, shape, fan_in):
        calls.append(tuple(shape))
        return real(rng, shape, fan_in)

    monkeypatch.setattr(layers, "_kaiming", counting)
    return calls


def weights(model):
    """The Kaiming-drawn parameters of ``model``, in construction order."""
    return [p for p in model.parameters() if len(p.shape) > 1]


def digest(model) -> str:
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestNothingDrawn:
    def test_builders_draw_nothing(self, draws):
        models = [
            alexnet(), vgg_variant(), resnet18(),
            micro_cnn("draw-plan-unread", 5, (3, 16, 16)),
        ]
        assert alexnet().num_parameters() == 61_099_688
        assert all(m.num_parameters() > 0 for m in models)
        assert draws == []

    def test_shapes_answer_without_drawing(self, draws):
        conv = Conv2d(64, 128, 3)
        assert conv.weight.shape == (128, 64, 3, 3)
        assert conv.weight.size == 128 * 64 * 9
        assert draws == []

    def test_pricing_draws_nothing(self, draws):
        cache = PlanCache()
        for model in (alexnet(), vgg_variant(), resnet18()):
            engine = InferenceEngine(model, APNNBackend(W1A2), RTX3090)
            plan = engine.compile(8)
            assert plan.price(engine.latency_model).total_us > 0
            assert engine.gemm_problems(8)
            assert cache.get(engine, 8) is not None
        assert draws == []


class TestFirstRead:
    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_one_read_draws_every_weight_once(self, draws, kind):
        build, pinned = PINNED[kind]
        model = build()
        recorded = weights(model)
        assert draws == []
        _ = recorded[-1].data
        assert draws == [p.shape for p in recorded]
        assert digest(model) == pinned
        assert len(draws) == len(recorded)  # later reads draw nothing

    def test_concurrent_first_reads_replay_once(self, draws):
        build, pinned = PINNED["resnet18"]
        model = build()
        recorded = weights(model)
        # more readers than cores, each on a different weight
        readers = (0, 7, 14, len(recorded) - 1)
        start = threading.Barrier(len(readers))
        seen = {}

        def read(i):
            start.wait(timeout=10)
            seen[i] = recorded[i].data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(i,)) for i in readers
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(draws) == len(recorded)
        assert digest(model) == pinned
        assert all(seen[i] is recorded[i].data for i in readers)


class TestCallerGenerator:
    """A caller's generator draws at construction: the caller goes on
    drawing from the same stream."""

    def test_conv_draws_now_and_advances_the_stream(self, draws):
        rng = np.random.default_rng(0)
        conv = Conv2d(3, 4, 3, rng=rng)
        assert draws == [(4, 3, 3, 3)]
        assert rng.normal() == -2.2501411735745918
        _ = conv.weight.data
        assert len(draws) == 1

    def test_block_and_linear_draw_now(self, draws):
        rng = np.random.default_rng(0)
        BasicBlock(4, 8, stride=2, rng=rng)
        Linear(5, 3, rng=rng)
        assert draws == [(8, 4, 3, 3), (8, 8, 3, 3), (8, 4, 1, 1), (3, 5)]


class TestStreamedDraw:
    """``_kaiming`` draws one chunk at a time into its float32 output, yet
    its bytes and the generator's next value are one whole draw's."""

    @pytest.mark.parametrize("shape", [
        (0,), (1,), (STREAM_CHUNK - 1,), (STREAM_CHUNK,), (STREAM_CHUNK + 1,),
        (2 * STREAM_CHUNK,), (3 * STREAM_CHUNK + 5,), (64, 3, 3, 3),
        (3, 7, STREAM_CHUNK // 7 + 1),
    ])
    def test_chunks_equal_one_draw(self, shape):
        streamed, whole = np.random.default_rng(11), np.random.default_rng(11)
        got = layers._kaiming(streamed, shape, 27)
        want = whole.normal(0.0, np.sqrt(2.0 / 27), size=shape).astype(np.float32)
        assert got.dtype == np.float32
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert streamed.normal() == whole.normal()

    def test_fc6_sized_draw_allocates_its_output_and_a_few_chunks(self):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            w = layers._kaiming(rng, (4096, 9216), 9216)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one whole float64 draw, the cast's source, was 288 MiB
        assert peak <= w.nbytes + 4 * STREAM_CHUNK * 8
