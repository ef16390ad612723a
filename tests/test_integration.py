"""Cross-module integration tests: the full stack working together."""

import numpy as np
import pytest

from repro.core import (
    AffineQuantizer,
    Encoding,
    Precision,
    PrecisionPair,
    dorefa_quantize_activations,
    dorefa_quantize_weights,
)
from repro.kernels import apconv, apmm, to_nphwc, from_nphwc
from repro.nn import APNNBackend, InferenceEngine, Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, Quantize, ReLU
from repro.perf import LatencyModel
from repro.tensorcore import RTX3090

pytestmark = pytest.mark.integration


class TestQuantizeToKernelPipeline:
    """Float weights -> quantizer -> digits -> bit-serial kernel."""

    def test_dorefa_w1a2_through_apmm(self):
        rng = np.random.default_rng(0)
        w_float = rng.normal(size=(32, 64))
        x_float = rng.uniform(size=(16, 64))
        wq = dorefa_quantize_weights(w_float, 1)
        xq = dorefa_quantize_activations(x_float, 2)
        res = apmm(wq.digits, xq.digits, wq.precision, xq.precision,
                   strategy="bitserial")
        # integer result scaled back approximates the float product
        approx = wq.scale * xq.scale * res.output
        exact = (wq.dequantize() @ xq.dequantize().T)
        np.testing.assert_allclose(approx, exact, atol=1e-9)

    def test_quantized_conv_chain_two_layers(self):
        """Layer 1's 2-bit quantized output feeds layer 2 bit-exactly."""
        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(1)
        w1 = pair.weight.random_digits(rng, (8, 4, 3, 3))
        w2 = pair.weight.random_digits(rng, (6, 8, 3, 3))
        x = pair.activation.random_digits(rng, (1, 4, 8, 8))

        q = AffineQuantizer(bits=2, scale=30.0, zero_point=-40.0)
        layer1 = apconv(w1, x, pair.weight, pair.activation, padding=1,
                        out_quantizer=q, strategy="bitserial")
        assert layer1.out_precision == Precision(2, Encoding.UNSIGNED)
        layer2 = apconv(w2, layer1.output, pair.weight, pair.activation,
                        padding=1, strategy="bitserial")
        ref2 = apconv(w2, layer1.output, pair.weight, pair.activation,
                      padding=1, strategy="integer")
        assert np.array_equal(layer2.output, ref2.output)

    def test_packed_layout_roundtrip_through_conv(self):
        """NPHWC packing is lossless around a conv call."""
        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(2)
        x = pair.activation.random_digits(rng, (2, 8, 6, 6))
        packed = to_nphwc(x, pair.activation)
        unpacked = from_nphwc(packed)
        w = pair.weight.random_digits(rng, (4, 8, 3, 3))
        a = apconv(w, x, pair.weight, pair.activation, padding=1)
        b = apconv(w, unpacked, pair.weight, pair.activation, padding=1)
        assert np.array_equal(a.output, b.output)


class TestEndToEndLatencyPipeline:
    def test_custom_model_through_engine(self):
        model = Sequential(
            [
                Conv2d(3, 16, 3, padding=1, name="c1"),
                ReLU(),
                Quantize(2),
                Conv2d(16, 32, 3, padding=1, name="c2"),
                ReLU(),
                Quantize(2),
                Flatten(),
                Linear(32 * 8 * 8, 10, name="head"),
            ],
            name="custom",
        )
        engine = InferenceEngine(model, APNNBackend(PrecisionPair.parse("w1a2")))
        report = engine.estimate(4, input_shape=(3, 8, 8))
        assert report.total_us > 0
        assert len([g for g in report.groups if g.kind in ("Conv2d", "Linear")]) == 3
        # functional forward agrees with direct model forward
        x = np.random.default_rng(6).normal(size=(1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(engine.forward(x), model.forward(x))

    def test_latency_model_prices_every_kernel_cost(self):
        """Every cost the engine emits is priceable (no missing families)."""
        model = Sequential(
            [Conv2d(3, 8, 3, padding=1), ReLU(), Quantize(2), Flatten(),
             Linear(8 * 4 * 4, 5)],
        )
        lm = LatencyModel(RTX3090)
        for backend_cls in ("fp32", "fp16", "int8"):
            from repro.nn import LibraryBackend

            engine = InferenceEngine(model, LibraryBackend(backend_cls))
            rep = engine.estimate(2, input_shape=(3, 4, 4))
            for g in rep.groups:
                for c in g.costs:
                    assert lm.latency_us(c) > 0
