"""Cross-module integration tests: the full stack working together."""

import numpy as np
import pytest

from repro.core import AffineQuantizer, PrecisionPair, binarize
from repro.kernels import apconv, apmm
from repro.nn import APNNBackend, InferenceEngine, Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, Quantize, ReLU
from repro.perf import LatencyModel
from repro.tensorcore import RTX3090

pytestmark = pytest.mark.integration


class TestQuantizeToKernelPipeline:
    """Float weights -> quantizer -> digits -> bit-serial kernel."""

    def test_dorefa_w1a2_through_apmm(self):
        """The paper's w1a2 setting: sign-binarized weights, 2-bit
        activations on [0, 1]."""
        rng = np.random.default_rng(0)
        w_float = rng.normal(size=(32, 64))
        x_float = rng.uniform(size=(16, 64))
        wq = binarize(w_float)
        # sign binarization at the mean-|w| scale
        assert np.array_equal(wq.digits, w_float >= 0)
        np.testing.assert_allclose(np.abs(wq.dequantize()),
                                   np.mean(np.abs(w_float)))
        aq = AffineQuantizer.from_range(0.0, 1.0, 2)
        x_digits = aq.quantize(x_float)
        res = apmm(wq.digits, x_digits, wq.precision, aq.precision,
                   strategy="bitserial")
        ref = apmm(wq.digits, x_digits, wq.precision, aq.precision,
                   strategy="integer")
        assert np.array_equal(res.output, ref.output)
        # integer result scaled back equals the product of the decodes
        approx = wq.scale * aq.scale * res.output
        exact = wq.dequantize() @ aq.dequantize(x_digits).T
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
                        strategy="bitserial")
        digits = q.quantize(layer1.output)
        assert q.precision == pair.activation
        layer2 = apconv(w2, digits, pair.weight, pair.activation,
                        padding=1, strategy="bitserial")
        ref2 = apconv(w2, digits, pair.weight, pair.activation,
                      padding=1, strategy="integer")
        assert np.array_equal(layer2.output, ref2.output)


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
