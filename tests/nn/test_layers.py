"""Tests for NN layers: float semantics and shape propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Quantize,
    ReLU,
    Sequential,
)


class TestConv2d:
    def test_matches_scipy(self):
        from scipy.signal import correlate

        rng = np.random.default_rng(0)
        conv = Conv2d(3, 4, 3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 6, 6))
        out = conv.forward(x)
        xpad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in (0, 1):
            for co in range(4):
                acc = np.zeros((6, 6))
                for ci in range(3):
                    acc += correlate(xpad[n, ci], conv.weight.data[co, ci], mode="valid")
                np.testing.assert_allclose(out[n, co], acc, rtol=1e-4, atol=1e-5)

    def test_stride_shape(self):
        conv = Conv2d(3, 8, 11, stride=4, padding=2)
        assert conv.output_shape((1, 3, 224, 224)) == (1, 8, 55, 55)

    def test_bias_applied(self):
        conv = Conv2d(1, 2, 1, bias=True)
        conv.weight.data[:] = 0
        conv.bias.data[:] = [1.0, -2.0]
        out = conv.forward(np.zeros((1, 1, 2, 2)))
        assert np.all(out[0, 0] == 1.0) and np.all(out[0, 1] == -2.0)

    def test_channel_mismatch(self):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.zeros((1, 2, 8, 8)))
        with pytest.raises(ValueError):
            conv.output_shape((1, 2, 8, 8))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Conv2d(0, 4, 3)

    def test_macs_per_output(self):
        assert Conv2d(64, 128, 3).macs_per_output == 64 * 9


class TestLinear:
    def test_forward(self):
        fc = Linear(3, 2, bias=True)
        fc.weight.data[:] = [[1, 0, 0], [0, 1, 1]]
        fc.bias.data[:] = [0.5, -0.5]
        out = fc.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1.5, 4.5]])

    def test_shape_validation(self):
        fc = Linear(3, 2)
        with pytest.raises(ValueError):
            fc.forward(np.zeros((1, 4)))

    def test_output_shape(self):
        assert Linear(10, 5).output_shape((4, 10)) == (4, 5)


class TestBatchNorm2d:
    def test_identity_at_init(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(bn.forward(x), x, rtol=1e-4, atol=1e-6)

    def test_statistics_applied(self):
        bn = BatchNorm2d(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.gamma.data[:] = 3.0
        bn.beta.data[:] = 1.0
        out = bn.forward(np.full((1, 1, 2, 2), 4.0))
        np.testing.assert_allclose(out, 3.0 * (4 - 2) / 2 + 1, rtol=1e-4)

    def test_folded_scale_shift_equivalent(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm2d(4)
        bn.running_mean[:] = rng.normal(size=4)
        bn.running_var[:] = rng.uniform(0.5, 2, size=4)
        bn.gamma.data[:] = rng.normal(size=4)
        bn.beta.data[:] = rng.normal(size=4)
        x = rng.normal(size=(2, 4, 3, 3))
        scale, shift = bn.folded_scale_shift()
        folded = x * scale[None, :, None, None] + shift[None, :, None, None]
        np.testing.assert_allclose(bn.forward(x), folded, rtol=1e-10)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3).forward(np.zeros((1, 2, 4, 4)))


class TestPooling:
    def test_maxpool_overlapping_alexnet(self):
        """k=3, s=2: the AlexNet configuration."""
        pool = MaxPool2d(3, 2)
        assert pool.output_shape((1, 64, 55, 55)) == (1, 64, 27, 27)
        x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
        out = pool.forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == 12  # max of x[0:3, 0:3]
        assert out[0, 0, 1, 1] == 24

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_default_stride_is_kernel(self):
        assert MaxPool2d(2).stride == 2

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            MaxPool2d(5).output_shape((1, 1, 4, 4))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2), c=st.integers(1, 3),
           k=st.integers(1, 4), s=st.integers(1, 4),
           dh=st.integers(0, 9), dw=st.integers(0, 9),
           dtype=st.sampled_from([np.float64, np.uint8]),
           levels=st.sampled_from([2, 4, 256]),
           seed=st.integers(0, 2**32 - 1))
    def test_maxpool_equals_window_max(self, n, c, k, s, dh, dw, dtype, levels, seed):
        """Strided maxima == the sliding-window reduction, any k, s (s > k too)."""
        rng = np.random.default_rng(seed)
        # few levels force ties inside windows; floats go negative too
        x = rng.integers(0, levels, size=(n, c, k + dh, k + dw)).astype(dtype)
        if dtype is np.float64:
            x = (x - levels / 2) * 0.37
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        want = windows[:, :, ::s, ::s].max(axis=(-2, -1))
        got = MaxPool2d(k, s).forward(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, x)

    def test_maxpool_forward_errors(self):
        with pytest.raises(ValueError, match="pooling expects NCHW"):
            MaxPool2d(2).forward(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match="window larger than input"):
            MaxPool2d(5).forward(np.zeros((1, 1, 8, 4), dtype=np.uint8))

    def test_adaptive_global(self):
        gap = AdaptiveAvgPool2d()
        x = np.random.default_rng(3).normal(size=(2, 5, 7, 7))
        out = gap.forward(x)
        assert out.shape == (2, 5, 1, 1)
        np.testing.assert_allclose(out[..., 0, 0], x.mean(axis=(2, 3)))


class TestQuantizeAndFlatten:
    def test_quantize_levels(self):
        q = Quantize(2)
        x = np.linspace(0, 1, 100)
        out = q.forward(x)
        assert len(np.unique(np.round(out, 10))) <= 4

    def test_quantize_constant_input(self):
        q = Quantize(2)
        x = np.full(5, 3.0)
        np.testing.assert_array_equal(q.forward(x), x)

    def test_quantize_bits_validated(self):
        with pytest.raises(ValueError):
            Quantize(0)
        with pytest.raises(ValueError):
            Quantize(9)

    def test_flatten(self):
        f = Flatten()
        x = np.arange(24).reshape(2, 3, 2, 2)
        assert f.forward(x).shape == (2, 12)
        assert f.output_shape((2, 3, 2, 2)) == (2, 12)


class TestSequential:
    def test_forward_chains(self):
        model = Sequential([Linear(4, 3, bias=False), ReLU(), Linear(3, 2, bias=False)])
        x = np.random.default_rng(4).normal(size=(2, 4))
        out = model.forward(x)
        assert out.shape == (2, 2)

    def test_output_shape_chains(self):
        model = Sequential([Conv2d(3, 8, 3, padding=1), MaxPool2d(2), Flatten()])
        assert model.output_shape((1, 3, 8, 8)) == (1, 8 * 4 * 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_parameters_collected(self):
        model = Sequential([Conv2d(1, 2, 3), BatchNorm2d(2), Linear(8, 4)])
        n = model.num_parameters()
        assert n == (2 * 1 * 9) + (2 + 2) + (4 * 8 + 4)

    def test_iteration_and_indexing(self):
        layers = [Linear(2, 2), ReLU()]
        model = Sequential(layers)
        assert len(model) == 2
        assert model[1] is layers[1]
        assert list(model) == layers
