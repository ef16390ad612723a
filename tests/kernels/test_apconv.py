"""Tests for APConv: correctness vs direct convolution, padding, cost,
and the one layout pass every strategy and route reads."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision
from repro.kernels import TileConfig, apconv, layout
from repro.perf import conv_cost

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR


def _direct_conv(wv, xv, stride, padding):
    """Zero-VALUE padded correlation reference."""
    n, cin, h, w = xv.shape
    cout, _, kh, kw = wv.shape
    xp = np.pad(xv, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.int64)
    for b in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride: i * stride + kh,
                               j * stride: j * stride + kw]
                    out[b, co, i, j] = np.sum(patch * wv[co])
    return out


def _rand_conv(seed, wp, xp, cout=4, cin=3, k=3, n=2, h=6, w=6):
    rng = np.random.default_rng(seed)
    return (
        wp.random_digits(rng, (cout, cin, k, k)),
        xp.random_digits(rng, (n, cin, h, w)),
    )


ENCODINGS = [
    (Precision(1, B), Precision(2, U)),
    (Precision(1, B), Precision(1, B)),
    (Precision(2, U), Precision(2, U)),
    (Precision(2, U), Precision(1, B)),
]


class TestCorrectness:
    @pytest.mark.parametrize("wp,xp", ENCODINGS)
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_direct_conv(self, wp, xp, stride, padding):
        W, X = _rand_conv(0, wp, xp)
        res = apconv(W, X, wp, xp, stride=stride, padding=padding)
        ref = _direct_conv(wp.decode(W), xp.decode(X), stride, padding)
        assert np.array_equal(res.output, ref)

    @pytest.mark.parametrize("wp,xp", ENCODINGS)
    def test_all_strategies_agree(self, wp, xp):
        W, X = _rand_conv(1, wp, xp)
        a = apconv(W, X, wp, xp, padding=1, strategy="integer")
        b = apconv(W, X, wp, xp, padding=1, strategy="bitserial")
        c = apconv(W, X, wp, xp, padding=1, strategy="packed")
        assert np.array_equal(a.output, b.output)
        assert np.array_equal(a.output, c.output)

    def test_default_strategy_is_packed(self):
        wp, xp = Precision(1, B), Precision(2, U)
        W, X = _rand_conv(7, wp, xp)
        default = apconv(W, X, wp, xp, padding=1)
        packed = apconv(W, X, wp, xp, padding=1, strategy="packed")
        assert np.array_equal(default.output, packed.output)

    def test_kernel1x1(self):
        wp, xp = Precision(1, B), Precision(2, U)
        W, X = _rand_conv(2, wp, xp, k=1)
        res = apconv(W, X, wp, xp)
        assert np.array_equal(
            res.output, _direct_conv(wp.decode(W), xp.decode(X), 1, 0)
        )

    def test_large_stride_alexnet_style(self):
        wp, xp = Precision(1, B), Precision(8, U)
        rng = np.random.default_rng(3)
        W = wp.random_digits(rng, (2, 3, 11, 11))
        X = xp.random_digits(rng, (1, 3, 32, 32))
        res = apconv(W, X, wp, xp, stride=4, padding=2)
        ref = _direct_conv(wp.decode(W), xp.decode(X), 4, 2)
        assert np.array_equal(res.output, ref)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        padding=st.integers(0, 2),
        stride=st.integers(1, 2),
    )
    def test_property_bipolar_bipolar_padding(self, seed, padding, stride):
        """The counter-corrected Case-II path is exact for any geometry."""
        wp = xp = Precision(1, B)
        W, X = _rand_conv(seed, wp, xp, h=7, w=5)
        res = apconv(W, X, wp, xp, stride=stride, padding=padding)
        ref = _direct_conv(wp.decode(W), xp.decode(X), stride, padding)
        assert np.array_equal(res.output, ref)


class TestValidation:
    def test_weight_rank(self):
        with pytest.raises(ValueError, match="C_out"):
            apconv(
                np.zeros((2, 3, 3), dtype=np.int64),
                np.zeros((1, 3, 4, 4), dtype=np.int64),
                Precision(1), Precision(1),
            )

    def test_feature_rank(self):
        with pytest.raises(ValueError, match="features"):
            apconv(
                np.zeros((2, 3, 3, 3), dtype=np.int64),
                np.zeros((3, 4, 4), dtype=np.int64),
                Precision(1), Precision(1),
            )

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            apconv(
                np.zeros((2, 3, 3, 3), dtype=np.int64),
                np.zeros((1, 4, 5, 5), dtype=np.int64),
                Precision(1), Precision(1),
            )

    def test_rect_kernel_rejected(self):
        with pytest.raises(ValueError, match="square"):
            apconv(
                np.zeros((2, 3, 3, 5), dtype=np.int64),
                np.zeros((1, 3, 6, 6), dtype=np.int64),
                Precision(1), Precision(1),
            )


class TestCostShape:
    def test_channel_major_reduces_reads(self):
        """The NPHWC layout motivation: naive NCHW reads ~4x the bytes.

        A cost-model input (apconv always costs the channel-major
        layout), so this prices apconv's geometry with conv_cost.
        """
        cfg = TileConfig(16, 16)
        # batch 2, C_in 8 -> C_out 16, 8x8, 3x3 kernel, w1a2
        good = conv_cost(2, 8, 16, 8, 8, 3, 1, 2, cfg, channel_major=True)
        bad = conv_cost(2, 8, 16, 8, 8, 3, 1, 2, cfg, channel_major=False)
        assert (
            bad.counters.global_bytes_read
            == 4 * good.counters.global_bytes_read
        )

    def test_padding_plan_attached(self):
        wp, xp = Precision(1, B), Precision(1, B)
        W, X = _rand_conv(7, wp, xp)
        res = apconv(W, X, wp, xp, padding=1)
        assert res.padding_plan.needs_correction

    def test_implicit_gemm_block_count(self):
        wp, xp = Precision(1, B), Precision(2, U)
        W, X = _rand_conv(8, wp, xp, cout=16, cin=2, n=1, h=9, w=9, k=3)
        # M = 16 (p=1), N_gemm = 49 (q=2 -> 98), tiles of 16x16
        res = apconv(W, X, wp, xp, config=TileConfig(16, 16))
        assert res.cost.counters.blocks == 1 * 7

    def test_autotune_used_by_default(self):
        wp, xp = Precision(1, B), Precision(2, U)
        W, X = _rand_conv(9, wp, xp)
        res = apconv(W, X, wp, xp)
        assert res.tune is not None


class TestHostSpan:
    """A traced call's span says which path ran and what the host cost
    model priced it at, beside the measured duration."""

    # ResNet-18's 3x3 stride-1 conv at 64 channels, w2a4, one image
    WP, XP = Precision(2, B), Precision(4, U)

    def _conv(self):
        rng = np.random.default_rng(3)
        w = self.WP.random_digits(rng, (64, 64, 3, 3)).astype(np.uint8)
        x = self.XP.random_digits(rng, (1, 64, 28, 28)).astype(np.uint8)
        return w, x

    @pytest.mark.parametrize("backend", ["numpy", "cffi"])
    def test_span_carries_the_path_and_its_host_price(self, backend):
        from repro.core import backends
        from repro.core.packed import (
            PATH_KERNELS,
            HostProduct,
            compiled_branch,
            compiled_vnni,
        )
        from repro.obs import trace_kernels

        if backend == "cffi" and not backends.get_backend().compiled:
            pytest.skip("cffi kernels do not load here")
        w, x = self._conv()
        with trace_kernels() as tracer:
            res = apconv(w, x, self.WP, self.XP, padding=1, backend=backend)
        (span,) = tracer.spans_in("kernel")
        branch, vnni = compiled_branch(backend), compiled_vnni(backend)
        product = HostProduct.conv(1, 64, 64, 30, 30, 3, 1, 2, 4)
        path = product.cheapest(branch, vnni)
        assert span.attributes["path"] == path
        assert span.attributes["host_us"] == product.host_us(path, branch)
        assert span.attributes["host_us"] > 0
        assert span.attributes["compiled_kernels"] == PATH_KERNELS[path]
        assert res.cost.counters.compiled_kernels == PATH_KERNELS[path]
        if branch is None:
            assert path == "fold"
        elif vnni:
            assert path == "vnni"  # w2a4: p*q = 8
        elif branch == 1:
            assert path == "gather"

    def test_untraced_calls_price_only_the_decision(self, monkeypatch):
        from repro.core import backends
        from repro.core.packed import HostProduct, compiled_vnni
        from repro.obs import trace_kernels

        priced = []
        real = HostProduct.host_us

        def counting(self, path, branch, *args):
            priced.append(path)
            return real(self, path, branch, *args)

        monkeypatch.setattr(HostProduct, "host_us", counting)
        w, x = self._conv()
        apconv(w, x, self.WP, self.XP, padding=1, backend="numpy")
        assert priced == []  # numpy has one path: nothing to price
        with trace_kernels():
            apconv(w, x, self.WP, self.XP, padding=1, backend="numpy")
        assert priced == ["fold"]
        if backends.get_backend().compiled:
            priced.clear()
            apconv(w, x, self.WP, self.XP, padding=1, backend="cffi")
            int8 = ["vnni"] if compiled_vnni("cffi") else []
            assert sorted(priced) == ["fold", "gather"] + int8

    def test_reference_strategies_carry_no_host_price(self):
        from repro.obs import trace_kernels

        w, x = self._conv()
        with trace_kernels() as tracer:
            apconv(w, x, self.WP, self.XP, padding=1, strategy="integer")
        (span,) = tracer.spans_in("kernel")
        assert "path" not in span.attributes
        assert "host_us" not in span.attributes


#: (strategy, backend, route the packed strategy is forced onto)
LAYOUT_RUNS = [
    ("packed", "numpy", "fold"),
    ("integer", "numpy", None),
    ("bitserial", "numpy", None),
    ("packed", "cffi", "fold"),
    ("packed", "cffi", "gather"),
    ("packed", "cffi", "vnni"),
]


class TestOneLayoutPass:
    """Every strategy and route reads the one padded channel-last map
    :func:`~repro.kernels.layout.pad_channel_last` builds, once per
    call."""

    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize(
        "strategy,backend,path", LAYOUT_RUNS,
        ids=[f"{s}-{b}-{p or 'reference'}" for s, b, p in LAYOUT_RUNS],
    )
    def test_one_layout_call_per_apconv_call(
        self, monkeypatch, strategy, backend, path, padding
    ):
        from repro.core import backends
        from repro.core.packed import PATH_KERNELS, HostProduct, compiled_vnni

        if backend == "cffi" and not backends.get_backend().compiled:
            pytest.skip("cffi kernels do not load here")
        if path == "vnni" and not compiled_vnni(backend):
            pytest.skip("the loaded build has no AVX-512 VNNI kernels")
        # bipolar features pad with their top digit and take the counter
        # correction
        wp, xp = Precision(1, B), Precision(2, B)
        W, X = _rand_conv(5, wp, xp, cin=8, h=7, w=7)
        want = _direct_conv(wp.decode(W), xp.decode(X), 1, padding)

        calls = []
        real = layout.pad_channel_last

        def counted(x, pad, pad_digit):
            calls.append((pad, pad_digit))
            return real(x, pad, pad_digit)

        for module in (layout, importlib.import_module("repro.kernels.apconv")):
            monkeypatch.setattr(module, "pad_channel_last", counted)
        if path is not None:
            monkeypatch.setattr(HostProduct, "cheapest",
                                lambda self, branch, vnni=False: path)
        res = apconv(W, X, wp, xp, padding=padding, strategy=strategy,
                     backend=backend)
        assert calls == [(padding, xp.num_levels - 1)]
        assert res.cost.counters.compiled_kernels == PATH_KERNELS.get(path, 0)
        assert np.array_equal(res.output, want)
