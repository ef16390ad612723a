"""Tests for the APMM kernel: strategies, autotuning, cost shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision, PrecisionPair
from repro.kernels import TileConfig, apmm
from repro.perf import gemm_cost
from repro.tensorcore import A100

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR


def _operands(seed, m, n, k, pair):
    rng = np.random.default_rng(seed)
    return (
        pair.weight.random_digits(rng, (m, k)),
        pair.activation.random_digits(rng, (n, k)),
    )


class TestStrategiesAgree:
    @pytest.mark.parametrize("name", ["w1a1", "w1a2", "w2a2", "w1a4", "w2a8"])
    def test_all_strategies_agree(self, name):
        pair = PrecisionPair.parse(name)
        W, X = _operands(0, 40, 24, 200, pair)
        a = apmm(W, X, pair.weight, pair.activation, strategy="integer")
        b = apmm(W, X, pair.weight, pair.activation, strategy="bitserial")
        c = apmm(W, X, pair.weight, pair.activation, strategy="packed")
        assert np.array_equal(a.output, b.output)
        assert np.array_equal(a.output, c.output)

    def test_default_strategy_is_packed(self):
        pair = PrecisionPair.parse("w1a2")
        W, X = _operands(12, 16, 16, 96, pair)
        default = apmm(W, X, pair.weight, pair.activation)
        packed = apmm(W, X, pair.weight, pair.activation, strategy="packed")
        assert np.array_equal(default.output, packed.output)
        # and the costed facts do not depend on the execution strategy
        bitserial = apmm(
            W, X, pair.weight, pair.activation, strategy="bitserial"
        )
        assert default.cost == bitserial.cost

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        k=st.integers(1, 100),
        wbits=st.integers(1, 3),
        xbits=st.integers(1, 3),
    )
    def test_property_strategy_equivalence(self, seed, m, n, k, wbits, xbits):
        wp, xp = Precision(wbits, B), Precision(xbits, U)
        rng = np.random.default_rng(seed)
        W, X = wp.random_digits(rng, (m, k)), xp.random_digits(rng, (n, k))
        a = apmm(W, X, wp, xp, strategy="integer")
        b = apmm(W, X, wp, xp, strategy="bitserial")
        c = apmm(W, X, wp, xp, strategy="packed")
        assert np.array_equal(a.output, b.output)
        assert np.array_equal(a.output, c.output)

    def test_unknown_strategy(self):
        W = np.zeros((8, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="strategy"):
            apmm(W, W, Precision(1), Precision(1), strategy="cuda")


class TestValidation:
    def test_k_mismatch(self):
        with pytest.raises(ValueError, match="K mismatch"):
            apmm(
                np.zeros((4, 8), dtype=np.int64),
                np.zeros((4, 9), dtype=np.int64),
                Precision(1),
                Precision(1),
            )

    def test_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            apmm(
                np.zeros((4, 8, 1), dtype=np.int64),
                np.zeros((4, 8), dtype=np.int64),
                Precision(1),
                Precision(1),
            )


class TestAutotuneIntegration:
    def test_autotunes_when_config_omitted(self):
        pair = PrecisionPair.parse("w1a2")
        W, X = _operands(3, 64, 64, 128, pair)
        res = apmm(W, X, pair.weight, pair.activation)
        assert res.tune is not None
        assert res.config == res.tune.config

    def test_explicit_config_respected(self):
        pair = PrecisionPair.parse("w1a2")
        W, X = _operands(4, 64, 64, 128, pair)
        cfg = TileConfig(32, 32)
        res = apmm(W, X, pair.weight, pair.activation, config=cfg)
        assert res.config == cfg
        assert res.tune is None

    def test_device_affects_tuning_feasibility(self):
        pair = PrecisionPair.parse("w1a2")
        W, X = _operands(5, 256, 256, 128, pair)
        res = apmm(W, X, pair.weight, pair.activation, device=A100)
        assert res.cost.counters.blocks >= 1


class TestCostShape:
    def test_batched_single_launch(self):
        pair = PrecisionPair.parse("w2a8")
        W, X = _operands(6, 32, 32, 128, pair)
        res = apmm(W, X, pair.weight, pair.activation)
        assert res.cost.counters.kernel_launches == 1
        # the kernel stores each int32 accumulator once
        assert res.cost.counters.global_bytes_written == 32 * 32 * 4

    # The ablation switches are cost-model inputs: apmm always costs the
    # paper's design, so these price its (M, N, K) with gemm_cost directly.
    def test_unbatched_ablation_launches_pq_kernels(self):
        cost = gemm_cost(32, 32, 128, 2, 8, TileConfig(16, 16),
                         batch_planes=False)
        assert cost.counters.kernel_launches == 16

    def test_unbatched_ablation_moves_more_dram_bytes(self):
        cfg = TileConfig(16, 16)
        batched = gemm_cost(64, 64, 256, 2, 2, cfg)
        naive = gemm_cost(64, 64, 256, 2, 2, cfg, batch_planes=False)
        assert naive.counters.global_bytes > batched.counters.global_bytes

    def test_double_caching_reduces_global_reads(self):
        cfg = TileConfig(64, 64)
        cached = gemm_cost(64, 64, 256, 1, 2, cfg)
        uncached = gemm_cost(64, 64, 256, 1, 2, cfg, double_caching=False)
        assert (
            uncached.counters.global_bytes_read
            > cached.counters.global_bytes_read
        )
        assert uncached.counters.smem_bytes == 0

    def test_tc_macs_scale_with_plane_product(self):
        w1a1 = PrecisionPair.parse("w1a1")
        w2a2 = PrecisionPair.parse("w2a2")
        cfg = TileConfig(16, 16)
        W1, X1 = _operands(10, 16, 16, 128, w1a1)
        W2, X2 = _operands(10, 16, 16, 128, w2a2)
        r1 = apmm(W1, X1, w1a1.weight, w1a1.activation, config=cfg)
        r2 = apmm(W2, X2, w2a2.weight, w2a2.activation, config=cfg)
        assert r2.cost.counters.tc_macs == 4 * r1.cost.counters.tc_macs

    def test_results_fit_int32(self):
        pair = PrecisionPair.parse("w2a8")
        W, X = _operands(11, 8, 8, 1024, pair)
        res = apmm(W, X, pair.weight, pair.activation, strategy="bitserial")
        assert res.output.max() <= 2**31 - 1
        assert res.output.min() >= -(2**31)


class TestHostSpan:
    @pytest.mark.parametrize("backend", ["numpy", "cffi"])
    def test_span_carries_the_path_and_its_host_price(self, backend):
        from repro.core import backends
        from repro.core.packed import PATH_KERNELS, HostProduct, compiled_branch
        from repro.obs import trace_kernels

        if backend == "cffi" and not backends.get_backend().compiled:
            pytest.skip("cffi kernels do not load here")
        # ResNet-18's fc at batch 4, w2a4
        pair = PrecisionPair.parse("w2a4")
        w, x = _operands(5, 1000, 4, 512, pair)
        with trace_kernels() as tracer:
            res = apmm(w, x, pair.weight, pair.activation, backend=backend)
        (span,) = tracer.spans_in("kernel")
        branch = compiled_branch(backend)
        product = HostProduct(1000, 4, 512, 2, 4)
        path = product.cheapest(branch)
        assert span.attributes["path"] == path
        assert span.attributes["host_us"] == product.host_us(path, branch)
        assert res.cost.counters.compiled_kernels == PATH_KERNELS[path]
        assert path == ("fold" if branch is None else "popcount")
