"""Tests for epilogue ops and the fused/unfused cost shapes (Fig. 10)."""

import numpy as np
import pytest

from repro.core import AffineQuantizer
from repro.kernels import (
    AvgPoolOp,
    BatchNormOp,
    MaxPoolOp,
    QuantizeOp,
    ReLUOp,
    TileConfig,
    apply_epilogue,
    fused_cost,
    unfused_costs,
)
from repro.perf import gemm_cost


class TestBatchNormOp:
    def test_folded_form_matches_eq5(self):
        """scale/shift folding reproduces the paper's BN equation."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4, 4))
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        eps = 1e-5
        op = BatchNormOp.from_moments(mean, var, gamma, beta, eps)
        ref = (x - mean[None, :, None, None]) / np.sqrt(
            var[None, :, None, None] + eps
        ) * gamma[None, :, None, None] + beta[None, :, None, None]
        np.testing.assert_allclose(op.apply(x), ref, rtol=1e-12)

    def test_2d_input(self):
        op = BatchNormOp(scale=np.array([2.0, 3.0]), shift=np.array([1.0, -1.0]))
        out = op.apply(np.ones((4, 2)))
        assert np.array_equal(out, np.tile([3.0, 2.0], (4, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchNormOp(scale=np.ones(3), shift=np.ones(4))

    def test_bad_rank(self):
        op = BatchNormOp(scale=np.ones(2), shift=np.zeros(2))
        with pytest.raises(ValueError):
            op.apply(np.ones((2, 2, 2)))


class TestSimpleOps:
    def test_relu(self):
        out = ReLUOp().apply(np.array([-2.0, 0.0, 3.0]))
        assert np.array_equal(out, [0.0, 0.0, 3.0])

    def test_quantize(self):
        op = QuantizeOp(AffineQuantizer(bits=2, scale=1.0))
        assert np.array_equal(op.apply(np.array([0.4, 1.6, 9.0])), [0, 1, 3])
        assert op.out_bits == 2

    def test_maxpool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPoolOp(2).apply(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPoolOp(2).apply(x)
        assert np.array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_pool_requires_divisible(self):
        with pytest.raises(ValueError, match="divide"):
            MaxPoolOp(3).apply(np.zeros((1, 1, 4, 4)))

    def test_pool_requires_nchw(self):
        with pytest.raises(ValueError):
            AvgPoolOp(2).apply(np.zeros((4, 4)))


class TestApplyEpilogue:
    def test_chain_order_matters(self):
        x = np.full((1, 1, 2, 2), -4.0)
        bn = BatchNormOp(scale=np.array([-1.0]), shift=np.array([0.0]))
        a = apply_epilogue(x, [bn, ReLUOp()])  # negate (-> +4) then relu
        b = apply_epilogue(x, [ReLUOp(), bn])  # relu (-> 0) then negate
        assert np.all(a == 4.0)
        assert np.all(b == 0.0)

    def test_paper_fused_formula(self):
        """floor(max(BN(x) - z, 0) / s): the fused scalar of section 5.2."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 4)) * 10
        bn = BatchNormOp(scale=np.full(3, 2.0), shift=np.full(3, 1.0))
        z, s = 0.5, 2.0
        quant = QuantizeOp(AffineQuantizer(bits=4, scale=s, zero_point=z))
        got = apply_epilogue(x, [bn, ReLUOp(), quant])
        ref = np.clip(np.floor((np.maximum(x * 2 + 1, 0) - z) / s), 0, 15)
        assert np.array_equal(got, ref)

    def test_conv_pool_quant_pipeline(self):
        """The Fig. 10 workload: conv output -> 2x2 pool -> 2-bit quantize."""
        rng = np.random.default_rng(2)
        acc = rng.integers(-100, 100, size=(1, 8, 16, 16)).astype(np.float64)
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=50.0,
                                                        zero_point=-100.0))]
        out = apply_epilogue(acc, ops)
        assert out.shape == (1, 8, 8, 8)
        assert out.min() >= 0 and out.max() <= 3


class TestFusionCosts:
    def _base(self):
        return gemm_cost(64, 256, 1152, 1, 2, TileConfig(32, 64))

    def test_fused_keeps_single_launch(self):
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=1.0))]
        fused = fused_cost(self._base(), ops, elements=64 * 256)
        assert fused.counters.kernel_launches == 1

    def test_unfused_adds_launches(self):
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=1.0))]
        chain = unfused_costs(self._base(), ops, elements=64 * 256)
        assert len(chain) == 3
        assert sum(c.counters.kernel_launches for c in chain) == 3

    def test_fused_moves_fewer_dram_bytes(self):
        """The mechanism behind Fig. 10's 1.77x."""
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=1.0))]
        elements = 64 * 256
        fused = fused_cost(self._base(), ops, elements)
        chain = unfused_costs(self._base(), ops, elements)
        unfused_bytes = sum(c.counters.global_bytes for c in chain)
        assert fused.counters.global_bytes < unfused_bytes

    def test_fused_output_bytes_reflect_pool_and_bits(self):
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=1.0))]
        elements = 64 * 256
        base = self._base()
        fused = fused_cost(base, ops, elements)
        expected_out = (elements // 4) * 2 // 8
        delta = base.counters.global_bytes_written - fused.counters.global_bytes_written
        assert delta == elements * 4 - expected_out

    def test_epilogue_math_charged(self):
        ops = [ReLUOp()]
        base = self._base()
        fused = fused_cost(base, ops, elements=1000)
        assert fused.counters.cuda_ops == base.counters.cuda_ops + 1000

    def test_fused_epilogue_math_matches_unfused_chain(self):
        """Each fused op pays for the elements it receives: after a 2x2
        pool the quantizer sees a quarter of the GEMM's output."""
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=1.0))]
        elements = 64 * 256
        base = self._base()
        fused = fused_cost(base, ops, elements)
        chain = unfused_costs(base, ops, elements)
        epilogue_ops = sum(c.counters.cuda_ops for c in chain[1:])
        assert epilogue_ops == elements + 3 * elements // 4
        assert fused.counters.cuda_ops == base.counters.cuda_ops + epilogue_ops

    def test_elements_validated(self):
        with pytest.raises(ValueError):
            fused_cost(self._base(), [ReLUOp()], elements=0)
        with pytest.raises(ValueError):
            unfused_costs(self._base(), [ReLUOp()], elements=-5)
