"""Tests for the CUTLASS / cuBLAS / BNN baselines' pricing."""

import pytest

from repro.baselines import cublas_gemm_cost, cutlass_conv_cost, cutlass_gemm_cost
from repro.core import PrecisionPair
from repro.nn import APNNBackend, BNNBackend, InferenceEngine, Sequential
from repro.nn.layers import Linear
from repro.perf import LatencyModel
from repro.tensorcore import RTX3090

CUTLASS_BITS = {"int1": 1, "int4": 4, "int8": 8, "fp16": 16, "fp32": 32}


class TestCutlassGemm:
    def test_int1_binary(self):
        """int1 runs the binary specialization's finer 64x64 tiles."""
        cost = cutlass_gemm_cost(64, 1024, 1024, "int1")
        assert cost.counters.blocks == 1 * 16
        assert cost.unique_read_bytes == (64 + 1024) * 1024 // 8

    def test_fp32(self):
        """fp32 runs on CUDA cores and reads 32-bit operands."""
        cost = cutlass_gemm_cost(4, 5, 8, "fp32")
        assert cost.compute_class == "fp32"
        assert cost.unique_read_bytes == (4 + 5) * 8 * 4

    def test_unknown_precision(self):
        valid = r"\['fp16', 'fp32', 'int1', 'int4', 'int8'\]"
        with pytest.raises(ValueError, match=f"'int2'; choose from {valid}"):
            cutlass_gemm_cost(2, 2, 2, "int2")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            cutlass_gemm_cost(2, 3, 0, "int8")

    def test_cost_families(self):
        for precision, bits in CUTLASS_BITS.items():
            cost = cutlass_gemm_cost(64, 128, 128, precision)
            assert cost.efficiency_key == f"cutlass_{precision}"
            assert cost.compute_class == precision
            assert cost.counters.kernel_launches == 1
            assert cost.unique_read_bytes == (64 + 128) * 128 * bits // 8
            assert cost.name == f"cutlass-gemm-{precision}-64x128x128"

    def test_large_tile_grid_small_problem(self):
        """The underutilization mechanism: batch-64 GEMM -> few blocks."""
        res = cutlass_gemm_cost(64, 1024, 128, "int4")
        assert res.counters.blocks == 1 * 8  # 128x128 tiles


class TestCutlassConv:
    def test_narrow_n_tile(self):
        """Implicit-GEMM conv kernels tile N at 64, the GEMM kernels at 128."""
        for precision in CUTLASS_BITS:
            cost = cutlass_conv_cost(1, 128, 128, 16, 16, 3, precision,
                                     stride=1, padding=1)
            gemm = cutlass_gemm_cost(128, 256, 128 * 9, precision)
            assert cost.efficiency_key == f"cutlass_{precision}"
            assert cost.compute_class == precision
            assert cost.unique_read_bytes == gemm.unique_read_bytes
            assert cost.name == f"cutlass-conv-{precision}-c128x128"
            if precision == "int1":  # the binary kernels tile 64x64 for both
                assert cost.counters.blocks == gemm.counters.blocks == 2 * 4
            else:
                assert cost.counters.blocks == 1 * 4
                assert gemm.counters.blocks == 1 * 2

    def test_stride_and_padding_set_the_gemm_n(self):
        cost = cutlass_conv_cost(2, 16, 32, 9, 9, 3, "int8", stride=2, padding=1)
        assert cost.counters.global_bytes_written == 32 * (2 * 5 * 5) * 4

    def test_unknown_precision(self):
        with pytest.raises(ValueError, match="choose from"):
            cutlass_conv_cost(1, 8, 8, 8, 8, 3, "int2")


class TestCublas:
    def test_fp32(self):
        cost = cublas_gemm_cost(256, 256, 64, "fp32")
        assert cost.efficiency_key == "cublas_fp32"
        assert cost.compute_class == "fp32"
        assert cost.unique_read_bytes == (256 + 256) * 64 * 4
        assert cost.counters.blocks == 2 * 2  # square problem: 128x128

    def test_only_paper_precisions(self):
        with pytest.raises(ValueError, match=r"\['fp32', 'int8'\]"):
            cublas_gemm_cost(2, 2, 2, "int4")

    def test_efficiency_family(self):
        cost = cublas_gemm_cost(64, 1024, 1024, "int8")
        assert cost.efficiency_key == "cublas_int8"
        assert cost.compute_class == "int8"
        # batch 64 takes the skinny 64x128 tile: 8 blocks x 8 K-steps,
        # each reading a (64 + 128) x 128 int8 tile pair
        assert cost.counters.blocks == 1 * 8
        assert cost.counters.global_bytes_read == 8 * 8 * (64 + 128) * 128


class TestBNN:
    """The TCBNN baseline is priced by ``nn.engine``'s BNN backend."""

    @staticmethod
    def _hidden_fc_cost(backend):
        # fc2 is a hidden layer, so both backends run it at w1a1 (the
        # first GEMM takes the 8-bit image)
        model = Sequential([Linear(512, 512, name="fc1"),
                            Linear(512, 512, name="fc2")])
        report = InferenceEngine(model, backend).estimate(64, input_shape=(512,))
        return report.groups[1].costs[0]

    def test_small_tiles_and_no_double_caching(self):
        cost = self._hidden_fc_cost(BNNBackend())
        assert cost.efficiency_key == "bnn"
        assert cost.counters.blocks == (512 // 32) * (64 // 32)  # 32x32 tiles
        assert cost.counters.smem_bytes == 0  # per-warp global loads

    def test_apmm_w1a1_beats_bnn(self):
        """Figure 12's kernel-level-optimization gain (~1.35x family)."""
        model = LatencyModel(RTX3090)
        apnn = self._hidden_fc_cost(APNNBackend(PrecisionPair.parse("w1a1")))
        bnn = self._hidden_fc_cost(BNNBackend())
        assert model.latency_us(apnn) < model.latency_us(bnn)
