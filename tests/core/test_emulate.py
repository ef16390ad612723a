"""Tests for the AP-Bit operation template (paper section 3.1).

The central invariant: for every bit-width pair and every encoding
combination, the bit-serial emulated product equals the exact integer
product of the decoded operands.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Encoding,
    Precision,
    apbit_matmul,
    apbit_matmul_planes,
    reference_matmul,
    select_operator,
)
from repro.core.bitops import bit_decompose
from repro.kernels import TileConfig
from repro.perf import gemm_cost

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR


def _random_case(seed, m, n, k, wbits, xbits, wenc, xenc):
    rng = np.random.default_rng(seed)
    wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
    W = wp.random_digits(rng, (m, k))
    X = xp.random_digits(rng, (n, k))
    return W, X, wp, xp


ENCODING_COMBOS = [(U, U), (B, B), (B, U), (U, B)]


class TestEmulationExactness:
    @pytest.mark.parametrize("wenc,xenc", ENCODING_COMBOS)
    @pytest.mark.parametrize("wbits,xbits", [(1, 1), (1, 2), (2, 2), (1, 4), (3, 3), (2, 8)])
    def test_matches_reference(self, wenc, xenc, wbits, xbits):
        W, X, wp, xp = _random_case(42, 8, 16, 128, wbits, xbits, wenc, xenc)
        got = apbit_matmul(W, X, wp, xp)
        assert np.array_equal(got, reference_matmul(W, X, wp, xp))

    @pytest.mark.parametrize("k", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_non_word_aligned_k(self, k):
        """Padding to 64-bit words must never change the result."""
        W, X, wp, xp = _random_case(7, 4, 4, k, 1, 2, B, U)
        assert np.array_equal(
            apbit_matmul(W, X, wp, xp), reference_matmul(W, X, wp, xp)
        )

    @pytest.mark.parametrize("k", [1, 63, 65, 127, 129])
    def test_xor_path_non_aligned_k(self, k):
        """The XOR path uses y = K - 2*popc: K must be the logical length."""
        W, X, wp, xp = _random_case(9, 4, 4, k, 1, 1, B, B)
        assert np.array_equal(
            apbit_matmul(W, X, wp, xp), reference_matmul(W, X, wp, xp)
        )

    def test_paper_running_example_w1a2(self):
        """The 1-bit W x 2-bit X template of Figure 2."""
        W, X, wp, xp = _random_case(3, 8, 8, 128, 1, 2, B, U)
        assert np.array_equal(
            apbit_matmul(W, X, wp, xp), reference_matmul(W, X, wp, xp)
        )

    def test_single_element(self):
        W, X, wp, xp = _random_case(11, 1, 1, 1, 2, 2, U, U)
        assert np.array_equal(
            apbit_matmul(W, X, wp, xp), reference_matmul(W, X, wp, xp)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        k=st.integers(1, 150),
        wbits=st.integers(1, 6),
        xbits=st.integers(1, 6),
        combo=st.sampled_from(ENCODING_COMBOS),
    )
    def test_property_exactness(self, seed, m, n, k, wbits, xbits, combo):
        W, X, wp, xp = _random_case(seed, m, n, k, wbits, xbits, *combo)
        assert np.array_equal(
            apbit_matmul(W, X, wp, xp), reference_matmul(W, X, wp, xp)
        )


class TestInputValidation:
    def test_dim_mismatch(self):
        W = np.zeros((2, 8), dtype=np.int64)
        X = np.zeros((2, 9), dtype=np.int64)
        with pytest.raises(ValueError, match="reduction mismatch"):
            apbit_matmul(W, X, Precision(1), Precision(1))

    def test_non_2d_rejected(self):
        W = np.zeros((2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="2-D"):
            apbit_matmul(W, W, Precision(1), Precision(1))

    def test_digits_out_of_range_rejected(self):
        W = np.array([[2]])
        X = np.array([[1]])
        with pytest.raises(ValueError):
            apbit_matmul(W, X, Precision(1), Precision(1))

    def test_planes_shape_validation(self):
        plan = select_operator(Precision(1), Precision(1))
        with pytest.raises(ValueError, match="planes"):
            apbit_matmul_planes(np.zeros((2, 2)), np.zeros((1, 2, 2)), 2, plan)

    def test_planes_k_mismatch(self):
        plan = select_operator(Precision(1), Precision(1))
        with pytest.raises(ValueError, match="K mismatch"):
            apbit_matmul_planes(
                np.zeros((1, 2, 4)), np.zeros((1, 2, 8)), 4, plan
            )


class TestOverflowContract:
    def test_large_accumulation_fits_int32(self):
        # K = 2^20 all-ones at w1a1 unsigned: result 2^20 < 2^31, fine
        k = 1 << 20
        W = np.ones((1, k), dtype=np.int64)
        X = np.ones((1, k), dtype=np.int64)
        out = apbit_matmul(W, X, Precision(1), Precision(1))
        assert out[0, 0] == k

    def test_overflow_detected(self):
        # 8-bit x 8-bit with huge K overflows int32: (255*255)*K > 2^31
        k = 40000
        W = np.full((1, k), 255, dtype=np.int64)
        X = np.full((1, k), 255, dtype=np.int64)
        with pytest.raises(OverflowError, match="int32"):
            apbit_matmul(W, X, Precision(8), Precision(8))

    def test_overflow_check_can_be_disabled(self):
        k = 40000
        W = np.full((1, k), 255, dtype=np.int64)
        X = np.full((1, k), 255, dtype=np.int64)
        out = apbit_matmul(
            W, X, Precision(8), Precision(8), check_overflow=False
        )
        assert out[0, 0] == 255 * 255 * k  # exact in int64


class TestOpCounts:
    """The emulation's work as the cost model counts it (``gemm_cost``)."""

    def test_cost_analysis_formulas(self):
        """Matches the complexity analysis in paper section 3.1."""
        c = gemm_cost(64, 1024, 1024, 2, 8, TileConfig(64, 64))
        assert c.decompose_ops == 2 * 64 * 1024 + 8 * 1024 * 1024
        assert c.counters.tc_macs == 16 * 64 * 1024 * 1024
        assert c.combine_ops == 16 * 64 * 1024

    def test_bmma_call_count_w1a2(self):
        # 8x128 W tile grid x 8x128 X tile grid x K slices, batched over planes
        c = gemm_cost(8, 8, 128, 1, 2, TileConfig(8, 8))
        assert c.counters.bmma_calls == 1 * 2 * 1  # p*q tile pairs

    def test_bmma_call_count_rounding(self):
        c = gemm_cost(9, 8, 129, 1, 1, TileConfig(8, 8))
        assert c.counters.bmma_calls == 2 * 1 * 2

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            gemm_cost(0, 1, 1, 1, 1, TileConfig(8, 8))

    def test_overhead_ratio_shrinks_with_k(self):
        """Decompose+combine is O(n^2) vs O(n^3) TC work (Figure 11 rationale)."""
        cfg = TileConfig(64, 64)
        small = gemm_cost(64, 128, 128, 1, 2, cfg)
        big = gemm_cost(64, 1024, 1024, 1, 2, cfg)
        ratio_small = (small.decompose_ops + small.combine_ops) / small.counters.tc_macs
        ratio_big = (big.decompose_ops + big.combine_ops) / big.counters.tc_macs
        assert ratio_big < ratio_small


class TestPlaneLevelAPI:
    def test_planes_equal_top_level(self):
        W, X, wp, xp = _random_case(5, 6, 10, 70, 2, 3, B, U)
        plan = select_operator(wp, xp)
        via_planes = apbit_matmul_planes(
            bit_decompose(W, wp.bits), bit_decompose(X, xp.bits), 70, plan
        )
        assert np.array_equal(via_planes, apbit_matmul(W, X, wp, xp))
