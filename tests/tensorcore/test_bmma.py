"""Tests for the simulated binary warp-level MMA primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TCOp
from repro.core.bitops import pack_bits
from repro.tensorcore import BMMA_K, BMMA_M, BMMA_N, BMMA_WORDS, bmma


def _random_bmma_operands(seed):
    rng = np.random.default_rng(seed)
    a_bits = rng.integers(0, 2, size=(BMMA_M, BMMA_K), dtype=np.uint8)
    b_bits = rng.integers(0, 2, size=(BMMA_N, BMMA_K), dtype=np.uint8)
    return a_bits, b_bits, pack_bits(a_bits), pack_bits(b_bits)


class TestBMMA:
    def test_shape_contract(self):
        _, _, a, b = _random_bmma_operands(0)
        c = np.zeros((BMMA_M, BMMA_N), dtype=np.int32)
        out = bmma(a, b, c, TCOp.AND)
        assert out is c
        assert out.shape == (8, 8)

    def test_and_popc_equals_binary_dot(self):
        a_bits, b_bits, a, b = _random_bmma_operands(1)
        c = np.zeros((BMMA_M, BMMA_N), dtype=np.int32)
        bmma(a, b, c, TCOp.AND)
        ref = a_bits.astype(np.int32) @ b_bits.astype(np.int32).T
        assert np.array_equal(c, ref)

    def test_xor_popc_equals_hamming_distance(self):
        a_bits, b_bits, a, b = _random_bmma_operands(2)
        c = np.zeros((BMMA_M, BMMA_N), dtype=np.int32)
        bmma(a, b, c, TCOp.XOR)
        ref = (a_bits[:, None, :] ^ b_bits[None, :, :]).sum(-1)
        assert np.array_equal(c, ref)

    def test_accumulates_into_c(self):
        _, _, a, b = _random_bmma_operands(3)
        c = np.full((BMMA_M, BMMA_N), 100, dtype=np.int32)
        once = bmma(a, b, np.zeros((8, 8), dtype=np.int32), TCOp.AND).copy()
        bmma(a, b, c, TCOp.AND)
        assert np.array_equal(c, once + 100)

    def test_wrong_a_shape_rejected(self):
        with pytest.raises(ValueError, match="frag_a"):
            bmma(
                np.zeros((8, 3), dtype=np.uint64),
                np.zeros((8, 2), dtype=np.uint64),
                np.zeros((8, 8), dtype=np.int32),
            )

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError, match="frag_a"):
            bmma(
                np.zeros((8, 2), dtype=np.int64),
                np.zeros((8, 2), dtype=np.uint64),
                np.zeros((8, 8), dtype=np.int32),
            )

    def test_wrong_c_dtype_rejected(self):
        with pytest.raises(ValueError, match="frag_c"):
            bmma(
                np.zeros((8, 2), dtype=np.uint64),
                np.zeros((8, 2), dtype=np.uint64),
                np.zeros((8, 8), dtype=np.int64),
            )

    def test_bad_op_rejected(self):
        with pytest.raises(TypeError):
            bmma(
                np.zeros((8, 2), dtype=np.uint64),
                np.zeros((8, 2), dtype=np.uint64),
                np.zeros((8, 8), dtype=np.int32),
                op="xor",  # type: ignore[arg-type]
            )

    def test_overflow_near_int32_max(self):
        a = np.full((8, BMMA_WORDS), np.uint64(2**64 - 1), dtype=np.uint64)
        c = np.full((8, 8), 2**31 - 100, dtype=np.int32)
        with pytest.raises(OverflowError):
            bmma(a, a, c, TCOp.AND)

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_xor_and_relationship(self, seed):
        """popc(a&b)*2 + popc(a^b) == popc(a) + popc(b) rowwise."""
        a_bits, b_bits, a, b = _random_bmma_operands(seed)
        c_and = bmma(a, b, np.zeros((8, 8), np.int32), TCOp.AND)
        c_xor = bmma(a, b, np.zeros((8, 8), np.int32), TCOp.XOR)
        tot = a_bits.sum(1)[:, None] + b_bits.sum(1)[None, :]
        assert np.array_equal(2 * c_and + c_xor, tot)

