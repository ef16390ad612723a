"""Tests for the conv lowering: output shape, im2col of the padded
channel-last map and weight flattening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import conv_output_shape, conv_weight_matrix, im2col


class TestConvOutputShape:
    def test_basic(self):
        assert conv_output_shape(16, 16, 3, 1, 1) == (16, 16)
        assert conv_output_shape(224, 224, 11, 4, 2) == (55, 55)

    def test_stride(self):
        assert conv_output_shape(8, 8, 2, 2, 0) == (4, 4)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            conv_output_shape(4, 4, 7, 1, 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            conv_output_shape(4, 4, 0)
        with pytest.raises(ValueError):
            conv_output_shape(4, 4, 3, 1, -1)


class TestIm2col:
    def test_shape(self):
        x = np.arange(2 * 5 * 5 * 3).reshape(2, 5, 5, 3)
        cols = im2col(x, kernel=3, stride=1)
        assert cols.shape == (2 * 3 * 3, 3 * 9)

    def test_identity_kernel1(self):
        x = np.arange(1 * 3 * 3 * 2).reshape(1, 3, 3, 2)
        cols = im2col(x, kernel=1)
        # row (h, w) must equal the channel vector at that pixel
        assert np.array_equal(cols[0], x[0, 0, 0, :])
        assert np.array_equal(cols[4], x[0, 1, 1, :])

    def test_column_order_matches_weight_flatten(self):
        """im2col columns must align with conv_weight_matrix(W)."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, 8, size=(1, 2, 4, 4))
        w = rng.integers(0, 8, size=(3, 2, 2, 2))
        cols = im2col(x.transpose(0, 2, 3, 1), kernel=2)
        got = (conv_weight_matrix(w) @ cols.T).reshape(3, 3, 3)
        # direct correlation reference
        ref = np.zeros((3, 3, 3), dtype=np.int64)
        for co in range(3):
            for i in range(3):
                for j in range(3):
                    ref[co, i, j] = np.sum(w[co] * x[0, :, i: i + 2, j: j + 2])
        assert np.array_equal(got, ref)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        cin=st.integers(1, 70),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        extra=st.integers(0, 4),
    )
    def test_lowering_matches_direct_correlation(
        self, seed, n, cin, kernel, stride, extra
    ):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 16, size=(n, cin, kernel + extra, kernel + 2 * extra),
                         dtype=np.uint8)
        w = rng.integers(-8, 8, size=(3, cin, kernel, kernel))
        cols = im2col(np.ascontiguousarray(x.transpose(0, 2, 3, 1)), kernel, stride)
        assert cols.dtype == x.dtype
        oh, ow = conv_output_shape(*x.shape[2:], kernel, stride)
        got = conv_weight_matrix(w) @ cols.T.astype(np.int64)
        got = got.reshape(3, n, oh, ow).transpose(1, 0, 2, 3)
        # direct correlation, one kernel tap at a time
        want = np.zeros((n, 3, oh, ow), dtype=np.int64)
        for a in range(kernel):
            for b in range(kernel):
                tap = x[:, :, a: a + stride * oh: stride, b: b + stride * ow: stride]
                want += np.einsum("oc,nchw->nohw", w[:, :, a, b], tap.astype(np.int64))
        assert np.array_equal(got, want)

    def test_stride_2(self):
        x = np.arange(1 * 6 * 6 * 1).reshape(1, 6, 6, 1)
        cols = im2col(x, kernel=2, stride=2)
        assert cols.shape == (9, 4)
        assert np.array_equal(cols[0], [0, 1, 6, 7])
        assert np.array_equal(cols[1], [2, 3, 8, 9])

    def test_batch_rows_blocked(self):
        x = np.stack([np.zeros((3, 3, 1)), np.ones((3, 3, 1))]).astype(np.int64)
        cols = im2col(x, kernel=3)
        assert np.all(cols[0] == 0)
        assert np.all(cols[1] == 1)

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((3, 3)), 2)
