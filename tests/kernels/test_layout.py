"""Tests for data layouts: NCHW/NHWC/NPHWC and im2col."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision
from repro.kernels import (
    conv_output_shape,
    conv_weight_matrix,
    from_nphwc,
    im2col,
    nchw_to_nhwc,
    nhwc_to_nchw,
    to_nphwc,
)


class TestAxisPermutations:
    def test_nchw_nhwc_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, size=(2, 3, 5, 7))
        assert np.array_equal(nhwc_to_nchw(nchw_to_nhwc(x)), x)

    def test_nchw_to_nhwc_places_channels_last(self):
        x = np.arange(24).reshape(1, 2, 3, 4)
        y = nchw_to_nhwc(x)
        assert y.shape == (1, 3, 4, 2)
        assert y[0, 1, 2, 1] == x[0, 1, 1, 2]

    def test_contiguity(self):
        x = np.zeros((1, 2, 3, 4), dtype=np.int64)
        assert nchw_to_nhwc(x).flags["C_CONTIGUOUS"]

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            nchw_to_nhwc(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            nhwc_to_nchw(np.zeros((2, 3)))


class TestNPHWC:
    def test_roundtrip_small(self):
        rng = np.random.default_rng(1)
        prec = Precision(3)
        x = prec.random_digits(rng, (2, 5, 4, 4))
        packed = to_nphwc(x, prec)
        assert np.array_equal(from_nphwc(packed), x)

    def test_plane_axis_size(self):
        prec = Precision(3)
        x = np.zeros((1, 4, 2, 2), dtype=np.int64)
        packed = to_nphwc(x, prec)
        assert packed.words.shape[1] == 3  # P axis

    def test_channel_packing_width(self):
        prec = Precision(1, Encoding.BIPOLAR)
        x = np.zeros((1, 130, 2, 2), dtype=np.int64)
        packed = to_nphwc(x, prec)
        assert packed.words.shape[-1] == 3  # ceil(130/64)
        assert packed.channels == 130

    def test_storage_is_bit_packed(self):
        """The layout's point: q-bit packed, not 32-bit (section 5.1)."""
        prec = Precision(2)
        x = np.zeros((1, 128, 16, 16), dtype=np.int64)
        packed = to_nphwc(x, prec)
        assert packed.nbytes == 2 * 16 * 16 * 128 // 8
        # 16x smaller than storing the same digits as int32
        assert packed.nbytes * 16 == x.size * 4

    def test_channel_major_within_plane(self):
        """All channels of one pixel live in consecutive bits (Fig. 4b)."""
        prec = Precision(1)
        x = np.zeros((1, 64, 1, 2), dtype=np.int64)
        x[0, 5, 0, 0] = 1
        x[0, 63, 0, 1] = 1
        packed = to_nphwc(x, prec)
        assert packed.words[0, 0, 0, 0, 0] == np.uint64(1) << np.uint64(5)
        assert packed.words[0, 0, 0, 1, 0] == np.uint64(1) << np.uint64(63)

    def test_geometry_properties(self):
        prec = Precision(2)
        packed = to_nphwc(np.zeros((3, 6, 7, 9), dtype=np.int64), prec)
        assert (packed.batch, packed.height, packed.width) == (3, 7, 9)
        assert packed.logical_bits == 3 * 2 * 7 * 9 * 6

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            to_nphwc(np.zeros((2, 3, 4), dtype=np.int64), Precision(1))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 4),
        st.integers(1, 70),
        st.booleans(),
    )
    def test_roundtrip_property(self, seed, bits, channels, bipolar):
        rng = np.random.default_rng(seed)
        prec = Precision(bits, Encoding.BIPOLAR if bipolar else Encoding.UNSIGNED)
        x = prec.random_digits(rng, (2, channels, 3, 3))
        assert np.array_equal(from_nphwc(to_nphwc(x, prec)), x)


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
        x = np.arange(2 * 3 * 5 * 5).reshape(2, 3, 5, 5)
        cols = im2col(x, kernel=3, stride=1)
        assert cols.shape == (2 * 3 * 3, 3 * 9)

    def test_identity_kernel1(self):
        x = np.arange(1 * 2 * 3 * 3).reshape(1, 2, 3, 3)
        cols = im2col(x, kernel=1)
        # row (h, w) must equal the channel vector at that pixel
        assert np.array_equal(cols[0], x[0, :, 0, 0])
        assert np.array_equal(cols[4], x[0, :, 1, 1])

    def test_column_order_matches_weight_flatten(self):
        """im2col columns must align with conv_weight_matrix(W)."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, 8, size=(1, 2, 4, 4))
        w = rng.integers(0, 8, size=(3, 2, 2, 2))
        cols = im2col(x, kernel=2)
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
        cols = im2col(x, kernel, stride)
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
        x = np.arange(1 * 1 * 6 * 6).reshape(1, 1, 6, 6)
        cols = im2col(x, kernel=2, stride=2)
        assert cols.shape == (9, 4)
        assert np.array_equal(cols[0], [0, 1, 6, 7])
        assert np.array_equal(cols[1], [2, 3, 8, 9])

    def test_batch_rows_blocked(self):
        x = np.stack([np.zeros((1, 3, 3)), np.ones((1, 3, 3))]).astype(np.int64)
        cols = im2col(x, kernel=3)
        assert np.all(cols[0] == 0)
        assert np.all(cols[1] == 1)

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((3, 3)), 2)
