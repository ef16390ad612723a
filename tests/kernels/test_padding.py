"""Tests for input-aware padding (paper section 4.2b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision, backends
from repro.core.opselect import EmulationCase
from repro.kernels import apconv, pad_channel_last, padding_correction, plan_padding

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR


class TestPaddingPlan:
    def test_case_i_pads_zero_no_correction(self):
        plan = plan_padding(Precision(2, U), Precision(2, U))
        assert plan.pad_digit == 0
        assert plan.pad_value == 0
        assert not plan.needs_correction

    def test_case_ii_pads_one_with_counter(self):
        """Paper: both bipolar -> pad 1 and amend with a counter."""
        plan = plan_padding(Precision(1, B), Precision(1, B))
        assert plan.pad_digit == 1
        assert plan.pad_value == 1
        assert plan.needs_correction
        assert "counter" in plan.strategy

    def test_case_iii_pads_zero_no_correction(self):
        """Paper: bipolar weight x unsigned feature -> pad 0, unchanged."""
        plan = plan_padding(Precision(1, B), Precision(2, U))
        assert plan.pad_digit == 0
        assert not plan.needs_correction

    def test_case_iv_multibit_bipolar_feature(self):
        plan = plan_padding(Precision(2, U), Precision(2, B))
        assert plan.pad_digit == 3  # all planes set
        assert plan.pad_value == 3  # decodes to +3
        assert plan.needs_correction

    def test_case_enum_recorded(self):
        assert plan_padding(Precision(1, B), Precision(1, B)).case is EmulationCase.CASE_II


class TestPadChannelLast:
    def test_zero_padding_returns_a_channel_last_copy(self):
        x = np.arange(2 * 3 * 2 * 2, dtype=np.int64).reshape(2, 3, 2, 2)
        out = pad_channel_last(x, 0, 7)
        assert out is not x
        assert not np.shares_memory(out, x)
        assert out.flags.c_contiguous
        assert np.array_equal(out, x.transpose(0, 2, 3, 1))

    def test_pad_geometry(self):
        x = np.ones((2, 3, 4, 5), dtype=np.int64)
        out = pad_channel_last(x, 2, 0)
        assert out.shape == (2, 8, 9, 3)

    def test_pad_value_written(self):
        x = np.zeros((1, 2, 2, 2), dtype=np.int64)
        out = pad_channel_last(x, 1, 9)
        assert np.all(out[0, 0, 0] == 9)
        assert np.all(out[0, 1, 1] == 0)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            pad_channel_last(np.zeros((1, 1, 2, 2), dtype=np.int64), -1, 0)

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            pad_channel_last(np.zeros((2, 2)), 1, 0)


#: (feature bits, digit dtype): a bipolar feature pads with its max digit
#: 2**bits - 1, which a narrow dtype cannot always hold.
NARROW_BIPOLAR = [(9, np.uint8), (16, np.uint8), (16, np.uint16)]

#: Every kernel strategy, plus the compiled tier when it loads here.
STRATEGY_BACKENDS = [("packed", "numpy"), ("integer", "numpy"), ("bitserial", "numpy")]
if backends.get_backend().compiled:
    STRATEGY_BACKENDS.append(("packed", "cffi"))


class TestNarrowDigitPadding:
    """A pad digit the input dtype cannot hold widens it; it must not wrap."""

    @pytest.mark.parametrize("bits,dtype", NARROW_BIPOLAR)
    def test_pad_digit_not_wrapped(self, bits, dtype):
        pad_digit = (1 << bits) - 1
        x = np.zeros((1, 1, 2, 2), dtype=dtype)
        out = pad_channel_last(x, 1, pad_digit)
        assert out[0, 0, 0, 0] == pad_digit
        assert out[0, 1, 1, 0] == 0

    def test_narrow_dtype_kept_when_pad_digit_fits(self):
        x = np.ones((1, 2, 3, 3), dtype=np.uint8)
        assert pad_channel_last(x, 1, 0).dtype == np.uint8
        assert pad_channel_last(x, 1, 255).dtype == np.uint8

    @pytest.mark.parametrize("bits,dtype", NARROW_BIPOLAR)
    @pytest.mark.parametrize("strategy,backend", STRATEGY_BACKENDS)
    @pytest.mark.parametrize("weight", [Precision(1, B), Precision(2, U)],
                             ids=["w1b", "w2u"])
    def test_apconv_bipolar_features_match_int64(
        self, bits, dtype, strategy, backend, weight
    ):
        rng = np.random.default_rng(bits)
        feature = Precision(bits, B)
        w = weight.random_digits(rng, (4, 3, 3, 3))
        top = min(feature.num_levels, np.iinfo(dtype).max + 1)
        x = rng.integers(0, top, size=(2, 3, 5, 5))
        x[0, 0, 0, 0] = top - 1
        want = apconv(w, x, weight, feature, padding=1, strategy="integer")
        got = apconv(w, x.astype(dtype), weight, feature, padding=1,
                     strategy=strategy, backend=backend)
        assert got.output.dtype == np.int64
        assert np.array_equal(got.output, want.output)


def _direct_conv(wv, xv, stride, padding):
    """Zero-VALUE padded correlation reference (int64, NCHW)."""
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


class TestPaddingCorrection:
    def test_zero_pad_value_gives_zero_correction(self):
        w = np.ones((2, 3, 3, 3), dtype=np.int64)
        corr = padding_correction(w, 8, 8, padding=1, stride=1, pad_value=0)
        assert corr.shape == (2, 8, 8)
        assert np.all(corr == 0)

    def test_no_padding_gives_zero_correction(self):
        w = np.ones((2, 3, 3, 3), dtype=np.int64)
        corr = padding_correction(w, 8, 8, padding=0, stride=1, pad_value=1)
        assert np.all(corr == 0)

    def test_interior_pixels_uncorrected(self):
        w = np.ones((1, 1, 3, 3), dtype=np.int64)
        corr = padding_correction(w, 8, 8, padding=1, stride=1, pad_value=1)
        assert np.all(corr[0, 1:-1, 1:-1] == 0)
        # corner sees 5 padded taps of a 3x3 window
        assert corr[0, 0, 0] == 5

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            padding_correction(np.ones((2, 3, 3)), 8, 8, 1, 1, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        stride=st.integers(1, 2),
        padding=st.integers(1, 2),
        kernel=st.sampled_from([1, 3]),
    )
    def test_correction_exact_bipolar(self, seed, stride, padding, kernel):
        """y_true == y_padded(-with +1) - correction, for +-1 data."""
        rng = np.random.default_rng(seed)
        wp = Precision(1, B)
        wd = wp.random_digits(rng, (2, 2, kernel, kernel))
        xd = wp.random_digits(rng, (1, 2, 6, 6))
        wv, xv = wp.decode(wd), wp.decode(xd)
        ref = _direct_conv(wv, xv, stride, padding)
        # conv computed with +1-padded features
        xv_pad1 = np.pad(
            xv, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=1,
        )
        padded = _direct_conv(wv, xv_pad1, stride, 0)
        corr = padding_correction(wv, 6, 6, padding, stride, pad_value=1)
        assert np.array_equal(padded - corr[None], ref)

    def test_correction_exact_multibit_bipolar(self):
        rng = np.random.default_rng(7)
        wprec = Precision(2, B)
        wd = wprec.random_digits(rng, (3, 2, 3, 3))
        wv = wprec.decode(wd)
        xv = rng.integers(-3, 4, size=(1, 2, 5, 5))
        pad_value = 3
        ref = _direct_conv(wv, xv, 1, 1)
        xv_pad = np.pad(xv, ((0, 0), (0, 0), (1, 1), (1, 1)),
                        constant_values=pad_value)
        padded = _direct_conv(wv, xv_pad, 1, 0)
        corr = padding_correction(wv, 5, 5, 1, 1, pad_value=pad_value)
        assert np.array_equal(padded - corr[None], ref)
