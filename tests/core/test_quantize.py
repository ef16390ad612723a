"""Tests for quantizers (AffineQuantizer, QEM, binarize)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    AffineQuantizer,
    Encoding,
    Precision,
    QEMQuantizer,
    QuantizedTensor,
    binarize,
    cores,
    digit_dtype,
)
from repro.core.quantize import STREAM_CHUNK


class TestAffineQuantizer:
    def test_floor_semantics(self):
        q = AffineQuantizer(bits=2, scale=1.0, zero_point=0.0)
        assert np.array_equal(q.quantize(np.array([0.0, 0.9, 1.0, 2.7])), [0, 0, 1, 2])

    def test_clamps_to_range(self):
        q = AffineQuantizer(bits=2, scale=1.0)
        assert np.array_equal(q.quantize(np.array([-5.0, 100.0])), [0, 3])

    def test_zero_point_shift(self):
        q = AffineQuantizer(bits=3, scale=0.5, zero_point=-1.0)
        assert q.quantize(np.array([-1.0]))[0] == 0
        assert q.quantize(np.array([0.0]))[0] == 2

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            AffineQuantizer(bits=2, scale=0.0)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            AffineQuantizer(bits=0, scale=1.0)

    def test_from_range_covers_endpoints(self):
        q = AffineQuantizer.from_range(-1.0, 1.0, 2)
        assert q.quantize(np.array([-1.0]))[0] == 0
        assert q.quantize(np.array([1.0]))[0] == 3

    def test_from_range_empty_rejected(self):
        with pytest.raises(ValueError):
            AffineQuantizer.from_range(1.0, 1.0, 2)

    def test_from_data_handles_constant(self):
        q = AffineQuantizer.from_data(np.zeros(5), 4)
        assert q.quantize(np.zeros(5)).max() <= 15

    def test_precision_property(self):
        q = AffineQuantizer(bits=4, scale=1.0)
        assert q.precision == Precision(4, Encoding.UNSIGNED)

    @given(st.integers(1, 8), st.integers(0, 10**6))
    def test_quantize_dequantize_error_bounded(self, bits, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=100)
        q = AffineQuantizer.from_data(x, bits)
        err = np.abs(q.dequantize(q.quantize(x)) - x)
        assert err.max() <= q.scale + 1e-9  # floor error < one step


class TestBinarize:
    def test_signs(self):
        qt = binarize(np.array([-2.0, -0.1, 0.0, 3.0]))
        assert np.array_equal(qt.digits, [0, 0, 1, 1])

    def test_scale_is_mean_abs(self):
        qt = binarize(np.array([-2.0, 4.0]))
        assert qt.scale == pytest.approx(3.0)

    def test_precision_is_bipolar_1bit(self):
        qt = binarize(np.array([1.0]))
        assert qt.precision == Precision(1, Encoding.BIPOLAR)

    def test_dequantize_values(self):
        qt = binarize(np.array([-2.0, 4.0]))
        assert np.array_equal(qt.dequantize(), [-3.0, 3.0])

    def test_all_zero_input(self):
        qt = binarize(np.zeros(4))
        assert qt.scale == 1.0
        assert np.array_equal(qt.digits, np.ones(4))

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5, 2)])
    def test_empty_input(self, shape):
        qt = binarize(np.zeros(shape))
        assert qt.digits.shape == shape
        assert qt.digits.dtype == np.uint8
        assert qt.scale == 1.0


#: Sizes around numpy's pairwise blocks (8 and 128 elements) and around
#: binarize's stream chunk.
STREAM_SIZES = [
    1, 7, 8, 127, 128, 129,
    STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1, 3 * STREAM_CHUNK + 5,
]
#: fc6's weight, AlexNet-224's largest: 37.7M elements.
FC6 = (4096, 9216)


def _signed_values(kind: str, n: int):
    """``n`` values with exact and negative zeros, as ``kind``."""
    rng = np.random.default_rng(n)
    if kind == "int64":
        return rng.integers(-1000, 1000, size=n)
    x = rng.standard_normal(n)
    x[::7] = 0.0
    x[3::11] = -0.0
    if kind == "float32":
        return x.astype(np.float32)
    return x.tolist() if kind == "list" else x


def _mean_abs(x) -> float:
    """numpy's mean of ``|x|`` over a whole float64 copy."""
    copy = np.asarray(x).astype(np.float64)
    return float(np.mean(np.abs(copy, out=copy)))


class TestStreamedBinarize:
    """binarize streams float64 chunks, yet its scale is numpy's mean of
    the whole float64 copy bit for bit.  The sizes pin numpy's pairwise
    split: a numpy whose split differs fails here first."""

    @pytest.mark.parametrize("kind", ["float32", "float64", "int64", "list"])
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_scale_and_digits_equal_the_whole_array_ones(self, kind, n):
        x = _signed_values(kind, n)
        before = np.asarray(x).tobytes()
        qt = binarize(x)
        assert qt.scale.hex() == (_mean_abs(x) or 1.0).hex()  # all zeros: 1.0
        assert qt.digits.dtype == np.uint8
        assert np.array_equal(qt.digits, (np.asarray(x) >= 0).astype(np.uint8))
        assert np.asarray(x).tobytes() == before

    def test_a_non_c_contiguous_input_is_read_in_c_order(self):
        x = np.asfortranarray(
            np.random.default_rng(5).standard_normal((300, 7000)).astype(np.float32)
        )
        before = x.tobytes()
        qt = binarize(x)
        assert qt.scale == _mean_abs(np.ascontiguousarray(x))
        assert qt.digits.flags.c_contiguous
        assert np.array_equal(qt.digits, x >= 0)
        assert x.tobytes() == before

    def test_fc6_sized_weight(self):
        x = np.random.default_rng(6).standard_normal(FC6, dtype=np.float32)
        qt = binarize(x)
        assert qt.scale == _mean_abs(x)
        assert np.array_equal(qt.digits, x >= 0)

    def test_fc6_sized_weight_allocates_its_digits_and_a_few_chunks(self):
        x = np.random.default_rng(6).standard_normal(FC6, dtype=np.float32)
        tracemalloc.start()
        try:
            qt = binarize(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-array float64 copy this replaced was 288 MiB
        assert peak <= qt.digits.nbytes + 4 * STREAM_CHUNK * 8


class TestQEM:
    def test_exact_grid_is_zero_error(self):
        """Data already on a bipolar grid must quantize losslessly."""
        prec = Precision(2, Encoding.BIPOLAR)
        x = 0.5 * np.array([-3.0, -1.0, 1.0, 3.0, 1.0, -1.0])
        q = QEMQuantizer(prec)
        qt = q.fit(x)
        assert qt.scale == pytest.approx(0.5, rel=1e-6)
        np.testing.assert_allclose(qt.dequantize(), x, atol=1e-9)

    def test_error_decreases_with_bits(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=2000)
        errs = [
            QEMQuantizer(Precision(b, Encoding.BIPOLAR)).error(x) for b in (1, 2, 3, 4)
        ]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < errs[0] / 5

    def test_qem_beats_naive_maxabs_scale(self):
        """The QEM alternation must not be worse than the max-|x| init."""
        rng = np.random.default_rng(1)
        x = rng.standard_t(df=3, size=3000)  # heavy tails punish max-scaling
        prec = Precision(2, Encoding.BIPOLAR)
        qt = QEMQuantizer(prec).fit(x)
        naive_scale = np.max(np.abs(x)) / prec.max_value
        q = QEMQuantizer(prec)
        naive_digits = q._project(x / naive_scale)
        naive_err = np.mean((x - naive_scale * prec.decode(naive_digits)) ** 2)
        fit_err = np.mean((x - qt.dequantize()) ** 2)
        assert fit_err <= naive_err + 1e-12

    def test_unsigned_grid(self):
        x = np.array([0.0, 0.26, 0.52, 0.74])
        qt = QEMQuantizer(Precision(2, Encoding.UNSIGNED)).fit(x)
        assert qt.digits.min() >= 0 and qt.digits.max() <= 3
        assert np.mean((qt.dequantize() - x) ** 2) < 0.01

    def test_empty_input(self):
        qt = QEMQuantizer(Precision(2)).fit(np.array([]))
        assert qt.digits.size == 0

    def test_all_zero_input(self):
        qt = QEMQuantizer(Precision(2)).fit(np.zeros(8))
        np.testing.assert_allclose(qt.dequantize(), 0.0)

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            QEMQuantizer(Precision(2), iters=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.booleans())
    def test_digits_always_in_range(self, seed, bits, bipolar):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=64) * rng.uniform(0.01, 100)
        prec = Precision(bits, Encoding.BIPOLAR if bipolar else Encoding.UNSIGNED)
        qt = QEMQuantizer(prec).fit(x)
        assert qt.digits.min() >= 0
        assert qt.digits.max() < prec.num_levels


#: Bit widths straddling each digit dtype boundary.
DTYPE_BITS = [1, 2, 8, 9, 16]


class TestDigitDtype:
    """Every quantizer returns digits in the narrowest dtype for its bits."""

    @pytest.mark.parametrize("bits,dtype", [
        (1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.int64),
    ])
    def test_digit_dtype_boundaries(self, bits, dtype):
        assert digit_dtype(bits) == dtype
        assert np.iinfo(dtype).max >= (1 << bits) - 1

    @pytest.mark.parametrize("bits", DTYPE_BITS + [17])
    def test_affine(self, bits):
        q = AffineQuantizer(bits=bits, scale=1.0)
        digits = q.quantize(np.array([-1.0, 0.0, 3.5, 1e12]))
        assert digits.dtype == digit_dtype(bits)
        # the max digit survives the narrow dtype exactly
        assert digits.tolist() == [0, 0, 3 if bits > 1 else 1, (1 << bits) - 1]

    def test_binarize(self):
        assert binarize(np.array([-1.0, 2.0])).digits.dtype == digit_dtype(1)

    @pytest.mark.parametrize("bits", DTYPE_BITS)
    @pytest.mark.parametrize("encoding", [Encoding.UNSIGNED, Encoding.BIPOLAR])
    def test_qem(self, bits, encoding):
        prec = Precision(bits, encoding)
        x = np.random.default_rng(bits).normal(size=64)
        qt = QEMQuantizer(prec, iters=3).fit(x)
        assert qt.digits.dtype == digit_dtype(bits)
        assert qt.digits.max() < prec.num_levels

    @pytest.mark.parametrize("bits", DTYPE_BITS)
    def test_qem_empty_input(self, bits):
        qt = QEMQuantizer(Precision(bits)).fit(np.array([]))
        assert qt.digits.dtype == digit_dtype(bits)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("encoding", [Encoding.UNSIGNED, Encoding.BIPOLAR])
    def test_decode_widens_to_int64(self, dtype, encoding):
        prec = Precision(8, encoding)
        digits = np.array([0, 1, 255], dtype=dtype)
        got = prec.decode(digits)
        assert got.dtype == np.int64
        assert np.array_equal(got, prec.decode(digits.astype(np.int64)))


# ----------------------------------------------------------------------
# oracles: the quantizers as they were before their buffer rewrite
# ----------------------------------------------------------------------
def _oracle_binarize(x: np.ndarray) -> QuantizedTensor:
    x = np.asarray(x, dtype=np.float64)
    alpha = float(np.mean(np.abs(x))) if x.size else 1.0
    if alpha == 0.0:
        alpha = 1.0
    digits = (x >= 0).astype(digit_dtype(1))
    return QuantizedTensor(
        digits=digits,
        precision=Precision(1, Encoding.BIPOLAR),
        scale=alpha,
    )


class _OracleQEM(QEMQuantizer):
    def _project(self, y: np.ndarray) -> np.ndarray:
        """Project real values onto the digit grid, returning digits."""
        prec = self.precision
        if prec.encoding is Encoding.UNSIGNED:
            digits = np.rint(y)
        else:
            # bipolar levels are 2*d - (2**b - 1): odd-spaced grid, step 2
            digits = np.rint((y + prec.num_levels - 1) / 2.0)
        return np.clip(digits, 0, prec.num_levels - 1).astype(digit_dtype(prec.bits))

    def fit(self, x: np.ndarray) -> QuantizedTensor:
        """Quantize ``x`` with an error-minimizing scale."""
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            return QuantizedTensor(
                digits=np.zeros_like(x, dtype=digit_dtype(self.precision.bits)),
                precision=self.precision,
                scale=1.0,
            )
        max_level = max(abs(self.precision.min_value), self.precision.max_value, 1)
        scale = float(np.max(np.abs(x))) / max_level if np.any(x) else 1.0
        if scale == 0.0:
            scale = 1.0
        digits = self._project(x / scale)
        # the dots sum on one BLAS thread, as fit's do
        with cores.hold_blas():
            for _ in range(self.iters):
                decoded = self.precision.decode(digits).astype(np.float64)
                denom = float(np.dot(decoded.ravel(), decoded.ravel()))
                if denom == 0.0:
                    break
                new_scale = float(np.dot(x.ravel(), decoded.ravel())) / denom
                if new_scale <= 0.0:
                    break
                new_digits = self._project(x / new_scale)
                if new_scale == scale and np.array_equal(new_digits, digits):
                    break
                scale, digits = new_scale, new_digits
        return QuantizedTensor(digits=digits, precision=self.precision, scale=scale)


@st.composite
def weight_arrays(draw):
    """float32/float64 arrays, empty ones included, optionally all-zero,
    constant or one-signed; magnitudes stay where the fit's float64 dot
    products cannot overflow."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = st.floats(
        -(2.0**100), 2.0**100, width=32 if dtype is np.float32 else 64
    )
    shape = draw(
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=8)
    )
    x = draw(hnp.arrays(dtype, shape, elements=elements))
    kind = draw(
        st.sampled_from(("any", "zeros", "constant", "positive", "negative"))
    )
    if kind == "zeros":
        return np.zeros_like(x)
    if kind == "constant":
        return np.full_like(x, draw(elements))
    if kind == "positive":
        return np.abs(x)
    if kind == "negative":
        return -np.abs(x)
    return x


def assert_same(got: QuantizedTensor, want: QuantizedTensor) -> None:
    assert got.digits.dtype == want.digits.dtype
    assert got.digits.shape == want.digits.shape
    assert np.array_equal(got.digits, want.digits)
    assert got.scale == want.scale


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(
        x=weight_arrays(), bits=st.integers(1, 16), bipolar=st.booleans(),
        iters=st.integers(1, 25),
    )
    def test_qem_fit(self, x, bits, bipolar, iters):
        prec = Precision(bits, Encoding.BIPOLAR if bipolar else Encoding.UNSIGNED)
        assert_same(
            QEMQuantizer(prec, iters).fit(x), _OracleQEM(prec, iters).fit(x)
        )

    @pytest.mark.parametrize("bits,encoding", [
        (2, Encoding.BIPOLAR), (3, Encoding.BIPOLAR), (4, Encoding.BIPOLAR),
        (2, Encoding.UNSIGNED),
    ])
    def test_qem_fit_layer_sized(self, bits, encoding):
        """A conv weight's size, past every blocked loop of the dots."""
        rng = np.random.default_rng(bits)
        x = (rng.normal(size=(128, 64, 3, 3)) * 0.05).astype(np.float32)
        prec = Precision(bits, encoding)
        assert_same(QEMQuantizer(prec).fit(x), _OracleQEM(prec).fit(x))

    @settings(max_examples=150, deadline=None)
    @given(x=weight_arrays())
    def test_binarize_leaves_its_input_alone(self, x):
        before = x.tobytes()
        assert_same(binarize(x), _oracle_binarize(x))
        assert x.tobytes() == before


def test_qem_fit_is_the_same_at_any_blas_thread_count():
    """OpenBLAS splits a long dot product by its thread count, so an
    unheld fit's scale would follow the host's CPU count."""
    control = cores._blas_control()
    if control is None or cores.usable_cpus() < 2:
        pytest.skip("needs numpy's OpenBLAS thread control and two CPUs")
    get, set_ = control
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal(n).astype(np.float32)
          for n in (36864, 73728, 147456, 294912)]
    quantizer = QEMQuantizer(Precision(2, Encoding.BIPOLAR))
    before = get()
    fits = {}
    try:
        for threads in (2, 1):
            set_(threads)
            fits[threads] = [quantizer.fit(x) for x in xs]
    finally:
        set_(before)
    for two, one in zip(fits[2], fits[1]):
        assert two.scale.hex() == one.scale.hex()
        assert two.digits.tobytes() == one.digits.tobytes()
