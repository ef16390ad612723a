"""Property-based roundtrips: bitops pack/unpack, quantize/dequantize.

Hypothesis drives seeded-random inputs through every supported ``wXaY``
precision pair (edge widths w1/a1 included): bit decomposition must
invert bit combination, word packing must invert unpacking at any
length (including non-multiples of 64), encode/decode must roundtrip
for both encodings, and the quantizers must be projections (quantizing
their own reconstruction changes nothing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Precision, PrecisionPair
from repro.core.bitops import (
    bit_combine,
    bit_decompose,
    pack_bits,
    unpack_bits,
)
from repro.core.quantize import AffineQuantizer, QEMQuantizer
from repro.core.types import Encoding

# hypothesis-heavy: the CI unit job deselects these and the serving job
# (and tier-1) runs them
pytestmark = pytest.mark.slow

#: Every wXaY pair the kernels support in tests, edge widths first.
PAIR_NAMES = [
    "w1a1", "w1a2", "w1a4", "w1a8", "w2a2", "w2a8", "w3a3", "w4a4", "w8a8",
]
PAIRS = [PrecisionPair.parse(name) for name in PAIR_NAMES]
ALL_PRECISIONS = sorted(
    {p.weight for p in PAIRS} | {p.activation for p in PAIRS},
    key=lambda p: (p.bits, p.encoding.value),
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=300)


class TestBitopsRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, size=sizes, pair=st.sampled_from(PAIRS))
    def test_decompose_combine_roundtrip_all_pairs(self, seed, size, pair):
        rng = np.random.default_rng(seed)
        for prec in (pair.weight, pair.activation):
            digits = prec.random_digits(rng, (size,))
            planes = bit_decompose(digits, prec.bits)
            assert planes.shape == (prec.bits, size)
            assert np.array_equal(bit_combine(planes), digits)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, size=sizes)
    def test_pack_unpack_roundtrip_any_length(self, seed, size):
        rng = np.random.default_rng(seed)
        bits01 = rng.integers(0, 2, size=size).astype(np.uint8)
        words = pack_bits(bits01)
        assert words.shape[-1] == -(-size // 64)
        assert np.array_equal(unpack_bits(words, size), bits01)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, rows=st.integers(1, 8), size=sizes,
           pair=st.sampled_from(PAIRS))
    def test_planewise_pack_unpack_2d(self, seed, rows, size, pair):
        """The kernels' actual layout: (planes, rows, K) packed on K."""
        rng = np.random.default_rng(seed)
        digits = pair.activation.random_digits(rng, (rows, size))
        planes = bit_decompose(digits, pair.activation.bits)
        words = pack_bits(planes)
        assert np.array_equal(unpack_bits(words, size), planes)


class TestEncodingRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, size=sizes, prec=st.sampled_from(ALL_PRECISIONS))
    def test_decode_encode_roundtrip(self, seed, size, prec):
        rng = np.random.default_rng(seed)
        digits = prec.random_digits(rng, (size,))
        values = prec.decode(digits)
        assert values.min() >= prec.min_value
        assert values.max() <= prec.max_value
        assert np.array_equal(prec.encode(values), digits)

    def test_bipolar_edge_width_w1(self):
        prec = Precision(1, Encoding.BIPOLAR)
        assert np.array_equal(prec.decode(np.array([0, 1])), [-1, 1])
        assert np.array_equal(prec.encode(np.array([-1, 1])), [0, 1])


class TestQuantizerRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, size=sizes, bits=st.integers(1, 8))
    def test_affine_error_bounded_and_idempotent(self, seed, size, bits):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=size)
        q = AffineQuantizer.from_data(x, bits)
        digits = q.quantize(x)
        assert digits.min() >= 0 and digits.max() < (1 << bits)
        recon = q.dequantize(digits)
        # floor quantization: reconstruction sits at most one step below
        assert np.all(x - recon >= -1e-9)
        assert np.all(x - recon < q.scale + 1e-9)
        # re-quantizing the reconstruction moves at most one floor step
        # (floating-point division may land epsilon under a grid point)
        requant = q.quantize(recon)
        # widen first: a negative difference of uint8 digits would wrap
        step = digits.astype(np.int64) - requant
        assert np.all(step >= 0)
        assert np.all(step <= 1)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, size=sizes, pair=st.sampled_from(PAIRS))
    def test_qem_projection_fixed_point_all_pairs(self, seed, size, pair):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=size)
        for prec in (pair.weight, pair.activation):
            qt = QEMQuantizer(prec, iters=8).fit(x)
            assert qt.digits.min() >= 0
            assert qt.digits.max() < prec.num_levels
            assert qt.scale > 0
            # encode/decode of the fitted digits roundtrips exactly
            assert np.array_equal(prec.encode(prec.decode(qt.digits)), qt.digits)
            # alternation is monotone: more iterations never raise the error
            assert (
                QEMQuantizer(prec, iters=8).error(x)
                <= QEMQuantizer(prec, iters=1).error(x) + 1e-12
            )
