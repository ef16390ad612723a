"""Byte-identity oracle: the cffi kernels vs the numpy reference.

Hypothesis drives seeded-random operands through every ``wXaY`` pair
(both encodings, ragged K including sub-word and non-multiple-of-64
sizes) and asserts the cffi kernels produce **byte-identical** results
to the numpy paths: ``pack_bits`` directly, and the full conv entry
point, which takes the packed window gather exactly when the dispatch
prefers it.  Narrow digits (the quantizers' ``uint8``/``uint16``) must
give every strategy and backend the result of the same digits held as
int64.  Also covers forced fallback: a loader import failure must run
the numpy path cleanly, with zero compiled-kernel counter ticks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision, PrecisionPair, _backend_cffi, backends
from repro.core.bitops import bit_decompose, pack_bits
from repro.kernels.packed_conv import PACKED_CONV_PQ_THRESHOLD

# hypothesis-heavy: the CI unit job deselects these and the serving job
# (and tier-1) runs them
pytestmark = pytest.mark.slow

#: Whether the cffi kernels load here (they may not on an interpreter
#: without cffi; the identity tests then skip, and the forced-fallback
#: test below still runs).
HAS_CFFI = backends.get_backend().compiled

needs_cffi = pytest.mark.skipif(
    not HAS_CFFI, reason="cffi kernels do not load here"
)

PAIR_NAMES = ["w1a1", "w1a2", "w1a4", "w2a2", "w2a4", "w4a4", "w2a8"]
PAIRS = [PrecisionPair.parse(name) for name in PAIR_NAMES]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: Ragged K: sub-word, word-aligned, and straddling sizes.
ks = st.sampled_from([1, 3, 17, 64, 65, 128, 200])
rows = st.integers(min_value=1, max_value=24)


@needs_cffi
class TestPackBitsIdentity:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=ks, m=rows, pair=st.sampled_from(PAIRS))
    def test_compiled_pack_matches_numpy(self, seed, k, m, pair):
        rng = np.random.default_rng(seed)
        fn = backends.kernel("pack_bits", "cffi")
        for prec in (pair.weight, pair.activation):
            digits = prec.random_digits(rng, (m, k))
            planes = bit_decompose(digits, prec.bits)
            got = fn(planes.reshape(prec.bits * m, k))
            want = pack_bits(planes).reshape(prec.bits * m, -1)
            assert got.dtype == np.uint64
            assert np.array_equal(got, want)


@needs_cffi
class TestGemmIdentity:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, k=ks, pair=st.sampled_from(PAIRS))
    def test_apmm_identical_across_backends(self, seed, k, pair):
        from repro.kernels.apmm import apmm

        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (8, k))
        x = pair.activation.random_digits(rng, (6, k))
        ref = apmm(w, x, pair.weight, pair.activation, backend="numpy")
        got = apmm(w, x, pair.weight, pair.activation, backend="cffi")
        assert np.array_equal(got.output, ref.output)


@needs_cffi
class TestConvIdentity:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]),
           cin=st.sampled_from([1, 3, 8]),
           hw=st.sampled_from([4, 7]))
    def test_apconv_identical_across_backends(
        self, seed, pair, stride, padding, cin, hw
    ):
        from repro.kernels.apconv import apconv

        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (5, cin, 3, 3))
        x = pair.activation.random_digits(rng, (2, cin, hw, hw))
        ref = apconv(w, x, pair.weight, pair.activation,
                     stride=stride, padding=padding, backend="numpy")
        got = apconv(w, x, pair.weight, pair.activation,
                     stride=stride, padding=padding, backend="cffi")
        assert np.array_equal(got.output, ref.output)
        # the dispatch, not only its output: the gather runs exactly at
        # low plane-pair counts, and never on numpy
        pq = pair.weight.bits * pair.activation.bits
        gathered = got.cost.counters.compiled_kernels > 0
        assert gathered == (pq <= PACKED_CONV_PQ_THRESHOLD)
        assert ref.cost.counters.compiled_kernels == 0


#: Every (strategy, backend) a kernel call accepts here.
STRATEGY_BACKENDS = [("packed", "numpy"), ("integer", "numpy"), ("bitserial", "numpy")]
if HAS_CFFI:
    STRATEGY_BACKENDS.append(("packed", "cffi"))

narrow_dtypes = st.sampled_from([np.uint8, np.uint16])
encodings = st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR])


def _narrow_operands(rng, pair, feature_encoding, w_shape, x_shape):
    """int64 digits with the max digit forced into each operand."""
    feature = Precision(pair.activation.bits, feature_encoding)
    w = pair.weight.random_digits(rng, w_shape)
    x = feature.random_digits(rng, x_shape)
    w.flat[rng.integers(w.size)] = pair.weight.num_levels - 1
    x.flat[rng.integers(x.size)] = feature.num_levels - 1
    return feature, w, x


class TestNarrowDigitIdentity:
    """uint8/uint16 digits equal the same digits held as int64."""

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, k=ks, m=rows, n=rows, pair=st.sampled_from(PAIRS),
           encoding=encodings, dtype=narrow_dtypes)
    def test_apmm(self, seed, k, m, n, pair, encoding, dtype):
        from repro.kernels.apmm import apmm

        rng = np.random.default_rng(seed)
        feature, w, x = _narrow_operands(rng, pair, encoding, (m, k), (n, k))
        want = apmm(w, x, pair.weight, feature, strategy="integer").output
        for strategy, backend in STRATEGY_BACKENDS:
            got = apmm(w.astype(dtype), x.astype(dtype), pair.weight, feature,
                       strategy=strategy, backend=backend).output
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (strategy, backend)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS), encoding=encodings,
           dtype=narrow_dtypes,
           stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1, 2]),
           cin=st.sampled_from([1, 3, 8, 65]),
           hw=st.sampled_from([4, 7]))
    def test_apconv(self, seed, pair, encoding, dtype, stride, padding, cin, hw):
        from repro.kernels.apconv import apconv

        rng = np.random.default_rng(seed)
        feature, w, x = _narrow_operands(
            rng, pair, encoding, (5, cin, 3, 3), (2, cin, hw, hw)
        )
        want = apconv(w, x, pair.weight, feature, stride=stride,
                      padding=padding, strategy="integer").output
        for strategy, backend in STRATEGY_BACKENDS:
            got = apconv(w.astype(dtype), x.astype(dtype), pair.weight, feature,
                         stride=stride, padding=padding,
                         strategy=strategy, backend=backend).output
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (strategy, backend)


class TestForcedFallback:
    """The numpy path must stay reachable no matter what is installed."""

    def test_loader_import_failure_degrades_to_numpy(self, monkeypatch):
        """A cffi module whose load dies must cost one warning and fall
        back, never crash the kernel call."""
        from repro.kernels.apconv import apconv

        def exploding_kernels():
            raise ImportError("simulated backend import failure")

        monkeypatch.setattr(_backend_cffi, "kernels", exploding_kernels)
        monkeypatch.setattr(backends, "_cffi_table", None)
        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(1)
        w = pair.weight.random_digits(rng, (4, 3, 3, 3))
        x = pair.activation.random_digits(rng, (2, 3, 6, 6))
        with pytest.warns(RuntimeWarning, match="failed to load"):
            got = apconv(w, x, pair.weight, pair.activation, padding=1)
        assert backends.get_backend().name == "numpy"
        assert got.cost.counters.compiled_kernels == 0
        want = apconv(w, x, pair.weight, pair.activation, padding=1,
                      strategy="integer")
        assert np.array_equal(got.output, want.output)
