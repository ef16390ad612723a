"""Byte-identity oracle: the cffi kernels vs the numpy reference.

Hypothesis drives seeded-random operands through every ``wXaY`` pair
(both encodings, ragged K including sub-word and non-multiple-of-64
sizes) and asserts the compiled paths produce **byte-identical**
results to the numpy paths: the ``np.packbits`` packer against
``pack_bits``, and the popcount GEMM and the packed conv gather both
through their entry points -- which take the route
:meth:`repro.core.packed.HostProduct.cheapest` prices lowest -- and
directly at every drawn shape, whatever the route.  Narrow digits
(the quantizers' ``uint8``/``uint16``) must give every strategy and
backend the result of the same digits held as int64.  Both C branches
of the popcount GEMM are checked on any x86-64-v3 CPU: an x86-64-v3
build (the loop nest) against the host build and the reference.  Also
covers forced fallback: a loader import failure must run the numpy path
cleanly, with zero compiled-kernel counter ticks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Encoding,
    Precision,
    PrecisionPair,
    _backend_cffi,
    backends,
    packed,
)
from repro.core.bitops import bit_decompose, pack_bits, packed_words
from repro.core.emulate import reference_matmul
from repro.core.packed import (
    PATH_KERNELS,
    HostProduct,
    _pack_planes,
    _popcount_matmul,
    compiled_branch,
    matmul_path,
    packed_matmul,
)
from repro.kernels.layout import conv_weight_matrix, im2col
from repro.kernels.packed_conv import packed_conv_matmul

# hypothesis-heavy: the CI unit job deselects these and the serving job
# (and tier-1) runs them
pytestmark = pytest.mark.slow

#: Whether the cffi kernels load here (they may not on an interpreter
#: without cffi; the identity tests then skip, and the packer and
#: forced-fallback tests below still run).
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


class TestPackPlanesIdentity:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, k=st.integers(1, 200), m=rows,
           pair=st.sampled_from(PAIRS),
           dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
           block=st.sampled_from([None, 1, 150]))
    def test_matches_pack_bits_of_bit_decompose(
        self, seed, k, m, pair, dtype, block
    ):
        # block: the default (one block here), one row per block, and
        # blocks that end mid-operand
        rng = np.random.default_rng(seed)
        size = packed._PACK_BLOCK if block is None else block
        with mock.patch.object(packed, "_PACK_BLOCK", size):
            for prec in (pair.weight, pair.activation):
                digits = prec.random_digits(rng, (m, k))
                got = _pack_planes(digits.astype(dtype), prec.bits)
                want = pack_bits(bit_decompose(digits, prec.bits))
                assert got.dtype == np.uint64
                assert np.array_equal(
                    got, want.reshape(prec.bits * m, packed_words(k))
                )


def _expected_compiled(product):
    """Compiled kernels the cffi route of ``product`` runs: 2 for the
    gather, 1 for a popcount GEMM, 0 for the fold."""
    return PATH_KERNELS[product.cheapest(compiled_branch("cffi"))]


@needs_cffi
class TestGemmIdentity:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, k=ks, pair=st.sampled_from(PAIRS),
           m=st.integers(1, 40), n=st.integers(1, 40))
    def test_apmm_identical_across_backends(self, seed, k, pair, m, n):
        from repro.kernels.apmm import apmm

        # m and n span partial and whole 4-row tiles and 16-column panels
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (m, k))
        x = pair.activation.random_digits(rng, (n, k))
        ref = apmm(w, x, pair.weight, pair.activation, backend="numpy")
        got = apmm(w, x, pair.weight, pair.activation, backend="cffi")
        assert np.array_equal(got.output, ref.output)
        # the dispatch, not only its output: the popcount GEMM runs
        # exactly where the rule routes it, and never on numpy
        p, q = pair.weight.bits, pair.activation.bits
        want = _expected_compiled(HostProduct(m, n, k, p, q))
        assert got.cost.counters.compiled_kernels == want
        assert ref.cost.counters.compiled_kernels == 0
        # the popcount path itself, whichever route the rule took
        popcount = matmul_path("popcount", w, x, pair.weight, pair.activation,
                               backend="cffi")
        assert np.array_equal(popcount, ref.output)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, k=st.sampled_from([1, 17]),
           pair=st.sampled_from(PAIRS), encoding=st.sampled_from(
               [Encoding.UNSIGNED, Encoding.BIPOLAR]))
    def test_popcount_tail_where_the_rule_folds(self, seed, k, pair, encoding):
        # K below a word: the rule never sends these to the popcount GEMM
        feature = Precision(pair.activation.bits, encoding)
        product = HostProduct(7, 5, k, pair.weight.bits, feature.bits)
        assert product.cheapest(compiled_branch("cffi")) == "fold"
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (7, k))
        x = feature.random_digits(rng, (5, k))
        got = _popcount_matmul(
            _pack_planes(w, pair.weight.bits), _pack_planes(x, feature.bits),
            pair.weight, feature, k, backend="cffi",
        )
        want = packed_matmul(w, x, pair.weight, feature, backend="numpy")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def loop_nest_build(tmp_path_factory):
    """``CFFI_SOURCE`` built for x86-64-v3, loaded beside the host build."""
    pytest.importorskip("cffi")
    directory = tmp_path_factory.mktemp("loop_nest")
    try:
        return _backend_cffi.loop_nest_build(directory)
    except RuntimeError as exc:
        pytest.skip(str(exc))
    except Exception as exc:  # distutils raises several types
        pytest.skip(f"cffi or gcc rejected the x86-64-v3 build: {exc}")


@needs_cffi
class TestLoopNestBranch:
    """Both C branches of the popcount GEMM agree, on any x86-64-v3 CPU.

    The host build takes the AVX-512 micro-kernel where the CPU has
    VPOPCNTDQ; an x86-64-v3 build always takes the loop nest.  Each must
    equal the other and the decoded-integer reference, correction
    included.
    """

    def test_x86_64_v3_build_compiles_the_loop_nest(self, loop_nest_build):
        assert loop_nest_build.lib.repro_popcount_branch() == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           wenc=st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR]),
           xenc=st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR]),
           m=st.integers(1, 40), n=st.integers(1, 40),
           nwords=st.integers(1, 80), tail=st.integers(1, 64))
    def test_matches_the_host_build_and_the_reference(
        self, loop_nest_build, seed, pair, wenc, xenc, m, n, nwords, tail
    ):
        # the encodings pick the operator: XOR for bipolar x bipolar,
        # AND otherwise
        wp = Precision(pair.weight.bits, wenc)
        xp = Precision(pair.activation.bits, xenc)
        k = 64 * (nwords - 1) + tail
        rng = np.random.default_rng(seed)
        w = wp.random_digits(rng, (m, k))
        x = xp.random_digits(rng, (n, k))
        args = (_pack_planes(w, wp.bits), _pack_planes(x, xp.bits), wp, xp, k)
        host = _popcount_matmul(*args, backend="cffi")
        with mock.patch.object(_backend_cffi, "_loaded", loop_nest_build):
            loop_nest = _popcount_matmul(*args, backend="cffi")
        assert np.array_equal(loop_nest, host)
        assert np.array_equal(host, reference_matmul(w, x, wp, xp))


def _gemm_blocks(module, a_words, b_words, p, m, q, n, op_and, k, scales,
                 row_cuts, col_cuts):
    """``repro_packed_gemm`` called once per block of the partition."""
    ffi, lib = module.ffi, module.lib
    nwords = a_words.shape[1]
    out = np.full((m, n), -1, dtype=np.int64)  # an unwritten block shows
    a_ptr = ffi.from_buffer("uint64_t *", a_words)
    b_ptr = ffi.from_buffer("uint64_t *", b_words)
    out_ptr = ffi.from_buffer("int64_t *", out)
    for i0, i1 in zip(row_cuts, row_cuts[1:]):
        for j0, j1 in zip(col_cuts, col_cuts[1:]):
            status = lib.repro_packed_gemm(
                a_ptr, b_ptr, p, m, q, n, nwords, int(op_and), k, *scales,
                i0, i1, j0, j1, out_ptr,
            )
            assert status == 0
    return out


def _cuts(data, size):
    """A random partition of ``range(size)`` as sorted cut points."""
    inner = data.draw(st.lists(st.integers(1, size - 1), max_size=5)) \
        if size > 1 else []
    return sorted({0, size, *inner})


@needs_cffi
class TestPackedGemmBlocks:
    """``repro_packed_gemm`` writes exactly its output block: any
    partition of rows and columns, block by block, equals one call over
    the whole output, on both C branches.  Ragged extents (``m`` not a
    multiple of the 4-row tile, ``n`` not of the 16-column panel) put
    partial tiles inside and at the edges of the blocks."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           wenc=st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR]),
           xenc=st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR]),
           m=st.integers(1, 45).filter(lambda v: v % 4),
           n=st.integers(1, 70).filter(lambda v: v % 16),
           nwords=st.integers(1, 9), tail=st.integers(1, 64), data=st.data())
    def test_blocks_tile_the_whole_output(
        self, loop_nest_build, seed, pair, wenc, xenc, m, n, nwords, tail, data
    ):
        from repro.core.opselect import TCOp, select_operator

        wp = Precision(pair.weight.bits, wenc)
        xp = Precision(pair.activation.bits, xenc)
        k = 64 * (nwords - 1) + tail
        rng = np.random.default_rng(seed)
        w = wp.random_digits(rng, (m, k))
        x = xp.random_digits(rng, (n, k))
        plan = select_operator(wp, xp)
        args = (
            _pack_planes(w, wp.bits), _pack_planes(x, xp.bits),
            wp.bits, m, xp.bits, n, plan.op is TCOp.AND, k,
            (plan.popc_scale, plan.k_scale, plan.wsum_scale, plan.xsum_scale),
        )
        row_cuts, col_cuts = _cuts(data, m), _cuts(data, n)
        for module in (_backend_cffi._build(), loop_nest_build):
            whole = _gemm_blocks(module, *args, [0, m], [0, n])
            blocks = _gemm_blocks(module, *args, row_cuts, col_cuts)
            assert np.array_equal(blocks, whole)
            assert np.array_equal(whole, reference_matmul(w, x, wp, xp))


@needs_cffi
class TestConvIdentity:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]),
           cin=st.sampled_from([1, 3, 8, 16, 64, 65]),
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
        # the dispatch, not only its output: the gather or an im2col
        # popcount GEMM runs exactly where the rule routes it, and
        # neither on numpy
        p, q = pair.weight.bits, pair.activation.bits
        side = hw + 2 * padding
        product = HostProduct.conv(2, cin, 5, side, side, 3, stride, p, q)
        assert got.cost.counters.compiled_kernels == _expected_compiled(product)
        assert ref.cost.counters.compiled_kernels == 0
        # the gather itself, whichever route the rule took: against the
        # fold of the same padded map
        padded = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        gathered = packed_conv_matmul(w, padded, pair.weight, pair.activation,
                                      stride=stride, backend="cffi")
        want = packed_matmul(conv_weight_matrix(w), im2col(padded, 3, stride),
                             pair.weight, pair.activation, backend="numpy")
        assert np.array_equal(gathered, want)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           encoding=st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR]),
           stride=st.sampled_from([1, 2]),
           cin=st.sampled_from([1, 3, 8]),
           hw=st.sampled_from([4, 7]))
    def test_gather_where_the_rule_folds(
        self, seed, pair, encoding, stride, cin, hw
    ):
        # few channels: the rule keeps these convs on im2col + fold
        feature = Precision(pair.activation.bits, encoding)
        product = HostProduct.conv(2, cin, 5, hw, hw, 3, stride,
                                   pair.weight.bits, feature.bits)
        assert product.cheapest(compiled_branch("cffi")) == "fold"
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (5, cin, 3, 3))
        x = feature.random_digits(rng, (2, cin, hw, hw))
        got = packed_conv_matmul(w, x, pair.weight, feature,
                                 stride=stride, backend="cffi")
        want = packed_matmul(conv_weight_matrix(w), im2col(x, 3, stride),
                             pair.weight, feature, backend="numpy")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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


class TestConvLowering:
    """Every (strategy, backend) equals a direct correlation of the decoded
    operands -- a weight flatten that disagrees with im2col's K order is
    wrong the same way on every strategy, so agreeing with each other
    cannot catch it."""

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, wbits=st.integers(1, 2), xbits=st.integers(1, 2),
           wenc=encodings, xenc=encodings,
           cin=st.integers(1, 70), kernel=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           hw=st.integers(3, 6))
    def test_apconv_matches_direct_correlation(
        self, seed, wbits, xbits, wenc, xenc, cin, kernel, stride, padding, hw
    ):
        from repro.kernels.apconv import apconv

        wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
        rng = np.random.default_rng(seed)
        w = wp.random_digits(rng, (4, cin, kernel, kernel))
        x = xp.random_digits(rng, (2, cin, hw, hw)).astype(np.uint8)
        # zero-value padding of the decoded features
        xv = np.pad(xp.decode(x), ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        wv = wp.decode(w)
        o = (hw + 2 * padding - kernel) // stride + 1
        want = np.zeros((2, 4, o, o), dtype=np.int64)
        for a in range(kernel):
            for b in range(kernel):
                tap = xv[:, :, a: a + stride * o: stride, b: b + stride * o: stride]
                want += np.einsum("oc,nchw->nohw", wv[:, :, a, b], tap)
        for strategy, backend in STRATEGY_BACKENDS:
            got = apconv(w, x, wp, xp, stride=stride, padding=padding,
                         strategy=strategy, backend=backend).output
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
