"""Equivalence suite for the vectorized packed-word backend.

The packed path must be byte-identical to every other way this repo
computes the AP-Bit product:

* the plane-wise reference (:func:`repro.core.emulate.apbit_matmul`),
* the decoded-integer reference (:func:`repro.core.emulate.reference_matmul`),
* the tile-level oracle (:func:`repro.kernels.apmm_sim.apmm_tile_simulate`),

across ``wXaY`` pairs, signed (bipolar) / unsigned quantizer encodings,
and ragged (non-multiple-of-64) reduction lengths — and exact in every
accumulator the fold's bound selects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Encoding,
    Precision,
    apbit_matmul,
    backends,
    fold_exactness_bound,
    packed,
    packed_matmul,
    reference_matmul,
    select_operator,
)
from repro.core.emulate import INT32_MAX
from repro.core.packed import matmul_path

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR

ENCODINGS = st.sampled_from([U, B])


def _operands(seed, m, n, k, wp, xp):
    rng = np.random.default_rng(seed)
    return wp.random_digits(rng, (m, k)), xp.random_digits(rng, (n, k))


class TestHypothesisEquivalence:
    """The packed path vs the plane-wise references."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 24),
        n=st.integers(1, 24),
        # deliberately crosses the 64-bit word boundary: ragged K on both
        # sides of one and two packed words
        k=st.integers(1, 150),
        wbits=st.integers(1, 4),
        xbits=st.integers(1, 4),
        wenc=ENCODINGS,
        xenc=ENCODINGS,
    )
    def test_matches_planewise_and_integer_references(
        self, seed, m, n, k, wbits, xbits, wenc, xenc
    ):
        wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
        W, X = _operands(seed, m, n, k, wp, xp)
        ref = apbit_matmul(W, X, wp, xp)
        out = packed_matmul(W, X, wp, xp)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert np.array_equal(out, reference_matmul(W, X, wp, xp))

    @pytest.mark.slow
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 20),
        n=st.integers(1, 20),
        k=st.integers(1, 140),
        wbits=st.integers(1, 3),
        xbits=st.integers(1, 3),
        wenc=ENCODINGS,
        xenc=ENCODINGS,
    )
    def test_matches_tile_simulation_oracle(
        self, seed, m, n, k, wbits, xbits, wenc, xenc
    ):
        from repro.kernels import TileConfig, apmm_tile_simulate

        wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
        W, X = _operands(seed, m, n, k, wp, xp)
        oracle, _ = apmm_tile_simulate(W, X, wp, xp, TileConfig(16, 16))
        assert np.array_equal(packed_matmul(W, X, wp, xp), oracle)


class TestTileOracleCases:
    """Deterministic oracle pins (every encoding case, padding, ragged K)."""

    CASES = [
        (16, 16, 128, Precision(1, B), Precision(2, U)),
        (16, 16, 128, Precision(1, B), Precision(1, B)),
        (16, 16, 128, Precision(2, U), Precision(2, U)),
        (16, 16, 128, Precision(2, U), Precision(1, B)),
        (24, 20, 96, Precision(1, B), Precision(2, U)),
        (8, 8, 130, Precision(1, B), Precision(2, U)),
    ]

    @pytest.mark.parametrize("m,n,k,wp,xp", CASES)
    def test_byte_identical_to_oracle(self, m, n, k, wp, xp):
        from repro.kernels import TileConfig, apmm_tile_simulate

        W, X = _operands(42, m, n, k, wp, xp)
        oracle, _ = apmm_tile_simulate(W, X, wp, xp, TileConfig(16, 16))
        out = packed_matmul(W, X, wp, xp)
        assert out.dtype == oracle.dtype
        assert np.array_equal(out, oracle)


class TestValidationAndEngines:
    def test_non_2d_rejected(self):
        W = np.zeros((2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="2-D"):
            packed_matmul(W, W, Precision(1), Precision(1))

    def test_k_mismatch(self):
        with pytest.raises(ValueError, match="reduction mismatch"):
            packed_matmul(
                np.zeros((4, 8), dtype=np.int64),
                np.zeros((4, 9), dtype=np.int64),
                Precision(1),
                Precision(1),
            )

    def test_digit_range_validated(self):
        W = np.full((2, 4), 2, dtype=np.int64)  # needs 2 bits
        X = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            packed_matmul(W, X, Precision(1), Precision(1))

    def test_overflow_checked_like_reference(self):
        # K * 255 * 255 > int32: both paths must refuse identically
        wp, xp = Precision(8, U), Precision(8, U)
        W = np.full((1, 40000), 255, dtype=np.int64)
        X = np.full((1, 40000), 255, dtype=np.int64)
        with pytest.raises(OverflowError):
            apbit_matmul(W, X, wp, xp)
        with pytest.raises(OverflowError):
            packed_matmul(W, X, wp, xp)
        out = packed_matmul(W, X, wp, xp, check_overflow=False)
        assert np.array_equal(out, reference_matmul(W, X, wp, xp))

    @pytest.mark.parametrize("bits,exponent", [(8, 24), (16, 53), (16, 63)])
    def test_accumulator_exact_past_each_threshold(self, bits, exponent):
        # The first K whose bound reaches 2**exponent, with every digit at
        # its maximum: the true sum is that bound, odd and past the
        # threshold, so an accumulator that is one step too narrow rounds
        # it.  At 2**24 float32 would, at 2**53 float64 would (the exact
        # 9_007_203_543_285_825 comes back as ...824); at 2**63 nothing
        # holds it and the call must refuse.
        prec = Precision(bits, U)
        top = prec.num_levels - 1
        k = (1 << exponent) // top**2 + 1
        bound = fold_exactness_bound(k, bits, bits)
        assert fold_exactness_bound(k - 1, bits, bits) < 1 << exponent <= bound
        if exponent == 63:
            # a zero-stride view: K > 2**31 columns without allocating them
            W = np.broadcast_to(np.int64(top), (1, k))
            with pytest.raises(ValueError, match=r"2\*\*63"):
                packed_matmul(W, W, prec, prec, check_overflow=False)
            return
        W = np.full((1, k), top, dtype=np.int64)
        out = packed_matmul(W, W, prec, prec, check_overflow=False)
        assert out[0, 0] == bound and bound % 2 == 1
        assert np.array_equal(out, reference_matmul(W, W, prec, prec))

    def test_fold_uses_float64_above_float32_bound(self):
        # K * (2^p - 1)(2^q - 1) >= 2^24 forces the float64 path; results
        # must stay exact there too
        wp, xp = Precision(8, B), Precision(8, U)
        W, X = _operands(3, 4, 4, 300, wp, xp)
        assert fold_exactness_bound(300, 8, 8) >= 1 << 24
        assert np.array_equal(
            packed_matmul(W, X, wp, xp),
            apbit_matmul(W, X, wp, xp),
        )

    def test_plan_selection_matches_opselect(self):
        # the packed path must honor the same operator plan the reference
        # uses (regression guard for the folded correction algebra)
        for wenc in (U, B):
            for xenc in (U, B):
                wp, xp = Precision(2, wenc), Precision(2, xenc)
                plan = select_operator(wp, xp)
                W, X = _operands(6, 9, 11, 70, wp, xp)
                assert np.array_equal(
                    packed_matmul(W, X, wp, xp),
                    apbit_matmul(W, X, wp, xp),
                ), plan.case


def _max_row_operands(seed, m, n, k, wp, xp):
    """Random digits with row 0 of each operand at the max digit, so
    ``Y[0, 0]`` reaches :func:`fold_exactness_bound` in every encoding."""
    W, X = _operands(seed, m, n, k, wp, xp)
    W[0] = wp.num_levels - 1
    X[0] = xp.num_levels - 1
    return W, X


class TestDecodeRule:
    """Both sides of the fold's decode rule: a bipolar operand decodes in
    its cast when K <= the other operand's row count, and otherwise its
    map applies to the int64 output."""

    CASES = [(U, U), (B, U), (U, B), (B, B)]

    def _check(self, W, X, wp, xp):
        w0, x0 = W.copy(), X.copy()
        out = packed_matmul(W, X, wp, xp, backend="numpy")
        # the decode runs on a fresh copy, never the caller's digits
        assert np.array_equal(W, w0) and np.array_equal(X, x0)
        assert out.dtype == np.int64
        assert np.array_equal(out, reference_matmul(W, X, wp, xp))
        assert np.array_equal(out, apbit_matmul(W, X, wp, xp))
        return out

    @pytest.mark.parametrize("wenc,xenc", CASES)
    @pytest.mark.parametrize("w_cast", [True, False], ids=["K<=N", "K>N"])
    @pytest.mark.parametrize("x_cast", [True, False], ids=["K<=M", "K>M"])
    @pytest.mark.parametrize("acc", [np.float32, np.float64, np.int64])
    def test_each_side_in_each_accumulator(
        self, monkeypatch, wenc, xenc, w_cast, x_cast, acc
    ):
        # The accumulators' own thresholds pick int64 only past K ~ 2.1M
        # (16-bit digits), where K <= rows cannot be allocated: keep one
        # accumulator, with its limit, so each runs at a small K.
        limit = dict(packed._FOLD_ACCUMULATORS)[acc]
        monkeypatch.setattr(packed, "_FOLD_ACCUMULATORS", ((acc, limit),))
        wp, xp = Precision(4, wenc), Precision(4, xenc)
        k = 40
        m, n = (k if x_cast else k - 1), (k if w_cast else k - 1)
        W, X = _max_row_operands(11, m, n, k, wp, xp)
        out = self._check(W, X, wp, xp)
        assert out[0, 0] == fold_exactness_bound(k, 4, 4)

    @pytest.mark.parametrize("wenc,xenc", CASES)
    @pytest.mark.parametrize("m,n", [(259, 1), (1, 259), (1, 1)])
    def test_past_the_float32_threshold(self, wenc, xenc, m, n):
        # test_accumulator_exact_past_each_threshold's first K past 2**24
        # at 8 bits: the float64 accumulator, each operand's cast side
        wp, xp = Precision(8, wenc), Precision(8, xenc)
        k = (1 << 24) // 255**2 + 1
        assert fold_exactness_bound(k - 1, 8, 8) < 1 << 24
        W, X = _max_row_operands(12, m, n, k, wp, xp)
        out = self._check(W, X, wp, xp)
        assert out[0, 0] == fold_exactness_bound(k, 8, 8)

    @pytest.mark.parametrize("wenc,xenc", CASES)
    @pytest.mark.parametrize(
        "m,n,k",
        # fc-like: K > N keeps W's digits, K <= M decodes X in its cast;
        # conv-like: the other way round
        [(4096, 8, 576), (64, 12544, 147)],
        ids=["fc", "conv"],
    )
    def test_network_shapes(self, wenc, xenc, m, n, k):
        W, X = _operands(13, m, n, k, Precision(1, wenc), Precision(2, xenc))
        self._check(W, X, Precision(1, wenc), Precision(2, xenc))


class TestInt32CheckFromShapes:
    """The int32-accumulator scan runs only where fold_exactness_bound
    exceeds 2**31 - 1: below it no output can leave int32."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = packed.check_int32_accumulator

        def spy(acc):
            calls.append(acc.shape)
            real(acc)

        monkeypatch.setattr(packed, "check_int32_accumulator", spy)
        return calls

    @pytest.mark.parametrize("path", ["fold", "popcount", "gather", "vnni"])
    def test_skipped_below_the_bound(self, scans, path):
        wp, xp = Precision(1, B), Precision(2, U)
        W, X = _operands(5, 4, 3, 576, wp, xp)
        if path == "fold":
            out = packed_matmul(W, X, wp, xp, backend="numpy")
        elif not backends.get_backend().compiled:
            pytest.skip("cffi kernels do not load here")
        elif path == "popcount":
            out = matmul_path("popcount", W, X, wp, xp, backend="cffi")
        else:
            from repro.kernels import packed_conv

            if path == "vnni" and not packed.compiled_vnni("cffi"):
                pytest.skip("the loaded build has no AVX-512 VNNI kernels")
            conv = {"gather": packed_conv.packed_conv_matmul,
                    "vnni": packed_conv.vnni_conv_matmul}[path]
            # one 3x3 window per image: the conv is the GEMM of W and X
            out = conv(W.reshape(4, 3, 3, 64).transpose(0, 3, 1, 2),
                       X.reshape(3, 3, 3, 64), wp, xp, backend="cffi")
        assert scans == []
        assert np.array_equal(out, reference_matmul(W, X, wp, xp))

    def test_runs_from_the_first_k_past_int32(self, scans):
        wp = xp = Precision(8, U)
        k = INT32_MAX // 255**2 + 1
        assert fold_exactness_bound(k - 1, 8, 8) <= INT32_MAX
        W, X = _operands(6, 2, 2, k, wp, xp)
        packed_matmul(W[:, :-1], X[:, :-1], wp, xp, backend="numpy")
        assert scans == []
        packed_matmul(W, X, wp, xp, backend="numpy")
        assert scans == [(2, 2)]


class TestDigitRangeEveryPath:
    """Out-of-range digits raise on the fold, the popcount GEMM, the
    gather and the int8 conv alike: the packer's and the int8 path's
    narrowing must never see them."""

    WP, XP = Precision(1, B), Precision(2, U)

    @staticmethod
    def _run(path, w, x, wp, xp):
        from repro.kernels import packed_conv

        if path != "fold" and not backends.get_backend().compiled:
            pytest.skip("cffi kernels do not load here")
        if path == "vnni" and not packed.compiled_vnni("cffi"):
            pytest.skip("the loaded build has no AVX-512 VNNI kernels")
        if path in ("gather", "vnni"):
            conv = {"gather": packed_conv.packed_conv_matmul,
                    "vnni": packed_conv.vnni_conv_matmul}[path]
            return conv(w.reshape(4, 3, 3, 64).transpose(0, 3, 1, 2),
                        x.reshape(1, 3, 3, 64), wp, xp, backend="cffi")
        backend = "numpy" if path == "fold" else "cffi"
        return matmul_path(path, w, x, wp, xp, backend=backend)

    @pytest.mark.parametrize("path", ["fold", "popcount", "gather", "vnni"])
    @pytest.mark.parametrize("side", ["weight", "feature"])
    @pytest.mark.parametrize(
        "dtype,bad",
        [(np.int64, "negative"), (np.uint8, "2**bits"),
         (np.uint16, "2**bits"), (np.uint16, "256")],
    )
    def test_out_of_range_raises(self, path, side, dtype, bad):
        w = np.ones((4, 576), dtype=dtype)
        x = np.ones((1, 576), dtype=dtype)
        operand, prec = (w, self.WP) if side == "weight" else (x, self.XP)
        # 256 narrows to the in-range digit 0
        operand[0, 5] = {"negative": -1, "2**bits": prec.num_levels,
                         "256": 256}[bad]
        with pytest.raises(ValueError, match="out of range"):
            self._run(path, w, x, self.WP, self.XP)
