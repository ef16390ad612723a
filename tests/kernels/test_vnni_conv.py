"""The native int8 conv path (``vnni``) of ``apconv``'s packed strategy.

:func:`repro.kernels.packed_conv.vnni_conv_matmul` writes the im2col
windows of the padded channel-last map, as u8 digits, into 32-pixel
k-quad panels and multiplies s8 decoded weights against them with
AVX-512 VNNI, in int32.  The contract: byte-identical to the ``integer``
and ``bitserial`` strategies for every pair with ``p <= 7`` and
``q <= 8``, both encodings on each side, ragged ``K`` and ``N``, strides
1-4 and paddings 0-3, on one part and split across two CPUs; the host
model offers the path exactly where the int32 accumulator is exact and
the loaded build has the kernels; and a prepared weight keeps its s8
panels.
"""

import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision, backends, cores, prepared
from repro.core.packed import (
    PATH_KERNELS,
    HostProduct,
    compiled_vnni,
    fold_exactness_bound,
)
from repro.kernels import packed_conv
from repro.kernels.apconv import apconv

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR
HAS_CFFI = backends.get_backend().compiled


def _has_vnni() -> bool:
    if not HAS_CFFI:
        return False
    from repro.core import _backend_cffi

    return _backend_cffi.vnni_build()


needs_vnni = pytest.mark.skipif(
    not _has_vnni(), reason="the loaded build has no AVX-512 VNNI kernels"
)

#: Every pair the int8 path takes: s8 weights, u8 activation digits.
PAIRS = [(p, q) for p in range(1, 8) for q in range(1, 9)]


def _on_vnni():
    """Every packed conv takes the int8 path, whatever the model prices."""
    return mock.patch.object(
        HostProduct, "cheapest", lambda self, branch, vnni=False: "vnni"
    )


def _split(mode):
    """``mode`` "one part" runs every split inline; "forced" splits every
    call with two or more units across two CPUs."""
    if mode == "one part":
        return mock.patch.object(cores, "usable_cpus", lambda: 1)
    return mock.patch.multiple(cores, MIN_PART_US=0.0, usable_cpus=lambda: 2)


@needs_vnni
@pytest.mark.parametrize("p,q", PAIRS, ids=[f"w{p}a{q}" for p, q in PAIRS])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wenc=st.sampled_from([U, B]),
    xenc=st.sampled_from([U, B]),
    cout=st.integers(1, 20),
    cin=st.integers(1, 11),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 4),
    padding=st.integers(0, 3),
    batch=st.integers(1, 2),
    extra=st.integers(0, 6),
    split=st.sampled_from(["one part", "forced"]),
)
def test_byte_identical_to_the_references(
    p, q, seed, wenc, xenc, cout, cin, kernel, stride, padding, batch, extra,
    split,
):
    # K = kernel**2 * cin is rarely a multiple of 4, and N =
    # batch*OH*OW rarely of 32; bipolar activations pad with their top
    # digit and take the padding correction
    wp, xp = Precision(p, wenc), Precision(q, xenc)
    rng = np.random.default_rng(seed)
    side = kernel + extra
    w = wp.random_digits(rng, (cout, cin, kernel, kernel))
    x = xp.random_digits(rng, (batch, cin, side, side))
    kwargs = dict(stride=stride, padding=padding)
    with _on_vnni(), _split(split):
        got = apconv(w, x, wp, xp, backend="cffi", **kwargs)
    assert got.cost.counters.compiled_kernels == PATH_KERNELS["vnni"] == 2
    for strategy in ("integer", "bitserial"):
        want = apconv(w, x, wp, xp, strategy=strategy, **kwargs).output
        assert got.output.dtype == want.dtype
        assert got.output.tobytes() == want.tobytes()


class TestWhereTheRouteIsOffered:
    """The int8 path is a candidate only where it is exact: ``p <= 7``,
    ``q <= 8`` and a fold exactness bound below ``2**31``."""

    def test_the_int32_bound_is_the_last_exact_shape(self):
        # 2**31 - 1 is prime: only K = 2**31 - 1 at w1a1 reaches it
        at = HostProduct.conv(1, 2**31 - 1, 8, 1, 1, 1, 1, 1, 1)
        past = HostProduct.conv(1, 2**31, 8, 1, 1, 1, 1, 1, 1)
        assert fold_exactness_bound(at.k, 1, 1) == 2**31 - 1
        assert fold_exactness_bound(past.k, 1, 1) == 2**31
        for branch in (1, 0):
            assert at.paths(branch, True) == ("fold", "gather", "vnni")
            assert past.paths(branch, True) == ("fold", "gather")

    def test_the_widest_pair_at_its_longest_k(self):
        # w7a8: K * 127 * 255 < 2**31 up to K = 66,311
        assert fold_exactness_bound(66311, 7, 8) < 2**31 <= fold_exactness_bound(
            66312, 7, 8)
        assert HostProduct.conv(1, 66311, 8, 1, 1, 1, 1, 7, 8).int8_exact()
        assert not HostProduct.conv(1, 66312, 8, 1, 1, 1, 1, 7, 8).int8_exact()

    @pytest.mark.parametrize("p,q", [(8, 1), (8, 8), (1, 9), (7, 9)])
    def test_wider_digits_never_take_it(self, p, q):
        conv = HostProduct.conv(4, 64, 64, 30, 30, 3, 1, p, q)
        assert not conv.int8_exact()
        assert "vnni" not in conv.paths(1, True)
        with pytest.raises(ValueError, match="int8 path"):
            conv.host_us("vnni", 1)

    def test_a_gemm_never_takes_it(self):
        gemm = HostProduct(64, 64, 576, 2, 4)
        assert gemm.paths(1, True) == ("fold", "popcount")
        with pytest.raises(ValueError, match="conv window"):
            gemm.host_us("vnni", 1)

    @needs_vnni
    def test_direct_calls_past_the_bound_raise(self):
        wp, xp = Precision(8, U), Precision(4, U)
        w = np.ones((2, 3, 1, 1), dtype=np.uint8)
        x = np.ones((1, 2, 2, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="int8 path"):
            packed_conv.vnni_conv_matmul(w, x, wp, xp, backend="cffi")


@pytest.mark.skipif(not HAS_CFFI, reason="cffi kernels do not load here")
def test_a_build_without_vnni_offers_todays_candidates(monkeypatch):
    from repro.core import _backend_cffi

    monkeypatch.setattr(_backend_cffi, "vnni_build", lambda: False)
    assert not compiled_vnni("cffi")
    assert not compiled_vnni("numpy")
    priced = []
    real = HostProduct.host_us

    def counting(self, path, branch, *args):
        priced.append(path)
        return real(self, path, branch, *args)

    monkeypatch.setattr(HostProduct, "host_us", counting)
    wp, xp = Precision(2, B), Precision(4, U)
    rng = np.random.default_rng(0)
    w = wp.random_digits(rng, (64, 64, 3, 3)).astype(np.uint8)
    x = xp.random_digits(rng, (1, 64, 28, 28)).astype(np.uint8)
    res = apconv(w, x, wp, xp, padding=1, backend="cffi")
    assert sorted(priced) == ["fold", "gather"]
    want = apconv(w, x, wp, xp, padding=1, strategy="integer")
    assert res.output.tobytes() == want.output.tobytes()


@needs_vnni
class TestPreparedWeights:
    """A quantizer's frozen weight keeps its s8 panels; a caller's
    writeable array is decoded afresh on every call."""

    WP, XP = Precision(2, B), Precision(4, U)

    @pytest.fixture
    def decodes(self, monkeypatch):
        counts = collections.Counter()
        real = packed_conv._vnni_weights

        def counting(w_digits, weight):
            counts["decode"] += 1
            return real(w_digits, weight)

        monkeypatch.setattr(packed_conv, "_vnni_weights", counting)
        return counts

    def _calls(self, w):
        rng = np.random.default_rng(1)
        x = self.XP.random_digits(rng, (1, 8, 6, 6)).astype(np.uint8)
        want = apconv(w, x, self.WP, self.XP, padding=1, strategy="integer")
        with _on_vnni():
            for _ in range(3):
                got = apconv(w, x, self.WP, self.XP, padding=1, backend="cffi")
                assert got.output.tobytes() == want.output.tobytes()

    def test_a_frozen_weight_keeps_its_s8_form(self, decodes):
        rng = np.random.default_rng(0)
        w = prepared.freeze(
            self.WP.random_digits(rng, (5, 8, 3, 3)).astype(np.uint8))
        self._calls(w)
        assert decodes["decode"] == 1

    def test_a_writeable_weight_remakes_it_every_call(self, decodes):
        rng = np.random.default_rng(0)
        w = self.WP.random_digits(rng, (5, 8, 3, 3)).astype(np.uint8)
        self._calls(w)
        assert decodes["decode"] == 3

    def test_the_form_is_keyed_by_the_weight_precision(self):
        # one frozen array read as two encodings decodes to two forms
        rng = np.random.default_rng(2)
        w = prepared.freeze(
            self.WP.random_digits(rng, (5, 8, 3, 3)).astype(np.uint8))
        x = self.XP.random_digits(rng, (1, 8, 6, 6)).astype(np.uint8)
        for wp in (self.WP, Precision(2, U), self.WP):
            want = apconv(w, x, wp, self.XP, strategy="integer").output
            with _on_vnni():
                got = apconv(w, x, wp, self.XP, backend="cffi").output
            assert got.tobytes() == want.tobytes()
