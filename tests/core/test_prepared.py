"""Prepared weights (:mod:`repro.core.prepared`): weight-side work done once.

``binarize`` and ``QEMQuantizer.fit`` return read-only digits that the
table registers, and the packed strategy of ``apmm`` and ``apconv``
keeps each such weight's range, packed planes, s8 panels and conv matrix
from its first call.  The contract: the digits cannot be written; a second call
does no weight range scan, packing or matrix copy on any path and
backend; the range check still rejects what it rejected before; a
caller's own array, and an owner made writeable again, are computed
afresh; prepared outputs equal the integer reference on every path, also
when one weight is called with every input its forms depend on varied;
the reference strategies never read the table; entries die with their
owners; and threads racing the first calls agree.
"""

import collections
import gc
import importlib
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Encoding, Precision, PrecisionPair, backends, packed, prepared,
)
from repro.core.packed import HostProduct
from repro.core.quantize import QEMQuantizer, binarize
from repro.core.types import digit_dtype
from repro.kernels import apconv, apmm, packed_conv

apconv_module = importlib.import_module("repro.kernels.apconv")

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR
HAS_CFFI = backends.get_backend().compiled
HAS_VNNI = packed.compiled_vnni() if HAS_CFFI else False
needs_cffi = pytest.mark.skipif(not HAS_CFFI, reason="cffi kernels do not load here")
needs_vnni = pytest.mark.skipif(
    not HAS_VNNI, reason="the loaded build has no AVX-512 VNNI kernels")

PAIR_NAMES = ["w1a1", "w1a2", "w1a4", "w2a2", "w2a4", "w4a4", "w2a8"]
PAIRS = [PrecisionPair.parse(name) for name in PAIR_NAMES]

#: (kernel, path, backend): every path each kernel runs, on each backend
#: that has it.
CASES = [
    pytest.param("apmm", "fold", "numpy"),
    pytest.param("apmm", "fold", "cffi", marks=needs_cffi),
    pytest.param("apmm", "popcount", "cffi", marks=needs_cffi),
    pytest.param("apconv", "fold", "numpy"),
    pytest.param("apconv", "fold", "cffi", marks=needs_cffi),
    pytest.param("apconv", "gather", "cffi", marks=needs_cffi),
    pytest.param("apconv", "vnni", "cffi", marks=needs_vnni),
]


def _route(path):
    """Every packed call takes ``path``, whatever the host model prices."""
    return mock.patch.object(
        HostProduct, "cheapest", lambda self, branch, vnni=False: path)


def _weight(kernel, rng, precision, rows=6):
    """A quantizer's weight: ``(rows, 150)`` for apmm, a 3x3 conv's for
    apconv (``K = 9*70``, ragged, and 70 channels span two words)."""
    shape = (rows, 150) if kernel == "apmm" else (rows, 70, 3, 3)
    values = rng.standard_normal(shape)
    if precision.bits == 1:
        return binarize(values)
    return QEMQuantizer(precision).fit(values)


def _feature(kernel, rng, precision):
    # N = 4 GEMM rows for apmm and 9 output pixels for apconv
    shape = (4, 150) if kernel == "apmm" else (1, 70, 3, 3)
    return precision.random_digits(rng, shape).astype(digit_dtype(precision.bits))


def _run(kernel, w, x, wp, xp, **kwargs):
    if kernel == "apmm":
        return apmm(w, x, wp, xp, **kwargs).output
    return apconv(w, x, wp, xp, padding=1, **kwargs).output


def _reference(kernel, w, x, wp, xp):
    return _run(kernel, w, x, wp, xp, strategy="integer", backend="numpy")


def _served(array):
    """Whether the table keeps ``array``'s forms: a form asked for twice
    under one fresh key is made once."""
    made, key = [], object()
    for _ in range(2):
        prepared.form(array, key, lambda: made.append(1))
    return len(made) == 1


@pytest.fixture
def weight_work(monkeypatch):
    """Counts of weight-side work: range scans, packing, s8 decoding and
    matrix copies of a read-only (weight) array."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(array, *args, **kwargs):
            weight = not array.flags.writeable
            if weight:
                counts[name] += 1
            out = fn(array, *args, **kwargs)
            if weight and name == "conv_weight_matrix":
                out.flags.writeable = False  # its packing counts too
            return out
        return wrapper

    for module, name in [
        (packed, "_digit_range"),
        (packed, "_pack_planes"),
        (packed_conv, "_pack_planes"),
        (packed_conv, "_vnni_weights"),
        (apconv_module, "conv_weight_matrix"),
        (packed_conv, "conv_weight_matrix"),
    ]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


class TestQuantizedDigits:
    @pytest.mark.parametrize("quantize,shape", [
        (binarize, (5, 7)),
        (QEMQuantizer(Precision(2, B)).fit, (5, 7)),
        (QEMQuantizer(Precision(3, U)).fit, (4, 2, 3, 3)),
        (QEMQuantizer(Precision(2, B)).fit, (0, 7)),
    ])
    def test_reject_writes_and_the_writeable_flag(self, quantize, shape):
        digits = quantize(np.random.default_rng(0).standard_normal(shape)).digits
        with pytest.raises(ValueError, match="read-only"):
            digits[...] = 0
        with pytest.raises(ValueError):
            digits.flags.writeable = True
        assert _served(digits)

    def test_a_callers_own_array_is_not_prepared(self):
        digits = np.zeros((3, 4), dtype=np.uint8)
        assert not _served(digits)
        digits.flags.writeable = False
        assert not _served(digits)

    def test_only_full_views_in_the_owners_order_are_served(self):
        digits = binarize(np.random.default_rng(1).standard_normal((4, 6))).digits
        assert _served(digits.reshape(6, 4))
        assert not _served(digits[:2])
        assert not _served(digits.T)
        assert not _served(digits.view(np.int8))


class TestSecondCallDoesNoWeightWork:
    @pytest.mark.parametrize("kernel,path,backend", CASES)
    @pytest.mark.parametrize("rows", [3, 40])  # fewer and more than N
    @pytest.mark.parametrize("xenc", [U, B])
    def test_second_call(self, weight_work, kernel, path, backend, rows, xenc):
        rng = np.random.default_rng(rows)
        wp, xp = Precision(2 if rows == 3 else 1, B), Precision(2, xenc)
        qt = _weight(kernel, rng, wp, rows)
        with _route(path):
            for call in range(2):
                x = _feature(kernel, rng, xp)
                want = _reference(kernel, qt.digits, x, wp, xp)
                weight_work.clear()
                out = _run(kernel, qt.digits, x, wp, xp, backend=backend)
                assert out.tobytes() == want.tobytes()
                if call == 0:
                    assert weight_work["_digit_range"] >= 1
                    # the popcount paths pack W, the int8 path decodes
                    # it, the fold does neither
                    packs = path in ("popcount", "gather")
                    assert (weight_work["_pack_planes"] > 0) == packs
                    assert (weight_work["_vnni_weights"] > 0) == (path == "vnni")
        assert dict(weight_work) == {}

    @pytest.mark.parametrize("kernel,path,backend", CASES)
    def test_a_changed_writeable_weight_gives_the_fresh_result(
        self, kernel, path, backend
    ):
        rng = np.random.default_rng(2)
        wp, xp = Precision(2, B), Precision(2, U)
        w = np.array(_weight(kernel, rng, wp).digits)  # a writeable copy
        x = _feature(kernel, rng, xp)
        with _route(path):
            _run(kernel, w, x, wp, xp, backend=backend)
            w[...] = wp.num_levels - 1 - w
            out = _run(kernel, w, x, wp, xp, backend=backend)
        assert out.tobytes() == _reference(kernel, w, x, wp, xp).tobytes()

    @pytest.mark.parametrize("kernel,path,backend", CASES)
    def test_an_owner_made_writeable_is_no_longer_served(
        self, kernel, path, backend
    ):
        rng = np.random.default_rng(3)
        wp, xp = Precision(1, B), Precision(2, B)
        digits = _weight(kernel, rng, wp).digits
        x = _feature(kernel, rng, xp)
        with _route(path):
            _run(kernel, digits, x, wp, xp, backend=backend)
            digits.base.flags.writeable = True
            assert not _served(digits)
            digits.base[...] = 1 - digits.base
            out = _run(kernel, digits, x, wp, xp, backend=backend)
        assert out.tobytes() == _reference(kernel, digits, x, wp, xp).tobytes()


class TestTheRangeCheckStillRejects:
    """A kept range is compared with each call's precision, in the
    digits' own dtype."""

    @pytest.mark.parametrize("kernel", ["apmm", "apconv"])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_a_float_digit_below_zero(self, kernel, frozen):
        rng = np.random.default_rng(9)
        shape = (3, 150) if kernel == "apmm" else (3, 70, 3, 3)
        w = rng.integers(0, 2, shape).astype(np.float64)
        w.flat[5] = -0.5
        if frozen:
            w = prepared.freeze(w)
        xp = Precision(2, U)
        x = _feature(kernel, rng, xp)
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                _run(kernel, w, x, Precision(1, B), xp, backend="numpy")

    @pytest.mark.parametrize("kernel", ["apmm", "apconv"])
    def test_a_kept_range_against_a_narrower_precision(self, kernel):
        rng = np.random.default_rng(10)
        qt = _weight(kernel, rng, Precision(2, B))
        assert qt.digits.max() >= 2
        xp = Precision(2, U)
        x = _feature(kernel, rng, xp)
        _run(kernel, qt.digits, x, qt.precision, xp, backend="numpy")
        with pytest.raises(ValueError, match="out of range"):
            _run(kernel, qt.digits, x, Precision(1, B), xp, backend="numpy")


def test_an_entry_goes_with_its_owner():
    gc.collect()
    before = len(prepared._table)
    rng = np.random.default_rng(4)
    qt = _weight("apconv", rng, Precision(1, B))
    xp = Precision(2, B)
    x = _feature("apconv", rng, xp)
    with _route("fold"):  # keeps the matrix, prepared itself, and its forms
        _run("apconv", qt.digits, x, qt.precision, xp, backend="numpy")
    assert len(prepared._table) > before + 1
    owner = weakref.ref(qt.digits.base)
    del qt
    gc.collect()
    assert owner() is None
    assert len(prepared._table) == before


@pytest.mark.parametrize("kernel,path,backend", CASES)
def test_four_threads_racing_the_first_calls_agree(kernel, path, backend):
    rng = np.random.default_rng(5)
    wp, xp = Precision(2, B), Precision(2, B)
    qt = _weight(kernel, rng, wp, rows=24)
    x = _feature(kernel, rng, xp)
    want = _reference(kernel, qt.digits, x, wp, xp).tobytes()
    barrier = threading.Barrier(4)
    outs, errors = [None] * 4, []

    def run(i):
        try:
            barrier.wait(timeout=30)
            outs[i] = _run(kernel, qt.digits, x, wp, xp, backend=backend).tobytes()
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _route(path):
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert outs == [want] * 4


@pytest.mark.parametrize("strategy", ["integer", "bitserial"])
@pytest.mark.parametrize("kernel", ["apmm", "apconv"])
def test_the_references_never_read_the_table(monkeypatch, kernel, strategy):
    rng = np.random.default_rng(8)
    wp, xp = Precision(2, B), Precision(2, B)
    qt = _weight(kernel, rng, wp)
    x = _feature(kernel, rng, xp)

    def refuse(*args):
        raise AssertionError("a reference strategy read the prepared table")

    monkeypatch.setattr(prepared, "form", refuse)
    _run(kernel, qt.digits, x, wp, xp, strategy=strategy, backend="numpy")


#: The paths each kernel runs on this host's default backend.
APMM_PATHS = ("fold", "popcount") if HAS_CFFI else ("fold",)
APCONV_PATHS = (
    ("fold", "gather") + (("vnni",) if HAS_VNNI else ())
    if HAS_CFFI else ("fold",)
)
BACKEND = "cffi" if HAS_CFFI else "numpy"


def _prepared_digits(rng, precision, shape):
    digits = precision.random_digits(rng, shape).astype(digit_dtype(precision.bits))
    return prepared.freeze(digits)


class TestPreparedEqualsTheIntegerReference:
    """Both calls on a prepared weight -- the one that makes its forms and
    the one that reads them -- against the integer reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair=st.sampled_from(PAIRS),
        wenc=st.sampled_from([U, B]),
        xenc=st.sampled_from([U, B]),
        m=st.integers(1, 24),
        n=st.integers(1, 24),
        k=st.integers(1, 150),
        path=st.sampled_from(APMM_PATHS),
    )
    def test_apmm(self, seed, pair, wenc, xenc, m, n, k, path):
        rng = np.random.default_rng(seed)
        wp = Precision(pair.weight.bits, wenc)
        xp = Precision(pair.activation.bits, xenc)
        w = _prepared_digits(rng, wp, (m, k))
        x = xp.random_digits(rng, (n, k)).astype(digit_dtype(xp.bits))
        want = _reference("apmm", w, x, wp, xp)
        with _route(path):
            for _ in range(2):
                got = apmm(w, x, wp, xp, backend=BACKEND).output
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair=st.sampled_from(PAIRS),
        wenc=st.sampled_from([U, B]),
        xenc=st.sampled_from([U, B]),
        cout=st.integers(1, 6),
        cin=st.integers(1, 70),
        kernel=st.integers(1, 3),
        size=st.integers(0, 4),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        path=st.sampled_from(APCONV_PATHS),
    )
    def test_apconv(
        self, seed, pair, wenc, xenc, cout, cin, kernel, size, stride,
        padding, path,
    ):
        # bipolar features are Cases II and IV: padding with +1 and the
        # counter correction
        rng = np.random.default_rng(seed)
        wp = Precision(pair.weight.bits, wenc)
        xp = Precision(pair.activation.bits, xenc)
        w = _prepared_digits(rng, wp, (cout, cin, kernel, kernel))
        h = kernel + size
        x = xp.random_digits(rng, (2, cin, h, h + 1)).astype(digit_dtype(xp.bits))
        kwargs = dict(stride=stride, padding=padding)
        want = apconv(w, x, wp, xp, strategy="integer", backend="numpy", **kwargs)
        with _route(path):
            for _ in range(2):
                got = apconv(w, x, wp, xp, backend=BACKEND, **kwargs).output
                assert got.dtype == want.output.dtype
                assert got.tobytes() == want.output.tobytes()


class TestFormsAreKeyedByWhatTheyDependOn:
    """One prepared weight, called with each input its forms depend on
    varied in turn -- the precisions, so the range check and the planes'
    bits; a reshaped view; the batch, map size, stride and padding, which
    the forms must not depend on -- in a shuffled order: every output
    equals the integer reference, so no call is served a form made for
    another."""

    @pytest.mark.parametrize("path", APMM_PATHS)
    def test_apmm(self, path):
        rng = np.random.default_rng(6)
        w = _prepared_digits(rng, Precision(2, U), (40, 150))
        calls = [
            (view, wp, xp, n)
            # a reshape shares the owner's entry, not its forms
            for view in (w, w.reshape(20, 300))
            for wp in (Precision(2, U), Precision(2, B), Precision(3, B))
            for xp in (Precision(2, B), Precision(2, U), Precision(4, B))
            for n in (4, 400)
        ]
        with _route(path):
            for i in rng.permutation(len(calls)):
                view, wp, xp, n = calls[i]
                x = xp.random_digits(rng, (n, view.shape[1]))
                x = x.astype(digit_dtype(xp.bits))
                got = apmm(view, x, wp, xp, backend=BACKEND).output
                want = _reference("apmm", view, x, wp, xp)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", APCONV_PATHS)
    def test_apconv(self, path):
        rng = np.random.default_rng(7)
        w = _prepared_digits(rng, Precision(2, B), (5, 70, 3, 3))
        calls = [
            (wp, xp, batch, size, stride, padding)
            for wp in (Precision(2, B), Precision(3, U))
            for xp in (Precision(2, B), Precision(4, B), Precision(2, U))
            for batch, size in ((1, 5), (2, 18))
            for stride, padding in ((1, 1), (2, 1), (1, 2))
        ]
        with _route(path):
            for i in rng.permutation(len(calls)):
                wp, xp, batch, size, stride, padding = calls[i]
                x = xp.random_digits(rng, (batch, 70, size, size + 1))
                x = x.astype(digit_dtype(xp.bits))
                kwargs = dict(stride=stride, padding=padding)
                want = apconv(w, x, wp, xp, strategy="integer", backend="numpy",
                              **kwargs).output
                got = apconv(w, x, wp, xp, backend=BACKEND, **kwargs).output
                assert got.tobytes() == want.tobytes()
