"""The per-CPU split (:mod:`repro.core.cores`) and the BLAS hold.

The contract: :func:`cores.split` runs ``fn(lo, hi)`` over contiguous
parts covering ``range(n)``, the first on the calling thread; it runs
as one part when one CPU is usable, inside a part, below the work
threshold, or without the BLAS control; BLAS's thread count after any
hold equals the count before; a forked child gets a working pool; the
first lookup pins glibc's mmap and trim thresholds, so freed pages are
reused; and importing, planning and serving start no pool thread, load
no BLAS handle and set no threshold.  Every split site -- the fold, the popcount GEMM, the packer,
the padded channel-last layout pass, ``im2col``, the conv gather, the
int8 conv's panel writer and GEMM, and the four epilogue ops -- gives
the same bytes split as serially, and as the serial code it replaced.
"""

import ctypes
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision, PrecisionPair, backends, cores, packed
from repro.core.emulate import reference_matmul
from repro.core.packed import _pack_planes, matmul_path
from repro.core.quantize import AffineQuantizer
from repro.kernels.apconv import apconv
from repro.kernels.fusion import BatchNormOp, QuantizeOp, ReLUOp
from repro.kernels.layout import im2col, pad_channel_last
from repro.kernels.packed_conv import packed_conv_matmul, vnni_conv_matmul
from repro.nn.layers import MaxPool2d

HAS_CFFI = backends.get_backend().compiled
#: Far above any threshold: every call with two or more units splits.
BIG_US = 1e9


@pytest.fixture
def blas():
    """The ``(get, set)`` BLAS control; the count is restored afterwards."""
    control = cores._blas_control()
    assert control is not None, "numpy's OpenBLAS exports its thread control"
    get, set_ = control
    before = get()
    yield control
    set_(before)


@pytest.fixture
def two_cpus(monkeypatch):
    """At least two usable CPUs, as the pool sees them."""
    monkeypatch.setattr(cores, "usable_cpus", lambda: 2)


def _record_parts():
    """A part function that records ``(thread, lo, hi)`` per call."""
    calls = []
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            calls.append((threading.get_ident(), lo, hi))

    return calls, fn


class TestSplit:
    def test_parts_cover_the_range_first_on_the_caller(self, two_cpus):
        calls, fn = _record_parts()
        cores.split(11, fn, BIG_US)
        assert sorted((lo, hi) for _, lo, hi in calls) == [(0, 5), (5, 11)]
        thread = {(lo, hi): ident for ident, lo, hi in calls}
        assert thread[(0, 5)] == threading.get_ident()
        assert thread[(5, 11)] != threading.get_ident()

    def test_one_usable_cpu_runs_one_part_inline(self, monkeypatch):
        monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
        calls, fn = _record_parts()
        cores.split(11, fn, BIG_US)
        assert calls == [(threading.get_ident(), 0, 11)]

    def test_a_split_inside_a_part_runs_inline(self, two_cpus):
        inner = []

        def outer(lo, hi):
            calls, fn = _record_parts()
            cores.split(8, fn, BIG_US)
            inner.append((threading.get_ident(), calls))

        cores.split(2, outer, BIG_US)
        assert len(inner) == 2
        for ident, calls in inner:
            assert calls == [(ident, 0, 8)]

    def test_little_work_runs_inline(self, two_cpus):
        calls, fn = _record_parts()
        cores.split(11, fn, 2 * cores.MIN_PART_US - 1)
        assert calls == [(threading.get_ident(), 0, 11)]
        calls.clear()
        cores.split(11, fn, 2 * cores.MIN_PART_US)
        assert len(calls) == 2

    def test_hidden_control_runs_inline_and_submits_nothing(
        self, monkeypatch, two_cpus
    ):
        monkeypatch.setattr(cores, "_BLAS_SYMBOLS", ("no_get_", "no_set_"))
        monkeypatch.setattr(cores, "_blas_looked_up", False)
        monkeypatch.setattr(cores, "_blas", None)
        monkeypatch.setattr(cores, "_pool", None)
        calls, fn = _record_parts()
        cores.split(11, fn, BIG_US)
        assert calls == [(threading.get_ident(), 0, 11)]
        assert cores._blas_looked_up and cores._blas is None  # not found
        assert cores._pool is None  # no pool made, nothing submitted

    def test_first_exception_is_raised_after_every_part_finished(
        self, two_cpus
    ):
        finished = []

        def fn(lo, hi):
            if lo == 0:
                raise KeyError("first part")
            time.sleep(0.05)
            finished.append(lo)
            raise ValueError("second part")

        with pytest.raises(KeyError, match="first part"):
            cores.split(2, fn, BIG_US)
        assert finished == [1]
        # the pool survives a raising part
        calls, record = _record_parts()
        cores.split(2, record, BIG_US)
        assert len(calls) == 2

    def test_a_part_raising_on_the_pool_reaches_the_caller(self, two_cpus):
        def fn(lo, hi):
            if lo:
                raise ValueError("pool part")

        with pytest.raises(ValueError, match="pool part"):
            cores.split(2, fn, BIG_US)


class TestBlasHold:
    def test_a_split_holds_one_thread_and_restores_the_count(
        self, blas, two_cpus
    ):
        get, set_ = blas
        set_(2)
        seen = []
        cores.split(2, lambda lo, hi: seen.append(get()), BIG_US)
        assert seen == [1, 1]
        assert get() == 2

    def test_nested_holds_restore_the_outermost_count(self, blas):
        get, set_ = blas
        set_(3)
        with cores.hold_blas():
            assert get() == 1
            with cores.hold_blas():
                assert get() == 1
            assert get() == 1
        assert get() == 3

    def test_a_raising_part_restores_the_count(self, blas, two_cpus):
        get, set_ = blas
        set_(2)

        def fn(lo, hi):
            raise RuntimeError(f"part {lo}")

        with pytest.raises(RuntimeError, match="part 0"):
            cores.split(2, fn, BIG_US)
        assert get() == 2
        assert cores._holds == 0

    def test_concurrent_holds_and_splits_keep_the_count(self, blas, two_cpus):
        # more threads than cores, switching often: a lost update to the
        # hold count would leave BLAS at one thread or unheld mid-split
        get, set_ = blas
        set_(2)
        errors = []

        def work():
            try:
                for _ in range(50):
                    with cores.hold_blas():
                        if get() != 1:
                            errors.append("unheld inside a hold")
                    cores.split(4, lambda lo, hi: None, BIG_US)
            except Exception as exc:  # reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cores._holds == 0
        assert get() == 2


@contextmanager
def forced_split():
    """Every split forced (no work threshold, two CPUs); yields the part
    counts of the splits that ran."""
    counts = []
    real = cores._parts

    def parts(n, us):
        count = real(n, us)
        counts.append(count)
        return count

    with mock.patch.object(cores, "MIN_PART_US", 0.0), \
            mock.patch.object(cores, "usable_cpus", lambda: 2), \
            mock.patch.object(cores, "_parts", parts):
        yield counts


def _serially(fn, *args, **kwargs):
    with mock.patch.object(cores, "usable_cpus", lambda: 1):
        return fn(*args, **kwargs)


def _same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


seeds = st.integers(0, 2**32 - 1)
encodings = st.sampled_from([Encoding.UNSIGNED, Encoding.BIPOLAR])


class TestSplitSitesAreByteIdentical:
    """Each split site against its serial run and the code it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, m=st.integers(1, 40), n=st.integers(1, 40),
           k=st.integers(1, 150), wbits=st.integers(1, 3),
           xbits=st.integers(1, 3), wenc=encodings, xenc=encodings)
    def test_fold(self, seed, m, n, k, wbits, xbits,
                  wenc, xenc):
        # m > n splits W's rows, m <= n X's; bipolar operands exercise the
        # decode-in-cast and both row-sum corrections
        wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
        rng = np.random.default_rng(seed)
        w = wp.random_digits(rng, (m, k)).astype(np.uint8)
        x = xp.random_digits(rng, (n, k)).astype(np.uint8)
        with forced_split() as spy:
            got = matmul_path("fold", w, x, wp, xp)
        assert spy == [min(2, max(m, n))]
        _same(got, _serially(matmul_path, "fold", w, x, wp, xp))
        _same(got, reference_matmul(w, x, wp, xp))

    @pytest.mark.skipif(not HAS_CFFI, reason="cffi kernels do not load here")
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, m=st.integers(1, 70), n=st.integers(1, 70),
           k=st.sampled_from([17, 64, 130]),
           pair=st.sampled_from(["w1a1", "w1a2", "w2a4"]),
           wenc=encodings, xenc=encodings)
    def test_popcount_gemm(self, seed, m, n, k, pair,
                           wenc, xenc):
        # tall operands split rows in 4-row tiles, wide ones columns in
        # 16-column tiles
        bits = PrecisionPair.parse(pair)
        wp = Precision(bits.weight.bits, wenc)
        xp = Precision(bits.activation.bits, xenc)
        rng = np.random.default_rng(seed)
        w = wp.random_digits(rng, (m, k)).astype(np.uint8)
        x = xp.random_digits(rng, (n, k)).astype(np.uint8)
        with forced_split() as spy:
            got = matmul_path("popcount", w, x, wp, xp, backend="cffi")
        assert max(spy) == (2 if max(-(-m // 4), -(-n // 16)) > 1 else 1)
        want = _serially(matmul_path, "popcount", w, x, wp, xp,
                         backend="cffi")
        _same(got, want)
        _same(got, reference_matmul(w, x, wp, xp))

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, rows=st.integers(2, 60), k=st.integers(1, 200),
           bits=st.integers(1, 8))
    def test_packer(self, seed, rows, k, bits):
        # 64-digit blocks: many blocks to spread over the parts
        digits = np.random.default_rng(seed).integers(
            0, 1 << bits, (rows, k), dtype=np.uint8)
        with mock.patch.object(packed, "_PACK_BLOCK", 64):
            with forced_split() as spy:
                got = _pack_planes(digits, bits)
            want = _serially(_pack_planes, digits, bits)
        assert spy == [2 if rows > max(1, 64 // k) else 1]
        _same(got, want)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, batch=st.integers(2, 5), c=st.integers(1, 9),
           hw=st.integers(3, 9), kernel=st.integers(1, 3),
           stride=st.integers(1, 3))
    def test_im2col(self, seed, batch, c, hw, kernel,
                    stride):
        x = np.random.default_rng(seed).integers(
            0, 16, (batch, hw, hw, c), dtype=np.uint8)
        with forced_split() as spy:
            got = im2col(x, kernel, stride)
        assert spy == [2]
        _same(got, _serially(im2col, x, kernel, stride))
        # the unsplit lowering it replaced
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (kernel, kernel), axis=(1, 2)
        )[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
        _same(got, np.ascontiguousarray(windows).reshape(got.shape))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, batch=st.integers(2, 4), c=st.integers(1, 5),
           hw=st.integers(1, 6), padding=st.integers(0, 3),
           pad_digit=st.sampled_from([0, 1, 255, 256, 65535]),
           dtype=st.sampled_from([np.uint8, np.uint16, np.int64, np.float32]))
    def test_pad_channel_last(self, seed, batch, c, hw, padding, pad_digit,
                              dtype):
        x = np.random.default_rng(seed).integers(
            0, 200, (batch, c, hw, hw)).astype(dtype)
        with forced_split() as spy:
            got = pad_channel_last(x, padding, pad_digit)
        assert spy == [2]
        _same(got, _serially(pad_channel_last, x, padding, pad_digit))
        # np.pad and a channel-last copy, the two passes it replaced, on
        # digits widened to hold the constant
        wide = x.astype(np.promote_types(x.dtype, np.min_scalar_type(pad_digit)))
        framed = np.pad(wide, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2),
                        constant_values=pad_digit)
        _same(got, np.ascontiguousarray(framed.transpose(0, 2, 3, 1)))

    @pytest.mark.skipif(not HAS_CFFI, reason="cffi kernels do not load here")
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, batch=st.integers(2, 4), cin=st.sampled_from([3, 64, 65]),
           stride=st.sampled_from([1, 2]), pair=st.sampled_from(["w1a2", "w2a4"]))
    def test_conv_gather(self, seed, batch, cin, stride, pair):
        bits = PrecisionPair.parse(pair)
        rng = np.random.default_rng(seed)
        w = bits.weight.random_digits(rng, (6, cin, 3, 3)).astype(np.uint8)
        x = bits.activation.random_digits(rng, (batch, 7, 7, cin)).astype(np.uint8)
        args = (w, x, bits.weight, bits.activation)
        with forced_split() as spy:
            got = packed_conv_matmul(*args, stride=stride, backend="cffi")
        assert 2 in spy
        want = _serially(packed_conv_matmul, *args, stride=stride,
                         backend="cffi")
        _same(got, want)
        _same(got, matmul_path("fold", w.transpose(0, 2, 3, 1).reshape(6, -1),
                               im2col(x, 3, stride), bits.weight, bits.activation))

    @pytest.mark.skipif(not (HAS_CFFI and packed.compiled_vnni()),
                        reason="the loaded build has no AVX-512 VNNI kernels")
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, batch=st.integers(2, 4), cout=st.integers(1, 70),
           cin=st.sampled_from([3, 16, 64, 65]), stride=st.sampled_from([1, 2]),
           pair=st.sampled_from(["w1a2", "w2a4", "w2a8"]))
    def test_vnni_conv(self, seed, batch, cout, cin, stride, pair):
        # the panel writer splits by 32-pixel panel, the GEMM along its
        # longer axis in whole 8x32 tiles; an 11x11 map has at least 25
        # windows per image, so two images fill at least two panels
        bits = PrecisionPair.parse(pair)
        rng = np.random.default_rng(seed)
        w = bits.weight.random_digits(rng, (cout, cin, 3, 3)).astype(np.uint8)
        x = bits.activation.random_digits(rng, (batch, 11, 11, cin)).astype(np.uint8)
        args = (w, x, bits.weight, bits.activation)
        with forced_split() as spy:
            got = vnni_conv_matmul(*args, stride=stride, backend="cffi")
        assert 2 in spy
        want = _serially(vnni_conv_matmul, *args, stride=stride, backend="cffi")
        _same(got, want)
        _same(got, matmul_path("fold", w.transpose(0, 2, 3, 1).reshape(cout, -1),
                               im2col(x, 3, stride), bits.weight, bits.activation))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, bits=st.integers(1, 9),
           zero_point=st.sampled_from([0.0, -0.25, 0.5]),
           dtype=st.sampled_from([np.float32, np.float64]),
           shape=st.sampled_from([(2, 3, 4, 5), (5, 7), (3,), ()]),
           transposed=st.booleans())
    def test_quantizer(self, seed, bits, zero_point, dtype,
                       shape, transposed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(shape) * 4).astype(dtype)
        if x.size:
            x.flat[0] = -0.0
            x.flat[-1] = np.inf
        if transposed and x.ndim == 4:
            x = x.transpose(1, 0, 2, 3)  # a GEMM output's layout
        q = AffineQuantizer(bits, 0.37, zero_point)
        with forced_split() as spy:
            got = QuantizeOp(q).apply(x)
        assert spy == [min(2, len(x) if x.ndim else 1)]
        _same(got, _serially(q.quantize, x))
        # the chain it replaced: four temporaries and np.clip
        digits = np.floor((np.asarray(x, dtype=np.float64) - zero_point) / 0.37)
        want = np.clip(digits, 0, (1 << bits) - 1).astype(got.dtype)
        _same(got, want)
        assert got.strides == np.empty_like(x, dtype=got.dtype).strides

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, shape=st.sampled_from([(3, 4, 5, 6), (4, 9)]),
           dtype=st.sampled_from([np.float32, np.float64]),
           transposed=st.booleans())
    def test_batch_norm(self, seed, shape, dtype, transposed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(dtype)
        if transposed:
            x = x.swapaxes(0, 1).copy().swapaxes(0, 1)
        c = shape[1]
        op = BatchNormOp(rng.standard_normal(c), rng.standard_normal(c))
        with forced_split() as spy:
            got = op.apply(x)
        assert spy == [2]
        _same(got, _serially(op.apply, x))
        tail = (None, slice(None)) + (None,) * (x.ndim - 2)
        _same(got, x * op.scale[tail] + op.shift[tail])

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, shape=st.sampled_from([(3, 4, 5, 6), (4, 9)]),
           dtype=st.sampled_from([np.float64, np.uint8, np.int64]))
    def test_relu(self, seed, shape, dtype):
        x = np.random.default_rng(seed).integers(-99, 99, shape).astype(dtype)
        with forced_split() as spy:
            got = ReLUOp().apply(x)
        assert spy == [2]
        _same(got, _serially(ReLUOp().apply, x))
        _same(got, np.maximum(x, 0))

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, batch=st.integers(2, 5), hw=st.integers(3, 12),
           kernel=st.integers(1, 3), stride=st.integers(1, 3),
           dtype=st.sampled_from([np.float64, np.uint8]))
    def test_max_pool(self, seed, batch, hw, kernel, stride,
                      dtype):
        x = np.random.default_rng(seed).integers(
            0, 255, (batch, 3, hw, hw)).astype(dtype)
        pool = MaxPool2d(kernel, stride)
        with forced_split() as spy:
            got = pool.forward(x)
        assert spy == [2]
        _same(got, _serially(pool.forward, x))
        _same(got, pool._windows(x).max(axis=(-2, -1)))


def _conv_case():
    pair = PrecisionPair.parse("w2a4")
    rng = np.random.default_rng(7)
    w = pair.weight.random_digits(rng, (16, 32, 3, 3)).astype(np.uint8)
    x = pair.activation.random_digits(rng, (4, 32, 12, 12)).astype(np.uint8)
    return w, x, pair.weight, pair.activation


def _conv_in_child(conn):
    try:
        out = apconv(*_conv_case(), padding=1).output
        conn.send(out.tobytes())
    finally:
        conn.close()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads
def test_a_forked_child_splits_on_a_fresh_pool(monkeypatch):
    monkeypatch.setattr(cores, "MIN_PART_US", 0.0)
    monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
    cores.split(2, lambda lo, hi: None, BIG_US)  # the parent's pool exists
    assert cores._pool is not None
    want = _serially(lambda: apconv(*_conv_case(), padding=1).output)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_conv_in_child, args=(child,))
    proc.start()
    child.close()
    try:
        # a child left with the parent's pool would wait on threads it
        # does not have
        assert parent.poll(60), "the forked child hung"
        got = parent.recv()
    finally:
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=30)
    assert not proc.is_alive()
    assert proc.exitcode == 0
    assert got == want.tobytes()


@pytest.fixture
def first_lookup(monkeypatch):
    """The one-time lookup not made yet, and ``mallopt`` in
    ``ctypes.CDLL(None)`` replaced by a recorder: ``(calls, hide)``,
    where ``hide()`` takes the symbol away."""
    monkeypatch.setattr(cores, "_blas_looked_up", False)
    monkeypatch.setattr(cores, "_blas", None)
    calls, hidden = [], []
    real_cdll = ctypes.CDLL

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    class Process:
        def __getattr__(self, name):
            if name == "mallopt":
                if hidden:
                    raise AttributeError(name)
                return mallopt
            return getattr(real_cdll(None), name)

    monkeypatch.setattr(
        ctypes, "CDLL",
        lambda name, *a, **k: Process() if name is None else real_cdll(name, *a, **k),
    )
    return calls, lambda: hidden.append(True)


class TestKeptPages:
    def test_the_first_lookup_pins_both_thresholds_once(self, first_lookup):
        calls, _ = first_lookup
        assert cores._blas_control() is not None
        with cores.hold_blas():
            cores.split(2, lambda lo, hi: None, BIG_US)
        # M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at 256 MiB
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_a_missing_mallopt_sets_nothing(self, first_lookup):
        calls, hide = first_lookup
        hide()
        assert cores._blas_control() is not None
        assert calls == []


#: One split (the first lookup), then two rounds of allocating, touching
#: and freeing four 20 MiB arrays; prints the second round's minor faults.
_PAGES_SCRIPT = """
import resource
import numpy as np
from repro.core import cores

def round_trip():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(20 << 20, dtype=np.uint8) for _ in range(4)]
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

cores.split(2, lambda lo, hi: None, 0.0)
round_trip()
print(round_trip())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_after_the_first_split_freed_pages_are_reused(tmp_path):
    """Left dynamic, glibc maps and unmaps each 20 MiB array: about 2,000
    minor faults every round on a 2-vCPU x86-64 VM."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src),
               REPRO_CFFI_CACHE=str(tmp_path / "cffi"))
    out = subprocess.run(
        [sys.executable, "-c", _PAGES_SCRIPT], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(out.stdout) <= 16


#: Import, plan, price and replay a prewarmed server; then report whether
#: a pool thread started, a BLAS handle was looked up or an allocator
#: threshold was set.
_IDLE_SCRIPT = """
import asyncio, threading
import repro
from repro.core import PrecisionPair, cores
from repro.nn import APNNBackend, InferenceEngine, alexnet, resnet18
from repro.serve import InferenceServer, PlanCache, ServedModel, burst_trace, replay
from repro.tensorcore import RTX3090

kept = []
cores._keep_freed_pages = lambda: kept.append(True)
backend = APNNBackend(PrecisionPair.parse("w1a2"))
engine = InferenceEngine(alexnet(num_classes=10, input_size=64), backend, RTX3090)
cache = PlanCache()
cache.get(engine, 4, (3, 64, 64))
cache.total_us(engine, 4, (3, 64, 64))
engine.estimate(4, (3, 64, 64))
models = {
    "alex": ServedModel(alexnet(num_classes=10, input_size=64), (3, 64, 64)),
    "res": ServedModel(resnet18(num_classes=10, input_size=32), (3, 32, 32)),
}
server = InferenceServer(models, [(backend, RTX3090)], slo_ms=5.0)

async def run():
    await server.start(prewarm=True)
    results = await replay(server, burst_trace(16, list(models)))
    await server.stop()
    return results

assert len(asyncio.run(run())) == 16
print(cores._pool is None, not cores._blas_looked_up, not kept,
      sorted(t.name for t in threading.enumerate() if t.name.startswith("repro-cores")))
"""


def test_importing_planning_and_serving_start_no_pool_and_load_no_blas(tmp_path):
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src),
               REPRO_CFFI_CACHE=str(tmp_path / "cffi"))
    out = subprocess.run(
        [sys.executable, "-c", _IDLE_SCRIPT], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "True True True []"
