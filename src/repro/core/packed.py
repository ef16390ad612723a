"""The fold: the packed GEMM behind the ``packed`` kernel strategy.

:func:`repro.core.emulate.apbit_matmul` is the semantic reference for the
AP-Bit template: it evaluates every ``(s, t)`` bit-plane pair through one
big broadcast over packed words, materializing a ``(p, q, M, N, nwords)``
intermediate -- faithful, but memory-bound and allocation-bound.  This
module is the fast path the kernels dispatch by default.  The paper's
double shifted sum ``Y = sum_{s,t} 2**(s+t) * plane(s, t)`` is, by
construction, the integer product ``decode(W) @ decode(X).T``, and every
encoding decodes affinely (``decode(d) = a*d + b``,
:attr:`~repro.core.types.Precision.decode_affine`).  So the fold computes
that product directly as one GEMM on the digit matrices, with no
bit-plane split and no plane-folded row sums: a bipolar operand is
decoded inside its cast into the accumulator when that is cheaper than
correcting the output, and otherwise its ``a`` and ``b`` are applied to
the int64 output, the ``b`` term through the other operand's row sums.
That replaces the ``p*q`` plane-pair products of the paper's batched
BMMA with one GEMM, and routes the Boolean reductions through FMA units
-- the Ootomo & Yokota observation that an emulated path can outrun the
"native" one.

The GEMM's accumulator is decided from the shape and precisions alone
(:func:`fold_exactness_bound`): the narrowest of float32, float64 and
int64 that holds every partial sum exactly, so outputs match the
plane-wise reference, the decoded-integer reference and the tile-level
oracle (:func:`repro.kernels.apmm_sim.apmm_tile_simulate`) bit for bit;
the hypothesis suite in ``tests/core/test_packed.py`` enforces this
across precision pairs, encodings, and ragged (non-multiple-of-64)
reduction lengths.  The same bound decides the int32-accumulator check:
``|Y|`` never exceeds it, so outputs are scanned only when it passes
``2**31 - 1``.

The fold is not always the faster product.  Its GEMM costs the same at
every precision, while the paper's own formulation -- ``p*q`` popcount
products over bit-packed words (§3.1) -- costs ``p*q`` word operations
per packed word of each output, and the host's native int8 unit
(``vpdpbusd``, 64 products per instruction) costs the same at every
pair up to ``w7a8``.  So a 512-bit popcount step gives about
``512 / (3*p*q)`` products: emulation wins at ``p*q`` of 1 and 2, ties
near 4 and loses from 8 on.  On the compiled ``cffi`` tier
(:mod:`repro.core.backends`) a host cost model picks among them per
call: :class:`HostProduct` counts each path's work from the call's
shapes (for a conv, with its map, kernel and stride) and prices it with
:data:`HOST_RATES`, constant per-core rates of the host primitives
fitted once by ``taskset -c 0 python -m repro.bench.hostfit`` on both
branches of the compiled popcount GEMM (:func:`compiled_branch`) and on
the int8 kernels where the build has them (:func:`compiled_vnni`).  A
GEMM chooses between the fold and the popcount GEMM, which runs on
operands packed with ``np.packbits`` (:func:`_pack_planes`) and applies
the operator plan's affine correction as it stores each output tile
(:func:`_popcount_matmul`), so the paths are byte-identical.  A conv
chooses among the im2col'd fold, the packed conv gather
(:mod:`repro.kernels.packed_conv`), which shares the packer, the model
and that kernel, and the int8 conv of the same module, where
:meth:`HostProduct.int8_exact` admits it.

A quantized weight's range scan, packed planes and s8 panels are made
once and kept (:mod:`repro.core.prepared`); the fold still casts it on
every call, and the host model still prices a cold call, weight packing
and decoding included.
"""


from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from . import backends, cores, prepared
from .bitops import WORD_BITS, packed_words
from .emulate import INT32_MAX, check_int32_accumulator
from .opselect import TCOp, select_operator
from .types import Precision

__all__ = [
    "HOST_RATES",
    "PATH_KERNELS",
    "HostProduct",
    "HostRates",
    "compiled_branch",
    "compiled_vnni",
    "fold_exactness_bound",
    "matmul_path",
    "packed_matmul",
]

#: Fold GEMM accumulators, narrowest first, each with the bound its
#: partial sums must stay strictly below to be exact: float mantissas
#: hold integers up to 2**24 / 2**53, int64 up to 2**63 - 1.
_FOLD_ACCUMULATORS = (
    (np.float32, 1 << 24),
    (np.float64, 1 << 53),
    (np.int64, 1 << 63),
)


def fold_exactness_bound(k: int, p_bits: int, q_bits: int) -> int:
    """Largest partial sum the fold's single GEMM can produce.

    The folded operands hold digits in ``[0, 2**p)`` and ``[0, 2**q)``;
    a K-long dot product is bounded by ``K * (2**p - 1) * (2**q - 1)``.
    """
    return k * ((1 << p_bits) - 1) * ((1 << q_bits) - 1)


def _fold_accumulator(k: int, p_bits: int, q_bits: int) -> type | None:
    """The narrowest exact fold accumulator, or None when none is."""
    bound = fold_exactness_bound(k, p_bits, q_bits)
    return next((d for d, limit in _FOLD_ACCUMULATORS if bound < limit), None)


#: The product paths, each with the compiled kernels it runs: the BLAS
#: fold none, the popcount GEMM one, the conv gather two (the window
#: gather and the popcount GEMM), the int8 conv two (the panel writer
#: and the VNNI GEMM).  ``ExecutionCounters.compiled_kernels`` reports
#: these counts.
PATH_KERNELS: Mapping[str, int] = MappingProxyType(
    {"fold": 0, "popcount": 1, "gather": 2, "vnni": 2}
)

#: Widest digit :func:`_pack_planes` packs: wider products only fold.
_PACK_MAX_BITS = 8

#: Output tile of the AVX-512 micro-kernel (``TILE_M x TILE_N`` in
#: :data:`repro.core._backend_cffi.CFFI_SOURCE`).  It computes whole
#: tiles, so its work rounds ``M`` and ``N`` up to them.
_MICRO_TILE = (4, 16)

#: Output tile of the VNNI GEMM (``PANEL_M x PANEL_N``): eight weight
#: rows by one 32-pixel panel, every ``K`` padded to whole k-quads.
_VNNI_TILE = (8, 32)

#: Widest weight and activation digits the int8 path takes: weights
#: decode into s8, activation digits are its u8 operand.
_VNNI_MAX_BITS = (7, 8)


@dataclass(frozen=True)
class HostRates:
    """Rates, per microsecond, of the host work the product paths do.

    :meth:`HostProduct.host_us` divides each path's counted work by
    these.  Every path is priced from the same table, so the crossovers
    between them follow from the counts; the constants are fitted once
    by ``python -m repro.bench.hostfit`` and nothing is timed at run
    time, so a given build routes a given shape the same way every call.
    """

    #: fold GEMM multiply-adds, by accumulator dtype name
    fold_macs: Mapping[str, float]
    #: operand elements the fold casts into its accumulator and its
    #: GEMM streams, ``(M + N) * K`` per call
    fold_operands: float
    #: int64 outputs of the fold's output pass, ``M * N`` per call
    fold_outputs: float
    #: digits of a conv's padded map copied channel-last, which every
    #: conv path does first
    layout_digits: float
    #: fixed work per pixel of that copy, in digits at that rate
    layout_pixel_digits: float
    #: window digits ``im2col`` copies from the channel-last map
    im2col_digits: float
    #: digits :func:`_pack_planes` packs, counted once per bit plane
    pack_digits: float
    #: fixed work per packed row and plane, in digits at that rate
    pack_row_digits: float
    #: more fixed work per row and plane when ``K`` is not a multiple of
    #: 64: its packed bytes leave a gap in its last word, so each row is
    #: written through a strided copy
    pack_ragged_row_digits: float
    #: fixed work per block and plane the packer loops over, in digits
    pack_pass_digits: float
    #: 64-bit words the conv gather copies
    gather_words: float
    #: fixed work per run of ``kernel*ceil(C_in/64)`` words the gather
    #: copies, in words at that rate
    gather_run_words: float
    #: popcount GEMM word operations, by ``popcount_branch()`` (0: the
    #: scalar loop nest, 1: the AVX-512 micro-kernel)
    popcount_words: tuple[float, float]
    #: fixed work per plane pair and output of the popcount GEMM, in
    #: words at that rate (zeroing, shifting and adding each pair's sum),
    #: by branch
    popcount_pair_words: tuple[float, float]
    #: weight digits decoded into the int8 path's s8 panels, ``M*K`` per
    #: call
    vnni_weight_digits: float
    #: panel bytes the panel writer fills, ``ceil(K/4)*4`` per pixel in
    #: whole 32-pixel panels
    panel_bytes: float
    #: fixed work per window run (``kernel`` per pixel) of the panel
    #: writer, in bytes at that rate
    panel_run_bytes: float
    #: k-quads of the VNNI GEMM (four u8 x s8 products into one int32,
    #: one ``vpdpbusd`` lane), ``M*N*ceil(K/4)`` in whole 8x32 tiles
    vnni_quads: float
    #: fixed work per output of the VNNI GEMM (widening and storing it),
    #: in k-quads at that rate
    vnni_output_quads: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fold_macs", MappingProxyType(dict(self.fold_macs))
        )


#: The host table: fitted by ``taskset -c 0 python -m
#: repro.bench.hostfit`` on one core of a 2-vCPU x86-64 Xeon VM with
#: AVX-512 VPOPCNTDQ and VNNI, BLAS at one thread, branch 0 from the same
#: C source built for x86-64-v3 in the same process.  Every rate is
#: per-core work: every path splits alike across the usable CPUs
#: (:mod:`repro.core.cores`), and :data:`~repro.core.cores.MIN_PART_US`
#: divides a one-core price.
HOST_RATES = HostRates(
    fold_macs={"float32": 104900.0, "float64": 39880.0, "int64": 2595.0},
    fold_operands=2159.0,
    fold_outputs=1456.0,
    layout_digits=3178.0,
    layout_pixel_digits=31.9,
    im2col_digits=16300.0,
    pack_digits=15380.0,
    pack_row_digits=93.96,
    pack_ragged_row_digits=133.2,
    pack_pass_digits=114600.0,
    gather_words=2292.0,
    gather_run_words=6.228,
    popcount_words=(4063.0, 18560.0),
    popcount_pair_words=(1.952, 1.875),
    vnni_weight_digits=1528.0,
    panel_bytes=14180.0,
    panel_run_bytes=52.06,
    vnni_quads=90560.0,
    vnni_output_quads=26.52,
)


def _pack_us(bits: int, rows: int, k: int, rates: HostRates) -> float:
    """:func:`_pack_planes` of ``bits`` planes of ``(rows, k)`` digits."""
    return bits * _pack_work(rows, k, rates) / rates.pack_digits


def _pack_work(rows: int, k: int, rates: HostRates) -> float:
    """One plane's packing work in digits: each row's digits and fixed
    work, and the fixed work of each block the packer loops over."""
    row = rates.pack_row_digits
    if k % WORD_BITS:
        row += rates.pack_ragged_row_digits
    blocks = -(-rows // max(1, _PACK_BLOCK // max(k, 1)))
    return rows * (k + row) + blocks * rates.pack_pass_digits


def _fold_us(m: int, n: int, k: int, p: int, q: int, rates: HostRates) -> float:
    """The fold of ``(M, K) x (N, K)``: casting both operands into the
    accumulator, ``M*N*K`` multiply-adds at its rate, the output pass."""
    dtype = np.dtype(_fold_accumulator(k, p, q) or np.int64)
    return (
        m * n * k / rates.fold_macs[dtype.name]
        + (m + n) * k / rates.fold_operands
        + m * n / rates.fold_outputs
    )


def _layout_us(pixels: int, cin: int, rates: HostRates) -> float:
    """The channel-last copy of a conv's padded map: ``pixels`` pixels of
    ``cin`` digits, and each pixel's fixed work."""
    return pixels * (cin + rates.layout_pixel_digits) / rates.layout_digits


def _vnni_panel_work(n: int, k: int, kernel: int) -> tuple[int, int]:
    """The panel writer's bytes, ``ceil(K/4)*4`` per pixel of ``N``
    rounded up to whole panels, and its window runs, ``kernel`` per
    pixel."""
    tile_n = _VNNI_TILE[1]
    pixels = -(-n // tile_n) * tile_n
    return pixels * -(-k // 4) * 4, pixels * kernel


def _vnni_panel_us(n: int, k: int, kernel: int, rates: HostRates) -> float:
    nbytes, runs = _vnni_panel_work(n, k, kernel)
    return (nbytes + runs * rates.panel_run_bytes) / rates.panel_bytes


def _vnni_gemm_work(m: int, n: int, k: int) -> tuple[int, int]:
    """The VNNI GEMM's ``M*N*ceil(K/4)`` k-quads and ``M*N`` output
    stores, in whole 8x32 tiles."""
    tile_m, tile_n = _VNNI_TILE
    outputs = -(-m // tile_m) * tile_m * (-(-n // tile_n) * tile_n)
    return outputs * -(-k // 4), outputs


def _vnni_gemm_us(m: int, n: int, k: int, rates: HostRates) -> float:
    quads, outputs = _vnni_gemm_work(m, n, k)
    return (quads + outputs * rates.vnni_output_quads) / rates.vnni_quads


def compiled_branch(
    backend: "backends.Backend | str | None" = None,
) -> int | None:
    """The popcount GEMM branch ``backend`` runs, or None without one.

    1 for the AVX-512 micro-kernel and 0 for the scalar loop nest, as
    :func:`repro.core._backend_cffi.popcount_branch` reports for the
    loaded build; None on numpy, which has no popcount kernel.
    """
    if not backends.resolve_backend(backend).compiled:
        return None
    # only a process that runs a compiled kernel imports the build
    from . import _backend_cffi

    return _backend_cffi.popcount_branch()


def compiled_vnni(backend: "backends.Backend | str | None" = None) -> bool:
    """Whether ``backend`` runs the int8 conv kernels: the loaded cffi
    build compiled them for AVX-512 VNNI
    (:func:`repro.core._backend_cffi.vnni_build`); never on numpy.  It
    does not depend on :func:`compiled_branch`: a CPU can have VNNI
    without VPOPCNTDQ."""
    if not backends.resolve_backend(backend).compiled:
        return False
    from . import _backend_cffi

    return _backend_cffi.vnni_build()


@dataclass(frozen=True)
class HostProduct:
    """One product ``(M, K) x (N, K)`` as the host cost model counts it.

    A GEMM is its shape and precisions.  A convolution also carries
    ``window``: ``(batch, C_in, HP, WP, kernel, stride)`` of the padded
    map (:meth:`conv`), with ``N = batch*OH*OW`` and ``K =
    kernel*kernel*C_in``, because the gather's work depends on the map,
    not on ``N * K``.  :meth:`cheapest` is the route every packed call
    takes; :meth:`host_us` is each path's price.
    """

    m: int
    n: int
    k: int
    p_bits: int
    q_bits: int
    window: tuple[int, int, int, int, int, int] | None = None

    @classmethod
    def conv(
        cls, batch: int, cin: int, cout: int, hp: int, wp: int,
        kernel: int, stride: int, p_bits: int, q_bits: int,
    ) -> "HostProduct":
        """A square-kernel conv over a ``(batch, cin, hp, wp)`` padded map."""
        oh = (hp - kernel) // stride + 1
        ow = (wp - kernel) // stride + 1
        return cls(
            cout, batch * oh * ow, kernel * kernel * cin, p_bits, q_bits,
            (batch, cin, hp, wp, kernel, stride),
        )

    def int8_exact(self) -> bool:
        """Whether the int8 path computes this product exactly: weights
        of at most 7 bits decode into s8, activation digits of at most 8
        bits are u8, and :func:`fold_exactness_bound` stays below
        ``2**31``, so no int32 partial sum of ``vpdpbusd``, which does
        not saturate, can wrap."""
        max_p, max_q = _VNNI_MAX_BITS
        return (
            self.p_bits <= max_p and self.q_bits <= max_q
            and fold_exactness_bound(self.k, self.p_bits, self.q_bits) < 1 << 31
        )

    def paths(self, branch: int | None, vnni: bool = False) -> tuple[str, ...]:
        """The paths that can run this product on ``branch``, with the
        int8 conv kernels where ``vnni`` (:func:`compiled_vnni`).

        Only the fold on numpy (``branch`` None) and for digits wider
        than :func:`_pack_planes` packs.  A GEMM adds the popcount GEMM;
        a conv adds the gather, and the int8 path where ``vnni`` and
        :meth:`int8_exact` hold.
        """
        if branch is None or max(self.p_bits, self.q_bits) > _PACK_MAX_BITS:
            return ("fold",)
        if self.window is None:
            return ("fold", "popcount")
        if vnni and self.int8_exact():
            return ("fold", "gather", "vnni")
        return ("fold", "gather")

    def cheapest(self, branch: int | None, vnni: bool = False) -> str:
        """The path with the lowest :meth:`host_us` (the fold on a tie).

        A product with one candidate path is not priced at all.
        """
        candidates = self.paths(branch, vnni)
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates, key=lambda path: self.host_us(path, branch))

    def host_us(
        self, path: str, branch: int | None, rates: HostRates = HOST_RATES
    ) -> float:
        """Modeled microseconds of ``path`` on popcount branch ``branch``.

        Every rate is one core's, so a price is the work of one part when
        :func:`repro.core.cores.split` runs the call as one.

        * ``fold``: a conv's im2col (the channel-last copy of its padded
          map, then ``N*K`` window digits), the cast of both operands
          into the accumulator, ``M*N*K`` multiply-adds at that
          accumulator's rate, and the int64 output pass;
        * ``popcount`` (a GEMM only): packing ``(p*M + q*N)*K`` digits,
          and the popcount GEMM over ``ceil(K/64)`` words;
        * ``gather`` (a conv only): the channel-last copy of the padded
          map, packing its ``q`` planes (``batch*HP*WP*C_in`` digits
          each) and the weights, copying ``q*N`` windows of
          ``kernel*kernel*ceil(C_in/64)`` words, and the popcount GEMM
          over them;
        * ``vnni`` (a conv that :meth:`int8_exact` admits): the
          channel-last copy of the padded map, decoding the ``M*K``
          weight digits into s8, the panel writer and the VNNI GEMM.

        The popcount GEMM costs ``p*q*M*N*(words + pair_words)`` word
        operations at the branch's rate, with ``M`` and ``N`` rounded up
        to whole micro-kernel tiles on branch 1.  The VNNI GEMM costs
        ``M*N*(ceil(K/4) + output_quads)`` k-quads at one rate on either
        branch, since it does not run the popcount GEMM.
        """
        if path not in PATH_KERNELS:
            raise ValueError(f"unknown path {path!r}; valid: {tuple(PATH_KERNELS)}")
        if path != "fold" and branch is None:
            raise ValueError(f"no {path} path without a compiled branch")
        m, n, k, p, q = self.m, self.n, self.k, self.p_bits, self.q_bits
        if self.window is None:
            if path in ("gather", "vnni"):
                raise ValueError(f"the {path} path needs a conv window")
            if path == "fold":
                return _fold_us(m, n, k, p, q, rates)
            return (
                _pack_us(p, m, k, rates) + _pack_us(q, n, k, rates)
                + self.popcount_us(packed_words(k), branch, rates)
            )
        if path == "popcount":
            raise ValueError("a conv has no popcount path: it takes the gather")
        batch, cin, hp, wp, kernel, _ = self.window
        pixels = batch * hp * wp
        layout_us = _layout_us(pixels, cin, rates)
        if path == "fold":
            return layout_us + n * k / rates.im2col_digits + _fold_us(
                m, n, k, p, q, rates)
        if path == "vnni":
            if not self.int8_exact():
                raise ValueError(
                    f"the int8 path cannot run w{p}a{q} at K={k} exactly")
            return (
                layout_us + m * k / rates.vnni_weight_digits
                + _vnni_panel_us(n, k, kernel, rates)
                + _vnni_gemm_us(m, n, k, rates)
            )
        words = kernel * kernel * packed_words(cin)
        return (
            layout_us
            + _pack_us(q, pixels, cin, rates)
            + _pack_us(p, m * kernel * kernel, cin, rates)
            + q * n * (words + kernel * rates.gather_run_words)
            / rates.gather_words
            + self.popcount_us(words, branch, rates)
        )

    def popcount_pairs(self, branch: int) -> int:
        """Plane pairs times outputs the popcount GEMM computes on ``branch``."""
        m, n = self.m, self.n
        if branch == 1:
            tile_m, tile_n = _MICRO_TILE
            m, n = -(-m // tile_m) * tile_m, -(-n // tile_n) * tile_n
        return self.p_bits * self.q_bits * m * n

    def popcount_us(
        self, words: int, branch: int, rates: HostRates = HOST_RATES
    ) -> float:
        """Modeled microseconds of the popcount GEMM alone, over operands
        of ``words`` packed words per row, on ``branch``."""
        return (
            self.popcount_pairs(branch)
            * (words + rates.popcount_pair_words[branch])
            / rates.popcount_words[branch]
        )


def _digit_range(digits: np.ndarray) -> tuple[Any, Any]:
    """``(min, max)`` of ``digits`` in their own dtype, so a float digit
    such as -0.5 compares below 0; the min of an unsigned dtype, which
    cannot hold a negative digit, is 0 without a scan."""
    if not digits.size:
        return 0, 0
    low = 0 if digits.dtype.kind == "u" else digits.min()
    return low, digits.max()


def _check_digits(digits: np.ndarray, precision: Precision, name: str) -> None:
    # a prepared weight is scanned once; its range holds for every call
    low, high = prepared.form(digits, "range", lambda: _digit_range(digits))
    if low < 0 or high >= precision.num_levels:
        raise ValueError(
            f"{name} digits out of range for {precision.bits}-bit precision: "
            f"[{digits.min()}, {digits.max()}]"
        )


#: Digits narrowed, masked and packed per block, so the temporaries stay
#: in a core's L2: operand-sized ones are fresh pages on every call.
#: fc6's 4096x9216 uint8 weight packs in 30 ms whole and 6.4 ms in
#: blocks on a 2-vCPU x86-64 Xeon VM.
_PACK_BLOCK = 1 << 19


def _pack_planes(digits: np.ndarray, bits: int) -> np.ndarray:
    """``(rows, K)`` digits as plane-major ``(bits*rows, ceil(K/64))`` words.

    Row ``s*rows + i`` holds bit ``s`` of row ``i`` in the
    :func:`~repro.core.bitops.pack_bits` layout (bit ``k`` at bit
    ``k % 64`` of word ``k // 64``, zero-filled tail).  Run it only on
    digits :func:`_check_digits` accepted: the ``uint8`` narrowing would
    wrap an out-of-range digit silently.
    """
    if bits > _PACK_MAX_BITS:
        raise ValueError(
            f"packs at most {_PACK_MAX_BITS}-bit digits, got {bits} bits"
        )
    rows, k = digits.shape
    words, nbytes = packed_words(k), -(-k // 8)
    out = np.zeros((bits, rows, words * 8), dtype=np.uint8)
    step = max(1, _PACK_BLOCK // max(k, 1))

    def part(lo: int, hi: int) -> None:  # blocks lo .. hi-1
        for r0 in range(lo * step, min(hi * step, rows), step):
            block = digits[r0:r0 + step].astype(np.uint8, copy=False)
            for s in range(bits):
                out[s, r0:r0 + step, :nbytes] = np.packbits(
                    block & (1 << s), axis=-1, bitorder="little"
                )

    cores.split(-(-rows // step), part, _pack_us(bits, rows, k, HOST_RATES))
    return out.view("<u8").reshape(bits * rows, words)


def _planes(digits: np.ndarray, bits: int) -> np.ndarray:
    """:func:`_pack_planes` of ``(rows, K)`` digits, kept for a prepared
    array (:mod:`repro.core.prepared`)."""
    return prepared.form(digits, ("planes", bits), lambda: _pack_planes(digits, bits))


def _popcount_matmul(
    w_words: np.ndarray,
    x_words: np.ndarray,
    weight: Precision,
    feature: Precision,
    k: int,
    *,
    backend: "backends.Backend | str | None" = None,
    check_overflow: bool = True,
) -> np.ndarray:
    """``decode(W) @ decode(X).T`` from plane-major packed operands.

    ``w_words`` is ``(p*M, words)`` and ``x_words`` ``(q*N, words)``, as
    :func:`_pack_planes` lays them out; ``k`` is the logical reduction
    length the correction accounts for.  The compiled kernel folds the
    ``p*q`` plane products and applies the operator plan's affine
    correction in one pass: every coefficient is ``(s, t)``-independent,
    so with ``Sp = 2**p - 1`` and ``Sq = 2**q - 1`` the plane row sums
    fold to ``Sq * rowsum(W digits)`` and ``Sp * rowsum(X digits)``
    (counted from the same words), and ``K`` to ``Sp * Sq * K``.  The
    result is the fold's, byte for byte.
    """
    gemm = backends.kernel("packed_gemm", backend)
    if gemm is None:
        raise RuntimeError("the popcount GEMM needs a compiled backend")
    p, q = weight.bits, feature.bits
    m, n = w_words.shape[0] // p, x_words.shape[0] // q
    plan = select_operator(weight, feature)
    out = gemm(
        w_words, x_words, p, m, q, n, plan.op is TCOp.AND, k,
        (plan.popc_scale, plan.k_scale, plan.wsum_scale, plan.xsum_scale),
    )
    if check_overflow and fold_exactness_bound(k, p, q) > INT32_MAX:
        check_int32_accumulator(out)
    return out


def _fold_map(precision: Precision, decode: bool) -> tuple[int, int]:
    """The ``(a, b)`` map still to apply for :meth:`Precision.decode`
    after :func:`_fold_operand`: the identity when the cast decodes,
    else the precision's :attr:`~Precision.decode_affine`."""
    return (1, 0) if decode else precision.decode_affine


def _fold_operand(
    digits: np.ndarray, dtype: type, precision: Precision, decode: bool
) -> np.ndarray:
    """``digits`` cast into the fold's accumulator ``dtype``, decoded
    there with ``decode`` (see :func:`_fold_map`)."""
    a, b = precision.decode_affine
    if not decode or (a, b) == (1, 0):
        return digits.astype(dtype, copy=False)
    # a fresh copy: int64 digits with copy=False would alias the caller's
    values = digits.astype(dtype)
    values *= a
    values += b
    return values


def _matrices(
    w_digits: np.ndarray, x_digits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError(
            f"reduction mismatch: W K={w_digits.shape[1]}, "
            f"X K={x_digits.shape[1]}"
        )
    return w_digits, x_digits


def packed_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    check_overflow: bool = True,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Arbitrary-precision matmul on the cheaper of the fold and the
    popcount GEMM.

    Drop-in equivalent of :func:`repro.core.emulate.apbit_matmul` --
    ``(M, K)`` x ``(N, K)`` digit matrices in, ``decode(W) @ decode(X).T``
    as int64 out.  The path is :meth:`HostProduct.cheapest` for the
    compiled branch of ``backend`` (``None`` means
    :func:`repro.core.backends.get_backend`): always the fold on numpy.
    :func:`matmul_path` runs it; the result is the same on either path.
    """
    w_digits, x_digits = _matrices(w_digits, x_digits)
    product = HostProduct(
        w_digits.shape[0], x_digits.shape[0], w_digits.shape[1],
        weight.bits, feature.bits,
    )
    return matmul_path(
        product.cheapest(compiled_branch(backend)),
        w_digits, x_digits, weight, feature,
        check_overflow=check_overflow, backend=backend,
    )


def matmul_path(
    path: str,
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    check_overflow: bool = True,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """``decode(W) @ decode(X).T`` on one path: ``"fold"`` or ``"popcount"``.

    The int32-accumulator overflow is checked where
    :func:`fold_exactness_bound` exceeds ``2**31 - 1``, and a bound no
    fold accumulator holds raises :class:`ValueError` before any operand
    is read, on either path.

    ``"fold"`` is one digit GEMM.  With each operand's
    :attr:`~repro.core.types.Precision.decode_affine` map ``(a, b)``,

        Y = (aw*W + bw)(ax*X + bx).T
          = aw*ax * W @ X.T + aw*bx * rowsum(W) + bw*ax * rowsum(X)
            + bw*bx * K

    The GEMM runs in the narrowest accumulator that keeps the bound
    exact.  A bipolar operand is decoded inside its cast into that
    accumulator when ``K`` is at most the other operand's row count (its
    ``rows*K`` updates then cost less than the ``M*N`` of correcting the
    output); otherwise it keeps its digits and its ``a`` and ``b`` apply
    to the int64 output.

    ``"popcount"`` runs the ``p*q`` bit-plane products as one compiled
    popcount GEMM over operands packed with ``np.packbits``; it needs a
    compiled ``backend`` and digits of at most 8 bits.

    An operand :mod:`repro.core.prepared` serves -- a quantizer's weight
    -- has its digit range and packed planes made on its first call and
    kept; any other is scanned and packed on every call, by the same
    code.  The fold casts either on every call.
    """
    if path not in ("fold", "popcount"):
        raise ValueError(f"unknown matmul path {path!r}; valid: fold, popcount")
    w_digits, x_digits = _matrices(w_digits, x_digits)
    k = w_digits.shape[1]
    p_bits, q_bits = weight.bits, feature.bits
    bound = fold_exactness_bound(k, p_bits, q_bits)
    dtype = _fold_accumulator(k, p_bits, q_bits)
    if dtype is None:
        raise ValueError(
            f"fold exactness bound {bound} (K={k}, w{p_bits}a{q_bits}) "
            "reaches 2**63: no exact accumulator"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(x_digits, feature, "feature")
    if path == "popcount":
        return _popcount_matmul(
            _planes(w_digits, p_bits),
            _planes(x_digits, q_bits),
            weight, feature, k,
            backend=backend, check_overflow=check_overflow,
        )

    # A bipolar operand decodes in its cast when that costs fewer element
    # updates (its rows * K) than applying its map to the (M, N) output.
    m, n = w_digits.shape[0], x_digits.shape[0]
    w_decode, x_decode = k <= n, k <= m
    (aw, bw), (ax, bx) = _fold_map(weight, w_decode), _fold_map(feature, x_decode)
    out = np.empty((m, n), dtype=np.int64)

    def block(out, w_acc, x_acc, w_sums, x_sums):
        # (aw*W + bw)(ax*X + bx).T over the cast operands.  Their row
        # sums are bounded like the GEMM's partial sums, so the
        # accumulator holds them exactly; int64 arithmetic wraps modulo
        # 2**64 and |Y| <= bound < 2**63, so a correction that wraps near
        # the int64 limit leaves Y exact.
        out[...] = w_acc @ x_acc.T
        if aw * ax != 1:
            out *= aw * ax
        if bx:
            out += aw * bx * w_sums[:, None]
        if bw:
            out += bw * ax * x_sums[None, :]
        if bw and bx:
            out += bw * bx * k

    # Split the longer output axis: the other operand is cast once, and
    # each part casts only its own rows of the split one.  Every partial
    # sum is an exact integer, so a part's GEMM gives the elements the
    # whole one would.
    if m > n:
        x_acc = _fold_operand(x_digits, dtype, feature, x_decode)
        x_sums = _row_sums(x_acc, bw)

        def part(lo: int, hi: int) -> None:
            w_acc = _fold_operand(w_digits[lo:hi], dtype, weight, w_decode)
            block(out[lo:hi], w_acc, x_acc, _row_sums(w_acc, bx), x_sums)
    else:
        w_acc = _fold_operand(w_digits, dtype, weight, w_decode)
        w_sums = _row_sums(w_acc, bx)

        def part(lo: int, hi: int) -> None:
            x_acc = _fold_operand(x_digits[lo:hi], dtype, feature, x_decode)
            block(out[:, lo:hi], w_acc, x_acc, w_sums, _row_sums(x_acc, bw))

    cores.split(max(m, n), part, _fold_us(m, n, k, p_bits, q_bits, HOST_RATES))
    if check_overflow and bound > INT32_MAX:
        check_int32_accumulator(out)
    return out


def _row_sums(acc: np.ndarray, needed: int) -> np.ndarray | None:
    """int64 row sums of a cast operand where ``needed`` is nonzero."""
    return acc.sum(axis=1).astype(np.int64) if needed else None
