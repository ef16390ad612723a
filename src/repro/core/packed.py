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
products over bit-packed words (§3.1) -- sweeps ``p*q*64*words`` bits,
where ``words`` is the packed width of one operand row.  On the compiled
``cffi`` tier (:mod:`repro.core.backends`) :func:`popcount_preferred`
picks the cheaper one from those counts, and the popcount path runs the
fused weighted popcount GEMM on operands packed with ``np.packbits``
(:func:`_pack_planes`).  That kernel applies the operator plan's affine
correction as it stores each output tile (:func:`_popcount_matmul`), so
the two paths are byte-identical.  The packed conv gather
(:mod:`repro.kernels.packed_conv`) shares the packer, the rule and that
kernel.
"""


from __future__ import annotations

import numpy as np

from . import backends
from .bitops import WORD_BITS, packed_words
from .emulate import INT32_MAX, check_int32_accumulator
from .opselect import TCOp, select_operator
from .types import Precision

__all__ = ["packed_matmul", "fold_exactness_bound", "popcount_preferred"]

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


#: Swept bits per reduced digit up to which the popcount kernel beats the
#: fold: it wins when ``p*q*64*words <= _CROSSOVER * K``.  From the GEMM
#: and conv crossover tables in the README (Backends): both cross at 2 on
#: the scalar loop nest.  The AVX-512 micro-kernel wins out to 8, but one
#: constant serves both branches, and the slower branch sets it.
_CROSSOVER = 2


def popcount_preferred(
    p_bits: int,
    q_bits: int,
    k: int,
    words: int,
    backend: "backends.Backend | str | None" = None,
) -> bool:
    """Whether the compiled popcount kernel should replace the fold.

    ``words`` is the packed width of one operand row: ``ceil(K/64)`` for
    a GEMM, ``KH*KW*ceil(C_in/64)`` for the conv gather, whose
    zero-filled channel words are swept too.  The popcount kernel sweeps
    ``p*q*64*words`` bits per output where the fold's BLAS GEMM reduces
    ``K`` digits at any precision.  Always False on numpy, which has no
    popcount kernel.
    """
    if not backends.resolve_backend(backend).compiled:
        return False
    return 0 < p_bits * q_bits * WORD_BITS * words <= _CROSSOVER * k


def _check_digits(digits: np.ndarray, precision: Precision, name: str) -> None:
    # an unsigned dtype cannot hold a negative digit: skip that scan
    if digits.size and (
        (digits.dtype.kind != "u" and digits.min() < 0)
        or digits.max() >= precision.num_levels
    ):
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
    if bits > 8:
        raise ValueError(f"packs at most 8-bit digits, got {bits} bits")
    rows, k = digits.shape
    words, nbytes = packed_words(k), -(-k // 8)
    out = np.zeros((bits, rows, words * 8), dtype=np.uint8)
    step = max(1, _PACK_BLOCK // max(k, 1))
    for r0 in range(0, rows, step):
        block = digits[r0:r0 + step].astype(np.uint8, copy=False)
        for s in range(bits):
            out[s, r0:r0 + step, :nbytes] = np.packbits(
                block & (1 << s), axis=-1, bitorder="little"
            )
    return out.view("<u8").reshape(bits * rows, words)


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


def _fold_operand(
    digits: np.ndarray, dtype: type, precision: Precision, decode: bool
) -> tuple[np.ndarray, tuple[int, int]]:
    """``digits`` cast into the fold's accumulator ``dtype``, and the
    ``(a, b)`` map still to apply for :meth:`Precision.decode`.

    With ``decode`` the cast holds decoded values and the map left is the
    identity; otherwise it holds the digits and the map is the
    precision's :attr:`~Precision.decode_affine`.
    """
    a, b = precision.decode_affine
    if not decode or (a, b) == (1, 0):
        return digits.astype(dtype, copy=False), (a, b)
    # a fresh copy: int64 digits with copy=False would alias the caller's
    values = digits.astype(dtype)
    values *= a
    values += b
    return values, (1, 0)


def packed_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    check_overflow: bool = True,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Arbitrary-precision matmul as one digit GEMM, the fold.

    Drop-in equivalent of :func:`repro.core.emulate.apbit_matmul` --
    ``(M, K)`` x ``(N, K)`` digit matrices in, ``decode(W) @ decode(X).T``
    as int64 out, int32-accumulator overflow checked where
    :func:`fold_exactness_bound` exceeds ``2**31 - 1``.  With each
    operand's :attr:`~repro.core.types.Precision.decode_affine` map
    ``(a, b)``,

        Y = (aw*W + bw)(ax*X + bx).T
          = aw*ax * W @ X.T + aw*bx * rowsum(W) + bw*ax * rowsum(X)
            + bw*bx * K

    The GEMM runs in the narrowest accumulator that keeps
    :func:`fold_exactness_bound` exact, and a bound no accumulator holds
    raises :class:`ValueError` before any operand is read.  A bipolar
    operand is decoded inside its cast into that accumulator when ``K``
    is at most the other operand's row count (its ``rows*K`` updates
    then cost less than the ``M*N`` of correcting the output); otherwise
    it keeps its digits and its ``a`` and ``b`` apply to the int64 output.

    Where :func:`popcount_preferred` holds for ``backend`` (``None``
    means :func:`repro.core.backends.get_backend`), the ``p*q`` bit-plane
    products run instead as one compiled popcount GEMM over operands
    packed with ``np.packbits``; the result is the same.
    """
    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError(
            f"reduction mismatch: W K={w_digits.shape[1]}, "
            f"X K={x_digits.shape[1]}"
        )
    k = w_digits.shape[1]
    p_bits, q_bits = weight.bits, feature.bits
    bound = fold_exactness_bound(k, p_bits, q_bits)
    dtype = next((d for d, limit in _FOLD_ACCUMULATORS if bound < limit), None)
    if dtype is None:
        raise ValueError(
            f"fold exactness bound {bound} (K={k}, w{p_bits}a{q_bits}) "
            "reaches 2**63: no exact accumulator"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(x_digits, feature, "feature")
    if popcount_preferred(p_bits, q_bits, k, packed_words(k), backend):
        return _popcount_matmul(
            _pack_planes(w_digits, p_bits),
            _pack_planes(x_digits, q_bits),
            weight, feature, k,
            backend=backend, check_overflow=check_overflow,
        )

    # A bipolar operand decodes in its cast when that costs fewer element
    # updates (its rows * K) than applying its map to the (M, N) output.
    m, n = w_digits.shape[0], x_digits.shape[0]
    w_acc, (aw, bw) = _fold_operand(w_digits, dtype, weight, k <= n)
    x_acc, (ax, bx) = _fold_operand(x_digits, dtype, feature, k <= m)
    out = (w_acc @ x_acc.T).astype(np.int64)
    # (aw*W + bw)(ax*X + bx).T over the cast operands.  Their row sums
    # are bounded like the GEMM's partial sums, so the accumulator holds
    # them exactly; int64 arithmetic wraps modulo 2**64 and |Y| <= bound
    # < 2**63, so a correction that wraps near the int64 limit leaves Y
    # exact.
    if aw * ax != 1:
        out *= aw * ax
    if bx:
        out += aw * bx * w_acc.sum(axis=1).astype(np.int64)[:, None]
    if bw:
        out += bw * ax * x_acc.sum(axis=1).astype(np.int64)[None, :]
    if bw and bx:
        out += bw * bx * k
    if check_overflow and bound > INT32_MAX:
        check_int32_accumulator(out)
    return out
