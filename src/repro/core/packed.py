"""The plane-folding GEMM behind the ``packed`` kernel strategy.

:func:`repro.core.emulate.apbit_matmul` is the semantic reference for the
AP-Bit template: it evaluates every ``(s, t)`` bit-plane pair through one
big broadcast over packed words, materializing a ``(p, q, M, N, nwords)``
intermediate -- faithful, but memory-bound and allocation-bound.  This
module is the fast path the kernels dispatch by default.  Every :class:`~repro.core.opselect.OperatorPlan`
correction is *affine in the per-plane popcounts with (s, t)-independent
coefficients*, so the double shifted sum ``Y = sum_{s,t} 2**(s+t) *
plane(s, t)`` distributes onto the operands: ``sum_{s,t} 2**(s+t) *
popc(W_s op X_t)`` collapses to a single popcount-reduce GEMM between the
*digit* matrices (for ``AND``, ``sum_s 2**s W_s`` is just the digits
themselves).  That replaces the ``p*q`` plane-pair products of the
paper's batched BMMA with one GEMM, and the dot-product identity
``popc(a AND b) == <a, b>`` routes it through FMA units -- the Ootomo &
Yokota observation that an emulated path can outrun the "native" one.

The GEMM's accumulator is decided from the shape and precisions alone
(:func:`fold_exactness_bound`): the narrowest of float32, float64 and
int64 that holds every partial sum exactly, so outputs match the
plane-wise reference, the decoded-integer reference and the tile-level
oracle (:func:`repro.kernels.apmm_sim.apmm_tile_simulate`) bit for bit;
the hypothesis suite in ``tests/core/test_packed.py`` enforces this
across precision pairs, encodings, and ragged (non-multiple-of-64)
reduction lengths.

The fold is not always the faster product.  Its GEMM costs the same at
every precision, while the paper's own formulation -- ``p*q`` popcount
products over bit-packed words (§3.1) -- sweeps ``p*q*64*words`` bits,
where ``words`` is the packed width of one operand row.  On the compiled
``cffi`` tier (:mod:`repro.core.backends`) :func:`popcount_preferred`
picks the cheaper one from those counts, and the popcount path runs the
fused weighted popcount GEMM on operands packed with ``np.packbits``
(:func:`_pack_planes`), ending in the same fold epilogue, so the two
paths are byte-identical.  The packed conv gather
(:mod:`repro.kernels.packed_conv`) shares the packer, the rule and that
tail.
"""

from __future__ import annotations

import numpy as np

from . import backends
from .bitops import WORD_BITS, packed_words, popcount_reduce
from .emulate import check_int32_accumulator
from .opselect import OperatorPlan, TCOp, select_operator
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
#: fold: it wins when ``p*q*64*words <= crossover * K``.  A conv's fold
#: also pays im2col, so the gather crosses higher than the GEMM.  Both
#: come from the crossover table in the README (Backends).
_GEMM_CROSSOVER = 2
_GATHER_CROSSOVER = 4


def popcount_preferred(
    p_bits: int,
    q_bits: int,
    k: int,
    words: int,
    backend: "backends.Backend | str | None" = None,
    *,
    gather: bool = False,
) -> bool:
    """Whether the compiled popcount kernel should replace the fold.

    ``words`` is the packed width of one operand row: ``ceil(K/64)`` for
    a GEMM, ``KH*KW*ceil(C_in/64)`` for the conv gather (``gather=True``),
    whose zero-filled channel words are swept too.  The popcount kernel
    sweeps ``p*q*64*words`` bits per output where the fold's BLAS GEMM
    reduces ``K`` digits at any precision.  Always False on numpy, which
    has no popcount kernel.
    """
    if not backends.resolve_backend(backend).compiled:
        return False
    crossover = _GATHER_CROSSOVER if gather else _GEMM_CROSSOVER
    return 0 < p_bits * q_bits * WORD_BITS * words <= crossover * k


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


def _plane_sums(words: np.ndarray, bits: int, rows: int) -> np.ndarray:
    """``sum_s 2**s * rowsum(plane s)``, from plane-major packed words."""
    counts = popcount_reduce(words.reshape(bits, rows, words.shape[1]))
    shifts = np.int64(1) << np.arange(bits, dtype=np.int64)
    return (counts * shifts[:, None]).sum(axis=0)


def _fold_epilogue(
    popc_fold: np.ndarray,
    plan: OperatorPlan,
    k: int,
    sp: np.int64,
    sq: np.int64,
    row_w: np.ndarray | None,
    row_x: np.ndarray | None,
) -> np.ndarray:
    """The plan's affine correction applied to folded popcount sums.

    ``popc_fold`` is ``sum_{s,t} 2**(s+t) * popc(W_s op X_t)`` -- however
    it was produced (digit-GEMM fold, or the compiled fused popcount
    GEMM of :func:`_popcount_matmul`); the epilogue algebra is
    identical, which is what keeps both paths byte-identical.
    """
    out = plan.popc_scale * popc_fold
    if plan.k_scale:
        out = out + plan.k_scale * np.int64(k) * sp * sq
    if plan.needs_row_sums:
        out = out + plan.wsum_scale * sq * row_w[:, None]
    if plan.needs_col_sums:
        out = out + plan.xsum_scale * sp * row_x[None, :]
    return out


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
    length the epilogue corrects for.  The compiled kernel returns the
    folded popcount sums, the row sums come from popcounts of the same
    words, and :func:`_fold_epilogue` finishes exactly as the fold does.
    """
    gemm = backends.kernel("packed_gemm", backend)
    if gemm is None:
        raise RuntimeError("the popcount GEMM needs a compiled backend")
    p, q = weight.bits, feature.bits
    m, n = w_words.shape[0] // p, x_words.shape[0] // q
    plan = select_operator(weight, feature)
    fold = gemm(w_words, x_words, p, m, q, n, plan.op is TCOp.AND)
    sp = np.int64((1 << p) - 1)
    sq = np.int64((1 << q) - 1)
    row_w = _plane_sums(w_words, p, m) if plan.needs_row_sums else None
    row_x = _plane_sums(x_words, q, n) if plan.needs_col_sums else None
    out = _fold_epilogue(fold, plan, k, sp, sq, row_w, row_x)
    if check_overflow:
        check_int32_accumulator(out)
    return out


def packed_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    check_overflow: bool = True,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Arbitrary-precision matmul as one plane-folded digit GEMM.

    Drop-in equivalent of :func:`repro.core.emulate.apbit_matmul` --
    ``(M, K)`` x ``(N, K)`` digit matrices in, ``decode(W) @ decode(X).T``
    as int64 out, int32-accumulator overflow checked.  With
    ``D(s, t) = popc(W_s op X_t)`` and the plan's affine correction,

        Y = sum_{s,t} 2**(s+t) * (a*D + b_w*rowsum(W_s) + b_x*rowsum(X_t)
                                  + c*K)

    every coefficient is (s, t)-independent, so with ``Sp = 2**p - 1``
    and ``Sq = 2**q - 1`` (the fold of the shift weights):

        sum_{s,t} 2**(s+t) * rowsum(W_s) = Sq * rowsum(W digits)
        sum_{s,t} 2**(s+t) * K           = Sp * Sq * K
        sum_{s,t} 2**(s+t) * <W_s, X_t>  = <W digits, X digits>

    and for XOR, ``popc(W_s ^ X_t) = rowsum(W_s) + rowsum(X_t) -
    2 * <W_s, X_t>`` folds the same way.  One GEMM on the raw digit
    matrices replaces all ``p*q`` plane-pair products; it runs in the
    narrowest accumulator that keeps :func:`fold_exactness_bound` exact,
    and a bound no accumulator holds raises :class:`ValueError` before
    any operand is read.

    Where :func:`popcount_preferred` holds for ``backend`` (``None``
    means :func:`repro.core.backends.get_backend`), the ``p*q`` products
    run instead as one compiled popcount GEMM over operands packed with
    ``np.packbits``; the result is the same.
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

    plan = select_operator(weight, feature)
    # sum_{s,t} 2**(s+t) <W_s, X_t>
    dots = (w_digits.astype(dtype) @ x_digits.astype(dtype).T).astype(np.int64)

    sp = np.int64((1 << p_bits) - 1)
    sq = np.int64((1 << q_bits) - 1)
    row_w = None
    row_x = None
    if plan.op is TCOp.XOR or plan.needs_row_sums:
        row_w = w_digits.sum(axis=1, dtype=np.int64)  # sum_s 2**s rowsum(W_s)
    if plan.op is TCOp.XOR or plan.needs_col_sums:
        row_x = x_digits.sum(axis=1, dtype=np.int64)

    if plan.op is TCOp.AND:
        popc_fold = dots
    else:
        popc_fold = sq * row_w[:, None] + sp * row_x[None, :] - 2 * dots

    # int64 arithmetic wraps modulo 2**64 and |Y| <= bound < 2**63, so an
    # epilogue intermediate that wraps near the int64 limit leaves Y exact.
    out = _fold_epilogue(popc_fold, plan, k, sp, sq, row_w, row_x)
    if check_overflow:
        check_int32_accumulator(out)
    return out
