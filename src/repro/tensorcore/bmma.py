"""Warp-level MMA primitives of the simulated Ampere Tensor Core.

The contract mirrors the CUDA WMMA sub-byte API (paper section 2.3):

* ``bmma`` -- the binary primitive: two 1-bit operand fragments of shape
  ``8 x 128`` (stored as two ``uint64`` words per row), Boolean ``XOR`` or
  ``AND`` combination, popcount accumulation into an ``8 x 8`` int32
  fragment.  Exactly like hardware, the primitive accumulates the *raw
  popcount*; encoding corrections (``K - 2p`` etc.) are software's job
  (:mod:`repro.core.opselect`).
* ``bmma_batched`` -- the whole-matrix generalization of ``bmma``: packed
  operand matrices of shape ``(rows, nwords)`` in one call, popcount-reduce
  GEMM into an int64 result.  This is the word-level primitive the
  vectorized packed execution backend (:mod:`repro.core.packed`) issues
  instead of sliding ``8x8x128`` fragments in Python loops.  Internally it
  routes the Boolean reduction through whichever simulated unit is fastest
  -- native word ops (``AND``/``XOR`` + ``np.bitwise_count``) for small
  problems, or the FMA pipes via the popcount/dot-product identity for
  large ones, the same observation Ootomo & Yokota make for emulated
  tensor-core paths -- while producing bit-identical popcount sums either
  way.
* ``imma4`` / ``imma8`` -- the int4 (8x8x32) and int8 (16x16x16) integer
  primitives with int32 accumulation, used by the CUTLASS/cuBLAS baseline
  simulations.
* ``hmma`` -- fp16 16x16x16 with fp32 accumulation.

All primitives validate shapes/dtypes the way the hardware ISA would
(misaligned fragments are a compile error on a real GPU) and check the
int32 accumulator for overflow, which real Tensor Cores silently wrap --
catching it here is strictly safer.
"""

from __future__ import annotations

import numpy as np

from ..core.bitops import WORD_BITS, popcount, unpack_bits
from ..core.opselect import TCOp

__all__ = [
    "BMMA_M",
    "BMMA_N",
    "BMMA_K",
    "BMMA_WORDS",
    "BMMA_BATCH_ENGINES",
    "BMMA_FMA_THRESHOLD",
    "IMMA4_SHAPE",
    "IMMA8_SHAPE",
    "HMMA_SHAPE",
    "bmma",
    "bmma_batched",
    "imma4",
    "imma8",
    "hmma",
]

#: bmma tile shape: m8 n8 k128 (CUDA ``wmma::experimental`` b1 shape).
BMMA_M, BMMA_N, BMMA_K = 8, 8, 128
#: 128 bits per row = 2 x uint64 words.
BMMA_WORDS = BMMA_K // 64

#: int4 primitive shape m8 n8 k32.
IMMA4_SHAPE = (8, 8, 32)
#: int8 primitive shape m16 n16 k16.
IMMA8_SHAPE = (16, 16, 16)
#: fp16 primitive shape m16 n16 k16.
HMMA_SHAPE = (16, 16, 16)

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1


def _check_acc_range(acc: np.ndarray) -> None:
    if acc.size and (acc.min() < _INT32_MIN or acc.max() > _INT32_MAX):
        raise OverflowError(
            "int32 accumulator overflow in MMA primitive: "
            f"range [{acc.min()}, {acc.max()}]"
        )


def bmma(
    frag_a: np.ndarray,
    frag_b: np.ndarray,
    frag_c: np.ndarray,
    op: TCOp = TCOp.XOR,
) -> np.ndarray:
    """One binary Tensor-Core MMA: ``C += popc(A row_op B)`` per (i, j).

    Parameters
    ----------
    frag_a:
        ``(8, 2)`` uint64 -- 8 rows of 128 packed bits (K-major).
    frag_b:
        ``(8, 2)`` uint64 -- 8 columns of B, also K-major rows (the
        hardware expects B in column-major K order, i.e. row i of the
        fragment is column i of the logical matrix).
    frag_c:
        ``(8, 8)`` int32 accumulator, updated in place and returned.
    op:
        ``TCOp.XOR`` (Turing+) or ``TCOp.AND`` (Ampere+).

    Returns
    -------
    np.ndarray
        The updated ``frag_c``.
    """
    frag_a = np.asarray(frag_a)
    frag_b = np.asarray(frag_b)
    if frag_a.shape != (BMMA_M, BMMA_WORDS) or frag_a.dtype != np.uint64:
        raise ValueError(
            f"frag_a must be uint64 ({BMMA_M}, {BMMA_WORDS}), got "
            f"{frag_a.dtype} {frag_a.shape}"
        )
    if frag_b.shape != (BMMA_N, BMMA_WORDS) or frag_b.dtype != np.uint64:
        raise ValueError(
            f"frag_b must be uint64 ({BMMA_N}, {BMMA_WORDS}), got "
            f"{frag_b.dtype} {frag_b.shape}"
        )
    if frag_c.shape != (BMMA_M, BMMA_N) or frag_c.dtype != np.int32:
        raise ValueError(
            f"frag_c must be int32 ({BMMA_M}, {BMMA_N}), got "
            f"{frag_c.dtype} {frag_c.shape}"
        )
    if not isinstance(op, TCOp):
        raise TypeError(f"op must be a TCOp, got {type(op).__name__}")

    a = frag_a[:, None, :]  # (8, 1, 2)
    b = frag_b[None, :, :]  # (1, 8, 2)
    combined = (a & b) if op is TCOp.AND else (a ^ b)
    update = popcount(combined).sum(axis=-1)
    acc = frag_c.astype(np.int64) + update
    _check_acc_range(acc)
    frag_c[...] = acc.astype(np.int32)
    return frag_c


#: Execution engines of :func:`bmma_batched`.
BMMA_BATCH_ENGINES = ("auto", "word", "fma")

#: ``rows_a * rows_b * nwords`` above which ``engine="auto"`` routes the
#: popcount reduction through the FMA pipes (dot-product identity) instead
#: of native word ops.  Below it, the unpack + matmul setup dominates.
BMMA_FMA_THRESHOLD = 1 << 16

#: Word-engine blocking: cap the broadcast scratch (rows_a-block x rows_b x
#: nwords uint64) so it stays cache-resident instead of round-tripping a
#: whole (rows_a, rows_b, nwords) intermediate through DRAM.
_WORD_BLOCK_ELEMS = 1 << 21


def _bmma_batched_word(
    a_words: np.ndarray, b_words: np.ndarray, op: TCOp
) -> np.ndarray:
    """Popcount-reduce GEMM in the word domain, blocked over A rows."""
    rows_a, nwords = a_words.shape
    rows_b = b_words.shape[0]
    out = np.empty((rows_a, rows_b), dtype=np.int64)
    block = max(1, _WORD_BLOCK_ELEMS // max(1, rows_b * nwords))
    bool_op = np.bitwise_and if op is TCOp.AND else np.bitwise_xor
    for r0 in range(0, rows_a, block):
        a_blk = a_words[r0: r0 + block, None, :]
        combined = bool_op(a_blk, b_words[None, :, :])
        # popcounts (<= 64) overwrite the scratch in place: one allocation
        # per block instead of two.
        np.bitwise_count(combined, out=combined)
        out[r0: r0 + block] = combined.sum(axis=-1, dtype=np.int64)
    return out


def _bmma_batched_fma(
    a_words: np.ndarray, b_words: np.ndarray, op: TCOp
) -> np.ndarray:
    """Popcount-reduce GEMM routed through FMA units.

    Uses the identity ``popc(a AND b) == <a_bits, b_bits>`` (and, for XOR,
    ``popc(a XOR b) == popc(a) + popc(b) - 2 * <a_bits, b_bits>``): the
    Boolean reduction becomes one dense matmul over the unpacked bit
    planes, which BLAS executes far faster than element-wise word ops --
    the emulated path outrunning the "native" one, exactly as in the
    Ootomo & Yokota emulation result.  Exact, because every partial sum is
    an integer bounded by K, far inside the float mantissa.
    """
    k_padded = a_words.shape[1] * WORD_BITS
    # float32 holds integers exactly up to 2**24; fall back to float64 for
    # (absurdly) long reductions so partial sums stay exact.
    dtype = np.float32 if k_padded < (1 << 24) else np.float64
    a_bits = unpack_bits(a_words, k_padded).astype(dtype)
    b_bits = unpack_bits(b_words, k_padded).astype(dtype)
    dots = (a_bits @ b_bits.T).astype(np.int64)
    if op is TCOp.AND:
        return dots
    pop_a = popcount(a_words).sum(axis=-1, dtype=np.int64)
    pop_b = popcount(b_words).sum(axis=-1, dtype=np.int64)
    return pop_a[:, None] + pop_b[None, :] - 2 * dots


def bmma_batched(
    a_words: np.ndarray,
    b_words: np.ndarray,
    op: TCOp = TCOp.XOR,
    *,
    engine: str = "auto",
    counters=None,
) -> np.ndarray:
    """Whole-matrix binary MMA: ``out[i, j] = sum_w popc(A[i, w] op B[j, w])``.

    The batched counterpart of :func:`bmma`: instead of one ``8 x 128``
    fragment pair per call, it consumes entire packed operand matrices and
    performs the full popcount-reduce GEMM in one vectorized invocation.
    Both operands are K-major packed rows (``uint64``, bit ``k`` of the
    logical row at bit ``k % 64`` of word ``k // 64``); zero padding in the
    final word is neutral for both ``AND`` and ``XOR`` provided the two
    operands are packed to the same word count, which the shape check
    enforces.

    Parameters
    ----------
    a_words:
        ``(rows_a, nwords)`` uint64 packed rows.
    b_words:
        ``(rows_b, nwords)`` uint64 packed rows.
    op:
        Boolean reduction operator (``TCOp.AND`` or ``TCOp.XOR``).
    engine:
        ``"word"`` (native word ops + ``np.bitwise_count``), ``"fma"``
        (dot-product identity on the unpacked planes, BLAS-backed), or
        ``"auto"`` (pick by problem size).  All engines return bit-identical
        results.
    counters:
        Optional :class:`~repro.tensorcore.counters.ExecutionCounters`;
        when given, the hardware-equivalent work is tallied: the number of
        ``8 x 8 x 128`` primitive invocations this call replaces and their
        1-bit MACs.

    Returns
    -------
    np.ndarray
        ``(rows_a, rows_b)`` int64 popcount sums.
    """
    a_words = np.asarray(a_words)
    b_words = np.asarray(b_words)
    if a_words.ndim != 2 or a_words.dtype != np.uint64:
        raise ValueError(
            f"a_words must be 2-D uint64, got {a_words.dtype} "
            f"shape {a_words.shape}"
        )
    if b_words.ndim != 2 or b_words.dtype != np.uint64:
        raise ValueError(
            f"b_words must be 2-D uint64, got {b_words.dtype} "
            f"shape {b_words.shape}"
        )
    if a_words.shape[1] != b_words.shape[1]:
        raise ValueError(
            f"packed word count mismatch: {a_words.shape[1]} vs "
            f"{b_words.shape[1]}"
        )
    if not isinstance(op, TCOp):
        raise TypeError(f"op must be a TCOp, got {type(op).__name__}")
    if engine not in BMMA_BATCH_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {BMMA_BATCH_ENGINES}"
        )

    rows_a, nwords = a_words.shape
    rows_b = b_words.shape[0]
    if engine == "auto":
        engine = (
            "fma" if rows_a * rows_b * nwords >= BMMA_FMA_THRESHOLD
            else "word"
        )
    if rows_a == 0 or rows_b == 0 or nwords == 0:
        out = np.zeros((rows_a, rows_b), dtype=np.int64)
    elif engine == "word":
        out = _bmma_batched_word(a_words, b_words, op)
    else:
        out = _bmma_batched_fma(a_words, b_words, op)

    if counters is not None:
        k_padded = nwords * WORD_BITS
        calls = (
            -(-rows_a // BMMA_M) * -(-rows_b // BMMA_N) * -(-k_padded // BMMA_K)
        )
        counters.bmma_calls += calls
        counters.tc_macs += calls * BMMA_M * BMMA_N * BMMA_K
    return out


def _integer_mma(
    frag_a: np.ndarray,
    frag_b: np.ndarray,
    frag_c: np.ndarray,
    shape: tuple[int, int, int],
    lo: int,
    hi: int,
    kind: str,
) -> np.ndarray:
    m, n, k = shape
    frag_a = np.asarray(frag_a)
    frag_b = np.asarray(frag_b)
    if frag_a.shape != (m, k):
        raise ValueError(f"{kind} frag_a must be ({m}, {k}), got {frag_a.shape}")
    if frag_b.shape != (n, k):
        raise ValueError(f"{kind} frag_b must be ({n}, {k}), got {frag_b.shape}")
    if frag_c.shape != (m, n) or frag_c.dtype != np.int32:
        raise ValueError(f"{kind} frag_c must be int32 ({m}, {n})")
    if frag_a.size and (frag_a.min() < lo or frag_a.max() > hi):
        raise ValueError(f"{kind} frag_a values outside [{lo}, {hi}]")
    if frag_b.size and (frag_b.min() < lo or frag_b.max() > hi):
        raise ValueError(f"{kind} frag_b values outside [{lo}, {hi}]")
    acc = frag_c.astype(np.int64) + frag_a.astype(np.int64) @ frag_b.astype(np.int64).T
    _check_acc_range(acc)
    frag_c[...] = acc.astype(np.int32)
    return frag_c


def imma4(frag_a, frag_b, frag_c) -> np.ndarray:
    """int4 MMA (m8 n8 k32): signed operands in [-8, 7], int32 accumulate."""
    return _integer_mma(frag_a, frag_b, frag_c, IMMA4_SHAPE, -8, 7, "imma4")


def imma8(frag_a, frag_b, frag_c) -> np.ndarray:
    """int8 MMA (m16 n16 k16): signed operands in [-128, 127], int32 accumulate."""
    return _integer_mma(frag_a, frag_b, frag_c, IMMA8_SHAPE, -128, 127, "imma8")


def hmma(frag_a, frag_b, frag_c) -> np.ndarray:
    """fp16 MMA (m16 n16 k16) with fp32 accumulation.

    Operands are rounded to fp16 on load (fragment precision), products
    accumulate in fp32 -- the numerically relevant property of the hardware.
    """
    m, n, k = HMMA_SHAPE
    frag_a = np.asarray(frag_a, dtype=np.float16)
    frag_b = np.asarray(frag_b, dtype=np.float16)
    if frag_a.shape != (m, k) or frag_b.shape != (n, k):
        raise ValueError(
            f"hmma fragments must be ({m},{k}) and ({n},{k}); got "
            f"{frag_a.shape} and {frag_b.shape}"
        )
    if frag_c.shape != (m, n) or frag_c.dtype != np.float32:
        raise ValueError(f"hmma frag_c must be float32 ({m}, {n})")
    frag_c += (frag_a.astype(np.float32) @ frag_b.astype(np.float32).T)
    return frag_c
