"""Warp-level MMA primitives of the simulated Ampere Tensor Core.

The contract mirrors the CUDA WMMA sub-byte API (paper section 2.3):

* ``bmma`` -- the binary primitive: two 1-bit operand fragments of shape
  ``8 x 128`` (stored as two ``uint64`` words per row), Boolean ``XOR`` or
  ``AND`` combination, popcount accumulation into an ``8 x 8`` int32
  fragment.  Exactly like hardware, the primitive accumulates the *raw
  popcount*; encoding corrections (``K - 2p`` etc.) are software's job
  (:mod:`repro.core.opselect`).
* ``imma4`` / ``imma8`` -- the int4 (8x8x32) and int8 (16x16x16) integer
  primitives with int32 accumulation (no kernel or baseline runs them; the
  library baselines are priced from their tiles, :mod:`repro.baselines`).
* ``hmma`` -- fp16 16x16x16 with fp32 accumulation.

All primitives validate shapes/dtypes the way the hardware ISA would
(misaligned fragments are a compile error on a real GPU) and check the
int32 accumulator for overflow, which real Tensor Cores silently wrap --
catching it here is strictly safer.
"""

from __future__ import annotations

import numpy as np

from ..core.bitops import popcount
from ..core.emulate import check_int32_accumulator
from ..core.opselect import TCOp

__all__ = [
    "BMMA_M",
    "BMMA_N",
    "BMMA_K",
    "BMMA_WORDS",
    "IMMA4_SHAPE",
    "IMMA8_SHAPE",
    "HMMA_SHAPE",
    "bmma",
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
    check_int32_accumulator(acc)
    frag_c[...] = acc.astype(np.int32)
    return frag_c


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
    check_int32_accumulator(acc)
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
