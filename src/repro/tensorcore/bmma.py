"""The binary warp-level MMA primitive of the simulated Ampere Tensor Core.

The contract mirrors the CUDA WMMA sub-byte API (paper section 2.3):
``bmma`` takes two 1-bit operand fragments of shape ``8 x 128`` (stored
as two ``uint64`` words per row), combines them with Boolean ``XOR`` or
``AND`` and accumulates the popcount into an ``8 x 8`` int32 fragment.
Exactly like hardware, the primitive accumulates the *raw popcount*;
encoding corrections (``K - 2p`` etc.) are software's job
(:mod:`repro.core.opselect`).  The tile-level oracle
(:mod:`repro.kernels.apmm_sim`) runs it; the int4/int8/fp16 library
baselines are priced from their tiles (:mod:`repro.baselines`).

``bmma`` validates shapes/dtypes the way the hardware ISA would
(misaligned fragments are a compile error on a real GPU) and checks the
int32 accumulator for overflow, which real Tensor Cores silently wrap --
catching it here is strictly safer.
"""

from __future__ import annotations

import numpy as np

from ..core.bitops import popcount
from ..core.emulate import check_int32_accumulator
from ..core.opselect import TCOp

__all__ = ["BMMA_M", "BMMA_N", "BMMA_K", "BMMA_WORDS", "bmma"]

#: bmma tile shape: m8 n8 k128 (CUDA ``wmma::experimental`` b1 shape).
BMMA_M, BMMA_N, BMMA_K = 8, 8, 128
#: 128 bits per row = 2 x uint64 words.
BMMA_WORDS = BMMA_K // 64


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

