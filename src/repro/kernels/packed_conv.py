"""Packed-word convolution without im2col materialization.

The default packed conv lowers onto APMM by materializing the im2col
digit matrix -- ``(batch * OH * OW, C_in * KH * KW)`` digits, every
input pixel duplicated ``KH * KW`` times *before* bit packing.  This
module is the compiled alternative, and the only caller of the cffi
kernels (:mod:`repro.core.backends`): pack the padded feature map
**once** (channel-last, ``C_in`` bits per pixel packed into
``ceil(C_in / 64)`` words) and let the ``conv_gather`` kernel copy each
window's ``KH * KW`` word-runs straight into the GEMM operand -- the
duplication happens on 64x-compressed words, and the digit matrix never
exists.

K-order differs from the im2col path (``(KH, KW, C_in)`` vs ``(C_in, KH,
KW)``), but popcount reductions are permutation-invariant over K, and the
zero filler bits in each ``C_in`` word group are neutral for both ``AND``
and ``XOR`` because both operands are zero there; outputs are therefore
byte-identical to the im2col path (the hypothesis suite enforces it).

The GEMM itself is the fused weighted popcount kernel plus the shared
fold epilogue of :mod:`repro.core.packed` -- same algebra, same int64
exactness.
"""

from __future__ import annotations

import numpy as np

from ..core import backends
from ..core.bitops import bit_decompose, packed_words, popcount_reduce
from ..core.emulate import check_int32_accumulator
from ..core.opselect import TCOp, select_operator
from ..core.packed import _check_digits, _fold_epilogue
from ..core.types import Precision

__all__ = [
    "PACKED_CONV_PQ_THRESHOLD",
    "packed_conv_preferred",
    "packed_conv_matmul",
]

#: Plane-pair count (``p * q``) at or below which the fused gather GEMM
#: beats the im2col + fold BLAS path.  The fused kernel's work scales
#: with ``p * q`` sweeps over the packed words while fold is a single
#: BLAS GEMM regardless of precision; measured at bench conv shapes the
#: crossover sits between 4 (gather 1.7-4.5x faster) and 8 (fold
#: 1.04-1.8x faster), covering the paper pairs w1a2/w2a2/w1a4 on the
#: gather side and w2a4/w4a4/w2a8 on the fold side.
PACKED_CONV_PQ_THRESHOLD = 4


def packed_conv_preferred(
    weight: Precision,
    feature: Precision,
    backend: "backends.Backend | str | None" = None,
) -> bool:
    """Whether the gather path should replace im2col for this problem.

    True when the backend is compiled *and* the plane-pair count is at
    most :data:`PACKED_CONV_PQ_THRESHOLD`, where the gather is expected
    to win.
    """
    return (
        backends.resolve_backend(backend).compiled
        and weight.bits * feature.bits <= PACKED_CONV_PQ_THRESHOLD
    )


def packed_conv_matmul(
    w_digits: np.ndarray,
    padded: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    stride: int = 1,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Implicit-GEMM conv on word-packed windows; no im2col digit matrix.

    Parameters
    ----------
    w_digits:
        ``(C_out, C_in, KH, KW)`` weight digits.
    padded:
        ``(batch, C_in, HP, WP)`` feature digits, *already padded* (the
        caller owns input-aware padding; this function only sees the
        framed map, exactly like :func:`~repro.kernels.layout.im2col`).
    stride:
        Window stride (square kernels, like the rest of APConv).
    backend:
        Kernel backend; must be compiled (check with
        :func:`packed_conv_preferred` first).

    Returns
    -------
    np.ndarray
        ``(C_out, batch * OH * OW)`` int64 accumulators -- the same GEMM
        result shape the im2col path produces, ready for the caller's
        reshape / padding correction / re-quantization.
    """
    pack = backends.kernel("pack_bits", backend)
    gather = backends.kernel("conv_gather", backend)
    gemm = backends.kernel("packed_gemm", backend)
    if pack is None or gather is None or gemm is None:
        raise RuntimeError(
            "packed_conv_matmul needs a compiled backend; check "
            "packed_conv_preferred() first"
        )

    cout, cin, kh, kw = w_digits.shape
    batch, cin_x, hp, wp = padded.shape
    if cin != cin_x:
        raise ValueError(
            f"channel mismatch: weights C_in={cin}, features C_in={cin_x}"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(padded, feature, "feature")
    plan = select_operator(weight, feature)
    p, q = weight.bits, feature.bits
    cwords = packed_words(cin)
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    n_gemm = batch * oh * ow
    kwords = kh * kw * cwords

    # Features: decompose once, channel-last, pack C_in per pixel; the
    # q feature planes ride the images axis so the gathered rows come
    # out plane-major -- exactly the virtual batched operand layout.
    x_planes = bit_decompose(padded, q)  # (q, batch, C_in, HP, WP)
    x_cl = np.ascontiguousarray(x_planes.transpose(0, 1, 3, 4, 2))
    x_words = pack(x_cl.reshape(q * batch * hp * wp, cin)).reshape(
        q * batch, hp, wp, cwords
    )
    gathered = gather(x_words, kh, kw, stride)  # (q*n_gemm, kwords)

    # Weights: same K order as the gathered windows -- (KH, KW, C_in
    # packed), one row per (plane, output channel).
    w_planes = bit_decompose(w_digits, p)  # (p, C_out, C_in, KH, KW)
    w_cl = np.ascontiguousarray(w_planes.transpose(0, 1, 3, 4, 2))
    w_words = pack(w_cl.reshape(p * cout * kh * kw, cin)).reshape(
        p * cout, kwords
    )

    fold = gemm(w_words, gathered, p, cout, q, n_gemm, plan.op is TCOp.AND)

    k_logical = cin * kh * kw
    sp = np.int64((1 << p) - 1)
    sq = np.int64((1 << q) - 1)
    row_w = row_x = None
    if plan.needs_row_sums:
        shifts = np.int64(1) << np.arange(p, dtype=np.int64)
        pw = popcount_reduce(w_words.reshape(p, cout, kwords), axis=-1)
        row_w = (pw * shifts[:, None]).sum(axis=0)
    if plan.needs_col_sums:
        shifts = np.int64(1) << np.arange(q, dtype=np.int64)
        px = popcount_reduce(gathered.reshape(q, n_gemm, kwords), axis=-1)
        row_x = (px * shifts[:, None]).sum(axis=0)
    out = _fold_epilogue(fold, plan, k_logical, sp, sq, row_w, row_x)
    check_int32_accumulator(out)
    return out
