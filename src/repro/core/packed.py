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
"""

from __future__ import annotations

import numpy as np

from .emulate import check_int32_accumulator
from .opselect import OperatorPlan, TCOp, select_operator
from .types import Precision

__all__ = ["packed_matmul", "fold_exactness_bound"]

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


def _check_digits(digits: np.ndarray, precision: Precision, name: str) -> None:
    if digits.size and (
        digits.min() < 0 or digits.max() >= precision.num_levels
    ):
        raise ValueError(
            f"{name} digits out of range for {precision.bits}-bit precision: "
            f"[{digits.min()}, {digits.max()}]"
        )


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
    GEMM of :mod:`repro.kernels.packed_conv`); the epilogue algebra is
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


def packed_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    check_overflow: bool = True,
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
