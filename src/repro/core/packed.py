"""Vectorized packed-word execution backend for the emulated kernels.

:func:`repro.core.emulate.apbit_matmul` is the semantic reference for the
AP-Bit template: it evaluates every ``(s, t)`` bit-plane pair through one
big broadcast over packed words, materializing a ``(p, q, M, N, nwords)``
intermediate -- faithful, but memory-bound and allocation-bound.  This
module is the fast path the kernels dispatch by default.  Two engines,
both byte-identical to the reference (and to the tile-level oracle
:func:`repro.kernels.apmm_sim.apmm_tile_simulate`):

* ``"bmma"`` -- the structural path: decompose operands into bit-planes
  (:func:`~repro.core.bitops.bit_decompose`), pack them along the
  reduction axis into ``uint64`` words (:func:`~repro.core.bitops.pack_bits`),
  stack the planes into the *virtual batched operand* of the paper's
  batch-based design (``(p*M, nwords)`` x ``(q*N, nwords)``), and issue a
  single whole-matrix :func:`~repro.tensorcore.bmma.bmma_batched`
  popcount-reduce GEMM -- one primitive call where the reference issues a
  5-D broadcast and the tile simulator issues thousands of ``8x8x128``
  fragments.
* ``"fold"`` -- the plane-folding shortcut: every
  :class:`~repro.core.opselect.OperatorPlan` correction is *affine in the
  per-plane popcounts with (s, t)-independent coefficients*, so the double
  shifted sum ``Y = sum_{s,t} 2**(s+t) * plane(s, t)`` distributes onto
  the operands: ``sum_{s,t} 2**(s+t) * popc(W_s op X_t)`` collapses to a
  single popcount-reduce GEMM between the *digit* matrices (for ``AND``,
  ``sum_s 2**s W_s`` is just the digits themselves).  That replaces ``p*q``
  plane-pair products with one -- a ``p*q``-fold MAC reduction on top of
  the vectorization -- and routes through FMA units exactly like
  :func:`~repro.tensorcore.bmma.bmma_batched`'s large-problem path.
  Exactness holds while every partial sum fits the float mantissa; the
  bound is checked and the engine refuses otherwise.

``engine="auto"`` (the default everywhere) picks ``fold`` whenever its
exactness bound holds -- in practice always for the paper's precisions --
and falls back to ``bmma``.  Both engines run the identical affine
correction/combination algebra, so outputs match the reference bit for
bit; the hypothesis suite in ``tests/core/test_packed.py`` enforces this
across precision pairs, encodings, and ragged (non-multiple-of-64)
reduction lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bit_decompose, pack_bits, popcount_reduce
from .emulate import INT32_MAX, INT32_MIN, combine_plane_popcounts
from .opselect import OperatorPlan, TCOp, select_operator
from .types import Precision

__all__ = [
    "PACKED_ENGINES",
    "PackedOperand",
    "pack_operand",
    "packed_matmul",
    "packed_matmul_planes",
    "fold_exactness_bound",
]

#: Engines of :func:`packed_matmul` (``auto`` resolves per problem).
PACKED_ENGINES = ("auto", "bmma", "fold")

#: Largest integer float64 represents exactly (2**53); the fold engine's
#: partial sums must stay strictly below this.
_FLOAT64_EXACT = 1 << 53

_FLOAT32_EXACT = 1 << 24


@dataclass(frozen=True)
class PackedOperand:
    """One operand of the packed backend: bit-planes as ``uint64`` words.

    Attributes
    ----------
    words:
        ``(bits, rows, nwords)`` uint64 -- plane ``s`` of row ``r`` packed
        along the reduction axis (:func:`~repro.core.bitops.pack_bits`
        layout, zero-padded final word).
    k_logical:
        True (pre-padding) reduction length.
    precision:
        Bit-width + encoding of the digits the planes came from.
    """

    words: np.ndarray
    k_logical: int
    precision: Precision

    @property
    def bits(self) -> int:
        return self.words.shape[0]

    @property
    def rows(self) -> int:
        return self.words.shape[1]

    @property
    def nwords(self) -> int:
        return self.words.shape[2]

    def batched(self) -> np.ndarray:
        """The virtual batched operand ``(bits * rows, nwords)`` -- plane
        ``s`` of row ``r`` at batched row ``s * rows + r``."""
        return self.words.reshape(self.bits * self.rows, self.nwords)

    def row_popcounts(self) -> np.ndarray:
        """Per-plane set-bit counts, ``(bits, rows)`` int64."""
        return popcount_reduce(self.words, axis=-1)


def pack_operand(digits: np.ndarray, precision: Precision) -> PackedOperand:
    """Decompose a ``(rows, K)`` digit matrix and pack it plane-wise."""
    digits = np.asarray(digits)
    if digits.ndim != 2:
        raise ValueError(f"digits must be 2-D, got shape {digits.shape}")
    return PackedOperand(
        words=pack_bits(bit_decompose(digits, precision.bits)),
        k_logical=digits.shape[1],
        precision=precision,
    )


def fold_exactness_bound(k: int, p_bits: int, q_bits: int) -> int:
    """Largest partial sum the fold engine's single GEMM can produce.

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


def _check_overflow(out: np.ndarray) -> None:
    if out.size and (out.min() < INT32_MIN or out.max() > INT32_MAX):
        raise OverflowError(
            "emulated product exceeds the int32 Tensor-Core accumulator: "
            f"range [{out.min()}, {out.max()}]"
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


def packed_matmul_planes(
    w_packed: PackedOperand,
    x_packed: PackedOperand,
    plan: OperatorPlan,
    *,
    check_overflow: bool = True,
    counters=None,
) -> np.ndarray:
    """The ``bmma`` engine on already-packed operands.

    Issues one whole-matrix :func:`~repro.tensorcore.bmma.bmma_batched`
    over the virtual batched operands (every ``(s, t)`` plane pair at
    once, the simulator analogue of the paper's batch-based BMMA), then
    applies the operator plan's affine correction and the shifted-add
    combination.  Exact in int64.
    """
    # core must stay importable without tensorcore at module-import time
    # (layering: tensorcore sits above core and itself imports core.bitops)
    from ..tensorcore.bmma import bmma_batched

    if w_packed.nwords != x_packed.nwords:
        raise ValueError(
            f"packed word count mismatch: {w_packed.nwords} vs "
            f"{x_packed.nwords}"
        )
    if w_packed.k_logical != x_packed.k_logical:
        raise ValueError(
            f"K mismatch: {w_packed.k_logical} vs {x_packed.k_logical}"
        )
    p, m = w_packed.bits, w_packed.rows
    q, n = x_packed.bits, x_packed.rows
    batched = bmma_batched(
        w_packed.batched(), x_packed.batched(), plan.op, counters=counters,
    )
    # (p*M, q*N) -> (p, q, M, N), then the shared correction/combination
    popc = batched.reshape(p, m, q, n).transpose(0, 2, 1, 3)
    out = combine_plane_popcounts(
        popc,
        plan,
        w_packed.k_logical,
        wsum=w_packed.row_popcounts() if plan.needs_row_sums else None,
        xsum=x_packed.row_popcounts() if plan.needs_col_sums else None,
    )
    if check_overflow:
        _check_overflow(out)
    return out


def _packed_matmul_fold(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    plan: OperatorPlan,
    p_bits: int,
    q_bits: int,
) -> np.ndarray:
    """The ``fold`` engine: one digit-domain popcount-reduce GEMM.

    With ``D(s, t) = popc(W_s op X_t)`` and the plan's affine correction,

        Y = sum_{s,t} 2**(s+t) * (a*D + b_w*rowsum(W_s) + b_x*rowsum(X_t)
                                  + c*K)

    every coefficient is (s, t)-independent, so with ``Sp = 2**p - 1``
    and ``Sq = 2**q - 1`` (the fold of the shift weights):

        sum_{s,t} 2**(s+t) * rowsum(W_s) = Sq * rowsum(W digits)
        sum_{s,t} 2**(s+t) * K           = Sp * Sq * K
        sum_{s,t} 2**(s+t) * <W_s, X_t>  = <W digits, X digits>

    and for XOR, ``popc(W_s ^ X_t) = rowsum(W_s) + rowsum(X_t) -
    2 * <W_s, X_t>`` folds the same way.  One BLAS GEMM on the raw digit
    matrices replaces all ``p*q`` plane-pair products.
    """
    k = w_digits.shape[1]
    bound = fold_exactness_bound(k, p_bits, q_bits)
    dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64
    wf = w_digits.astype(dtype)
    xf = x_digits.astype(dtype)
    dots = (wf @ xf.T).astype(np.int64)  # sum_{s,t} 2**(s+t) <W_s, X_t>

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

    return _fold_epilogue(popc_fold, plan, k, sp, sq, row_w, row_x)


def packed_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    engine: str = "auto",
    check_overflow: bool = True,
    counters=None,
) -> np.ndarray:
    """Arbitrary-precision matmul on the vectorized packed-word backend.

    Drop-in equivalent of :func:`repro.core.emulate.apbit_matmul` --
    ``(M, K)`` x ``(N, K)`` digit matrices in, ``decode(W) @ decode(X).T``
    as int64 out, int32-accumulator overflow checked -- but executed
    through one whole-matrix popcount-reduce GEMM instead of the per-plane
    broadcast.  See the module docstring for the two engines; outputs are
    byte-identical across engines and to the reference.

    ``counters`` (optional :class:`~repro.tensorcore.counters.ExecutionCounters`)
    tallies the hardware-equivalent 1-bit work when the ``bmma`` engine
    runs; the ``fold`` engine performs algebraically collapsed work and
    leaves counting to the cost model, which continues to charge the full
    virtual batched BMMA (:func:`repro.perf.cost.gemm_cost`).
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
    if engine not in PACKED_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {PACKED_ENGINES}"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(x_digits, feature, "feature")

    plan = select_operator(weight, feature)
    k = w_digits.shape[1]
    if engine == "auto":
        engine = (
            "fold"
            if fold_exactness_bound(k, weight.bits, feature.bits)
            < _FLOAT64_EXACT
            else "bmma"
        )
    if engine == "fold":
        bound = fold_exactness_bound(k, weight.bits, feature.bits)
        if bound >= _FLOAT64_EXACT:
            raise ValueError(
                "fold engine exactness bound exceeded "
                f"(K={k}, w{weight.bits}a{feature.bits}: partial sums up to "
                f"{bound} >= 2**53); use engine='bmma'"
            )
        out = _packed_matmul_fold(
            w_digits, x_digits, plan, weight.bits, feature.bits
        )
        if check_overflow:
            _check_overflow(out)
        return out

    return packed_matmul_planes(
        pack_operand(w_digits, weight),
        pack_operand(x_digits, feature),
        plan,
        check_overflow=check_overflow,
        counters=counters,
    )
