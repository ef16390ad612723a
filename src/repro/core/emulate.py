"""AP-Bit operation template (paper section 3.1).

Emulates a ``p``-bit x ``q``-bit integer matrix product using only 1-bit
Boolean matrix products plus shifted adds:

1. **bit decomposition** -- split each operand into bit-planes
   (:func:`repro.core.bitops.bit_decompose`, paper eq. 2);
2. **1-bit Tensor-Core computation** -- for every plane pair ``(s, t)``
   compute the popcount-accumulated Boolean product (the ``bmma`` primitive);
3. **bit combination** -- ``Y = sum_{s,t} 2**(s+t) * plane(s, t)``
   (paper eq. 1), where each plane product first receives the affine
   correction demanded by the operand encodings
   (:mod:`repro.core.opselect`).

:func:`apbit_matmul` takes digits and returns int64: the reference
bit-serial path used by kernels and validated against plain integer
matmul.  The work it emulates -- decomposition ``O((p+q) n^2)``,
combination ``O(p q n^2)``, Tensor-Core work ``O(p q n^3)`` in 1-bit MACs
(the paper's cost analysis) -- is counted by
:func:`repro.perf.cost.gemm_cost`.

Convention: both operands are row-major along the reduction axis, i.e.
``W`` has shape ``(M, K)`` and ``X`` has shape ``(N, K)``, and the result is
``decode(W) @ decode(X).T`` of shape ``(M, N)``.  This mirrors the hardware
``bmma`` contract (both fragments are K-major rows).
"""

from __future__ import annotations

import numpy as np

from .bitops import bit_decompose, pack_bits, popcount_reduce
from .opselect import OperatorPlan, TCOp, select_operator
from .types import Precision

__all__ = [
    "apbit_matmul",
    "apbit_matmul_planes",
    "check_int32_accumulator",
    "reference_matmul",
    "INT32_MIN",
    "INT32_MAX",
]

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


def check_int32_accumulator(acc: np.ndarray) -> None:
    """Raise :class:`OverflowError` if ``acc`` leaves the int32 accumulator.

    Real Tensor Cores silently wrap their int32 accumulators; every
    emulated product and integer MMA primitive checks its exact int64
    result here instead.
    """
    if acc.size and (acc.min() < INT32_MIN or acc.max() > INT32_MAX):
        raise OverflowError(
            "result exceeds the int32 Tensor-Core accumulator: "
            f"range [{acc.min()}, {acc.max()}]"
        )


def reference_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
) -> np.ndarray:
    """Ground-truth integer product ``decode(W) @ decode(X).T`` (int64)."""
    wv = weight.decode(np.asarray(w_digits))
    xv = feature.decode(np.asarray(x_digits))
    return wv @ xv.T


def _plane_popcount(
    w_planes_packed: np.ndarray,
    x_planes_packed: np.ndarray,
    op: TCOp,
) -> np.ndarray:
    """Popcount-accumulated Boolean products for all plane pairs at once.

    Parameters
    ----------
    w_planes_packed:
        ``(p, M, nwords)`` uint64 packed weight planes.
    x_planes_packed:
        ``(q, N, nwords)`` uint64 packed feature planes.
    op:
        Boolean reduction operator.

    Returns
    -------
    np.ndarray
        ``(p, q, M, N)`` int64 popcount sums.

    The broadcast shape ``(p, 1, M, 1, nw) op (1, q, 1, N, nw)`` evaluates
    every ``(s, t)`` plane pair in one vectorized expression -- the
    simulator-side analogue of the paper's *batched* BMMA, where all plane
    pairs are issued as one large Boolean GEMM.
    """
    wb = w_planes_packed[:, None, :, None, :]
    xb = x_planes_packed[None, :, None, :, :]
    if op is TCOp.AND:
        combined = wb & xb
    else:
        combined = wb ^ xb
    return popcount_reduce(combined, axis=-1)


def combine_plane_popcounts(
    popc: np.ndarray,
    plan: OperatorPlan,
    k_logical: int,
    wsum: np.ndarray | None = None,
    xsum: np.ndarray | None = None,
) -> np.ndarray:
    """Affine correction + shifted-add combination (paper eq. 1).

    ``popc`` holds the raw ``(p, q, M, N)`` plane-pair popcounts; ``wsum``
    (``(p, M)``) and ``xsum`` (``(q, N)``) are the per-plane row bit
    counts, required exactly when the plan's correction references them.
    """
    plane_vals = plan.popc_scale * popc
    if plan.k_scale:
        plane_vals = plane_vals + plan.k_scale * np.int64(k_logical)
    if plan.needs_row_sums:
        plane_vals = plane_vals + plan.wsum_scale * wsum[:, None, :, None]
    if plan.needs_col_sums:
        plane_vals = plane_vals + plan.xsum_scale * xsum[None, :, None, :]
    p, q = popc.shape[0], popc.shape[1]
    shifts = (
        np.arange(p, dtype=np.int64)[:, None]
        + np.arange(q, dtype=np.int64)[None, :]
    )
    weights = (np.int64(1) << shifts)[:, :, None, None]
    return np.sum(plane_vals * weights, axis=(0, 1), dtype=np.int64)


def apbit_matmul_planes(
    w_planes: np.ndarray,
    x_planes: np.ndarray,
    k_logical: int,
    plan: OperatorPlan,
    *,
    check_overflow: bool = True,
) -> np.ndarray:
    """Bit-serial product from already-decomposed 0/1 planes.

    Parameters
    ----------
    w_planes:
        ``(p, M, K)`` 0/1 weight planes.
    x_planes:
        ``(q, N, K)`` 0/1 feature planes.
    k_logical:
        True reduction length ``K`` (pre-padding); required by the XOR path
        (``y = K - 2*popc``) and by the affine corrections.
    plan:
        Operator plan from :func:`repro.core.opselect.select_operator`.
    check_overflow:
        Verify the exact result fits the int32 accumulator contract of the
        Tensor-Core primitive; raise :class:`OverflowError` otherwise.
    """
    w_planes = np.asarray(w_planes)
    x_planes = np.asarray(x_planes)
    if w_planes.ndim != 3 or x_planes.ndim != 3:
        raise ValueError("planes must be (bits, rows, K) arrays")
    if w_planes.shape[2] != x_planes.shape[2]:
        raise ValueError(
            f"K mismatch: {w_planes.shape[2]} vs {x_planes.shape[2]}"
        )

    wp = pack_bits(w_planes)
    xp = pack_bits(x_planes)
    popc = _plane_popcount(wp, xp, plan.op)  # (p, q, M, N)
    out = combine_plane_popcounts(
        popc,
        plan,
        k_logical,
        # rowsum(W_s): (p, M) -> broadcast over (q, N), and vice versa
        wsum=popcount_reduce(wp, axis=-1) if plan.needs_row_sums else None,
        xsum=popcount_reduce(xp, axis=-1) if plan.needs_col_sums else None,
    )

    if check_overflow:
        check_int32_accumulator(out)
    return out


def apbit_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    check_overflow: bool = True,
) -> np.ndarray:
    """Arbitrary-precision matmul via 1-bit emulation (paper section 3).

    ``w_digits`` is ``(M, K)`` with raw digits in ``[0, 2**p)``;
    ``x_digits`` is ``(N, K)`` with raw digits in ``[0, 2**q)``.
    Returns ``decode(W) @ decode(X).T`` as int64 (values guaranteed to fit
    int32 when ``check_overflow`` is enabled).
    """
    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError(
            f"reduction mismatch: W K={w_digits.shape[1]}, X K={x_digits.shape[1]}"
        )
    plan = select_operator(weight, feature)
    w_planes = bit_decompose(w_digits, weight.bits)
    x_planes = bit_decompose(x_digits, feature.bits)
    return apbit_matmul_planes(
        w_planes,
        x_planes,
        k_logical=w_digits.shape[1],
        plan=plan,
        check_overflow=check_overflow,
    )
