"""Data layouts for arbitrary-precision tensors (paper section 4.2a).

Feature maps are 4-D ``(N, C, H, W)`` integer digit arrays.  For bit-level
convolution the paper replaces the traditional NCHW layout with the
**channel-major NPHWC** organization (Fig. 4):

* the ``P`` bit-planes of a ``P``-bit tensor are split apart and each plane
  is stored contiguously -- every plane is a plain binary tensor, so loads
  are word-aligned for any ``P``;
* within a plane, all ``C`` channels of one spatial position are
  consecutive (channels innermost) and packed into 64-bit words -- a
  ``K x K`` window then reads ``K*K`` contiguous channel runs instead of
  ``K``-strided scalars, giving coalesced access.

The cost model prices that coalescing
(:func:`~repro.perf.cost.conv_cost`'s ``channel_major`` flag).  On the
host, :func:`im2col` lowers convolution windows to the GEMM operand
layout every execution strategy consumes, in the same channel-major
``(KH, KW, C)`` K order as the packed window gather, and
:func:`conv_weight_matrix` flattens weights to match.
"""

from __future__ import annotations

import numpy as np

__all__ = ["im2col", "conv_weight_matrix", "conv_output_shape"]


def conv_output_shape(
    height: int, width: int, kernel: int, stride: int = 1, padding: int = 0
) -> tuple[int, int]:
    """Spatial output dims of a convolution."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ValueError("kernel/stride must be >= 1 and padding >= 0")
    oh = (height + 2 * padding - kernel) // stride + 1
    ow = (width + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"conv window {kernel} exceeds padded input {height}x{width}+{padding}"
        )
    return oh, ow


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1
) -> np.ndarray:
    """Lower (N, C, H, W) windows to GEMM rows: (N*OH*OW, kernel*kernel*C).

    The input must already be padded (padding strategy is encoding-aware
    and handled by :mod:`repro.kernels.padding`).  Columns are
    channel-major, ``(kh, kw, C)`` with channels innermost (section
    4.2a), matching :func:`conv_weight_matrix`: one channel-last copy of
    ``x``, then one copy of its windows that moves ``C``-long runs.  The
    dtype of ``x`` is kept.
    """
    if x.ndim != 4:
        raise ValueError(f"expected 4-D NCHW tensor, got shape {x.shape}")
    n, c, h, w = x.shape
    oh, ow = conv_output_shape(h, w, kernel, stride, padding=0)
    x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    windows = np.lib.stride_tricks.sliding_window_view(
        x_cl, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride]
    # (N, OH, OW, C, kh, kw) -> (N, OH, OW, kh, kw, C)
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(windows).reshape(n * oh * ow, kernel * kernel * c)


def conv_weight_matrix(w: np.ndarray) -> np.ndarray:
    """Flatten ``(C_out, C_in, KH, KW)`` weights to the GEMM rows
    ``(C_out, KH*KW*C_in)`` in :func:`im2col`'s column order."""
    if w.ndim != 4:
        raise ValueError(f"expected 4-D weights, got shape {w.shape}")
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)
