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
host every conv path reads one operand layout: the padded channel-last
map ``(N, H+2p, W+2p, C)`` that :func:`pad_channel_last` writes in one
pass.  :func:`im2col` lowers its windows to the GEMM operand the fold
and the reference strategies consume, in the same channel-major
``(KH, KW, C)`` K order as the packed window gather and the int8 panel
writer, and :func:`conv_weight_matrix` flattens weights to match.
"""

from __future__ import annotations

import numpy as np

from ..core import cores
from ..core.packed import HOST_RATES, _layout_us

__all__ = ["pad_channel_last", "im2col", "conv_weight_matrix", "conv_output_shape"]


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


def pad_channel_last(x: np.ndarray, padding: int, pad_digit: int) -> np.ndarray:
    """``(N, C, H, W)`` -> ``(N, H+2p, W+2p, C)`` in one pass: the
    border ``padding`` pixels wide holds ``pad_digit``, in a dtype
    widened to hold it (a bipolar max digit must not wrap).  Split by
    image, priced as the copy
    :meth:`~repro.core.packed.HostProduct.host_us` charges every conv
    path; padding 0 returns a channel-last copy."""
    if x.ndim != 4:
        raise ValueError(f"expected 4-D NCHW tensor, got shape {x.shape}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    dtype = np.promote_types(x.dtype, np.min_scalar_type(pad_digit))
    n, c, h, w = x.shape
    p = padding
    hp, wp = h + 2 * p, w + 2 * p
    out = np.empty((n, hp, wp, c), dtype=dtype)

    def part(lo: int, hi: int) -> None:  # images lo .. hi-1
        frame = out[lo:hi]
        frame[:, :p] = pad_digit
        frame[:, p + h:] = pad_digit
        frame[:, p:p + h, :p] = pad_digit
        frame[:, p:p + h, p + w:] = pad_digit
        frame[:, p:p + h, p:p + w] = x[lo:hi].transpose(0, 2, 3, 1)

    cores.split(n, part, _layout_us(n * hp * wp, c, HOST_RATES))
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1
) -> np.ndarray:
    """Lower a padded channel-last map's windows to GEMM rows.

    ``x`` is the ``(N, HP, WP, C)`` map of :func:`pad_channel_last`;
    the result is ``(N*OH*OW, kernel*kernel*C)``.  Columns are
    channel-major, ``(kh, kw, C)`` with channels innermost (section
    4.2a), matching :func:`conv_weight_matrix`: one copy of the windows
    that moves ``C``-long runs, split by image
    (:func:`repro.core.cores.split`).  The dtype of ``x`` is kept.
    """
    if x.ndim != 4:
        raise ValueError(f"expected 4-D NHWC map, got shape {x.shape}")
    n, h, w, c = x.shape
    oh, ow = conv_output_shape(h, w, kernel, stride, padding=0)
    out = np.empty((n, oh, ow, kernel, kernel, c), dtype=x.dtype)

    def part(lo: int, hi: int) -> None:  # images lo .. hi-1
        windows = np.lib.stride_tricks.sliding_window_view(
            x[lo:hi], (kernel, kernel), axis=(1, 2)
        )[:, ::stride, ::stride]
        # (N, OH, OW, C, kh, kw) -> (N, OH, OW, kh, kw, C)
        out[lo:hi] = windows.transpose(0, 1, 2, 4, 5, 3)

    cores.split(n, part, out.size / HOST_RATES.im2col_digits)
    return out.reshape(n * oh * ow, kernel * kernel * c)


def conv_weight_matrix(w: np.ndarray) -> np.ndarray:
    """Flatten ``(C_out, C_in, KH, KW)`` weights to the GEMM rows
    ``(C_out, KH*KW*C_in)`` in :func:`im2col`'s column order."""
    if w.ndim != 4:
        raise ValueError(f"expected 4-D weights, got shape {w.shape}")
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)
