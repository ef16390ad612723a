"""Packed-word convolution without im2col materialization.

The default packed conv lowers onto APMM by materializing the im2col
digit matrix -- ``(batch * OH * OW, C_in * KH * KW)`` digits, every
input pixel duplicated ``KH * KW`` times *before* bit packing.  This
module is the compiled alternative, the ``gather`` path of
:class:`repro.core.packed.HostProduct`, taken where the host cost model
prices it lowest: pack the padded feature map **once** (channel-last,
``C_in`` bits per pixel packed into ``ceil(C_in / 64)`` words) and let
the ``conv_gather`` kernel (:mod:`repro.core.backends`) copy each
window's ``KH * KW`` word-runs straight into the GEMM operand -- the
duplication happens on 64x-compressed words, and the digit matrix never
exists.

The K order is the im2col path's, ``(KH, KW, C_in)`` (the weight side
flattens through :func:`~repro.kernels.layout.conv_weight_matrix`), and
the zero filler bits in each ``C_in`` word group are neutral for both
``AND`` and ``XOR`` because both operands are zero there; outputs are
therefore byte-identical to the im2col path (the hypothesis suite
enforces it).

Packing and the fused weighted popcount GEMM, with the operator plan's
correction applied in the kernel, are the ones
:func:`repro.core.packed.packed_matmul` runs on its popcount path --
same algebra, same int64 exactness.
"""

from __future__ import annotations

import numpy as np

from ..core import backends, cores
from ..core.bitops import packed_words
from ..core.packed import HOST_RATES, _check_digits, _pack_planes, _popcount_matmul
from ..core.types import Precision
from .layout import conv_weight_matrix

__all__ = ["packed_conv_matmul"]


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
        Kernel backend; must be compiled (``apconv`` asks
        :meth:`~repro.core.packed.HostProduct.cheapest` first).

    Returns
    -------
    np.ndarray
        ``(C_out, batch * OH * OW)`` int64 accumulators -- the same GEMM
        result shape the im2col path produces, ready for the caller's
        reshape and padding correction.
    """
    gather = backends.kernel("conv_gather", backend)
    if gather is None:
        raise RuntimeError("packed_conv_matmul needs a compiled backend")

    cout, cin, kh, kw = w_digits.shape
    batch, cin_x, hp, wp = padded.shape
    if cin != cin_x:
        raise ValueError(
            f"channel mismatch: weights C_in={cin}, features C_in={cin_x}"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(padded, feature, "feature")
    p, q = weight.bits, feature.bits
    cwords = packed_words(cin)

    # Features: channel-last, C_in packed per pixel; the q feature planes
    # ride the images axis so the gathered rows come out plane-major --
    # exactly the virtual batched operand layout.
    x_cl = np.empty((batch, hp, wp, cin), dtype=padded.dtype)

    def part(lo: int, hi: int) -> None:  # images lo .. hi-1
        x_cl[lo:hi] = padded[lo:hi].transpose(0, 2, 3, 1)

    cores.split(batch, part, x_cl.size / HOST_RATES.layout_digits)
    x_words = _pack_planes(x_cl.reshape(batch * hp * wp, cin), q)
    gathered = gather(x_words.reshape(q * batch, hp, wp, cwords), kh, kw, stride)

    # Weights: the gathered windows' K order, (KH, KW, C_in packed), one
    # row per (plane, output channel).
    w_flat = conv_weight_matrix(w_digits)
    w_words = _pack_planes(w_flat.reshape(cout * kh * kw, cin), p)

    return _popcount_matmul(
        w_words.reshape(p * cout, kh * kw * cwords), gathered,
        weight, feature, cin * kh * kw, backend=backend,
    )
