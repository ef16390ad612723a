"""Compiled convolution without an im2col digit matrix.

The default packed conv lowers onto APMM by materializing the im2col
digit matrix -- ``(batch * OH * OW, C_in * KH * KW)`` digits, every
input pixel duplicated ``KH * KW`` times.  This module holds the two
compiled alternatives of :class:`repro.core.packed.HostProduct`, each
taken where the host cost model prices it lowest.

Both take the padded channel-last map
:func:`~repro.kernels.layout.pad_channel_last` writes, the one operand
layout every conv path reads.

The ``gather`` path (:func:`packed_conv_matmul`), the popcount
emulation: pack that map **once** (``C_in`` bits per pixel packed into
``ceil(C_in / 64)`` words) and let the ``conv_gather`` kernel
(:mod:`repro.core.backends`) copy each window's ``KH * KW`` word-runs
straight into the GEMM operand -- the duplication happens on
64x-compressed words.  The zero filler bits in each ``C_in`` word group
are neutral for both ``AND`` and ``XOR`` because both operands are zero
there.  Packing and the fused weighted popcount GEMM,
with the operator plan's correction applied in the kernel, are the ones
:func:`repro.core.packed.packed_matmul` runs on its popcount path --
same algebra, same int64 exactness.

The ``vnni`` path (:func:`vnni_conv_matmul`), native int8: let the
``vnni_conv`` kernel write each window's ``KH`` byte runs of the u8 map
straight into 32-pixel k-quad panels, then multiply the decoded s8
weights against them with AVX-512 VNNI in int32.  It costs the same at
every pair up to ``w7a8``, so it takes the convs whose ``p*q`` makes the
emulation dearer.

Both keep the im2col path's K order, ``(KH, KW, C_in)`` (the weight
side flattens like :func:`~repro.kernels.layout.conv_weight_matrix`),
so their outputs are byte-identical to it (the hypothesis suites
enforce it).  A prepared weight (:mod:`repro.core.prepared`) keeps its
range and its packed planes or s8 panels.
"""

from __future__ import annotations

import numpy as np

from ..core import backends, prepared
from ..core.bitops import packed_words
from ..core.packed import (
    _VNNI_TILE,
    HostProduct,
    _check_digits,
    _pack_planes,
    _popcount_matmul,
)
from ..core.types import Precision
from .layout import conv_weight_matrix

__all__ = ["packed_conv_matmul", "vnni_conv_matmul"]


def packed_conv_matmul(
    w_digits: np.ndarray,
    x_map: np.ndarray,
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
    x_map:
        ``(batch, HP, WP, C_in)`` feature digits, already padded and
        channel-last by :func:`~repro.kernels.layout.pad_channel_last`
        (the caller owns input-aware padding).
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
    batch, hp, wp, cin_x = x_map.shape
    if cin != cin_x:
        raise ValueError(
            f"channel mismatch: weights C_in={cin}, features C_in={cin_x}"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(x_map, feature, "feature")
    p, q = weight.bits, feature.bits
    cwords = packed_words(cin)

    # Features: C_in packed per pixel; the q feature planes ride the
    # images axis so the gathered rows come out plane-major -- exactly
    # the virtual batched operand layout.
    x_words = _pack_planes(x_map.reshape(batch * hp * wp, cin), q)
    gathered = gather(x_words.reshape(q * batch, hp, wp, cwords), kh, kw, stride)

    # Weights: the gathered windows' K order, (KH, KW, C_in packed), one
    # row per (plane, output channel).  A prepared weight keeps only the
    # planes: its matrix is not read again.
    w_words = prepared.form(
        w_digits, ("gather planes", p),
        lambda: _pack_planes(
            conv_weight_matrix(w_digits).reshape(cout * kh * kw, cin), p
        ),
    )

    return _popcount_matmul(
        w_words.reshape(p * cout, kh * kw * cwords), gathered,
        weight, feature, cin * kh * kw, backend=backend,
    )


def _vnni_weights(w_digits: np.ndarray, weight: Precision) -> np.ndarray:
    """Decoded weights as the VNNI GEMM's s8 panels.

    ``(C_out, C_in, KH, KW)`` digits -> ``(ceil(C_out/8), ceil(K/4), 8,
    4)`` int8: quad ``kq`` of row ``8*t + r`` at ``[t, kq, r]``, K in the
    ``(KH, KW, C_in)`` order of :func:`conv_weight_matrix`, zero past
    ``C_out`` and ``K``.  Decoding runs in wrapping int8 arithmetic,
    which is exact because every decoded value of at most 7 bits fits.
    """
    cout, cin, kh, kw = w_digits.shape
    k = kh * kw * cin
    tile_m = _VNNI_TILE[0]
    rows, kquads = -(-cout // tile_m), -(-k // 4)
    s8 = np.zeros((rows * tile_m, kquads * 4), dtype=np.int8)
    values = s8[:cout, :k]
    values.reshape(cout, kh, kw, cin)[...] = w_digits.transpose(0, 2, 3, 1)
    a, b = weight.decode_affine
    if a != 1:
        values *= np.int8(a)
    if b:
        values += np.int8(b)
    # each row's k-quads as int32, interleaved eight rows at a time
    quads = s8.view(np.int32).reshape(rows, tile_m, kquads).transpose(0, 2, 1)
    return np.ascontiguousarray(quads).view(np.int8).reshape(
        rows, kquads, tile_m, 4
    )


def vnni_conv_matmul(
    w_digits: np.ndarray,
    x_map: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    stride: int = 1,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Implicit-GEMM conv on the host's int8 dot-product unit.

    Takes and returns what :func:`packed_conv_matmul` does.  The
    ``vnni_conv`` kernel (:mod:`repro.core.backends`) writes the map's
    im2col windows, as u8 digits, straight into 32-pixel k-quad panels,
    and an AVX-512 VNNI GEMM multiplies the decoded s8 weights against
    them, in int32, stored as int64.  Bipolar activations then take the
    affine correction ``2*(W @ X.T) - (2**q - 1)*rowsum(W)`` over the
    decoded weights ``W``.

    Only products :meth:`~repro.core.packed.HostProduct.int8_exact`
    admits run here: weights of at most 7 bits, activations of at most 8
    and :func:`~repro.core.packed.fold_exactness_bound` below ``2**31``;
    others raise :class:`ValueError`.  A prepared weight
    (:mod:`repro.core.prepared`) keeps its range and its s8 panels.
    """
    conv = backends.kernel("vnni_conv", backend)
    if conv is None:
        raise RuntimeError("vnni_conv_matmul needs a compiled backend")
    cout, cin, kh, kw = w_digits.shape
    batch, hp, wp, cin_x = x_map.shape
    if cin != cin_x:
        raise ValueError(
            f"channel mismatch: weights C_in={cin}, features C_in={cin_x}"
        )
    product = HostProduct.conv(batch, cin, cout, hp, wp, kh, stride,
                               weight.bits, feature.bits)
    if not product.int8_exact():
        raise ValueError(
            f"the int8 path cannot run w{weight.bits}a{feature.bits} at "
            f"K={product.k} exactly"
        )
    _check_digits(w_digits, weight, "weight")
    _check_digits(x_map, feature, "feature")
    w_panels = prepared.form(
        w_digits, ("vnni panels", weight), lambda: _vnni_weights(w_digits, weight)
    )
    # in range, so a wider map narrows exactly; a u8 map is not copied
    out = conv(x_map.astype(np.uint8, copy=False), w_panels, cout, kh, stride)
    a, b = feature.decode_affine
    if (a, b) != (1, 0):
        rows = w_panels.sum(axis=(1, 3), dtype=np.int64).reshape(-1)[:cout]
        out *= a
        out += b * rows[:, None]
    return out
