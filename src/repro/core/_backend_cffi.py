"""cffi kernel backend: the packed hot loops as C.

Every kernel mirrors the numpy packed path exactly (bit for bit).  Two
serve the popcount emulation: the popcount GEMM of
:mod:`repro.core.packed` (``apmm``, where the host cost model,
:class:`repro.core.packed.HostProduct`, prices it below the fold) and
the packed conv gather (:mod:`repro.kernels.packed_conv`).  Their
operands arrive already packed, by ``np.packbits`` in
:mod:`repro.core.packed`:

* ``repro_packed_gemm`` -- the *fused weighted* popcount-reduce GEMM
  with the operator plan's affine correction (the paper's APMM, §4.1):

      out[i, j] = popc_scale * sum_{s,t} 2**(s+t) * popc(a[s*m+i] op b[t*n+j])
                + k_scale * K * Sp * Sq
                + wsum_scale * Sq * roww[i] + xsum_scale * Sp * rowx[j]

  with ``Sp = 2**p - 1``, ``Sq = 2**q - 1`` and ``roww``/``rowx`` the
  plane-weighted row sums ``sum_s 2**s * popc(plane s of the row)``,
  counted from the same packed words.  The result is the fold's
  (:func:`repro.core.packed.packed_matmul`), exact in int64.
* ``repro_conv_gather`` -- per-window gather of channel-packed words
  from a padded feature map (``memcpy`` of ``kw * cwords`` word runs),
  replacing the im2col digit-matrix materialization.

The GEMM has two branches, chosen when the module is compiled
(``repro_popcount_branch()`` reports which: 1 or 0), and the host cost
model prices each with its own fitted rate.  Where the
compiler targets AVX-512F and AVX-512 VPOPCNTDQ, it is a register-tiled
micro-kernel: ``b`` is copied into word-major panels of 16 columns, and
each 4x16 output tile accumulates every ``(s, t)`` plane pair with
``_mm512_popcnt_epi64``, shifts it by ``s+t`` in registers and is stored
once, correction applied.  Elsewhere it is a scalar loop nest, one
read-modify-write pass over the output per plane pair, followed by one
correction pass; a portable 16-lane tile was slower than that loop on an
AVX2 target.

Two more are the native int8 conv, the host's counterpart of the
CUTLASS int8 kernels the paper measures its emulation against
(:func:`repro.kernels.packed_conv.vnni_conv_matmul`):

* ``repro_vnni_panels`` -- copies the im2col windows of a channel-last
  u8 map straight into 32-pixel k-quad panels (each panel's 32 windows
  gathered as ``kernel`` runs of ``kernel * C_in`` bytes into a scratch
  block, then written one k-quad row of 128 bytes at a time);
* ``repro_vnni_gemm`` -- an 8x32 register-tiled GEMM: each k-quad
  broadcasts four s8 weights of each of 8 rows and multiplies them with
  ``_mm512_dpbusd_epi32`` against two 16-pixel halves of a panel, which
  adds four u8 x s8 products into each int32 lane without saturating.
  Each tile's 16 accumulators are widened to int64 and stored once.
  Every partial sum is exact because the caller admits only products
  whose :func:`repro.core.packed.fold_exactness_bound` is below
  ``2**31``.

They exist only where the compiler targets AVX-512F, BW and VNNI
(``repro_vnni_build()`` reports 1; elsewhere both return 2 and
:func:`vnni_build` is False), independently of the popcount branch: a
CPU can have VNNI without VPOPCNTDQ.  Both split in whole panels or
tiles through :func:`repro.core.cores.split`.

The shared object is compiled once per C-source hash and host CPU
feature set, and cached under ``REPRO_CFFI_CACHE`` (default
``~/.cache/repro/cffi``), so only the first process on a machine pays
the ~seconds of gcc; everyone after does a dlopen.  The CPU features are
part of the name because the build targets the host: a cache shared
with another machine must not hand it an object with instructions its
CPU lacks.  ``-march=native`` matters: it selects the AVX-512
micro-kernel and the VNNI kernels where the host has them, and without ``-mpopcnt`` gcc lowers
``__builtin_popcountll`` to a libgcc bit-twiddling routine and the loop
nest runs ~10x slower, so the build tries native flags first and falls
back to plain ``-O3`` on compilers that reject them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import cores
from .packed import (
    _MICRO_TILE as _TILE,
    _VNNI_TILE,
    HOST_RATES,
    HostProduct,
    _vnni_gemm_us,
    _vnni_panel_us,
)

__all__ = [
    "kernels", "cache_dir", "popcount_branch", "vnni_build", "loop_nest_build",
    "CFFI_SOURCE",
]

CFFI_CDEF = """
int repro_packed_gemm(const uint64_t *a, const uint64_t *b,
                      int64_t p, int64_t m, int64_t q, int64_t n,
                      int64_t nwords, int32_t op_and, int64_t k,
                      int64_t popc_scale, int64_t k_scale,
                      int64_t wsum_scale, int64_t xsum_scale,
                      int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                      int64_t *out);
int repro_popcount_branch(void);
void repro_conv_gather(const uint64_t *src, int64_t images, int64_t h,
                       int64_t w, int64_t cwords, int64_t kh, int64_t kw,
                       int64_t stride, uint64_t *out);
int repro_vnni_build(void);
int repro_vnni_panels(const uint8_t *src, int64_t images, int64_t h,
                      int64_t w, int64_t c, int64_t kernel, int64_t stride,
                      int64_t b0, int64_t b1, uint8_t *out);
int repro_vnni_gemm(const int8_t *wpan, const uint8_t *xpan, int64_t m,
                    int64_t n, int64_t kquads, int64_t i0, int64_t i1,
                    int64_t b0, int64_t b1, int64_t *out);
"""

CFFI_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
#define REPRO_TILED 1
#else
#define REPRO_TILED 0
#endif
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define REPRO_VNNI 1
#else
#define REPRO_VNNI 0
#endif

/* 1 when repro_packed_gemm is the AVX-512 micro-kernel, 0 when it is
   the scalar loop nest. */
int repro_popcount_branch(void) { return REPRO_TILED; }

/* sum_s 2**s * popc(plane s of row r) over plane-major packed words:
   plane s of row r at x[(s*rows + r) * nwords]. */
static int64_t plane_sum(const uint64_t *x, int64_t bits, int64_t rows,
                         int64_t r, int64_t nwords) {
    int64_t total = 0;
    for (int64_t s = 0; s < bits; s++) {
        const uint64_t *row = x + (s * rows + r) * nwords;
        int64_t count = 0;
        for (int64_t w = 0; w < nwords; w++)
            count += __builtin_popcountll(row[w]);
        total += count << s;
    }
    return total;
}

#if REPRO_TILED
#define TILE_M 4
#define TILE_N 16

/* popc(x op y) per 64-bit lane; op_and is a literal at every call */
static inline __attribute__((always_inline)) __m512i popc_op(
        __m512i x, __m512i y, const int op_and) {
    return _mm512_popcnt_epi64(op_and ? _mm512_and_si512(x, y)
                                      : _mm512_xor_si512(x, y));
}

/* One tile: rows i0 .. i0+rows-1 (rows <= TILE_M) against a panel of
   TILE_N columns, panel[(t*nwords + w)*TILE_N + c] = word w of plane t
   of column c.  Every (s, t) pair accumulates in registers and is
   shifted by s+t there; the tile is stored once, as popc_scale * sum +
   rb[r] + col_bias[j] (rb: the tile's row_bias, cb: the panel's
   col_bias), under the panel's column masks. */
static inline __attribute__((always_inline)) void gemm_tile(
        const uint64_t *a, const uint64_t *panel, int64_t p, int64_t m,
        int64_t q, int64_t nwords, int64_t i0, int64_t rows,
        const int op_and, __m512i scale, const int64_t *rb,
        const __m512i cb[2], const __mmask8 mask[2], int64_t *out,
        int64_t n) {
    __m512i acc[TILE_M][2];
    for (int r = 0; r < TILE_M; r++)
        acc[r][0] = acc[r][1] = _mm512_setzero_si512();
    for (int64_t s = 0; s < p; s++) {
        /* a partial tile repeats row i0; its extra rows are not stored */
        const uint64_t *ar[TILE_M];
        for (int r = 0; r < TILE_M; r++)
            ar[r] = a + (s * m + i0 + (r < rows ? r : 0)) * nwords;
        for (int64_t t = 0; t < q; t++) {
            const uint64_t *bp = panel + t * nwords * TILE_N;
            __m512i x[TILE_M][2];
            for (int r = 0; r < TILE_M; r++)
                x[r][0] = x[r][1] = _mm512_setzero_si512();
            for (int64_t w = 0; w < nwords; w++) {
                const __m512i b0 = _mm512_load_si512(bp + w * TILE_N);
                const __m512i b1 = _mm512_load_si512(bp + w * TILE_N + 8);
                for (int r = 0; r < TILE_M; r++) {
                    const __m512i aw = _mm512_set1_epi64((long long)ar[r][w]);
                    x[r][0] = _mm512_add_epi64(x[r][0], popc_op(aw, b0, op_and));
                    x[r][1] = _mm512_add_epi64(x[r][1], popc_op(aw, b1, op_and));
                }
            }
            for (int r = 0; r < TILE_M; r++)
                for (int h = 0; h < 2; h++)
                    acc[r][h] = _mm512_add_epi64(acc[r][h],
                        _mm512_slli_epi64(x[r][h], (unsigned int)(s + t)));
        }
    }
    for (int r = 0; r < rows; r++) {
        const __m512i bias = _mm512_set1_epi64(rb[r]);
        for (int h = 0; h < 2; h++)
            _mm512_mask_storeu_epi64(out + (i0 + r) * n + 8 * h, mask[h],
                _mm512_add_epi64(_mm512_add_epi64(
                    _mm512_mullox_epi64(acc[r][h], scale), bias), cb[h]));
    }
}

static int gemm_body(const uint64_t *a, const uint64_t *b, int64_t p,
                     int64_t m, int64_t q, int64_t n, int64_t nwords,
                     int32_t op_and, int64_t popc_scale,
                     const int64_t *row_bias, const int64_t *col_bias,
                     int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                     int64_t *out) {
    size_t panel_bytes = (size_t)(q * nwords * TILE_N) * sizeof(uint64_t);
    uint64_t *panel = aligned_alloc(64, (panel_bytes + 63) & ~(size_t)63);
    if (panel == NULL)
        return 1;
    const __m512i scale = _mm512_set1_epi64(popc_scale);
    for (int64_t jt = j0; jt < j1; jt += TILE_N) {
        int64_t cols = j1 - jt < TILE_N ? j1 - jt : TILE_N;
        /* word-major panel of columns jt .. jt+cols-1, zero past j1 */
        for (int64_t t = 0; t < q; t++) {
            uint64_t *dst = panel + t * nwords * TILE_N;
            for (int64_t c = 0; c < cols; c++) {
                const uint64_t *src = b + (t * n + jt + c) * nwords;
                for (int64_t w = 0; w < nwords; w++)
                    dst[w * TILE_N + c] = src[w];
            }
            for (int64_t c = cols; c < TILE_N; c++)
                for (int64_t w = 0; w < nwords; w++)
                    dst[w * TILE_N + c] = 0;
        }
        const __mmask8 mask[2] = {
            (__mmask8)(cols >= 8 ? 0xFF : (1u << cols) - 1),
            (__mmask8)(cols > 8 ? (1u << (cols - 8)) - 1 : 0)};
        const __m512i cb[2] = {
            _mm512_maskz_loadu_epi64(mask[0], col_bias + (jt - j0)),
            _mm512_maskz_loadu_epi64(mask[1], col_bias + (jt - j0) + 8)};
        for (int64_t it = i0; it < i1; it += TILE_M) {
            int64_t rows = i1 - it < TILE_M ? i1 - it : TILE_M;
            if (op_and)
                gemm_tile(a, panel, p, m, q, nwords, it, rows, 1, scale,
                          row_bias + (it - i0), cb, mask, out + jt, n);
            else
                gemm_tile(a, panel, p, m, q, nwords, it, rows, 0, scale,
                          row_bias + (it - i0), cb, mask, out + jt, n);
        }
    }
    free(panel);
    return 0;
}
#else
/* Loop nest: one read-modify-write pass over the block per (s, t)
   pair, j blocked so the b rows of one block stay cache-resident across
   the i sweep; then one pass applying the correction. */
static int gemm_body(const uint64_t *a, const uint64_t *b, int64_t p,
                     int64_t m, int64_t q, int64_t n, int64_t nwords,
                     int32_t op_and, int64_t popc_scale,
                     const int64_t *row_bias, const int64_t *col_bias,
                     int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                     int64_t *out) {
    const int64_t BJ = 48;
    for (int64_t i = i0; i < i1; i++)
        memset(out + i * n + j0, 0, (size_t)(j1 - j0) * sizeof(int64_t));
    for (int64_t s = 0; s < p; s++) {
        for (int64_t t = 0; t < q; t++) {
            const int64_t shift = s + t;
            const uint64_t *ap = a + s * m * nwords;
            const uint64_t *bp = b + t * n * nwords;
            for (int64_t jb = j0; jb < j1; jb += BJ) {
                int64_t je = jb + BJ < j1 ? jb + BJ : j1;
                for (int64_t i = i0; i < i1; i++) {
                    const uint64_t *ar = ap + i * nwords;
                    int64_t *orow = out + i * n;
                    if (op_and) {
                        for (int64_t j = jb; j < je; j++) {
                            const uint64_t *br = bp + j * nwords;
                            int64_t acc = 0;
                            for (int64_t w = 0; w < nwords; w++)
                                acc += __builtin_popcountll(ar[w] & br[w]);
                            orow[j] += acc << shift;
                        }
                    } else {
                        for (int64_t j = jb; j < je; j++) {
                            const uint64_t *br = bp + j * nwords;
                            int64_t acc = 0;
                            for (int64_t w = 0; w < nwords; w++)
                                acc += __builtin_popcountll(ar[w] ^ br[w]);
                            orow[j] += acc << shift;
                        }
                    }
                }
            }
        }
    }
    for (int64_t i = i0; i < i1; i++) {
        int64_t *orow = out + i * n;
        for (int64_t j = j0; j < j1; j++)
            orow[j] = (int64_t)((uint64_t)popc_scale * (uint64_t)orow[j]
                                + (uint64_t)row_bias[i - i0]
                                + (uint64_t)col_bias[j - j0]);
    }
    return 0;
}
#endif

/* Fused weighted popcount GEMM over plane-major packed operands with
   the operator plan's correction: a is (p*m, nwords), plane s of row i
   at a[s*m + i]; b is (q*n, nwords); out is (m, n), of which the call
   writes the block [i0, i1) x [j0, j1) and nothing else, so calls on
   disjoint blocks may run at once.  The correction splits by axis into
   row_bias[i] = k_scale*K*Sp*Sq + wsum_scale*Sq*roww[i] and col_bias[j]
   = xsum_scale*Sp*rowx[j], counted for the block's rows and columns
   only; it is summed in uint64, so a term that wraps leaves an in-range
   result exact.  Returns nonzero when a buffer cannot be allocated. */
int repro_packed_gemm(const uint64_t *a, const uint64_t *b,
                      int64_t p, int64_t m, int64_t q, int64_t n,
                      int64_t nwords, int32_t op_and, int64_t k,
                      int64_t popc_scale, int64_t k_scale,
                      int64_t wsum_scale, int64_t xsum_scale,
                      int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                      int64_t *out) {
    int64_t *row_bias = malloc((size_t)(i1 - i0 + j1 - j0) * sizeof(int64_t));
    if (row_bias == NULL)
        return 1;
    int64_t *col_bias = row_bias + (i1 - i0);
    const uint64_t sp = ((uint64_t)1 << p) - 1;
    const uint64_t sq = ((uint64_t)1 << q) - 1;
    const uint64_t k_term = (uint64_t)k_scale * (uint64_t)k * sp * sq;
    for (int64_t i = i0; i < i1; i++)
        row_bias[i - i0] = (int64_t)(k_term + (wsum_scale == 0 ? 0
            : (uint64_t)wsum_scale * sq
              * (uint64_t)plane_sum(a, p, m, i, nwords)));
    for (int64_t j = j0; j < j1; j++)
        col_bias[j - j0] = xsum_scale == 0 ? 0 : (int64_t)(
            (uint64_t)xsum_scale * sp
            * (uint64_t)plane_sum(b, q, n, j, nwords));
    int status = gemm_body(a, b, p, m, q, n, nwords, op_and, popc_scale,
                           row_bias, col_bias, i0, i1, j0, j1, out);
    free(row_bias);
    return status;
}

/* Window gather over a channel-packed padded feature map
   (images, h, w, cwords): each output row is one window's kh*kw runs of
   cwords words, kernel-row-major -- the K axis a conv GEMM reduces. */
void repro_conv_gather(const uint64_t *src, int64_t images, int64_t h,
                       int64_t w, int64_t cwords, int64_t kh, int64_t kw,
                       int64_t stride, uint64_t *out) {
    int64_t oh = (h - kh) / stride + 1;
    int64_t ow = (w - kw) / stride + 1;
    uint64_t *dst = out;
    for (int64_t img = 0; img < images; img++) {
        const uint64_t *base = src + img * h * w * cwords;
        for (int64_t oy = 0; oy < oh; oy++) {
            for (int64_t ox = 0; ox < ow; ox++) {
                const uint64_t *win = base
                    + (oy * stride) * w * cwords + (ox * stride) * cwords;
                for (int64_t i = 0; i < kh; i++) {
                    memcpy(dst, win + i * w * cwords,
                           (size_t)(kw * cwords) * sizeof(uint64_t));
                    dst += kw * cwords;
                }
            }
        }
    }
}

/* 1 when the int8 conv kernels below are the AVX-512 VNNI ones, 0 when
   the build has none (both then return 2). */
int repro_vnni_build(void) { return REPRO_VNNI; }

#define PANEL_N 32
#define PANEL_M 8

/* The im2col windows of a conv over a channel-last u8 map
   (images, h, w, c), written straight into 32-pixel k-quad panels for
   panels b0 .. b1-1: byte e of k-quad kq of pixel 32*b + x lands at
   out[(b*kquads + kq)*128 + 4*x + e], where window byte 4*kq + e is in
   (kernel row, kernel column, channel) order.  Bytes past K and pixels
   past the last window are zero.  A panel's 32 windows are first copied
   whole, as kernel runs of kernel*c bytes, into a scratch block; each
   k-quad row of the panel is then written contiguously from it.
   Returns 1 when the scratch block cannot be allocated. */
int repro_vnni_panels(const uint8_t *src, int64_t images, int64_t h,
                      int64_t w, int64_t c, int64_t kernel, int64_t stride,
                      int64_t b0, int64_t b1, uint8_t *out) {
#if REPRO_VNNI
    const int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
    const int64_t pixels = images * oh * ow, run = kernel * c;
    const int64_t kquads = (kernel * run + 3) / 4;
    /* 32 windows of kquads*4 bytes, zero past K: only the first K
       bytes of each are rewritten */
    uint32_t *rows = calloc((size_t)(PANEL_N * kquads), sizeof(uint32_t));
    if (rows == NULL)
        return 1;
    for (int64_t b = b0; b < b1; b++) {
        for (int64_t x = 0; x < PANEL_N; x++) {
            uint8_t *row = (uint8_t *)(rows + x * kquads);
            const int64_t j = b * PANEL_N + x;
            if (j >= pixels) {
                memset(row, 0, (size_t)(kquads * 4));
                continue;
            }
            const int64_t img = j / (oh * ow), oy = j % (oh * ow) / ow;
            const int64_t ox = j % ow;
            const uint8_t *win = src
                + ((img * h + oy * stride) * w + ox * stride) * c;
            for (int64_t i = 0; i < kernel; i++)
                memcpy(row + i * run, win + i * w * c, (size_t)run);
        }
        uint32_t *panel = (uint32_t *)out + b * kquads * PANEL_N;
        for (int64_t kq = 0; kq < kquads; kq++)
            for (int64_t x = 0; x < PANEL_N; x++)
                panel[kq * PANEL_N + x] = rows[x * kquads + kq];
    }
    free(rows);
    return 0;
#else
    (void)src; (void)images; (void)h; (void)w; (void)c; (void)kernel;
    (void)stride; (void)b0; (void)b1; (void)out;
    return 2;
#endif
}

#if REPRO_VNNI
/* One 8x32 output tile: rows i0 .. i0+rows-1 against one pixel panel,
   over every k-quad.  wt holds the tile's weight quads as
   wt[kq*8 + r] (s8, so each int32 is four weights of row r), xt the
   panel's as xt[kq*32 + x] (u8).  Each vpdpbusd adds four u8 x s8
   products to each of sixteen int32 lanes without saturating; the
   caller guarantees every partial sum fits in int32. */
static inline __attribute__((always_inline)) void vnni_tile(
        const int32_t *wt, const int32_t *xt, int64_t kquads, int64_t rows,
        const __mmask8 mask[4], int64_t *out, int64_t n) {
    __m512i acc[PANEL_M][2];
    for (int r = 0; r < PANEL_M; r++)
        acc[r][0] = acc[r][1] = _mm512_setzero_si512();
    for (int64_t kq = 0; kq < kquads; kq++) {
        const __m512i x0 = _mm512_loadu_si512(xt + kq * PANEL_N);
        const __m512i x1 = _mm512_loadu_si512(xt + kq * PANEL_N + 16);
        for (int r = 0; r < PANEL_M; r++) {
            const __m512i wq = _mm512_set1_epi32(wt[kq * PANEL_M + r]);
            acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], x0, wq);
            acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], x1, wq);
        }
    }
    for (int64_t r = 0; r < rows; r++) {
        for (int h = 0; h < 2; h++) {
            int64_t *dst = out + r * n + 16 * h;
            _mm512_mask_storeu_epi64(dst, mask[2 * h], _mm512_cvtepi32_epi64(
                _mm512_castsi512_si256(acc[r][h])));
            _mm512_mask_storeu_epi64(dst + 8, mask[2 * h + 1],
                _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc[r][h], 1)));
        }
    }
}
#endif

/* int8 GEMM over s8 weight panels and u8 pixel panels: out[i, j] (an
   (m, n) int64 array) = sum over k of weight i's byte k times pixel j's
   byte k, accumulated in int32, for rows [i0, i1) (i0 a multiple of 8)
   and the pixels of panels b0 .. b1-1; nothing else is written, so
   calls on disjoint blocks may run at once.  wpan is
   (ceil(m/8), kquads, 8, 4): quad kq of row 8*t + r at
   wpan[((t*kquads + kq)*8 + r)*4], rows past m zero.  xpan is
   repro_vnni_panels' output.  Each panel is reused across every row
   tile while the weights stream. */
int repro_vnni_gemm(const int8_t *wpan, const uint8_t *xpan, int64_t m,
                    int64_t n, int64_t kquads, int64_t i0, int64_t i1,
                    int64_t b0, int64_t b1, int64_t *out) {
#if REPRO_VNNI
    (void)m;
    for (int64_t b = b0; b < b1; b++) {
        const int64_t cols = n - b * PANEL_N < PANEL_N ? n - b * PANEL_N : PANEL_N;
        __mmask8 mask[4];
        for (int g = 0; g < 4; g++) {
            const int64_t live = cols - 8 * g;
            mask[g] = (__mmask8)(live >= 8 ? 0xFF : live > 0 ? (1u << live) - 1 : 0);
        }
        const int32_t *xt = (const int32_t *)xpan + b * kquads * PANEL_N;
        for (int64_t it = i0; it < i1; it += PANEL_M) {
            const int64_t rows = i1 - it < PANEL_M ? i1 - it : PANEL_M;
            vnni_tile((const int32_t *)wpan + it * kquads, xt, kquads, rows,
                      mask, out + it * n + b * PANEL_N, n);
        }
    }
    return 0;
#else
    (void)wpan; (void)xpan; (void)m; (void)n; (void)kquads; (void)i0;
    (void)i1; (void)b0; (void)b1; (void)out;
    return 2;
#endif
}
"""

#: Native flags first (they select the AVX-512 micro-kernel where the
#: host has it, and gcc without -mpopcnt emits a libgcc popcount that
#: costs the loop nest ~10x); plain -O3 is the portable fallback.
_FLAG_SETS = (
    ["-O3", "-march=native", "-funroll-loops"],
    ["-O3", "-funroll-loops"],
)

#: A build target without AVX-512: ``repro_packed_gemm`` compiles to its
#: scalar loop nest there, on any x86-64 CPU at that level.
LOOP_NEST_FLAGS = ["-O3", "-march=x86-64-v3", "-funroll-loops"]

#: The ``/proc/cpuinfo`` flags of the x86-64-v3 level (``abm`` is
#: LZCNT): a CPU lacking one could die on the build's first call.
X86_64_V3_FEATURES = frozenset(
    {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"}
)

_loaded: Any = None


def cache_dir() -> Path:
    """Where built shared objects live (override: ``REPRO_CFFI_CACHE``)."""
    env = os.environ.get("REPRO_CFFI_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cffi"


def _cpu_features() -> str:
    """The host CPU's feature list, which ``-march=native`` builds for.

    The ``flags`` line of ``/proc/cpuinfo`` (``Features`` on ARM) where
    it exists, else the platform's machine and processor names.
    """
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[-1].strip()
    except OSError:  # no procfs
        pass
    return f"{platform.machine()} {platform.processor()}"


def _module_name(features: str) -> str:
    """The built module's name: a hash of the C source and ``features``."""
    digest = hashlib.sha256(
        (CFFI_CDEF + CFFI_SOURCE + features).encode("utf-8")
    ).hexdigest()[:16]
    return f"_repro_cffi_{digest}"


def _find_built(directory: Path, modname: str):
    for path in sorted(directory.glob(f"{modname}*.so")):
        return path
    return None


def _load_module(so_path: Path, modname: str):
    spec = importlib.util.spec_from_file_location(modname, so_path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load built backend from {so_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(directory: Path, modname: str, flags: list[str]) -> Path:
    """Compile :data:`CFFI_SOURCE` with ``flags``; returns the .so path."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(CFFI_CDEF)
    ffi.set_source(modname, CFFI_SOURCE, extra_compile_args=flags)
    ffi.compile(tmpdir=str(directory), verbose=False)
    built = _find_built(directory, modname)
    if built is None:
        raise FileNotFoundError(f"no {modname}*.so in {directory}")
    return built


def _build() -> Any:
    """Compile (or dlopen the cached) shared object; returns the module."""
    global _loaded
    if _loaded is not None:
        return _loaded
    modname = _module_name(_cpu_features())
    directory = cache_dir()
    built = _find_built(directory, modname)
    if built is None:
        directory.mkdir(parents=True, exist_ok=True)
        errors: list[str] = []
        for flags in _FLAG_SETS:
            try:
                built = _compile(directory, modname, flags)
                break
            except Exception as exc:  # distutils raises several types
                errors.append(f"{flags}: {type(exc).__name__}: {exc}")
        if built is None:
            raise RuntimeError(
                "cffi backend build failed: " + "; ".join(errors)
            )
    _loaded = _load_module(built, modname)
    return _loaded


def loop_nest_build(directory: Path):
    """:data:`CFFI_SOURCE` built for x86-64-v3 into ``directory`` and
    loaded beside the host build: its popcount GEMM is the loop nest.

    Raises :class:`RuntimeError` on a CPU below x86-64-v3.  To run every
    cffi kernel of the process on it, set this module's ``_loaded`` to
    the returned module.
    """
    if not X86_64_V3_FEATURES <= set(_cpu_features().split()):
        raise RuntimeError("an x86-64-v3 build needs an x86-64 CPU at that level")
    modname = "_repro_cffi_loop_nest"
    built = _find_built(directory, modname)
    if built is None:
        built = _compile(directory, modname, LOOP_NEST_FLAGS)
    return _load_module(built, modname)


def popcount_branch() -> int:
    """Which popcount GEMM branch the loaded build compiled.

    1 for the AVX-512 micro-kernel, 0 for the scalar loop nest.  The
    host cost model (:func:`repro.core.packed.compiled_branch`) prices
    the compiled paths with this branch's rates.
    """
    return int(_build().lib.repro_popcount_branch())


def vnni_build() -> bool:
    """Whether the loaded build compiled the int8 conv kernels.

    True where the compiler targeted AVX-512 VNNI (``-march=native`` on
    such a CPU), whichever popcount branch it compiled.  The host cost
    model (:func:`repro.core.packed.compiled_vnni`) offers the ``vnni``
    conv path only then.
    """
    return bool(_build().lib.repro_vnni_build())


def _packed_gemm(
    a_words: np.ndarray,
    b_words: np.ndarray,
    p: int,
    m: int,
    q: int,
    n: int,
    op_and: bool,
    k: int = 0,
    scales: tuple[int, int, int, int] = (1, 0, 0, 0),
) -> np.ndarray:
    """Fused weighted popcount GEMM with an affine correction.

    Returns ``(m, n)`` int64 ``popc * fold + kk * k * Sp * Sq + ws * Sq *
    roww[i] + xs * Sp * rowx[j]`` for ``scales = (popc, kk, ws, xs)``,
    the :class:`~repro.core.opselect.OperatorPlan` coefficients; the
    defaults return the folded popcount sums alone.  ``a_words`` must be
    ``(p*m, nwords)`` and ``b_words`` ``(q*n, nwords)``: the C loop
    trusts both extents.

    The output is computed in blocks of whole micro-kernel tiles along
    its longer axis, one per :func:`repro.core.cores.split` part.
    """
    module = _build()
    ffi, lib = module.ffi, module.lib
    a_words = np.ascontiguousarray(a_words, dtype=np.uint64)
    b_words = np.ascontiguousarray(b_words, dtype=np.uint64)
    nwords = a_words.shape[1] if a_words.ndim == 2 else 0
    if a_words.shape != (p * m, nwords) or b_words.shape != (q * n, nwords):
        raise ValueError(
            f"packed_gemm operands {a_words.shape} x {b_words.shape} do "
            f"not match ({p * m}, {nwords}) x ({q * n}, {nwords}) for "
            f"p={p}, m={m}, q={q}, n={n}"
        )
    if not (m and n and nwords and p and q):
        return np.zeros((m, n), dtype=np.int64)
    out = np.empty((m, n), dtype=np.int64)
    a_ptr = ffi.from_buffer("uint64_t *", a_words)
    b_ptr = ffi.from_buffer("uint64_t *", b_words)
    out_ptr = ffi.from_buffer("int64_t *", out)

    def block(i0: int, i1: int, j0: int, j1: int) -> None:
        status = lib.repro_packed_gemm(
            a_ptr, b_ptr, p, m, q, n, nwords, 1 if op_and else 0, k,
            *scales, i0, i1, j0, j1, out_ptr,
        )
        if status:
            raise MemoryError("packed_gemm could not allocate its buffers")

    tile_m, tile_n = _TILE
    row_tiles, col_tiles = -(-m // tile_m), -(-n // tile_n)
    if row_tiles >= col_tiles:
        def part(lo: int, hi: int) -> None:
            block(lo * tile_m, min(hi * tile_m, m), 0, n)
    else:
        def part(lo: int, hi: int) -> None:
            block(0, m, lo * tile_n, min(hi * tile_n, n))
    product = HostProduct(m, n, 64 * nwords, p, q)
    us = product.popcount_us(nwords, popcount_branch())
    cores.split(max(row_tiles, col_tiles), part, us)
    return out


def _conv_gather(
    words: np.ndarray, kh: int, kw: int, stride: int
) -> np.ndarray:
    """(images, h, w, cwords) -> (images * oh * ow, kh * kw * cwords)."""
    module = _build()
    ffi, lib = module.ffi, module.lib
    words = np.ascontiguousarray(words, dtype=np.uint64)
    images, h, w, cwords = words.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.empty((images * oh * ow, kh * kw * cwords), dtype=np.uint64)
    if not out.size:
        return out
    src, dst = ffi.from_buffer("uint64_t *", words), ffi.from_buffer("uint64_t *", out)
    image_words, window_words = h * w * cwords, oh * ow * kh * kw * cwords

    def part(lo: int, hi: int) -> None:  # images lo .. hi-1
        lib.repro_conv_gather(
            src + lo * image_words, hi - lo, h, w, cwords, kh, kw, stride,
            dst + lo * window_words,
        )

    cores.split(images, part, out.size / HOST_RATES.gather_words)
    return out


def _vnni_panels(x_map: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """The im2col windows of a channel-last u8 map as k-quad panels.

    ``(images, h, w, c)`` uint8 -> ``(ceil(N/32), ceil(K/4), 32, 4)``
    uint8 for the ``N = images*oh*ow`` windows of ``K =
    kernel*kernel*c`` bytes in ``(KH, KW, C)`` order, zero past ``N``
    and ``K``; written in whole panels, one
    :func:`repro.core.cores.split` part each.
    """
    module = _build()
    ffi, lib = module.ffi, module.lib
    if not lib.repro_vnni_build():
        raise RuntimeError("the loaded build has no AVX-512 VNNI kernels")
    x_map = np.ascontiguousarray(x_map, dtype=np.uint8)
    images, h, w, c = x_map.shape
    n = images * ((h - kernel) // stride + 1) * ((w - kernel) // stride + 1)
    k = kernel * kernel * c
    tile_n = _VNNI_TILE[1]
    blocks = -(-n // tile_n)
    panels = np.empty((blocks, -(-k // 4), tile_n, 4), dtype=np.uint8)
    src, dst = ffi.from_buffer("uint8_t *", x_map), ffi.from_buffer("uint8_t *", panels)

    def part(lo: int, hi: int) -> None:  # panels lo .. hi-1
        if lib.repro_vnni_panels(src, images, h, w, c, kernel, stride, lo, hi, dst):
            raise MemoryError("vnni panel writer could not allocate its row")

    cores.split(blocks, part, _vnni_panel_us(n, k, kernel, HOST_RATES))
    return panels


def _vnni_gemm(w_panels: np.ndarray, panels: np.ndarray, m: int, n: int) -> np.ndarray:
    """``(m, n)`` int64 dot products of s8 weight panels and u8 panels.

    ``w_panels`` is ``(ceil(m/8), kquads, 8, 4)`` int8 and ``panels``
    ``(ceil(n/32), kquads, 32, 4)`` uint8, as :func:`_vnni_panels` writes
    them.  Products accumulate in int32: the caller bounds every partial
    sum below ``2**31``.  The output is computed in whole 8x32 tiles
    along its longer axis, one :func:`repro.core.cores.split` part each.
    """
    module = _build()
    ffi, lib = module.ffi, module.lib
    if not lib.repro_vnni_build():
        raise RuntimeError("the loaded build has no AVX-512 VNNI kernels")
    w_panels = np.ascontiguousarray(w_panels, dtype=np.int8)
    panels = np.ascontiguousarray(panels, dtype=np.uint8)
    tile_m, tile_n = _VNNI_TILE
    row_tiles, blocks = -(-m // tile_m), -(-n // tile_n)
    kquads = panels.shape[1]
    if (w_panels.shape != (row_tiles, kquads, tile_m, 4)
            or panels.shape != (blocks, kquads, tile_n, 4)):
        raise ValueError(
            f"vnni panels {w_panels.shape} x {panels.shape} do not match "
            f"m={m}, n={n}"
        )
    out = np.empty((m, n), dtype=np.int64)
    if not out.size:
        return out
    w_ptr = ffi.from_buffer("int8_t *", w_panels)
    x_ptr = ffi.from_buffer("uint8_t *", panels)
    out_ptr = ffi.from_buffer("int64_t *", out)
    if row_tiles >= blocks:
        def part(lo: int, hi: int) -> None:
            lib.repro_vnni_gemm(w_ptr, x_ptr, m, n, kquads, lo * tile_m,
                                min(hi * tile_m, m), 0, blocks, out_ptr)
    else:
        def part(lo: int, hi: int) -> None:
            lib.repro_vnni_gemm(w_ptr, x_ptr, m, n, kquads, 0, m, lo, hi, out_ptr)
    cores.split(max(row_tiles, blocks), part,
                _vnni_gemm_us(m, n, 4 * kquads, HOST_RATES))
    return out


def _vnni_conv(
    x_map: np.ndarray, w_panels: np.ndarray, m: int, kernel: int, stride: int
) -> np.ndarray:
    """Conv of a channel-last u8 map with s8 weight panels, on int8:
    :func:`_vnni_panels`, then :func:`_vnni_gemm`.

    ``x_map`` is ``(images, h, w, c)`` uint8 and ``w_panels`` the
    ``(ceil(m/8), ceil(K/4), 8, 4)`` int8 weights (``K = kernel*kernel*c``
    in ``(KH, KW, C)`` order, zero past ``m`` and ``K``).  Returns ``(m,
    images*oh*ow)`` int64 dot products.
    """
    images, h, w, _ = x_map.shape
    n = images * ((h - kernel) // stride + 1) * ((w - kernel) // stride + 1)
    return _vnni_gemm(w_panels, _vnni_panels(x_map, kernel, stride), m, n)


def kernels() -> dict[str, Callable[..., Any]]:
    """Capability -> kernel table (builds/loads the shared object)."""
    _build()
    return {
        "packed_gemm": _packed_gemm,
        "conv_gather": _conv_gather,
        "vnni_conv": _vnni_conv,
    }
