"""cffi kernel backend: the packed hot loops as C.

Two functions mirror the numpy packed path exactly (bit for bit); their
callers are the popcount GEMM of :mod:`repro.core.packed` (``apmm`` and
the im2col conv, where :func:`repro.core.packed.popcount_preferred`
picks it over the fold) and the packed conv gather
(:mod:`repro.kernels.packed_conv`).  Operands arrive already packed, by
``np.packbits`` in :mod:`repro.core.packed`:

* ``repro_packed_gemm`` -- the *fused weighted* popcount-reduce GEMM
  ``out[i, j] = sum_{s,t} 2**(s+t) * popc(a[s*m+i] op b[t*n+j])``, i.e.
  every bit-plane pair plus the shifted-add bit combination in one
  pass, exact in int64, feeding the same fold epilogue as the BLAS
  fold (:func:`repro.core.packed.packed_matmul`);
* ``repro_conv_gather`` -- per-window gather of channel-packed words
  from a padded feature map (``memcpy`` of ``kw * cwords`` word runs),
  replacing the im2col digit-matrix materialization.

The shared object is compiled once per C-source hash and cached under
``REPRO_CFFI_CACHE`` (default ``~/.cache/repro/cffi``), so only the
first process on a machine pays the ~seconds of gcc; everyone after
does a dlopen.  ``-march=native`` matters: without ``-mpopcnt`` gcc
lowers ``__builtin_popcountll`` to a libgcc bit-twiddling routine and
the GEMM runs ~10x slower, so the build tries native flags first and
falls back to plain ``-O3`` on compilers that reject them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["kernels", "cache_dir", "CFFI_SOURCE"]

CFFI_CDEF = """
void repro_packed_gemm(const uint64_t *a, const uint64_t *b,
                       int64_t p, int64_t m, int64_t q, int64_t n,
                       int64_t nwords, int32_t op_and, int64_t *out);
void repro_conv_gather(const uint64_t *src, int64_t images, int64_t h,
                       int64_t w, int64_t cwords, int64_t kh, int64_t kw,
                       int64_t stride, uint64_t *out);
"""

CFFI_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Fused weighted popcount-reduce GEMM over plane-major packed operands:
   a is (p*m, nwords) -- plane s of row i at a[s*m + i]; b is
   (q*n, nwords); out[i*n + j] = sum_{s,t} (1 << (s+t)) *
   popc(a_row op b_row).  j is blocked so the b rows of one block stay
   cache-resident across the i sweep. */
void repro_packed_gemm(const uint64_t *a, const uint64_t *b,
                       int64_t p, int64_t m, int64_t q, int64_t n,
                       int64_t nwords, int32_t op_and, int64_t *out) {
    const int64_t BJ = 48;
    memset(out, 0, (size_t)(m * n) * sizeof(int64_t));
    for (int64_t s = 0; s < p; s++) {
        for (int64_t t = 0; t < q; t++) {
            const int64_t shift = s + t;
            const uint64_t *ap = a + s * m * nwords;
            const uint64_t *bp = b + t * n * nwords;
            for (int64_t j0 = 0; j0 < n; j0 += BJ) {
                int64_t j1 = j0 + BJ < n ? j0 + BJ : n;
                for (int64_t i = 0; i < m; i++) {
                    const uint64_t *ar = ap + i * nwords;
                    int64_t *orow = out + i * n;
                    if (op_and) {
                        for (int64_t j = j0; j < j1; j++) {
                            const uint64_t *br = bp + j * nwords;
                            int64_t acc = 0;
                            for (int64_t w = 0; w < nwords; w++)
                                acc += __builtin_popcountll(ar[w] & br[w]);
                            orow[j] += acc << shift;
                        }
                    } else {
                        for (int64_t j = j0; j < j1; j++) {
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
"""

#: Native flags first (gcc without -mpopcnt emits a libgcc popcount and
#: the GEMM loses ~10x); plain -O3 is the portable fallback.
_FLAG_SETS = (
    ["-O3", "-march=native", "-funroll-loops"],
    ["-O3", "-funroll-loops"],
)

_loaded: Any = None


def cache_dir() -> Path:
    """Where built shared objects live (override: ``REPRO_CFFI_CACHE``)."""
    env = os.environ.get("REPRO_CFFI_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cffi"


def _module_name() -> str:
    digest = hashlib.sha256(
        (CFFI_CDEF + CFFI_SOURCE).encode("utf-8")
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


def _build() -> Any:
    """Compile (or dlopen the cached) shared object; returns the module."""
    global _loaded
    if _loaded is not None:
        return _loaded
    modname = _module_name()
    directory = cache_dir()
    built = _find_built(directory, modname)
    if built is None:
        from cffi import FFI

        directory.mkdir(parents=True, exist_ok=True)
        errors: list[str] = []
        for flags in _FLAG_SETS:
            ffi = FFI()
            ffi.cdef(CFFI_CDEF)
            ffi.set_source(modname, CFFI_SOURCE, extra_compile_args=flags)
            try:
                ffi.compile(tmpdir=str(directory), verbose=False)
            except Exception as exc:  # distutils raises several types
                errors.append(f"{flags}: {type(exc).__name__}: {exc}")
                continue
            built = _find_built(directory, modname)
            if built is not None:
                break
        if built is None:
            raise RuntimeError(
                "cffi backend build failed: " + "; ".join(errors)
            )
    _loaded = _load_module(built, modname)
    return _loaded


def _packed_gemm(
    a_words: np.ndarray,
    b_words: np.ndarray,
    p: int,
    m: int,
    q: int,
    n: int,
    op_and: bool,
) -> np.ndarray:
    """Fused weighted popcount GEMM; returns (m, n) int64 fold sums.

    ``a_words`` must be ``(p*m, nwords)`` and ``b_words`` ``(q*n,
    nwords)``: the C loop trusts both extents.
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
    out = np.zeros((m, n), dtype=np.int64)
    if m and n and nwords and p and q:
        lib.repro_packed_gemm(
            ffi.from_buffer("uint64_t *", a_words),
            ffi.from_buffer("uint64_t *", b_words),
            p, m, q, n, nwords, 1 if op_and else 0,
            ffi.from_buffer("int64_t *", out),
        )
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
    if out.size:
        lib.repro_conv_gather(
            ffi.from_buffer("uint64_t *", words),
            images, h, w, cwords, kh, kw, stride,
            ffi.from_buffer("uint64_t *", out),
        )
    return out


def kernels() -> dict[str, Callable[..., Any]]:
    """Capability -> kernel table (builds/loads the shared object)."""
    _build()
    return {
        "packed_gemm": _packed_gemm,
        "conv_gather": _conv_gather,
    }
