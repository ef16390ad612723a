"""Simulated CUTLASS kernels: the paper's primary baselines.

The paper compares APMM/APConv against ``cutlass-gemm-int1/int4``,
``cutlass-conv-int1/int4/int8`` and full NNs built from CUTLASS
single/half/int8 kernels.  What matters for the reproduction is the
baselines' *behaviour*, which we model with two ingredients:

* **fixed large tiles** -- library GEMMs ship threadblock tiles tuned for
  big square problems (128x128 for int4/int8/fp16/fp32; the binary
  specialization uses finer 64x64 tiles).  On NN-shaped problems
  (batch 64 x 1024 x 1024) this yields single-digit block counts and the
  underutilization visible in the paper's Table 4;
* **calibrated efficiency** per family (:mod:`repro.perf.calibration`).

Functionally each baseline computes the exact product for its precision
(with operand-range validation and fp16 rounding where applicable), so
they can stand in as correctness references too.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..kernels.tiling import TileConfig
from ..perf.cost import KernelCost, baseline_conv_cost, baseline_gemm_cost
from ..tensorcore.device import DeviceSpec, RTX3090

__all__ = ["BaselineResult", "CUTLASS_GEMM_TILES", "cutlass_gemm", "cutlass_conv",
           "INT_RANGES"]

#: Threadblock tiles per precision (CUTLASS defaults; int1 kernels use the
#: finer tiling of the b1 specializations, calibrated against Table 4).
CUTLASS_GEMM_TILES = MappingProxyType(
    {
        "int1": TileConfig(64, 64),
        "int4": TileConfig(128, 128),
        "int8": TileConfig(128, 128),
        "fp16": TileConfig(128, 128),
        "fp32": TileConfig(128, 128),
    }
)

#: Implicit-GEMM convolution kernels ship a narrower N tile (the GEMM-N of
#: a batch-1 16x16 feature map is only 256), which keeps the library
#: better utilized on the paper's conv sweep than on its FC sweep.
CUTLASS_CONV_TILES = MappingProxyType(
    {
        "int1": TileConfig(64, 64),
        "int4": TileConfig(128, 64),
        "int8": TileConfig(128, 64),
        "fp16": TileConfig(128, 64),
        "fp32": TileConfig(128, 64),
    }
)

#: Valid operand ranges for the integer precisions.
INT_RANGES = MappingProxyType(
    {"int1": (0, 1), "int4": (-8, 7), "int8": (-128, 127)}
)

_ELEMENT_BITS = {"int1": 1, "int4": 4, "int8": 8, "fp16": 16, "fp32": 32}


@dataclass
class BaselineResult:
    """Baseline kernel output plus its cost."""

    output: np.ndarray
    cost: KernelCost


def _check_range(arr: np.ndarray, precision: str, operand: str) -> None:
    lo, hi = INT_RANGES[precision]
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(
            f"{operand} out of {precision} range [{lo}, {hi}]: "
            f"[{arr.min()}, {arr.max()}]"
        )


def _gemm_compute(a: np.ndarray, b: np.ndarray, precision: str) -> np.ndarray:
    """Exact product ``a @ b.T`` at the requested precision."""
    if precision in INT_RANGES:
        _check_range(a, precision, "A")
        _check_range(b, precision, "B")
        return a.astype(np.int64) @ b.astype(np.int64).T
    if precision == "fp16":
        return (a.astype(np.float16).astype(np.float32)
                @ b.astype(np.float16).astype(np.float32).T)
    if precision == "fp32":
        return a.astype(np.float32) @ b.astype(np.float32).T
    raise ValueError(
        f"unknown precision {precision!r}; choose from {sorted(_ELEMENT_BITS)}"
    )


def cutlass_gemm(
    a: np.ndarray,
    b: np.ndarray,
    precision: str,
    device: DeviceSpec = RTX3090,
) -> BaselineResult:
    """Simulated ``cutlass-gemm-<precision>``: ``Y = A @ B^T``.

    ``a`` is ``(M, K)``, ``b`` is ``(N, K)`` (both K-major, like APMM).
    fp32 runs on CUDA cores; everything else on Tensor Cores.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"bad GEMM operands: {a.shape} x {b.shape} (need (M,K),(N,K))"
        )
    out = _gemm_compute(a, b, precision)
    m, k = a.shape
    n = b.shape[0]
    cfg = CUTLASS_GEMM_TILES[precision]
    cost = baseline_gemm_cost(
        m, n, k, _ELEMENT_BITS[precision], cfg,
        compute_class=precision,
        efficiency_key=f"cutlass_{precision}",
        name=f"cutlass-gemm-{precision}-{m}x{n}x{k}",
    )
    return BaselineResult(output=out, cost=cost)


def cutlass_conv(
    w: np.ndarray,
    x: np.ndarray,
    precision: str,
    device: DeviceSpec = RTX3090,
    *,
    stride: int = 1,
    padding: int = 0,
) -> BaselineResult:
    """Simulated ``cutlass-conv-<precision>`` via implicit GEMM.

    ``w`` is ``(C_out, C_in, K, K)``, ``x`` is ``(N, C_in, H, W)``; output
    ``(N, C_out, OH, OW)`` with zero padding (value semantics).
    """
    w = np.asarray(w)
    x = np.asarray(x)
    if w.ndim != 4 or x.ndim != 4 or w.shape[1] != x.shape[1]:
        raise ValueError(
            f"bad conv operands: weights {w.shape}, features {x.shape}"
        )
    cout, cin, kh, kw = w.shape
    if kh != kw:
        raise ValueError(f"only square kernels supported, got {kh}x{kw}")
    batch, _, h, ww = x.shape

    from ..kernels.layout import conv_weight_matrix, im2col  # local import avoids cycles

    xpad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = im2col(xpad, kh, stride)
    out_flat = _gemm_compute(conv_weight_matrix(w), cols, precision)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    out = out_flat.reshape(cout, batch, oh, ow).transpose(1, 0, 2, 3)

    cfg = CUTLASS_CONV_TILES[precision]
    cost = baseline_conv_cost(
        batch, cin, cout, h, ww, kh, _ELEMENT_BITS[precision], cfg,
        stride=stride,
        padding=padding,
        compute_class=precision,
        efficiency_key=f"cutlass_{precision}",
        name=f"cutlass-conv-{precision}-c{cin}x{cout}",
    )
    return BaselineResult(output=out, cost=cost)
