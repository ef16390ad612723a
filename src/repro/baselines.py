"""Library baselines the paper compares against, priced by the cost model.

The paper measures APMM/APConv against ``cutlass-gemm-int1/int4``,
``cutlass-conv-int1/int4/int8`` and ``cublas-gemm-int8``.  What matters
for the reproduction is the libraries' *behaviour*, which is modeled with
two ingredients:

* **fixed large tiles** -- library GEMMs ship threadblock tiles tuned for
  big square problems (128x128 for int4/int8/fp16/fp32; the binary
  specialization uses finer 64x64 tiles).  On NN-shaped problems
  (batch 64 x 1024 x 1024) this yields single-digit block counts and the
  underutilization visible in the paper's Table 4;
* **calibrated efficiency** per family (:mod:`repro.perf.calibration`).

Each function returns the :class:`~repro.perf.cost.KernelCost` the latency
model prices.  The library and TCBNN backends that price whole networks
(Tables 2-3) live in :mod:`repro.nn.engine` with their own tiles.
"""

from __future__ import annotations

from collections.abc import Collection

from .kernels.tiling import TileConfig
from .perf.cost import KernelCost, baseline_conv_cost, baseline_gemm_cost

__all__ = ["cutlass_gemm_cost", "cutlass_conv_cost", "cublas_gemm_cost"]

#: Threadblock tiles per precision (CUTLASS defaults; int1 kernels use the
#: finer tiling of the b1 specializations, calibrated against Table 4).
_GEMM_TILES = {
    "int1": TileConfig(64, 64),
    "int4": TileConfig(128, 128),
    "int8": TileConfig(128, 128),
    "fp16": TileConfig(128, 128),
    "fp32": TileConfig(128, 128),
}

#: Implicit-GEMM convolution kernels ship a narrower N tile (the GEMM-N of
#: a batch-1 16x16 feature map is only 256), which keeps the library
#: better utilized on the paper's conv sweep than on its FC sweep.
_CONV_TILES = {
    "int1": TileConfig(64, 64),
    "int4": TileConfig(128, 64),
    "int8": TileConfig(128, 64),
    "fp16": TileConfig(128, 64),
    "fp32": TileConfig(128, 64),
}

_ELEMENT_BITS = {"int1": 1, "int4": 4, "int8": 8, "fp16": 16, "fp32": 32}

#: The precisions the paper evaluates through cuBLAS (int8 on Tensor
#: Cores, fp32 on CUDA cores).
_CUBLAS_PRECISIONS = ("int8", "fp32")


def _element_bits(precision: str, valid: Collection[str]) -> int:
    if precision not in valid:
        raise ValueError(
            f"unknown precision {precision!r}; choose from {sorted(valid)}"
        )
    return _ELEMENT_BITS[precision]


def cutlass_gemm_cost(m: int, n: int, k: int, precision: str) -> KernelCost:
    """``cutlass-gemm-<precision>``: ``(M x K) x (N x K)^T`` on fixed tiles.

    fp32 runs on CUDA cores; everything else on Tensor Cores.
    """
    bits = _element_bits(precision, _GEMM_TILES)
    return baseline_gemm_cost(
        m, n, k, bits, _GEMM_TILES[precision],
        compute_class=precision,
        efficiency_key=f"cutlass_{precision}",
        name=f"cutlass-gemm-{precision}-{m}x{n}x{k}",
    )


def cutlass_conv_cost(
    batch: int,
    c_in: int,
    c_out: int,
    h: int,
    w: int,
    kernel: int,
    precision: str,
    *,
    stride: int = 1,
    padding: int = 0,
) -> KernelCost:
    """``cutlass-conv-<precision>`` via implicit GEMM, square ``kernel``."""
    bits = _element_bits(precision, _CONV_TILES)
    return baseline_conv_cost(
        batch, c_in, c_out, h, w, kernel, bits, _CONV_TILES[precision],
        stride=stride,
        padding=padding,
        compute_class=precision,
        efficiency_key=f"cutlass_{precision}",
        name=f"cutlass-conv-{precision}-c{c_in}x{c_out}",
    )


def cublas_gemm_cost(m: int, n: int, k: int, precision: str) -> KernelCost:
    """``cublas-gemm-<precision>`` for int8 or fp32.

    The paper uses ``cublas-gemm-int8`` wherever int8 is needed and cites
    cutlass-gemm-int1 as only ~5.9x faster than it on RTX 3090 at peak,
    which pins the cublas efficiency constant given GA102's 4x int1:int8
    peak ratio.  cuBLAS picks large square tiles for square problems but
    a skinnier 64x128 tile when one GEMM dimension is small (e.g. the
    batch-64 fully-connected layers the paper measures).
    """
    bits = _element_bits(precision, _CUBLAS_PRECISIONS)
    tile = TileConfig(64, 128) if min(m, n) < 128 else TileConfig(128, 128)
    return baseline_gemm_cost(
        m, n, k, bits, tile,
        compute_class=precision,
        efficiency_key=f"cublas_{precision}",
        name=f"cublas-gemm-{precision}-{m}x{n}x{k}",
    )
