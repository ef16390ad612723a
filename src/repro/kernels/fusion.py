"""Semantic-aware kernel fusion: fused epilogues (paper section 5.2).

After an APConv/APMM produces 32-bit accumulators, NNs apply a chain of
cheap element-wise layers -- batch normalization, ReLU, quantization --
and spatial pooling.  Run separately, each is a kernel that round-trips
the whole feature map through DRAM; the paper fuses them into the GEMM
epilogue so values are transformed in registers/shared memory and written
once (Fig. 10 measures a 1.77x average gain for conv+pool+quantize).

This module provides:

* epilogue op types (:class:`BatchNormOp`, :class:`ReLUOp`,
  :class:`QuantizeOp`, :class:`MaxPoolOp`, :class:`AvgPoolOp`) with exact
  functional application on ``(N, C, H, W)`` accumulators;
* :func:`apply_epilogue` -- run a chain functionally;
* :func:`fused_cost` / :func:`unfused_costs` -- the two cost shapes the
  fusion study compares: one launch with epilogue math folded in versus a
  launch chain with intermediate DRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..core.quantize import AffineQuantizer
from ..perf.cost import KernelCost
from ..tensorcore.counters import ExecutionCounters

__all__ = [
    "BatchNormOp",
    "ReLUOp",
    "QuantizeOp",
    "MaxPoolOp",
    "AvgPoolOp",
    "apply_epilogue",
    "fused_cost",
    "unfused_costs",
]


@dataclass(frozen=True)
class BatchNormOp:
    """Inference-time batch norm folded to per-channel scale/shift.

    ``y = x * scale[c] + shift[c]`` where ``scale = gamma / sqrt(var+eps)``
    and ``shift = beta - mean * scale`` (paper eq. 5 rearranged).
    """

    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        if np.asarray(self.scale).shape != np.asarray(self.shift).shape:
            raise ValueError("scale and shift must have matching shapes")

    @classmethod
    def from_moments(cls, mean, var, gamma, beta, eps: float = 1e-5):
        scale = np.asarray(gamma) / np.sqrt(np.asarray(var) + eps)
        return cls(scale=scale, shift=np.asarray(beta) - np.asarray(mean) * scale)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 4:  # NCHW: per-channel
            return x * self.scale[None, :, None, None] + self.shift[None, :, None, None]
        if x.ndim == 2:  # (N, features)
            return x * self.scale[None, :] + self.shift[None, :]
        raise ValueError(f"BatchNormOp expects 2-D or 4-D input, got {x.ndim}-D")

    def ops_per_element(self) -> int:
        return 2


@dataclass(frozen=True)
class ReLUOp:
    """``y = max(x, 0)``."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0)

    def ops_per_element(self) -> int:
        return 1


@dataclass(frozen=True)
class QuantizeOp:
    """Arbitrary-precision re-quantization (paper section 5.2)."""

    quantizer: AffineQuantizer

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.quantizer.quantize(np.asarray(x, dtype=np.float64))

    def ops_per_element(self) -> int:
        return 3  # subtract, divide, floor/clamp

    @property
    def out_bits(self) -> int:
        return self.quantizer.bits


def _pool_view(x: np.ndarray, k: int) -> np.ndarray:
    if x.ndim != 4:
        raise ValueError(f"pooling expects NCHW input, got {x.ndim}-D")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"pool size {k} does not divide spatial dims {h}x{w}")
    return x.reshape(n, c, h // k, k, w // k, k)


@dataclass(frozen=True)
class MaxPoolOp:
    """Non-overlapping ``k x k`` max pooling."""

    k: int = 2

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _pool_view(x, self.k).max(axis=(3, 5))

    def ops_per_element(self) -> int:
        return 1  # one compare per input element


@dataclass(frozen=True)
class AvgPoolOp:
    """Non-overlapping ``k x k`` average pooling (float mean)."""

    k: int = 2

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _pool_view(x, self.k).mean(axis=(3, 5))

    def ops_per_element(self) -> int:
        return 1


def apply_epilogue(acc: np.ndarray, ops: Sequence) -> np.ndarray:
    """Apply an epilogue chain functionally, in order."""
    out = acc
    for op in ops:
        out = op.apply(out)
    return out


def _chain_out_bits(ops: Sequence) -> int:
    for op in reversed(list(ops)):
        if isinstance(op, QuantizeOp):
            return op.out_bits
        if isinstance(op, (MaxPoolOp, AvgPoolOp, BatchNormOp)):
            return 32
    return 32


def _chain_out_elements(elements: int, ops: Sequence) -> int:
    out = elements
    for op in ops:
        if isinstance(op, (MaxPoolOp, AvgPoolOp)):
            out //= op.k * op.k
    return out


def fused_cost(base: KernelCost, ops: Sequence, elements: int) -> KernelCost:
    """Cost of the GEMM/conv with the epilogue folded into its launch.

    The epilogue adds CUDA-core math but no launches and no intermediate
    DRAM traffic: each op spends the math :func:`unfused_costs` charges
    it, on the elements it receives.  The final write shrinks to the
    chain's output size (pooling reduces elements, quantization reduces
    bits).
    """
    if elements < 1:
        raise ValueError("elements must be >= 1")
    counters = base.counters.copy()
    out_elements = elements
    for op in ops:
        counters.cuda_ops += op.ops_per_element() * out_elements
        out_elements = _chain_out_elements(out_elements, [op])
    out_bits = _chain_out_bits(ops)
    counters.global_bytes_written -= elements * 4  # the raw int32 write
    counters.global_bytes_written += out_elements * out_bits // 8
    return replace(base, counters=counters, name=base.name + "+fused-epilogue")


def unfused_costs(base: KernelCost, ops: Sequence, elements: int) -> list[KernelCost]:
    """Cost chain with every epilogue op as its own kernel launch.

    Each op reads its input from DRAM and writes its output back -- the
    "w/o Fusion" configuration of Fig. 10.
    """
    if elements < 1:
        raise ValueError("elements must be >= 1")
    chain = [base]
    in_elements = elements
    in_bits = 32
    for op in ops:
        out_elements = _chain_out_elements(in_elements, [op])
        out_bits = op.out_bits if isinstance(op, QuantizeOp) else in_bits
        counters = ExecutionCounters(
            cuda_ops=op.ops_per_element() * in_elements,
            global_bytes_read=in_elements * in_bits // 8,
            global_bytes_written=out_elements * out_bits // 8,
            blocks=max(1, in_elements // 4096),
            kernel_launches=1,
        )
        chain.append(
            KernelCost(
                name=f"{base.name}+{type(op).__name__.lower()}",
                counters=counters,
                compute_class="fp32",
                efficiency_key=base.efficiency_key,
                warps_per_block=8,
                smem_bytes_per_block=0,
            )
        )
        in_elements, in_bits = out_elements, out_bits
    return chain
