"""Kernel cost assembly: from problem shape + tiling to counted work.

:class:`KernelCost` is the contract between kernels and the latency model:
it carries an :class:`~repro.tensorcore.counters.ExecutionCounters` tally
plus the scheduling facts (compute class, efficiency family, block shape)
the model needs.  The builders here implement the counting rules of the
paper's kernel designs:

* :func:`gemm_cost` -- the batched, double-cached APMM (section 4.1) and,
  with flags flipped, its ablations (no plane batching = one kernel per
  plane pair with global-memory reduction; no double caching = per-warp
  global loads);
* :func:`baseline_gemm_cost` -- a fixed-tile library kernel (CUTLASS /
  cuBLAS style) moving ``element_bits``-wide operands;
* :func:`conv_cost` / :func:`baseline_conv_cost` -- implicit-GEMM mappings
  of convolution (section 4.2), including the channel-major layout's
  coalescing factor and the input-aware padding correction work.

The explicit tile-level simulation in ``repro.kernels.apmm_sim`` reproduces
these counts by actually iterating tiles, which is how the rules are
validated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..tensorcore.counters import ExecutionCounters

if TYPE_CHECKING:  # avoid the perf <-> kernels import cycle at runtime:
    # kernels.__init__ pulls apconv/apmm which import this module, so a
    # cold `import repro.perf` (or repro.serve) must not touch kernels.
    from ..kernels.tiling import TileConfig

__all__ = [
    "KernelCost",
    "gemm_cost",
    "baseline_gemm_cost",
    "conv_gemm_dims",
    "conv_cost",
    "baseline_conv_cost",
]


@dataclass(frozen=True)
class KernelCost:
    """Everything the latency model needs to price one kernel launch chain.

    Attributes
    ----------
    name:
        Human-readable kernel id, e.g. ``"apmm-w1a2-64x1024x1024"``.
    counters:
        Counted work.
    compute_class:
        Which peak-throughput class the MMA work draws from
        (``int1``/``int4``/``int8``/``fp16``/``fp32``).
    efficiency_key:
        Kernel family for the calibrated efficiency lookup.
    warps_per_block / smem_bytes_per_block:
        Occupancy inputs.
    decompose_ops / combine_ops:
        Itemized epilogue work (subset of ``counters.cuda_ops``), kept
        separate so Figure 11's overhead study can toggle them.
    unique_read_bytes:
        Compulsory operand footprint (each operand byte once).  The L2
        cache serves re-reads across blocks, so effective DRAM read
        traffic lies between this floor and the full per-tile traffic in
        ``counters.global_bytes_read``; 0 means unknown (model charges the
        full tile traffic).
    """

    name: str
    counters: ExecutionCounters
    compute_class: str
    efficiency_key: str
    warps_per_block: int
    smem_bytes_per_block: int
    decompose_ops: int = 0
    combine_ops: int = 0
    unique_read_bytes: int = 0

    def without_decompose(self) -> "KernelCost":
        """Variant with bit-decomposition work removed (Fig. 11 study)."""
        c = self.counters.copy()
        c.cuda_ops -= self.decompose_ops
        return replace(self, counters=c, decompose_ops=0)

    def without_combine(self) -> "KernelCost":
        """Variant with bit-combination work removed (Fig. 11 study)."""
        c = self.counters.copy()
        c.cuda_ops -= self.combine_ops
        return replace(self, counters=c, combine_ops=0)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def gemm_cost(
    m: int,
    n: int,
    k: int,
    p_bits: int,
    q_bits: int,
    cfg: TileConfig,
    *,
    batch_planes: bool = True,
    double_caching: bool = True,
    name: str | None = None,
    efficiency_key: str = "apmm",
) -> KernelCost:
    """Cost of the AP-Bit emulated GEMM ``(M x K) x (N x K)^T``.

    ``m`` is the weight-operand row count, ``n`` the feature-operand row
    count, ``k`` the reduction length.  With ``batch_planes`` (the paper's
    design) the ``p*q`` bit-plane products run as one virtual large BMMA in
    a single launch; without it (ablation) each plane pair is its own
    kernel that reduces into the output through global memory.  The
    kernel writes int32 accumulators; a quantized boundary write is the
    epilogue's to price (:func:`repro.kernels.fusion.fused_cost`).
    """
    if min(m, n, k, p_bits, q_bits) < 1:
        raise ValueError("gemm dimensions and bit-widths must be >= 1")
    k_iters = _ceil_div(k, cfg.bk)
    tile_bits_per_iter = (cfg.bm + cfg.bn) * cfg.bk  # 1-bit operand tiles

    counters = ExecutionCounters()
    if batch_planes:
        grid_m = _ceil_div(p_bits * m, cfg.bm)
        grid_n = _ceil_div(q_bits * n, cfg.bn)
        blocks = grid_m * grid_n
        launches = 1
        counters.blocks = blocks
        counters.kernel_launches = 1
        counters.bmma_calls = (
            blocks * (cfg.bm // 8) * (cfg.bn // 8) * k_iters * (cfg.bk // 128)
        )
        if double_caching:
            # Collaborative load: each block stages its tiles once per
            # K-step in shared memory, warps re-read from there.
            counters.global_bytes_read = blocks * k_iters * tile_bits_per_iter // 8
            counters.smem_bytes_written = counters.global_bytes_read
            rows, cols = cfg.warp_partition
            warp_bits = cfg.num_warps * (cfg.wm + cfg.wn) * cfg.bk
            counters.smem_bytes_read = blocks * k_iters * warp_bits // 8
        else:
            # Ablation: every warp pulls its own operand tiles from DRAM.
            warp_bits = cfg.num_warps * (cfg.wm + cfg.wn) * cfg.bk
            counters.global_bytes_read = blocks * k_iters * warp_bits // 8
        counters.global_bytes_written = m * n * 4
    else:
        # Ablation: p*q independent BMMA kernels + global-memory reduction.
        grid_m = _ceil_div(m, cfg.bm)
        grid_n = _ceil_div(n, cfg.bn)
        per_launch_blocks = grid_m * grid_n
        launches = p_bits * q_bits
        blocks = per_launch_blocks  # per launch (occupancy is per kernel)
        counters.blocks = per_launch_blocks
        counters.kernel_launches = launches
        counters.bmma_calls = (
            launches * per_launch_blocks
            * (cfg.bm // 8) * (cfg.bn // 8) * k_iters * (cfg.bk // 128)
        )
        counters.global_bytes_read = (
            launches * per_launch_blocks * k_iters * tile_bits_per_iter // 8
        )
        counters.smem_bytes_written = counters.global_bytes_read
        counters.smem_bytes_read = counters.global_bytes_read
        # each partial Y^(s,t) round-trips through DRAM for the reduction
        partial_bytes = m * n * 4
        counters.global_bytes_written = launches * partial_bytes + m * n * 4
        counters.global_bytes_read += launches * partial_bytes

    counters.tc_macs = counters.bmma_calls * 8 * 8 * 128

    decompose_ops = p_bits * m * k + q_bits * n * k
    combine_ops = p_bits * q_bits * m * n
    counters.cuda_ops += decompose_ops + combine_ops
    counters.frag_bytes_peak = cfg.fragment_bytes()

    unique = (p_bits * m * k + q_bits * n * k) // 8
    if not batch_planes:
        # partial-output round trips are compulsory in the naive design
        unique += (launches - 1) * m * n * 4

    return KernelCost(
        name=name or f"apmm-w{p_bits}a{q_bits}-{m}x{n}x{k}",
        counters=counters,
        compute_class="int1",
        efficiency_key=efficiency_key,
        warps_per_block=cfg.num_warps,
        smem_bytes_per_block=cfg.smem_bytes() if double_caching else 0,
        decompose_ops=decompose_ops,
        combine_ops=combine_ops,
        unique_read_bytes=unique,
    )


def baseline_gemm_cost(
    m: int,
    n: int,
    k: int,
    element_bits: int,
    cfg: TileConfig,
    *,
    compute_class: str,
    efficiency_key: str,
    out_bits: int = 32,
    name: str | None = None,
) -> KernelCost:
    """Cost of a fixed-precision library GEMM (CUTLASS/cuBLAS style).

    One launch, tile grid ``ceil(M/bm) x ceil(N/bn)``, operands read at
    ``element_bits`` per element with shared-memory staging.
    """
    if min(m, n, k) < 1:
        raise ValueError("gemm dimensions must be >= 1")
    grid_m = _ceil_div(m, cfg.bm)
    grid_n = _ceil_div(n, cfg.bn)
    blocks = grid_m * grid_n
    k_iters = _ceil_div(k, cfg.bk)
    tile_bits = (cfg.bm + cfg.bn) * cfg.bk * element_bits

    counters = ExecutionCounters()
    counters.blocks = blocks
    counters.kernel_launches = 1
    counters.tc_macs = blocks * cfg.bm * cfg.bn * k_iters * cfg.bk
    counters.global_bytes_read = blocks * k_iters * tile_bits // 8
    counters.smem_bytes_written = counters.global_bytes_read
    counters.smem_bytes_read = counters.global_bytes_read
    counters.global_bytes_written = m * n * out_bits // 8
    counters.frag_bytes_peak = cfg.fragment_bytes()

    return KernelCost(
        name=name or f"{efficiency_key}-{m}x{n}x{k}",
        counters=counters,
        compute_class=compute_class,
        efficiency_key=efficiency_key,
        warps_per_block=cfg.num_warps,
        smem_bytes_per_block=min(cfg.smem_bytes(), tile_bits // 8 * 2),
        unique_read_bytes=(m * k + n * k) * element_bits // 8,
    )


def conv_gemm_dims(
    batch: int,
    in_channels: int,
    out_channels: int,
    height: int,
    width: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> tuple[int, int, int]:
    """Implicit-GEMM dimensions of a convolution: (M, N, K) with
    M = C_out, N = batch * OH * OW, K = C_in * kernel^2."""
    if min(batch, in_channels, out_channels, height, width, kernel, stride) < 1:
        raise ValueError("conv dimensions must be >= 1")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    oh = (height + 2 * padding - kernel) // stride + 1
    ow = (width + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError("kernel larger than padded input")
    return out_channels, batch * oh * ow, in_channels * kernel * kernel


def conv_cost(
    batch: int,
    in_channels: int,
    out_channels: int,
    height: int,
    width: int,
    kernel: int,
    p_bits: int,
    q_bits: int,
    cfg: TileConfig,
    *,
    stride: int = 1,
    padding: int = 0,
    channel_major: bool = True,
    padding_correction: bool = False,
    double_caching: bool = True,
    efficiency_key: str = "apconv",
    name: str | None = None,
) -> KernelCost:
    """Cost of APConv via its implicit-GEMM mapping (paper section 4.2).

    ``channel_major=False`` models the naive NCHW layout: sub-word,
    uncoalesced reads inflate effective DRAM traffic by the coalescing
    factor (the motivation for the NPHWC layout in Fig. 4).
    ``padding_correction`` adds the counter-amendment work of the
    bipolar/bipolar padding strategy.
    """
    m, n, k = conv_gemm_dims(
        batch, in_channels, out_channels, height, width, kernel, stride, padding
    )
    cost = gemm_cost(
        m, n, k, p_bits, q_bits, cfg,
        double_caching=double_caching,
        name=name or f"apconv-w{p_bits}a{q_bits}-c{in_channels}x{out_channels}",
        efficiency_key=efficiency_key,
    )
    counters = cost.counters
    unique = cost.unique_read_bytes
    if not channel_major:
        # K-contiguous reads in NCHW touch `kernel` elements per row before
        # jumping a full row: a 3x3 window reads ~32/(kernel) of each
        # 32-byte sector usefully.  Model as a 4x read amplification that
        # also defeats L2-friendly reuse of the wasted sectors.
        counters = counters.copy()
        counters.global_bytes_read *= 4
        unique *= 4
    if padding_correction:
        counters = counters if counters is not cost.counters else counters.copy()
        oh = (height + 2 * padding - kernel) // stride + 1
        ow = (width + 2 * padding - kernel) // stride + 1
        counters.cuda_ops += batch * out_channels * oh * ow
    if counters is not cost.counters or unique != cost.unique_read_bytes:
        cost = replace(cost, counters=counters, unique_read_bytes=unique)
    return cost


def baseline_conv_cost(
    batch: int,
    in_channels: int,
    out_channels: int,
    height: int,
    width: int,
    kernel: int,
    element_bits: int,
    cfg: TileConfig,
    *,
    stride: int = 1,
    padding: int = 0,
    compute_class: str,
    efficiency_key: str,
    out_bits: int = 32,
    name: str | None = None,
) -> KernelCost:
    """Cost of a library convolution via implicit GEMM at fixed precision."""
    m, n, k = conv_gemm_dims(
        batch, in_channels, out_channels, height, width, kernel, stride, padding
    )
    return baseline_gemm_cost(
        m, n, k, element_bits, cfg,
        compute_class=compute_class,
        efficiency_key=efficiency_key,
        out_bits=out_bits,
        name=name or f"{efficiency_key}-conv-c{in_channels}x{out_channels}",
    )
