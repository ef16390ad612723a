"""Analytical latency model: counted work -> microseconds.

The model prices a :class:`~repro.perf.cost.KernelCost` with a roofline
augmented by two occupancy effects the paper's results hinge on:

* **compute utilization** -- Tensor-Core throughput scales with how much
  of the GPU the block grid covers: ``util = min(1, blocks /
  (sm_count * saturation_blocks_per_sm))``.  The paper's TLP metric
  (eq. 3) is exactly ``blocks``; small problems (e.g. M=64 fully-connected
  layers) leave most SMs idle, which is why the batched APMM -- whose grid
  covers every bit-plane -- beats both int4/int8 libraries *and* the int1
  cutlass kernel on NN-sized problems (Table 4, Fig. 12);
* **memory-level parallelism** -- a small grid also cannot saturate DRAM;
  achievable bandwidth is ``min(1, mem_parallelism * blocks / sm_count)``
  of the device's streaming bandwidth.

Total latency of a launch chain::

    launches * launch_overhead + (launches-1) * sync
      + max(t_tensor_core, t_dram) + t_epilogue

Epilogue work (bit decomposition, bit combination, quantization, padding
correction) runs on CUDA cores concurrently with nothing -- it is charged
serially, which matches the paper's observation that these O(n^2) phases
cost a small percentage of the O(n^3) TC phase (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..tensorcore.device import DeviceSpec
from .calibration import DEFAULT_CALIBRATION
from .cost import KernelCost

__all__ = [
    "LatencyBreakdown",
    "LatencyModel",
    "BatchSweepPoint",
    "batch_size_sweep",
    "PrecisionSweepPoint",
    "precision_sweep",
]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Itemized kernel latency, all in microseconds."""

    name: str
    launch_us: float
    compute_us: float
    memory_us: float
    epilogue_us: float
    compute_util: float
    memory_util: float

    @property
    def total_us(self) -> float:
        return self.launch_us + max(self.compute_us, self.memory_us) + self.epilogue_us

    @property
    def bound(self) -> str:
        """Which roofline term dominates."""
        if self.compute_us >= self.memory_us:
            return "compute"
        return "memory"


class LatencyModel:
    """Prices kernel costs on one device with the fitted calibration
    (:data:`~repro.perf.calibration.DEFAULT_CALIBRATION`)."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def concurrent_blocks_per_sm(self, cost: KernelCost) -> int:
        """How many of this kernel's blocks one SM can host at once."""
        dev = self.device
        limits = [dev.max_blocks_per_sm]
        if cost.warps_per_block > 0:
            limits.append(dev.max_warps_per_sm // cost.warps_per_block)
        if cost.smem_bytes_per_block > 0:
            limits.append(dev.shared_mem_per_sm_bytes // cost.smem_bytes_per_block)
        return max(1, min(limits))

    def compute_utilization(self, cost: KernelCost) -> float:
        """Fraction of peak TC throughput this grid can drive."""
        sat = (
            self.device.sm_count
            * DEFAULT_CALIBRATION.compute_saturation_blocks_per_sm
        )
        # Hosting limit: blocks runnable at once can never exceed the
        # per-SM residency limit.
        resident = min(
            cost.counters.blocks,
            self.concurrent_blocks_per_sm(cost) * self.device.sm_count,
        )
        return min(1.0, resident / sat)

    def memory_utilization(self, cost: KernelCost) -> float:
        """Fraction of streaming DRAM bandwidth this grid can drive."""
        frac = (
            DEFAULT_CALIBRATION.mem_parallelism
            * cost.counters.blocks
            / self.device.sm_count
        )
        return min(1.0, max(frac, 1e-9))

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def kernel_latency(self, cost: KernelCost) -> LatencyBreakdown:
        """Price one kernel (or fused launch chain)."""
        dev, cal = self.device, DEFAULT_CALIBRATION
        counters = cost.counters
        counters.validate()
        if counters.kernel_launches < 1:
            raise ValueError(f"{cost.name}: kernel_launches must be >= 1")

        eff = cal.efficiency[cost.efficiency_key]
        peak = dev.peak_ops_per_sec(cost.compute_class)
        cu = self.compute_utilization(cost)
        ops = 2 * counters.tc_macs  # 1 MAC = 2 ops, matching TOPS convention
        compute_s = ops / (peak * eff * cu) if ops else 0.0

        mu = self.memory_utilization(cost)
        bw = dev.dram_bandwidth_gbs * 1e9 * dev.dram_efficiency * mu
        reads = counters.global_bytes_read
        if cost.unique_read_bytes > 0:
            # L2 serves cross-block re-reads of the shared operand panels.
            reads = max(
                cost.unique_read_bytes, int(cal.l2_miss_fraction * reads)
            )
        dram_bytes = reads + counters.global_bytes_written
        memory_s = dram_bytes / bw if dram_bytes else 0.0

        epi_rate = (
            dev.peak_ops_per_sec("fp32") * cal.epilogue_ops_fraction_of_fp32
        )
        epilogue_s = counters.cuda_ops / epi_rate if counters.cuda_ops else 0.0

        launches = counters.kernel_launches
        launch_us = (
            launches * dev.launch_overhead_us
            + (launches - 1) * cal.dependent_launch_sync_us
        )
        return LatencyBreakdown(
            name=cost.name,
            launch_us=launch_us,
            compute_us=compute_s * 1e6,
            memory_us=memory_s * 1e6,
            epilogue_us=epilogue_s * 1e6,
            compute_util=cu,
            memory_util=mu,
        )

    def latency_us(self, cost: KernelCost) -> float:
        """Shortcut: total microseconds for one kernel cost."""
        return self.kernel_latency(cost).total_us

    def chain_latency_us(self, costs: list[KernelCost]) -> float:
        """Total microseconds of a dependent kernel sequence."""
        return sum(self.latency_us(c) for c in costs)


# ----------------------------------------------------------------------
# batch-size sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSweepPoint:
    """Modeled latency/throughput of one candidate batch size."""

    batch: int
    latency_us: float

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0

    @property
    def throughput_rps(self) -> float:
        """Requests per second when batches of this size run back-to-back."""
        return self.batch / (self.latency_us * 1e-6)


def batch_size_sweep(
    price_us: Callable[[int], float],
    batch_sizes: Iterable[int],
) -> tuple[BatchSweepPoint, ...]:
    """Price a model at each candidate batch size.

    ``price_us(batch)`` must return the modeled end-to-end latency in
    microseconds -- typically ``engine.estimate(batch).total_us`` or a
    plan-cache-backed equivalent.  The sweep is how the dynamic batcher
    (:mod:`repro.serve.batcher`) trades launch-overhead amortization
    against a latency SLO: throughput rises with batch size until the
    grid saturates the device, while latency rises monotonically.
    """
    points = []
    for batch in batch_sizes:
        if batch < 1:
            raise ValueError(f"batch sizes must be >= 1, got {batch}")
        latency = price_us(batch)
        if latency <= 0:
            raise ValueError(
                f"price_us({batch}) returned non-positive latency {latency}"
            )
        points.append(BatchSweepPoint(batch=batch, latency_us=latency))
    if not points:
        raise ValueError("batch_sizes must be non-empty")
    return tuple(sorted(points, key=lambda p: p.batch))


# ----------------------------------------------------------------------
# precision sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrecisionSweepPoint:
    """Modeled latency of one candidate ``wXaY`` precision pair."""

    pair: str
    plane_product: int
    latency_us: float

    @property
    def latency_ms(self) -> float:
        return self.latency_us / 1000.0


def precision_sweep(
    price_us: Callable[[str], float],
    pairs: Iterable[str],
) -> tuple[PrecisionSweepPoint, ...]:
    """Price a model at each candidate ``wXaY`` precision pair.

    ``price_us(pair_name)`` must return the modeled end-to-end latency in
    microseconds at that precision -- typically a plan-cache-backed
    pricing through a backend reconfigured to the pair.  This is the
    precision axis of the paper's accuracy/latency dial (Table 1):
    latency falls with the plane product ``X*Y``, which is what the
    serving autoswitcher (:mod:`repro.serve.policies`) exploits under
    load.  Points come back sorted by ascending plane product.
    """
    from ..core.types import PrecisionPair

    points = []
    for name in pairs:
        pair = PrecisionPair.parse(name)
        latency = price_us(pair.name)
        if latency <= 0:
            raise ValueError(
                f"price_us({pair.name!r}) returned non-positive latency "
                f"{latency}"
            )
        points.append(
            PrecisionSweepPoint(
                pair=pair.name,
                plane_product=pair.plane_product,
                latency_us=latency,
            )
        )
    if not points:
        raise ValueError("pairs must be non-empty")
    return tuple(sorted(points, key=lambda p: (p.plane_product, p.pair)))
