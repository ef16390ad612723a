"""Execution counters: the measured quantities behind the performance model.

Every simulated kernel (APMM, APConv, baselines) tallies its work into an
:class:`ExecutionCounters` instance.  The analytical latency model consumes
*only* these counts plus the tiling configuration -- keeping a clean
separation between "what work was done" (observable, testable against the
explicit tile-level simulation) and "how long the hardware would take"
(calibrated model).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ExecutionCounters"]


@dataclass
class ExecutionCounters:
    """Tallies of simulated-GPU work, all in scalar units.

    Attributes
    ----------
    bmma_calls:
        Number of 8x8x128 (or equivalent MMA-shape) primitive invocations.
    tc_macs:
        Multiply-accumulate operations executed on Tensor Cores, in units of
        the primitive's native element type (1-bit MACs for bmma).
    cuda_ops:
        Scalar CUDA-core operations (bit decomposition shifts, epilogue
        arithmetic, popcount corrections).
    global_bytes_read / global_bytes_written:
        DRAM traffic.
    smem_bytes_read / smem_bytes_written:
        Shared-memory traffic.
    frag_bytes_peak:
        Peak register-fragment footprint per block.
    blocks:
        Thread blocks launched (the paper's TLP, eq. 3).
    kernel_launches:
        Number of distinct kernel launches (fusion reduces this).
    compiled_kernels:
        Hot-loop invocations that executed on a compiled kernel (the
        popcount GEMM of :mod:`repro.core.packed` and the packed conv
        gather of :mod:`repro.kernels.packed_conv`) instead of the numpy
        path -- zero on the numpy backend by construction, so tests can
        assert which path actually ran.
    """

    bmma_calls: int = 0
    tc_macs: int = 0
    cuda_ops: int = 0
    global_bytes_read: int = 0
    global_bytes_written: int = 0
    smem_bytes_read: int = 0
    smem_bytes_written: int = 0
    frag_bytes_peak: int = 0
    blocks: int = 0
    kernel_launches: int = 0
    compiled_kernels: int = 0

    def merge(self, other: "ExecutionCounters") -> "ExecutionCounters":
        """Accumulate another counter set into this one (in place).

        ``frag_bytes_peak`` merges with ``max`` (it is a high-water mark);
        everything else adds.
        """
        for f in fields(self):
            if f.name == "frag_bytes_peak":
                self.frag_bytes_peak = max(self.frag_bytes_peak, other.frag_bytes_peak)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def copy(self) -> "ExecutionCounters":
        return ExecutionCounters(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        """Field-name -> tally mapping, in declaration order.

        The one serialization shape for counters everywhere: plan
        records, span attributes, and test assertions all go through
        here instead of poking dataclass fields ad hoc.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, baseline: "ExecutionCounters") -> "ExecutionCounters":
        """Work done since ``baseline`` (counter-wise ``self - baseline``).

        The inverse of :meth:`merge` for accumulating counters; the
        non-additive ``frag_bytes_peak`` high-water mark has no
        meaningful difference, so the delta keeps ``self``'s peak.
        Raises ``ValueError`` when ``baseline`` is ahead of ``self`` on
        any additive counter (a delta of negative work is always a
        caller bug, not a measurement).
        """
        out = ExecutionCounters()
        for f in fields(self):
            if f.name == "frag_bytes_peak":
                out.frag_bytes_peak = self.frag_bytes_peak
                continue
            diff = getattr(self, f.name) - getattr(baseline, f.name)
            if diff < 0:
                raise ValueError(
                    f"counter {f.name} went backwards: baseline "
                    f"{getattr(baseline, f.name)} > current "
                    f"{getattr(self, f.name)}"
                )
            setattr(out, f.name, diff)
        return out

    @property
    def global_bytes(self) -> int:
        """Total DRAM traffic."""
        return self.global_bytes_read + self.global_bytes_written

    @property
    def smem_bytes(self) -> int:
        """Total shared-memory traffic."""
        return self.smem_bytes_read + self.smem_bytes_written

    def validate(self) -> None:
        """All tallies must be non-negative."""
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"counter {f.name} is negative")
