"""Shared-memory model for one simulated thread block.

Backs the *shared memory caching* half of the paper's batch-based double
caching (section 4.1(a)): all warps of a block collaboratively stage weight
and feature tiles in shared memory, then each warp fetches its sub-tiles
from there.  The model enforces the per-block capacity (a real launch
failure mode) and tallies read/write traffic for the performance model.
"""

from __future__ import annotations

import numpy as np

from .counters import ExecutionCounters

__all__ = ["SharedMemory"]


class SharedMemory:
    """Capacity-checked, traffic-counted shared memory of one block."""

    def __init__(
        self,
        capacity_bytes: int,
        counters: ExecutionCounters | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.counters = counters if counters is not None else ExecutionCounters()
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def used_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def allocate(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Reserve a named buffer; raises MemoryError beyond capacity."""
        if name in self._buffers:
            raise KeyError(f"shared buffer {name!r} already allocated")
        arr = np.zeros(shape, dtype=dtype)
        if self.used_bytes + arr.nbytes > self.capacity_bytes:
            raise MemoryError(
                f"shared memory overflow: {name!r} ({arr.nbytes} B) would "
                f"exceed {self.capacity_bytes} B (used {self.used_bytes} B)"
            )
        self._buffers[name] = arr
        return arr

    def free(self, name: str) -> None:
        try:
            del self._buffers[name]
        except KeyError as exc:
            raise KeyError(f"shared buffer {name!r} is not allocated") from exc

    def write(self, name: str, data: np.ndarray) -> None:
        """Store data into a buffer, counting the traffic."""
        buf = self._buffers[name]
        if buf.shape != data.shape:
            raise ValueError(
                f"shape mismatch writing {name!r}: {data.shape} vs {buf.shape}"
            )
        buf[...] = data
        self.counters.smem_bytes_written += buf.nbytes

    def read(self, name: str) -> np.ndarray:
        """Fetch a buffer's contents (copy), counting the traffic."""
        buf = self._buffers[name]
        self.counters.smem_bytes_read += buf.nbytes
        return buf.copy()

    def view(self, name: str) -> np.ndarray:
        """Zero-cost view for assertions/tests (no traffic recorded)."""
        return self._buffers[name]

    def reset(self) -> None:
        self._buffers.clear()
