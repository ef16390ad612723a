"""Functional simulator of Ampere Tensor-Core primitives and memory system."""

from .bmma import (
    BMMA_K,
    BMMA_M,
    BMMA_N,
    BMMA_WORDS,
    HMMA_SHAPE,
    IMMA4_SHAPE,
    IMMA8_SHAPE,
    bmma,
    hmma,
    imma4,
    imma8,
)
from .counters import ExecutionCounters
from .device import A100, DEVICES, RTX3090, DeviceSpec, get_device
from .fragment import FragmentFile
from .smem import SharedMemory

__all__ = [
    "BMMA_M",
    "BMMA_N",
    "BMMA_K",
    "BMMA_WORDS",
    "IMMA4_SHAPE",
    "IMMA8_SHAPE",
    "HMMA_SHAPE",
    "bmma",
    "imma4",
    "imma8",
    "hmma",
    "ExecutionCounters",
    "DeviceSpec",
    "RTX3090",
    "A100",
    "DEVICES",
    "get_device",
    "FragmentFile",
    "SharedMemory",
]
