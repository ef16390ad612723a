"""Functional simulator of the Ampere Tensor Core's binary MMA and memory system."""

from .bmma import BMMA_K, BMMA_M, BMMA_N, BMMA_WORDS, bmma
from .counters import ExecutionCounters
from .device import A100, DEVICES, RTX3090, DeviceSpec, get_device
from .fragment import FragmentFile
from .smem import SharedMemory

__all__ = [
    "BMMA_M",
    "BMMA_N",
    "BMMA_K",
    "BMMA_WORDS",
    "bmma",
    "ExecutionCounters",
    "DeviceSpec",
    "RTX3090",
    "A100",
    "DEVICES",
    "get_device",
    "FragmentFile",
    "SharedMemory",
]
