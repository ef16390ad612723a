"""Tests for DeviceSpec, FragmentFile, SharedMemory and counters."""

import numpy as np
import pytest

from repro.tensorcore import (
    A100,
    DEVICES,
    RTX3090,
    DeviceSpec,
    ExecutionCounters,
    FragmentFile,
    SharedMemory,
    get_device,
)


class TestDeviceSpec:
    def test_registry_contains_paper_devices(self):
        assert set(DEVICES) == {"RTX3090", "A100"}

    def test_lookup_case_insensitive(self):
        assert get_device("rtx3090") is RTX3090
        assert get_device(" a100 ") is A100

    def test_unknown_device(self):
        with pytest.raises(KeyError, match="unknown device"):
            get_device("H100")

    def test_int1_ratio_rtx3090_is_4x_int8(self):
        assert RTX3090.peak_tops["int1"] / RTX3090.peak_tops["int8"] == pytest.approx(4.0)

    def test_int1_ratio_a100_is_8x_int8(self):
        """The architectural fact behind Fig. 6's larger speedups."""
        assert A100.peak_tops["int1"] / A100.peak_tops["int8"] == pytest.approx(8.0)

    def test_each_precision_halving_doubles_throughput_rtx3090(self):
        p = RTX3090.peak_tops
        assert p["int4"] == pytest.approx(2 * p["int8"])
        assert p["int1"] == pytest.approx(2 * p["int4"])

    def test_peak_ops_per_sec(self):
        assert RTX3090.peak_ops_per_sec("int8") == pytest.approx(284e12)

    def test_peak_unknown_class(self):
        with pytest.raises(KeyError, match="compute class"):
            RTX3090.peak_ops_per_sec("int2")

    def test_fragment_capacity_matches_paper_claim(self):
        """Paper 4.1(a): one block of 8 warps -> up to 256 KB fragment."""
        assert RTX3090.fragment_bytes_per_block == 256 * 1024

    def test_validation_sm_count(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad", sm_count=0, clock_ghz=1.0, dram_bandwidth_gbs=100,
                shared_mem_per_sm_bytes=1, max_shared_mem_per_block_bytes=1,
                register_file_per_sm_bytes=1, max_warps_per_sm=1,
                max_blocks_per_sm=1,
                peak_tops={"int1": 1, "int4": 1, "int8": 1, "fp16": 1, "fp32": 1},
                launch_overhead_us=1.0,
            )

    def test_validation_missing_class(self):
        with pytest.raises(ValueError, match="missing classes"):
            DeviceSpec(
                name="bad", sm_count=1, clock_ghz=1.0, dram_bandwidth_gbs=100,
                shared_mem_per_sm_bytes=1, max_shared_mem_per_block_bytes=1,
                register_file_per_sm_bytes=1, max_warps_per_sm=1,
                max_blocks_per_sm=1, peak_tops={"int1": 1},
                launch_overhead_us=1.0,
            )

    def test_custom_device_supported(self):
        """DeviceSpec is pluggable (paper section 7: other processors)."""
        cpu_like = DeviceSpec(
            name="popcnt-cpu", sm_count=64, clock_ghz=3.0,
            dram_bandwidth_gbs=80.0, shared_mem_per_sm_bytes=32 * 1024,
            max_shared_mem_per_block_bytes=32 * 1024,
            register_file_per_sm_bytes=64 * 1024, max_warps_per_sm=2,
            max_blocks_per_sm=2,
            peak_tops={"int1": 8.0, "int4": 2.0, "int8": 1.0, "fp16": 0.5,
                       "fp32": 0.25},
            launch_overhead_us=0.1,
        )
        assert cpu_like.peak_ops_per_sec("int1") == pytest.approx(8e12)


class TestFragmentFile:
    def test_allocate_and_get(self):
        ff = FragmentFile(1024)
        arr = ff.allocate("acc", (8, 8))
        assert arr.dtype == np.int32
        assert ff.get("acc") is arr
        assert "acc" in ff

    def test_capacity_enforced(self):
        ff = FragmentFile(100)
        with pytest.raises(MemoryError, match="overflow"):
            ff.allocate("big", (8, 8))  # 256 B > 100 B

    def test_peak_tracking(self):
        ff = FragmentFile(10_000)
        ff.allocate("a", (8, 8))
        ff.allocate("b", (8, 8))
        ff.free("a")
        assert ff.peak_bytes == 512
        assert ff.used_bytes == 256

    def test_double_allocate_rejected(self):
        ff = FragmentFile(10_000)
        ff.allocate("a", (2,))
        with pytest.raises(KeyError, match="already"):
            ff.allocate("a", (2,))

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            FragmentFile(100).free("nope")

    def test_reset_preserves_peak(self):
        ff = FragmentFile(10_000)
        ff.allocate("a", (16, 16))
        ff.reset()
        assert ff.used_bytes == 0
        assert ff.peak_bytes == 1024

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FragmentFile(0)

    def test_paper_apmm_accumulators_fit(self):
        """A 128x128 int32 output tile fits the 256 KB block fragment file."""
        ff = FragmentFile(RTX3090.fragment_bytes_per_block)
        ff.allocate("acc", (128, 128))  # 64 KB
        assert ff.used_bytes == 128 * 128 * 4


class TestSharedMemory:
    def test_write_read_roundtrip_counts_traffic(self):
        c = ExecutionCounters()
        sm = SharedMemory(4096, c)
        sm.allocate("tile", (4, 4), np.int32)
        data = np.arange(16, dtype=np.int32).reshape(4, 4)
        sm.write("tile", data)
        out = sm.read("tile")
        assert np.array_equal(out, data)
        assert c.smem_bytes_written == 64
        assert c.smem_bytes_read == 64

    def test_view_records_no_traffic(self):
        c = ExecutionCounters()
        sm = SharedMemory(4096, c)
        sm.allocate("t", (2,), np.int32)
        sm.view("t")
        assert c.smem_bytes == 0

    def test_capacity_enforced(self):
        sm = SharedMemory(100)
        with pytest.raises(MemoryError):
            sm.allocate("big", (1000,), np.int32)

    def test_shape_mismatch_on_write(self):
        sm = SharedMemory(4096)
        sm.allocate("t", (4,), np.int32)
        with pytest.raises(ValueError, match="shape mismatch"):
            sm.write("t", np.zeros((5,), dtype=np.int32))

    def test_double_alloc_and_missing_free(self):
        sm = SharedMemory(4096)
        sm.allocate("t", (4,), np.int8)
        with pytest.raises(KeyError):
            sm.allocate("t", (4,), np.int8)
        with pytest.raises(KeyError):
            sm.free("other")

    def test_apmm_default_tiles_fit_rtx3090_block_smem(self):
        """(bm + bn) * bk bits double-buffered must fit in 100 KB."""
        sm = SharedMemory(RTX3090.max_shared_mem_per_block_bytes)
        bm = bn = 128
        bk = 128
        sm.allocate("w0", (bm, bk // 8), np.uint8)
        sm.allocate("x0", (bn, bk // 8), np.uint8)
        sm.allocate("w1", (bm, bk // 8), np.uint8)
        sm.allocate("x1", (bn, bk // 8), np.uint8)
        assert sm.used_bytes == 4 * 128 * 16


class TestExecutionCounters:
    def test_merge_adds(self):
        a = ExecutionCounters(bmma_calls=2, global_bytes_read=10)
        b = ExecutionCounters(bmma_calls=3, global_bytes_written=7)
        a.merge(b)
        assert a.bmma_calls == 5
        assert a.global_bytes == 17

    def test_merge_peak_uses_max(self):
        a = ExecutionCounters(frag_bytes_peak=100)
        b = ExecutionCounters(frag_bytes_peak=50)
        a.merge(b)
        assert a.frag_bytes_peak == 100

    def test_copy_is_independent(self):
        a = ExecutionCounters(blocks=1)
        b = a.copy()
        b.blocks = 99
        assert a.blocks == 1

    def test_validate_negative(self):
        c = ExecutionCounters(cuda_ops=-1)
        with pytest.raises(ValueError, match="cuda_ops"):
            c.validate()

    def test_totals(self):
        c = ExecutionCounters(smem_bytes_read=3, smem_bytes_written=4)
        assert c.smem_bytes == 7
