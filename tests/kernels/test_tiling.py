"""Tests for TileConfig, TLP/CI metrics and the autotuner (paper 4.3)."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import (
    CANDIDATE_TILES,
    TLP_THRESHOLD,
    TileConfig,
    autotune,
    compute_intensity,
    tlp,
)
from repro.perf import gemm_cost
from repro.tensorcore import A100, RTX3090, DeviceSpec


class TestTileConfig:
    def test_valid_construction(self):
        cfg = TileConfig(64, 32)
        assert (cfg.bm, cfg.bn, cfg.bk) == (64, 32, 128)

    @pytest.mark.parametrize("bm", [0, 4, 12, -8])
    def test_bad_bm_rejected(self, bm):
        with pytest.raises(ValueError):
            TileConfig(bm, 32)

    def test_bad_bk_rejected(self):
        with pytest.raises(ValueError, match="bk"):
            TileConfig(32, 32, bk=64)

    def test_paper_default_warp_partition(self):
        """Paper: wm = bm/4, wn = bn/2 with 8 warps."""
        cfg = TileConfig(64, 64)
        assert cfg.warp_partition == (4, 2)
        assert cfg.wm == 16
        assert cfg.wn == 32
        assert cfg.num_warps == 8

    def test_small_tile_warp_fallback(self):
        cfg = TileConfig(16, 64)
        rows, cols = cfg.warp_partition
        assert cfg.bm // rows >= 8
        assert cfg.bn // cols >= 8

    def test_wk_equals_bk(self):
        assert TileConfig(32, 32).wk == 128

    def test_smem_bytes_double_buffered(self):
        cfg = TileConfig(128, 128)
        # (128+128)*128 bits * 2 stages / 8
        assert cfg.smem_bytes() == 256 * 128 * 2 // 8

    def test_smem_single_buffer_is_half(self):
        cfg = TileConfig(64, 64)
        assert cfg.smem_bytes(double_buffered=False) * 2 == cfg.smem_bytes()

    def test_fragment_bytes_accounts_acc_and_operands(self):
        cfg = TileConfig(64, 64)
        acc = 64 * 64 * 4
        operands = 8 * (16 + 32) * 128 // 8
        assert cfg.fragment_bytes() == acc + operands

    def test_validate_for_device_passes_for_candidates(self):
        for bm in CANDIDATE_TILES:
            for bn in CANDIDATE_TILES:
                TileConfig(bm, bn).validate_for_device(RTX3090)

    def test_validate_rejects_oversized_fragment(self):
        with pytest.raises(ValueError, match="fragments"):
            TileConfig(512, 512).validate_for_device(RTX3090)

    def test_str(self):
        assert str(TileConfig(32, 64)) == "32x64x128"


class TestMetrics:
    def test_tlp_formula_eq3(self):
        """TLP = pM * qN / (bm * bn)."""
        assert tlp(1024, 64, 1, 2, TileConfig(32, 64)) == pytest.approx(
            (1 * 1024 * 2 * 64) / (32 * 64)
        )

    def test_tlp_scales_with_bits(self):
        cfg = TileConfig(32, 32)
        assert tlp(100, 100, 2, 2, cfg) == 4 * tlp(100, 100, 1, 1, cfg)

    def test_tlp_validates(self):
        with pytest.raises(ValueError):
            tlp(0, 10, 1, 1, TileConfig(16, 16))

    def test_ci_formula_eq4(self):
        """CI = 2*bm*bn / (bm + bn)."""
        assert compute_intensity(TileConfig(64, 64)) == pytest.approx(64.0)
        assert compute_intensity(TileConfig(128, 32)) == pytest.approx(
            2 * 128 * 32 / 160
        )

    def test_ci_independent_of_bk(self):
        """The paper's reason for fixing bk = 128."""
        assert compute_intensity(TileConfig(64, 64, 128)) == compute_intensity(
            TileConfig(64, 64, 256)
        )

    @given(st.sampled_from(CANDIDATE_TILES), st.sampled_from(CANDIDATE_TILES))
    def test_ci_increases_with_tile_area(self, bm, bn):
        ci = compute_intensity(TileConfig(bm, bn))
        ci_bigger = compute_intensity(TileConfig(bm * 2, bn * 2))
        assert ci_bigger > ci

    def test_grid_blocks_ceils(self):
        """Launched blocks ceil-divide the batched problem's grid."""
        cost = gemm_cost(100, 100, 128, 1, 1, TileConfig(64, 64))
        assert cost.counters.blocks == 2 * 2
        cost = gemm_cost(1024, 64, 128, 1, 2, TileConfig(32, 64))
        assert cost.counters.blocks == 32 * 2


class TestAutotune:
    def test_small_problem_maximizes_tlp(self):
        """Below the T threshold, parallelism wins: smallest tiles."""
        res = autotune(16, 16, 1, 1, RTX3090)
        assert res.config.bm == 16 and res.config.bn == 16
        assert res.tlp < TLP_THRESHOLD

    def test_large_problem_improves_ci(self):
        """Above T, the tuner trades TLP for compute intensity."""
        res = autotune(4096, 4096, 1, 1, RTX3090)
        assert res.config.bm == 128 and res.config.bn == 128
        assert res.tlp >= TLP_THRESHOLD

    def test_threshold_respected(self):
        """Chosen tile keeps TLP >= T whenever any candidate can."""
        res = autotune(1024, 64, 1, 2, RTX3090)
        assert res.tlp >= TLP_THRESHOLD

    def test_table4_shape_selects_mid_tile(self):
        """The Table 4 FC problem (M=1024 weights, batch 64, w1a2)."""
        res = autotune(1024, 64, 1, 2, RTX3090)
        assert res.ci == max(
            c for cfg, t, c in res.ranking if t >= TLP_THRESHOLD
        )

    def test_bit_width_changes_choice_via_tlp(self):
        """Higher bits -> more virtual blocks -> CI-friendlier tiles."""
        low = autotune(256, 64, 1, 1, RTX3090)
        high = autotune(256, 64, 4, 8, RTX3090)
        assert high.config.bm * high.config.bn >= low.config.bm * low.config.bn

    def test_deterministic(self):
        a = autotune(512, 128, 1, 2, RTX3090)
        b = autotune(512, 128, 1, 2, RTX3090)
        assert a.config == b.config

    def test_ranking_sorted_by_tlp(self):
        res = autotune(512, 512, 1, 1, RTX3090)
        tlps = [t for _, t, _ in res.ranking]
        assert tlps == sorted(tlps, reverse=True)

    def test_device_by_name(self):
        assert autotune(64, 64, 1, 1, "A100").config == autotune(64, 64, 1, 1, A100).config

    def test_custom_threshold(self):
        res = autotune(1024, 1024, 1, 1, RTX3090, threshold=1.0)
        # with a trivial threshold, CI rules: biggest tile
        assert res.config.bm == 128 and res.config.bn == 128

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            autotune(0, 64, 1, 1, RTX3090)
        with pytest.raises(ValueError):
            autotune(64, 64, 1, 1, RTX3090, threshold=0)

    def test_unregistered_device_works(self):
        tiny = DeviceSpec(
            name="tiny", sm_count=4, clock_ghz=1.0, dram_bandwidth_gbs=100,
            shared_mem_per_sm_bytes=32 * 1024,
            max_shared_mem_per_block_bytes=16 * 1024,
            register_file_per_sm_bytes=64 * 1024, max_warps_per_sm=16,
            max_blocks_per_sm=4,
            peak_tops={"int1": 8, "int4": 4, "int8": 2, "fp16": 1, "fp32": 0.5},
            launch_overhead_us=1.0,
        )
        res = autotune(256, 256, 1, 1, tiny)
        # 128x128 double-buffered tiles exceed 16 KB block smem -> excluded
        assert res.config.smem_bytes() <= 16 * 1024

    @pytest.mark.parametrize("device", [RTX3090, A100], ids=lambda d: d.name)
    def test_unregistered_clone_tunes_like_registered_device(self, device):
        """The cache bypass runs the memoized path's heuristic."""
        clone = replace(device, name=f"{device.name}-clone")
        for m, n, p_bits, q_bits in itertools.product(
            (16, 128, 1024, 4096), (8, 64, 512, 4096), (1, 2, 4), (1, 2, 8)
        ):
            assert autotune(m, n, p_bits, q_bits, clone) == autotune(
                m, n, p_bits, q_bits, device
            )


class TestAutotuneCacheStats:
    """Cache counters surfaced for the serving metrics layer."""

    def test_hit_miss_accounting(self):
        from repro.kernels import cache_stats, clear_cache

        clear_cache()
        assert cache_stats().lookups == 0
        assert cache_stats().hit_rate == 0.0
        autotune(640, 64, 1, 2, RTX3090)
        autotune(640, 64, 1, 2, RTX3090)
        stats = cache_stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.entries == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_distinct_problems_are_distinct_entries(self):
        from repro.kernels import cache_stats, clear_cache

        clear_cache()
        autotune(640, 64, 1, 2, RTX3090)
        autotune(640, 64, 1, 2, A100)
        autotune(640, 128, 1, 2, RTX3090)
        assert cache_stats().entries == 3

    def test_unregistered_device_bypasses_cache(self):
        from repro.kernels import cache_stats, clear_cache

        clear_cache()
        tiny = DeviceSpec(
            name="tiny2", sm_count=4, clock_ghz=1.0, dram_bandwidth_gbs=100,
            shared_mem_per_sm_bytes=32 * 1024,
            max_shared_mem_per_block_bytes=16 * 1024,
            register_file_per_sm_bytes=64 * 1024, max_warps_per_sm=16,
            max_blocks_per_sm=4,
            peak_tops={"int1": 8, "int4": 4, "int8": 2, "fp16": 1, "fp32": 0.5},
            launch_overhead_us=1.0,
        )
        autotune(256, 256, 1, 1, tiny)
        assert cache_stats().lookups == 0
