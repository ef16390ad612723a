"""AP-Layer design (paper section 4): kernels, tiling, im2col lowering, fusion."""

from .apconv import APConvResult, apconv
from .apmm import APMMResult, apmm
from .apmm_sim import apmm_tile_simulate
from .autotune import (
    TLP_THRESHOLD,
    AutotuneCacheStats,
    TuneResult,
    autotune,
    cache_stats,
    clear_cache,
)
from .fusion import (
    AvgPoolOp,
    BatchNormOp,
    MaxPoolOp,
    QuantizeOp,
    ReLUOp,
    apply_epilogue,
    fused_cost,
    unfused_costs,
)
from .layout import conv_output_shape, conv_weight_matrix, im2col, pad_channel_last
from .padding import PaddingPlan, padding_correction, plan_padding
from .tiling import (
    CANDIDATE_TILES,
    DEFAULT_BK,
    WARPS_PER_BLOCK,
    TileConfig,
    compute_intensity,
    tlp,
)

__all__ = [
    "APMMResult",
    "apmm",
    "APConvResult",
    "apconv",
    "apmm_tile_simulate",
    "TuneResult",
    "autotune",
    "TLP_THRESHOLD",
    "AutotuneCacheStats",
    "cache_stats",
    "clear_cache",
    "TileConfig",
    "tlp",
    "compute_intensity",
    "CANDIDATE_TILES",
    "DEFAULT_BK",
    "WARPS_PER_BLOCK",
    "pad_channel_last",
    "im2col",
    "conv_weight_matrix",
    "conv_output_shape",
    "PaddingPlan",
    "plan_padding",
    "padding_correction",
    "BatchNormOp",
    "ReLUOp",
    "QuantizeOp",
    "MaxPoolOp",
    "AvgPoolOp",
    "apply_epilogue",
    "fused_cost",
    "unfused_costs",
]
