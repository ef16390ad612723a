"""Generators for every table and figure in the paper's evaluation.

Each ``figN``/``tableN`` function returns plain data structures (lists of
rows / series dicts) so benchmarks, tests and the CLI runner can share
them.  Paper-reported reference values are attached wherever the paper
prints concrete numbers, so reports can show paper-vs-measured side by
side.

Experiment geometry follows section 6 exactly:

* GEMM sweeps (Figs. 5/6, Table 4, Fig. 12): ``B = 64``, weight matrix
  ``K x N`` with ``K = N in {128, ..., 1024}``;
* conv sweeps (Figs. 7/8, 10, 11): 16x16 input, 3x3 filter, stride 1,
  batch 1, ``C_in = C_out in {128, ..., 1024}``;
* NN studies (Tables 2/3, Fig. 9): AlexNet / VGG-Variant / ResNet-18 at
  224x224, latency at batch 8, throughput at batch 128.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..baselines import cublas_gemm_cost, cutlass_conv_cost, cutlass_gemm_cost
from ..core.types import PrecisionPair
from ..kernels.autotune import autotune
from ..kernels.fusion import AvgPoolOp, QuantizeOp, fused_cost, unfused_costs
from ..kernels.tiling import TileConfig
from ..core.quantize import AffineQuantizer
from ..nn.engine import APNNBackend, BNNBackend, InferenceEngine, LibraryBackend
from ..nn.models import MODEL_BUILDERS, micro_cnn
from ..perf.cost import conv_cost, gemm_cost
from ..perf.model import LatencyModel
from ..tensorcore.device import A100, RTX3090, DeviceSpec

__all__ = [
    "GEMM_SIZES",
    "CONV_CHANNELS",
    "fig5_apmm_speedups",
    "fig6_apmm_speedups_a100",
    "fig7_apconv_speedups",
    "fig8_apconv_speedups_a100",
    "fig9_layer_breakdown",
    "fig10_kernel_fusion",
    "fig11_bit_overhead",
    "fig12_same_bits",
    "table1_accuracy",
    "table2_apnn_inference",
    "table3_vgg_case_study",
    "table4_fc_latency",
    "ablation_design_choices",
    "serving_throughput_vs_slo",
    "scheduling_models",
    "scheduling_study",
    "scheduling_trace",
    "warmup_study",
    "placement_micro_net",
    "placement_models",
    "placement_trace",
    "placement_policy",
    "placement_study",
    "fault_tolerance_study",
]

GEMM_SIZES = tuple(range(128, 1025, 128))
CONV_CHANNELS = tuple(range(128, 1025, 128))
GEMM_BATCH = 64

#: Paper Table 4 reference microseconds (RTX 3090, M=64, K=N=1024).
PAPER_TABLE4_US = {
    "w1a2": 6.67, "w1a3": 6.81, "w1a4": 7.06, "w2a2": 7.15,
    "cutlass-gemm-int4": 15.61, "cutlass-gemm-int1": 7.92,
}

#: Paper Table 1 reference top-1 accuracy (ImageNet).
PAPER_TABLE1_ACC = {
    "AlexNet": {"binary": 0.461, "w1a2": 0.557, "single": 0.570},
    "VGG-Variant": {"binary": 0.534, "w1a2": 0.688, "single": 0.698},
    "ResNet-18": {"binary": 0.512, "w1a2": 0.626, "single": 0.696},
}

#: Paper Table 2 reference (batch-8 latency ms / batch-128 throughput fps).
PAPER_TABLE2 = {
    "AlexNet": {
        "CUTLASS-Single": (4.43, 2.89e4), "CUTLASS-Half-TC": (3.79, 3.38e4),
        "CUTLASS-INT8-TC": (13.10, 9.77e3), "BNN": (0.69, 1.37e4),
        "APNN-w1a2": (0.36, 2.85e4),
    },
    "VGG-Variant": {
        "CUTLASS-Single": (25.24, 3.89e2), "CUTLASS-Half-TC": (24.19, 4.67e2),
        "CUTLASS-INT8-TC": (25.77, 6.52e2), "BNN": (2.17, 3.91e3),
        "APNN-w1a2": (1.66, 5.32e3),
    },
    "ResNet-18": {
        "CUTLASS-Single": (60.96, 1.51e2), "CUTLASS-Half-TC": (57.33, 1.89e3),
        "CUTLASS-INT8-TC": (57.09, 2.85e3), "BNN": (0.68, 1.89e4),
        "APNN-w1a2": (0.64, 1.70e4),
    },
}


# ----------------------------------------------------------------------
# kernel-level latency helpers
# ----------------------------------------------------------------------
def _apmm_latency_us(model: LatencyModel, device: DeviceSpec,
                     n: int, k: int, pair: PrecisionPair) -> float:
    """APMM on the paper's FC geometry: weights (N x K), batch 64."""
    p, q = pair.weight.bits, pair.activation.bits
    cfg = autotune(n, GEMM_BATCH, p, q, device).config
    return model.latency_us(gemm_cost(n, GEMM_BATCH, k, p, q, cfg))


def _cutlass_gemm_latency_us(model: LatencyModel, n: int, k: int,
                             precision: str) -> float:
    return model.latency_us(cutlass_gemm_cost(GEMM_BATCH, n, k, precision))


def _cublas_int8_latency_us(model: LatencyModel, n: int, k: int) -> float:
    return model.latency_us(cublas_gemm_cost(GEMM_BATCH, n, k, "int8"))


def _apconv_latency_us(model: LatencyModel, device: DeviceSpec,
                       channels: int, pair: PrecisionPair) -> float:
    """APConv on the paper's conv geometry (16x16, 3x3, stride 1, batch 1)."""
    p, q = pair.weight.bits, pair.activation.bits
    from ..perf.cost import conv_gemm_dims

    m, ngemm, _ = conv_gemm_dims(1, channels, channels, 16, 16, 3, 1, 1)
    cfg = autotune(m, ngemm, p, q, device).config
    return model.latency_us(
        conv_cost(1, channels, channels, 16, 16, 3, p, q, cfg, stride=1,
                  padding=1)
    )


def _cutlass_conv_latency_us(model: LatencyModel, channels: int,
                             precision: str) -> float:
    return model.latency_us(
        cutlass_conv_cost(1, channels, channels, 16, 16, 3, precision,
                          stride=1, padding=1)
    )


# ----------------------------------------------------------------------
# Figures 5-8: kernel speedup sweeps
# ----------------------------------------------------------------------
@dataclass
class SpeedupSweep:
    """One speedup panel: series of (x, speedup-over-baseline)."""

    device: str
    baseline: str
    xlabel: str
    series: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    def max_speedup(self, name: str) -> float:
        return max(s for _, s in self.series[name])


def _apmm_panels(device: DeviceSpec) -> tuple[SpeedupSweep, SpeedupSweep]:
    model = LatencyModel(device)
    low = ("w1a2", "w1a3", "w1a4", "w2a2")
    high = ("w5a1", "w1a8", "w6a2", "w2a8")
    panel4 = SpeedupSweep(device.name, "cutlass-gemm-int4", "matrix size")
    panel8 = SpeedupSweep(device.name, "cublas-gemm-int8", "matrix size")
    for names, panel, base_fn in (
        (low, panel4, lambda n, k: _cutlass_gemm_latency_us(model, n, k, "int4")),
        (high, panel8, lambda n, k: _cublas_int8_latency_us(model, n, k)),
    ):
        for name in names:
            pair = PrecisionPair.parse(name)
            panel.series[f"APMM-{name}"] = [
                (n, base_fn(n, n) / _apmm_latency_us(model, device, n, n, pair))
                for n in GEMM_SIZES
            ]
        panel.series["cutlass-gemm-int1"] = [
            (n, base_fn(n, n) / _cutlass_gemm_latency_us(model, n, n, "int1"))
            for n in GEMM_SIZES
        ]
    return panel4, panel8


def fig5_apmm_speedups() -> tuple[SpeedupSweep, SpeedupSweep]:
    """Figure 5: APMM speedups on RTX 3090 (panels a and b)."""
    return _apmm_panels(RTX3090)


def fig6_apmm_speedups_a100() -> tuple[SpeedupSweep, SpeedupSweep]:
    """Figure 6: APMM speedups on A100."""
    return _apmm_panels(A100)


def _apconv_panels(device: DeviceSpec) -> tuple[SpeedupSweep, SpeedupSweep]:
    model = LatencyModel(device)
    low = ("w1a2", "w1a3", "w1a4", "w2a2")
    high = ("w1a5", "w1a8", "w2a6", "w2a8")
    panel4 = SpeedupSweep(device.name, "cutlass-conv-int4", "channels")
    panel8 = SpeedupSweep(device.name, "cutlass-conv-int8", "channels")
    for names, panel, base_prec in ((low, panel4, "int4"), (high, panel8, "int8")):
        for name in names:
            pair = PrecisionPair.parse(name)
            panel.series[f"APConv-{name}"] = [
                (
                    c,
                    _cutlass_conv_latency_us(model, c, base_prec)
                    / _apconv_latency_us(model, device, c, pair),
                )
                for c in CONV_CHANNELS
            ]
        panel.series["cutlass-conv-int1"] = [
            (
                c,
                _cutlass_conv_latency_us(model, c, base_prec)
                / _cutlass_conv_latency_us(model, c, "int1"),
            )
            for c in CONV_CHANNELS
        ]
    return panel4, panel8


def fig7_apconv_speedups() -> tuple[SpeedupSweep, SpeedupSweep]:
    """Figure 7: APConv speedups on RTX 3090."""
    return _apconv_panels(RTX3090)


def fig8_apconv_speedups_a100() -> tuple[SpeedupSweep, SpeedupSweep]:
    """Figure 8: APConv speedups on A100."""
    return _apconv_panels(A100)


# ----------------------------------------------------------------------
# NN-level studies
# ----------------------------------------------------------------------
def _backends():
    return [
        LibraryBackend("fp32"),
        LibraryBackend("fp16"),
        LibraryBackend("int8"),
        BNNBackend(),
        APNNBackend(PrecisionPair.parse("w1a2")),
    ]


def table2_apnn_inference(models: tuple[str, ...] = ("AlexNet", "VGG-Variant",
                                                     "ResNet-18")):
    """Table 2: latency (batch 8) and throughput (batch 128) per scheme."""
    rows = []
    for model_name in models:
        net = MODEL_BUILDERS[model_name]()
        for backend in _backends():
            engine = InferenceEngine(net, backend)
            lat = engine.estimate(8).latency_ms
            fps = engine.estimate(128).throughput_fps
            paper = PAPER_TABLE2[model_name].get(backend.name)
            rows.append(
                {
                    "model": model_name,
                    "scheme": backend.name,
                    "latency_ms": lat,
                    "throughput_fps": fps,
                    "paper_latency_ms": paper[0] if paper else None,
                    "paper_throughput_fps": paper[1] if paper else None,
                }
            )
    return rows


def table3_vgg_case_study():
    """Table 3: VGG under float/half/int8/BNN and three APNN pairs."""
    net = MODEL_BUILDERS["VGG-Variant"]()
    schemes = _backends() + [
        APNNBackend(PrecisionPair.parse("w2a2")),
        APNNBackend(PrecisionPair.parse("w2a8")),
    ]
    paper = {
        "CUTLASS-Single": (25.24, 3.89e2), "CUTLASS-Half-TC": (24.19, 4.66e2),
        "CUTLASS-INT8-TC": (25.77, 6.52e2), "BNN": (2.17, 3.91e3),
        "APNN-w1a2": (1.66, 5.32e3), "APNN-w2a2": (3.08, 2.59e3),
        "APNN-w2a8": (14.14, 5.65e2),
    }
    rows = []
    for backend in schemes:
        engine = InferenceEngine(net, backend)
        ref = paper.get(backend.name)
        rows.append(
            {
                "scheme": backend.name,
                "latency_ms": engine.estimate(8).latency_ms,
                "throughput_fps": engine.estimate(128).throughput_fps,
                "paper_latency_ms": ref[0] if ref else None,
                "paper_throughput_fps": ref[1] if ref else None,
            }
        )
    return rows


def table4_fc_latency():
    """Table 4: raw FC-layer latency, M=64, K=N=1024 (microseconds)."""
    model = LatencyModel(RTX3090)
    rows = []
    for name in ("w1a2", "w1a3", "w1a4", "w2a2"):
        pair = PrecisionPair.parse(name)
        rows.append(
            {
                "kernel": name,
                "latency_us": _apmm_latency_us(model, RTX3090, 1024, 1024, pair),
                "paper_us": PAPER_TABLE4_US[name],
            }
        )
    rows.append(
        {
            "kernel": "cutlass-gemm-int4",
            "latency_us": _cutlass_gemm_latency_us(model, 1024, 1024, "int4"),
            "paper_us": PAPER_TABLE4_US["cutlass-gemm-int4"],
        }
    )
    rows.append(
        {
            "kernel": "cutlass-gemm-int1",
            "latency_us": _cutlass_gemm_latency_us(model, 1024, 1024, "int1"),
            "paper_us": PAPER_TABLE4_US["cutlass-gemm-int1"],
        }
    )
    return rows


def fig9_layer_breakdown(models: tuple[str, ...] = ("AlexNet", "VGG-Variant",
                                                    "ResNet-18")):
    """Figure 9: per-layer share of APNN-w1a2 latency (batch 8)."""
    backend = APNNBackend(PrecisionPair.parse("w1a2"))
    out = {}
    for model_name in models:
        engine = InferenceEngine(MODEL_BUILDERS[model_name](), backend)
        out[model_name] = engine.estimate(8).layer_fractions()
    return out


def fig10_kernel_fusion():
    """Figure 10: APConv-w1a2 + pool + quantize, fused vs unfused (us)."""
    device = RTX3090
    model = LatencyModel(device)
    from ..perf.cost import conv_gemm_dims

    rows = []
    for c in CONV_CHANNELS:
        m, ngemm, _ = conv_gemm_dims(1, c, c, 16, 16, 3, 1, 1)
        cfg = autotune(m, ngemm, 1, 2, device).config
        base = conv_cost(1, c, c, 16, 16, 3, 1, 2, cfg, stride=1, padding=1)
        elements = c * 16 * 16  # conv output elements (batch 1)
        ops = [AvgPoolOp(2), QuantizeOp(AffineQuantizer(bits=2, scale=1.0))]
        fused = model.latency_us(fused_cost(base, ops, elements))
        unfused = model.chain_latency_us(unfused_costs(base, ops, elements))
        rows.append(
            {
                "channels": c,
                "fused_us": fused,
                "unfused_us": unfused,
                "speedup": unfused / fused,
            }
        )
    return rows


def fig11_bit_overhead():
    """Figure 11: bit combination/decomposition overhead vs TC-only (%)."""
    device = RTX3090
    model = LatencyModel(device)
    from ..perf.cost import conv_gemm_dims

    rows = []
    for c in CONV_CHANNELS:
        m, ngemm, _ = conv_gemm_dims(1, c, c, 16, 16, 3, 1, 1)
        cfg = autotune(m, ngemm, 1, 2, device).config
        full = conv_cost(1, c, c, 16, 16, 3, 1, 2, cfg, stride=1, padding=1)
        no_combine = full.without_combine()
        tc_only = no_combine.without_decompose()
        t_tc = model.latency_us(tc_only)
        t_comb = model.latency_us(full.without_decompose())
        t_full = model.latency_us(full)
        rows.append(
            {
                "channels": c,
                "combine_overhead_pct": 100 * (t_comb - t_tc) / t_tc,
                "decompose_overhead_pct": 100 * (t_full - t_comb) / t_tc,
            }
        )
    return rows


def fig12_same_bits():
    """Figure 12: APMM vs cutlass at matched precision (w4a4 and w1a1)."""
    device = RTX3090
    model = LatencyModel(device)
    out = {"APMM-w4a4 vs cutlass-int4": [], "APMM-w1a1 vs cutlass-int1": []}
    for n in GEMM_SIZES:
        w4a4 = _apmm_latency_us(model, device, n, n, PrecisionPair.parse("w4a4"))
        int4 = _cutlass_gemm_latency_us(model, n, n, "int4")
        out["APMM-w4a4 vs cutlass-int4"].append((n, int4 / w4a4))
        w1a1 = _apmm_latency_us(model, device, n, n, PrecisionPair.parse("w1a1"))
        int1 = _cutlass_gemm_latency_us(model, n, n, "int1")
        out["APMM-w1a1 vs cutlass-int1"].append((n, int1 / w1a1))
    return out


def table1_accuracy(epochs: int = 10, seed: int = 1, quick: bool = False):
    """Table 1 (substituted): QAT accuracy on the synthetic dataset.

    Reports measured synthetic accuracies for the three precision presets
    next to the paper's ImageNet numbers.  ``quick`` shrinks the dataset
    and epochs for test/benchmark use.
    """
    from ..train import QATConfig, make_dataset, train_model

    per_class = 60 if quick else 120
    eps = max(6, epochs - 2) if quick else epochs
    ds = make_dataset(
        num_classes=10, train_per_class=per_class, test_per_class=30,
        noise=0.3, detail=0.45, seed=0,
    )
    rows = []
    for preset in ("binary", "w1a2", "float"):
        result = train_model(ds, QATConfig.preset(preset, epochs=eps, seed=seed))
        paper_key = "single" if preset == "float" else preset
        rows.append(
            {
                "precision": preset,
                "test_accuracy": result.test_accuracy,
                "train_accuracy": result.train_accuracy,
                "paper_imagenet": {
                    m: PAPER_TABLE1_ACC[m][paper_key] for m in PAPER_TABLE1_ACC
                },
            }
        )
    return rows


def ablation_design_choices():
    """Ablations of the design points DESIGN.md calls out (RTX 3090).

    Uses the Table 4 FC geometry (w1a2, 1024x64x1024) and the Fig. 7 conv
    geometry (512 channels) to quantify each optimization's contribution.
    """
    device = RTX3090
    model = LatencyModel(device)
    p, q = 1, 2
    n = k = 1024
    cfg = autotune(n, GEMM_BATCH, p, q, device).config

    base = model.latency_us(gemm_cost(n, GEMM_BATCH, k, p, q, cfg))
    no_batch = model.latency_us(
        gemm_cost(n, GEMM_BATCH, k, p, q, cfg, batch_planes=False)
    )
    no_cache = model.latency_us(
        gemm_cost(n, GEMM_BATCH, k, p, q, cfg, double_caching=False)
    )
    fixed_tile = model.latency_us(
        gemm_cost(n, GEMM_BATCH, k, p, q, TileConfig(128, 128))
    )

    from ..perf.cost import conv_gemm_dims

    c = 512
    m, ngemm, _ = conv_gemm_dims(1, c, c, 16, 16, 3, 1, 1)
    ccfg = autotune(m, ngemm, p, q, device).config
    conv_major = model.latency_us(
        conv_cost(1, c, c, 16, 16, 3, p, q, ccfg, stride=1, padding=1)
    )
    conv_nchw = model.latency_us(
        conv_cost(1, c, c, 16, 16, 3, p, q, ccfg, stride=1, padding=1,
                  channel_major=False)
    )
    return {
        "apmm-w1a2 (full design)": base,
        "  - plane batching": no_batch,
        "  - double caching": no_cache,
        "  - autotuning (fixed 128x128)": fixed_tile,
        "apconv-w1a2 channel-major (512ch)": conv_major,
        "apconv-w1a2 naive NCHW (512ch)": conv_nchw,
    }


# ----------------------------------------------------------------------
# serving study
# ----------------------------------------------------------------------
def serving_throughput_vs_slo(
    slos_ms: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0),
    model_name: str = "AlexNet",
    device: DeviceSpec = RTX3090,
):
    """Batcher-chosen batch size and modeled throughput per latency SLO.

    Uses the serving layer's dynamic batcher against a deep queue: for
    each SLO the batcher sweeps candidate batch sizes through the same
    cost model the paper tables use and keeps the highest-throughput
    batch whose modeled latency meets the objective.  Tight SLOs force
    small batches (launch overhead dominates, throughput suffers); loose
    SLOs recover the paper's batch-128 throughput regime (Table 2).
    """
    from ..serve import DynamicBatcher, PlanCache

    net = MODEL_BUILDERS[model_name]()
    backends = [
        APNNBackend(PrecisionPair.parse("w1a2")),
        BNNBackend(),
        LibraryBackend("int8"),
    ]
    cache = PlanCache()
    engines = [InferenceEngine(net, b, device) for b in backends]
    rows = []
    for slo_ms in slos_ms:
        batcher = DynamicBatcher(slo_ms)
        for backend, engine in zip(backends, engines):
            decision = batcher.choose(
                256, lambda b: cache.total_us(engine, b)
            )
            rows.append(
                {
                    "slo_ms": slo_ms,
                    "scheme": backend.name,
                    "batch": decision.batch_size,
                    "latency_ms": decision.expected_latency_ms,
                    "throughput_fps": decision.expected_throughput_rps,
                    "meets_slo": decision.meets_slo,
                }
            )
    return rows


# ----------------------------------------------------------------------
# scheduling study
# ----------------------------------------------------------------------
#: The scheduling study's workload knobs, shared with its tests.
SCHEDULING_SEED = 11
SCHEDULING_NUM_REQUESTS = 160
SCHEDULING_RATE_RPS = 300_000.0
SCHEDULING_ADMISSION_CAP = 32
SCHEDULING_SWITCH_DEPTH = 16
SCHEDULING_TIGHT_SLO_MS = 0.4
SCHEDULING_LOOSE_SLO_MS = 50.0
#: Default precision of the study's single APNN worker, and the pair the
#: autoswitcher degrades to under backlog.
SCHEDULING_DEFAULT_PAIR = "w2a8"
SCHEDULING_DEGRADED_PAIR = "w1a2"


def scheduling_trace():
    """The one seeded overload trace every scheduling row replays."""
    from ..serve import poisson_trace

    return poisson_trace(
        SCHEDULING_RATE_RPS,
        SCHEDULING_NUM_REQUESTS,
        ["alexnet-tight", "resnet-loose"],
        weights=[1.0, 1.0],
        seed=SCHEDULING_SEED,
    )


def scheduling_models():
    """The scheduling workload's two served models (tight + loose SLO).

    The single source of that workload: the study and its tests both
    build from here so retuning the SLOs cannot leave a consumer
    comparing a different workload.
    """
    from ..nn.models import alexnet, resnet18
    from ..serve import ServedModel

    return {
        "alexnet-tight": ServedModel(
            alexnet(num_classes=10, input_size=64), (3, 64, 64),
            slo_ms=SCHEDULING_TIGHT_SLO_MS,
        ),
        "resnet-loose": ServedModel(
            resnet18(num_classes=10, input_size=32), (3, 32, 32),
            slo_ms=SCHEDULING_LOOSE_SLO_MS,
        ),
    }


def _scheduling_server(plan_cache, **server_kw):
    from ..serve import InferenceServer

    return InferenceServer(
        scheduling_models(),
        [(APNNBackend(PrecisionPair.parse(SCHEDULING_DEFAULT_PAIR)), RTX3090)],
        slo_ms=5.0,
        candidate_batches=(1, 2, 4, 8, 16),
        plan_cache=plan_cache,
        **server_kw,
    )


def scheduling_study():
    """Queue disciplines and load policies on one seeded overload trace.

    Replays the same Poisson overload trace (two models: a 0.4 ms-SLO
    AlexNet and a 50 ms-SLO ResNet, one APNN-w2a8 worker, deliberately
    past the worker's service rate) under each scheduling configuration:

    * ``fifo`` / ``edf`` / ``wfq`` -- the queue disciplines alone;
    * ``fifo+shed`` / ``fifo+defer`` -- admission control at a queue cap;
    * ``fifo+autoswitch`` -- precision degradation to w1a2 under backlog.

    Returns ``{"rows": [...], "ladder": [...]}``: one row of serving
    outcomes per configuration, plus the per-precision latency ladder
    (:func:`repro.perf.precision_sweep`) that explains *why* the
    autoswitcher's downgrade buys latency.  Everything runs on the
    simulated clock, so rows are deterministic given the seed.
    """
    import asyncio

    from ..perf.model import precision_sweep
    from ..serve import (
        AdmissionPolicy,
        PlanCache,
        PrecisionAutoswitcher,
        percentile,
        replay,
    )

    trace = scheduling_trace()
    cache = PlanCache()

    def run(scheme: str, **server_kw):
        server = _scheduling_server(cache, **server_kw)

        async def go():
            await server.start()
            results, rejections = await replay(
                server, trace, include_rejections=True
            )
            await server.stop()
            return results, rejections

        results, rejections = asyncio.run(go())
        m = server.metrics
        latencies = [r.latency_us for r in results]
        tight = [
            r.latency_us for r in results if r.model == "alexnet-tight"
        ]
        return {
            "scheme": scheme,
            "served": len(results),
            "rejected": m.total_rejected,
            "deferred": m.total_deferred,
            "max_queue_depth": m.max_queue_depth_seen,
            "deadline_misses": m.total_deadline_misses,
            "p95_ms": percentile(latencies, 95) / 1e3,
            "tight_p95_ms": percentile(tight, 95) / 1e3,
            "switch_rate": m.switch_rate,
            "accuracy_delta": m.mean_accuracy_delta,
        }

    cap = SCHEDULING_ADMISSION_CAP
    rows = [
        run("fifo", discipline="fifo"),
        run("edf", discipline="edf"),
        run("wfq", discipline="wfq"),
        run(
            f"fifo+shed(cap={cap})",
            discipline="fifo",
            admission=AdmissionPolicy(max_queue_depth=cap, mode="shed"),
        ),
        run(
            f"fifo+defer(cap={cap})",
            discipline="fifo",
            admission=AdmissionPolicy(max_queue_depth=cap, mode="defer"),
        ),
        run(
            f"fifo+autoswitch(depth>={SCHEDULING_SWITCH_DEPTH})",
            discipline="fifo",
            autoswitch=PrecisionAutoswitcher.from_spec(
                {SCHEDULING_SWITCH_DEPTH: SCHEDULING_DEGRADED_PAIR}
            ),
        ),
    ]

    # The precision ladder the autoswitcher walks: modeled batch-16
    # latency of the tight model per wXaY pair, plan-cache priced.
    from ..nn.models import alexnet

    net = alexnet(num_classes=10, input_size=64)
    engines: dict[str, InferenceEngine] = {}

    def price(pair_name: str) -> float:
        if pair_name not in engines:
            engines[pair_name] = InferenceEngine(
                net, APNNBackend(PrecisionPair.parse(pair_name)), RTX3090
            )
        return cache.total_us(engines[pair_name], 16, (3, 64, 64))

    ladder = [
        {
            "pair": p.pair,
            "plane_product": p.plane_product,
            "latency_us": p.latency_us,
        }
        for p in precision_sweep(
            price,
            (SCHEDULING_DEGRADED_PAIR, "w1a4", "w2a2", SCHEDULING_DEFAULT_PAIR),
        )
    ]
    return {"rows": rows, "ladder": ladder}


# ----------------------------------------------------------------------
# placement study
# ----------------------------------------------------------------------
#: The placement workload's knobs, shared with ``tests/serve/harness.py``
#: (the cluster simulator) so the study and its tests cannot drift onto
#: different workloads.  Scales are mutually tuned: the micro-net's
#: modeled batch-1 service rate is ~59k rps per replica, the trace's hot
#: share puts ~64k rps on each hot model, and at 50% target utilization
#: that demands 2-3 replicas while the cold tail (~5.6k rps each) stays
#: at one.
PLACEMENT_SEED = 7
PLACEMENT_NUM_REQUESTS = 400
PLACEMENT_RATE_RPS = 150_000.0
PLACEMENT_HOT = ("hot-0", "hot-1")
PLACEMENT_COLD = tuple(f"cold-{i}" for i in range(8))
PLACEMENT_HOT_FRACTION = 0.85
PLACEMENT_REBALANCE_US = 500.0
PLACEMENT_WINDOW_US = 1_000.0
PLACEMENT_WORKERS = 3
PLACEMENT_BATCHES = (1, 2, 4, 8)
PLACEMENT_INPUT_SHAPE = (3, 16, 16)
PLACEMENT_SHARD_STAGES = 2

def placement_micro_net(name: str, seed: int = 0):
    """The placement workload's micro-CNN at its 16x16 input geometry."""
    return micro_cnn(name, seed, PLACEMENT_INPUT_SHAPE)


def placement_models():
    """The placement workload's 2-hot/8-cold model population."""
    from ..serve import ServedModel

    return {
        name: ServedModel(
            placement_micro_net(name, seed), PLACEMENT_INPUT_SHAPE
        )
        for seed, name in enumerate(PLACEMENT_HOT + PLACEMENT_COLD)
    }


def placement_trace():
    """The one seeded skewed trace every placement row replays."""
    from ..serve import skewed_trace

    return skewed_trace(
        PLACEMENT_RATE_RPS,
        PLACEMENT_NUM_REQUESTS,
        PLACEMENT_HOT,
        PLACEMENT_COLD,
        hot_fraction=PLACEMENT_HOT_FRACTION,
        seed=PLACEMENT_SEED,
    )


def placement_policy(**overrides):
    """The study's replication policy (see the scale notes above)."""
    from ..serve import PlacementPolicy

    kwargs = dict(
        rebalance_every_us=PLACEMENT_REBALANCE_US,
        window_us=PLACEMENT_WINDOW_US,
        target_utilization=0.5,
        service_batch=1,
        min_requests=4,
        max_replicas=2,
    )
    kwargs.update(overrides)
    shard = kwargs.pop("shard", None)
    if shard is not None:
        return PlacementPolicy.sharded(shard, **kwargs)
    return PlacementPolicy(**kwargs)


def placement_study():
    """Static vs replicated vs sharded placement on one skewed trace.

    Replays the 2-hot/8-cold skew under four placements on a
    three-worker APNN cluster:

    * ``all-workers`` -- no placement layer: every worker serves every
      model (the pre-placement server);
    * ``static`` -- each model pinned to one worker, never rebalanced
      (``max_replicas=1``);
    * ``replicated`` -- metrics-driven replication: hot models earn a
      second replica at the first epoch whose windowed arrival rate
      exceeds one replica's modeled service rate;
    * ``sharded`` -- the hot models additionally run pipeline-parallel
      in two cost-balanced stages on distinct workers.

    Self-checking: any dropped or reordered request fails the study (the
    CI placement job runs it headless for exactly this reason), and the
    ``replicated`` row must replicate exactly the hot set.
    """
    import asyncio

    from ..serve import InferenceServer, PlanCache, percentile, replay
    from ..core.types import PrecisionPair as _PP

    trace = placement_trace()
    cache = PlanCache(max_entries=1024)
    pair = _PP.parse("w1a2")

    def run(scheme: str, policy):
        server = InferenceServer(
            placement_models(),
            [(APNNBackend(pair), RTX3090)] * PLACEMENT_WORKERS,
            slo_ms=5.0,
            candidate_batches=PLACEMENT_BATCHES,
            plan_cache=cache,
            placement=policy,
        )

        async def go():
            await server.start(prewarm=True)
            results = await replay(server, trace)
            await server.stop()
            return results

        results = asyncio.run(go())
        m = server.metrics
        hot = [r.latency_us for r in results if r.model in PLACEMENT_HOT]
        cold = [
            r.latency_us for r in results if r.model in PLACEMENT_COLD
        ]
        counts = (
            server.placement_controller.placement.replica_counts()
            if server.placement_controller is not None
            else {name: PLACEMENT_WORKERS for name in placement_models()}
        )
        row = {
            "scheme": scheme,
            "served": len(results),
            "p95_ms": percentile([r.latency_us for r in results], 95) / 1e3,
            "hot_p95_ms": percentile(hot, 95) / 1e3,
            "cold_p95_ms": percentile(cold, 95) / 1e3,
            "makespan_ms": server.sim_duration_us / 1e3,
            "rebalances": m.rebalances,
            "hot_replicas": max(counts[h] for h in PLACEMENT_HOT),
            "stage_batches": m.total_stage_batches,
            "dropped": m.dropped_requests,
            "reordered": m.reordered_dispatches,
        }
        replicated = {
            d.model
            for d in (
                server.placement_controller.decisions
                if server.placement_controller is not None else []
            )
            if d.action == "replicate"
        }
        return row, replicated

    rows = []
    checks: dict[str, set] = {}
    for scheme, policy in (
        ("all-workers", None),
        ("static", placement_policy(max_replicas=1)),
        ("replicated", placement_policy()),
        (
            "sharded",
            placement_policy(
                shard={
                    h: PLACEMENT_SHARD_STAGES for h in PLACEMENT_HOT
                }
            ),
        ),
    ):
        row, replicated = run(scheme, policy)
        rows.append(row)
        checks[scheme] = replicated

    for row in rows:
        if row["dropped"] or row["reordered"]:
            raise RuntimeError(
                f"placement invariant violated (dropped/reordered "
                f"requests): {row}"
            )
        if row["served"] != PLACEMENT_NUM_REQUESTS:
            raise RuntimeError(
                f"{row['scheme']} lost requests: {row}"
            )
    if checks["replicated"] != set(PLACEMENT_HOT):
        raise RuntimeError(
            f"replication targeted {sorted(checks['replicated'])}, "
            f"expected exactly the hot set {sorted(PLACEMENT_HOT)}"
        )
    if rows[3]["stage_batches"] == 0:
        raise RuntimeError(
            "sharded row served no pipeline stages"
        )
    return rows


# ----------------------------------------------------------------------
# fault-tolerance study (cluster failure handling)
# ----------------------------------------------------------------------
FAULT_SEED = 3
FAULT_NUM_REQUESTS = 24
FAULT_RATE_RPS = 120_000.0
FAULT_MODELS = ("hot-0", "hot-1", "cold-0")
FAULT_WORKERS = 2
#: A simulated instant inside the trace's busy window, so the scripted
#: crash lands with a batch in flight and the lost work must fail over.
FAULT_CRASH_US = 50.0
FAULT_SLOW_FACTOR = 50.0


def fault_tolerance_study():
    """Failure handling of the simulated cluster, one scenario per row.

    Replays one dense Poisson trace against a two-worker
    :class:`~repro.serve.cluster.ClusterCoordinator` under scripted
    :class:`~repro.serve.cluster.FaultPlan` schedules -- fault-free,
    mid-batch crash (with and without a restart budget), a 50x slow
    replica, and a torn plan-store line -- all on the simulated clock,
    so every row replays bit-identically.

    Self-checking: every scenario must serve every request exactly once
    with zero drops, zero reorders, and a payload set byte-identical to
    the fault-free run (failover may move work, never change results);
    the study raises otherwise, which is what the CI faults job relies
    on.
    """
    import asyncio
    import tempfile

    from ..serve import (
        ClusterCoordinator,
        ClusterPolicy,
        FaultPlan,
        ModelSpec,
        percentile,
        replay,
    )
    from ..serve.trace import poisson_trace

    models = {
        name: ModelSpec(
            kind="micro", name=name, seed=seed,
            input_shape=PLACEMENT_INPUT_SHAPE,
        )
        for seed, name in enumerate(FAULT_MODELS)
    }
    trace = poisson_trace(
        models=list(models),
        num_requests=FAULT_NUM_REQUESTS,
        rate_rps=FAULT_RATE_RPS,
        seed=FAULT_SEED,
    )

    def run(scheme, faults=None, policy=None, cache_dir=None):
        cluster = ClusterCoordinator(
            models,
            FAULT_WORKERS,
            faults=faults,
            policy=(
                policy if policy is not None
                else ClusterPolicy(restart_delay_us=500.0)
            ),
            candidate_batches=PLACEMENT_BATCHES,
            cache_dir=cache_dir,
        )

        async def go():
            await cluster.start()
            results = await replay(cluster, trace)
            await cluster.stop()
            return results

        results = asyncio.run(go())
        m = cluster.metrics
        row = {
            "scheme": scheme,
            "served": len(results),
            "p95_ms": percentile(
                [r.latency_us for r in results], 95
            ) / 1e3,
            "makespan_ms": cluster.sim_duration_us / 1e3,
            "crashes": m.total_worker_crashes,
            "restarts": m.total_worker_restarts,
            "failovers": m.failovers,
            "retries": m.retries,
            "recovered": m.store_recovered_lines,
            "dropped": m.dropped_requests,
            "reordered": m.reordered_dispatches,
        }
        return row, sorted(r.payload for r in results)

    rows = []
    payload_sets = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scheme, faults, policy, cache_dir in (
            ("fault-free", None, None, None),
            (
                "mid-batch-crash",
                FaultPlan.of(FaultPlan.crash("worker-0", FAULT_CRASH_US)),
                None,
                None,
            ),
            (
                "crash-no-restart",
                FaultPlan.of(FaultPlan.crash("worker-0", FAULT_CRASH_US)),
                ClusterPolicy(max_restarts=0),
                None,
            ),
            (
                "slow-replica",
                FaultPlan.of(
                    FaultPlan.slow(
                        "worker-0", 0.0, factor=FAULT_SLOW_FACTOR
                    )
                ),
                None,
                None,
            ),
            (
                "store-corruption",
                FaultPlan.of(FaultPlan.corrupt_store(FAULT_CRASH_US)),
                None,
                tmp,
            ),
        ):
            row, payloads = run(
                scheme, faults=faults, policy=policy, cache_dir=cache_dir
            )
            rows.append(row)
            payload_sets[scheme] = payloads

    baseline = payload_sets["fault-free"]
    for row in rows:
        if row["dropped"] or row["reordered"]:
            raise RuntimeError(
                f"fault-tolerance invariant violated (dropped/reordered "
                f"requests): {row}"
            )
        if row["served"] != FAULT_NUM_REQUESTS:
            raise RuntimeError(f"{row['scheme']} lost requests: {row}")
        if payload_sets[row["scheme"]] != baseline:
            raise RuntimeError(
                f"{row['scheme']} changed result bytes vs the fault-free "
                f"run -- failover must never alter results"
            )
    if rows[1]["crashes"] != 1 or rows[1]["restarts"] != 1:
        raise RuntimeError(
            f"mid-batch-crash row did not crash and restart: {rows[1]}"
        )
    if rows[1]["failovers"] < 1:
        raise RuntimeError(
            f"mid-batch-crash row never failed over: {rows[1]}"
        )
    if rows[4]["recovered"] != 1:
        raise RuntimeError(
            f"store-corruption row recovered {rows[4]['recovered']} "
            f"lines, expected exactly 1"
        )
    return rows


# ----------------------------------------------------------------------
# warmup study (cold-start behavior)
# ----------------------------------------------------------------------
#: Environment override for where the warmup study persists plans.  CI's
#: cache round-trip job points two runner *processes* at one directory so
#: the second proves the store survives a real restart.
WARMUP_CACHE_DIR_ENV = "REPRO_PLAN_CACHE_DIR"
#: When set (CI's second process), the ``cold+persist`` row must load
#: every plan from the pre-populated store -- zero compiles -- or the
#: study raises instead of rendering a table.
WARMUP_REQUIRE_PERSISTED_ENV = "REPRO_REQUIRE_PERSISTED"


def warmup_study(cache_dir=None):
    """Cold vs persisted vs prewarmed server starts on one seeded trace.

    Replays the scheduling workload's trace under four start regimes:

    * ``cold`` -- fresh in-memory cache: worker loops compile off-loop
      (single-flight, thread executor) as traffic hits cold keys;
    * ``cold+persist`` -- same, but over a :class:`~repro.serve.PlanCacheStore`
      under ``cache_dir`` (the ``REPRO_PLAN_CACHE_DIR`` env var, or a
      temporary directory), so every compile is persisted;
    * ``persisted-restart`` -- a *fresh* cache over that store, the
      simulated process restart: it must replan nothing;
    * ``prewarmed`` -- fresh in-memory cache with ``start(prewarm=True)``:
      all compiles happen before traffic, none during it.

    The study is self-checking and raises ``RuntimeError`` when a regime
    breaks its contract: a persisted restart that compiles, a prewarmed
    start that compiles during traffic, or any synchronous in-loop
    compile anywhere (the event-loop stall this subsystem exists to
    prevent).  Scheduling runs on the simulated clock, so every row's
    latency column is identical -- warmth changes *when plans are made*,
    never what the batcher decides.
    """
    import asyncio
    import tempfile

    from ..serve import PlanCache, PlanCacheStore, percentile, replay

    trace = scheduling_trace()
    tmp = None
    if cache_dir is None:
        cache_dir = os.environ.get(WARMUP_CACHE_DIR_ENV)
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory()
        cache_dir = tmp.name

    def run(scheme: str, cache, *, prewarm: bool = False):
        server = _scheduling_server(cache)

        async def go():
            await server.start(prewarm=prewarm)
            started = cache.stats()
            results = await replay(server, trace)
            await server.stop()
            return results, started

        results, started = asyncio.run(go())
        stats = cache.stats()
        return {
            "scheme": scheme,
            "served": len(results),
            "compiles": stats.compiles,
            "in_traffic_compiles": stats.compiles - started.compiles,
            "in_loop_compiles": stats.inloop_compiles,
            "persisted_plans": stats.persisted_entries,
            "persisted_hits": stats.persisted_hits,
            "coalesced": stats.coalesced,
            "p95_ms": percentile([r.latency_us for r in results], 95) / 1e3,
        }

    try:
        rows = [
            run("cold", PlanCache()),
            run("cold+persist", PlanCache(store=PlanCacheStore(cache_dir))),
            run(
                "persisted-restart",
                PlanCache(store=PlanCacheStore(cache_dir)),
            ),
            run("prewarmed", PlanCache(), prewarm=True),
        ]
    finally:
        if tmp is not None:
            tmp.cleanup()

    by = {r["scheme"]: r for r in rows}
    if by["persisted-restart"]["compiles"]:
        raise RuntimeError(
            f"persisted restart replanned: {by['persisted-restart']}"
        )
    if by["prewarmed"]["in_traffic_compiles"]:
        raise RuntimeError(
            f"prewarmed start compiled during traffic: {by['prewarmed']}"
        )
    if any(r["in_loop_compiles"] for r in rows):
        raise RuntimeError(
            f"the event loop stalled on a synchronous compile: {rows}"
        )
    if len({r["p95_ms"] for r in rows}) != 1:
        raise RuntimeError(
            f"warmth changed scheduling (p95 differs across regimes): {rows}"
        )
    if os.environ.get(WARMUP_REQUIRE_PERSISTED_ENV) and (
        by["cold+persist"]["compiles"]
    ):
        raise RuntimeError(
            f"{WARMUP_REQUIRE_PERSISTED_ENV} is set but the persisted "
            f"store missed (not populated by a previous process?): "
            f"{by['cold+persist']}"
        )
    return rows
