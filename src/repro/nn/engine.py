"""Inference engine: maps models onto backends and prices every launch.

The engine walks a model's fused groups (:mod:`repro.nn.fusion_pass`),
propagates shapes, assigns boundary precisions via the minimal-traffic
dataflow (:mod:`repro.nn.dataflow`) and builds one
:class:`~repro.perf.cost.KernelCost` chain per group for the chosen
backend:

=================  =====================================================
backend            behaviour
=================  =====================================================
``APNNBackend``    APConv/APMM at the configured ``wXaY`` pair; 8-bit
                   activations into the first layer (int8 image); all
                   element-wise layers + pooling + quantization fused
                   into producing kernels; packed low-bit boundaries
``BNNBackend``     the TCBNN-style binary baseline: w1a1 kernels with
                   small tiles and per-warp loads (8-bit first layer)
``LibraryBackend`` CUTLASS fp32 / fp16-TC / int8-TC NNs: conv+BN+ReLU
                   fused (standard library epilogues), pooling as its
                   own kernel, 32/16/8-bit boundary tensors
=================  =====================================================

``compile(batch)`` performs the expensive planning work (fusion walk,
shape propagation, dataflow assignment, tile autotuning, cost assembly)
once and returns a reusable :class:`CompiledPlan`; ``estimate(batch)``
compiles and prices in one call -- required for ImageNet-scale latency
tables -- while ``forward(x)`` runs the float reference semantics for
functional tests and examples.  Every engine prices with the one fitted
calibration (:data:`~repro.perf.calibration.DEFAULT_CALIBRATION`).

A plan's identity is the engine's :attr:`InferenceEngine.plan_identity`
-- model name, :func:`backend_key` and device name, computed once --
plus the batch and input shape.  The serving layer (:mod:`repro.serve`)
memoizes compiled plans under it so repeat requests never re-plan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping

import numpy as np

from ..core.types import PrecisionPair
from ..kernels.autotune import autotune
from ..kernels.tiling import TileConfig
from ..perf.cost import (
    KernelCost,
    baseline_conv_cost,
    baseline_gemm_cost,
    conv_cost,
    conv_gemm_dims,
    gemm_cost,
)
from ..perf.model import LatencyBreakdown, LatencyModel
from ..tensorcore.counters import ExecutionCounters
from ..tensorcore.device import DeviceSpec, RTX3090
from .dataflow import INPUT_BITS, DataflowPlan, GroupPlan, plan_dataflow
from .fusion_pass import fuse_graph
from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    MaxPool2d,
    Quantize,
    ReLU,
)
from .module import Sequential

__all__ = [
    "APNNBackend",
    "BNNBackend",
    "LibraryBackend",
    "backend_key",
    "GroupReport",
    "ModelReport",
    "PlannedGroup",
    "CompiledPlan",
    "GemmProblem",
    "InferenceEngine",
]

#: CUDA-core operations one epilogue layer spends per input element.
_EPILOGUE_OPS_PER_ELEMENT = {
    BatchNorm2d: 2,
    ReLU: 1,
    Quantize: 3,
    MaxPool2d: 1,
    AvgPool2d: 1,
    AdaptiveAvgPool2d: 1,
    Flatten: 0,
}


@dataclass(frozen=True)
class APNNBackend:
    """Arbitrary-precision backend at a ``wXaY`` pair (the paper's system).

    ``layer_pairs`` optionally overrides the precision of individual GEMM
    layers by name -- the HAQ-style per-layer mixed precision the paper
    cites as a driving use case (section 2.1): e.g.
    ``{"conv1": PrecisionPair.parse("w2a8"), "fc8": PrecisionPair.parse("w4a4")}``.
    """

    pair: PrecisionPair
    layer_pairs: tuple[tuple[str, PrecisionPair], ...] = ()

    @classmethod
    def mixed(cls, default: str, overrides: dict[str, str]) -> "APNNBackend":
        """Convenience constructor from precision-name strings."""
        return cls(
            pair=PrecisionPair.parse(default),
            layer_pairs=tuple(
                (name, PrecisionPair.parse(p)) for name, p in overrides.items()
            ),
        )

    def pair_for(self, layer_name: str) -> PrecisionPair:
        """Precision pair of one layer (override or default)."""
        for name, pair in self.layer_pairs:
            if name == layer_name:
                return pair
        return self.pair

    @property
    def name(self) -> str:
        suffix = "+mixed" if self.layer_pairs else ""
        return f"APNN-{self.pair.name}{suffix}"


@dataclass(frozen=True)
class BNNBackend:
    """TCBNN-style binary baseline [25]."""

    @property
    def name(self) -> str:
        return "BNN"

    @property
    def pair(self) -> PrecisionPair:
        return PrecisionPair.parse("w1a1")


@dataclass(frozen=True)
class LibraryBackend:
    """CUTLASS-built NN at a standard precision."""

    precision: str  # "fp32" | "fp16" | "int8"

    def __post_init__(self) -> None:
        if self.precision not in ("fp32", "fp16", "int8"):
            raise ValueError(
                f"library backend precision must be fp32/fp16/int8, got "
                f"{self.precision!r}"
            )

    @property
    def name(self) -> str:
        return {
            "fp32": "CUTLASS-Single",
            "fp16": "CUTLASS-Half-TC",
            "int8": "CUTLASS-INT8-TC",
        }[self.precision]

    @property
    def element_bits(self) -> int:
        return {"fp32": 32, "fp16": 16, "int8": 8}[self.precision]


def backend_key(backend) -> str:
    """Canonical plan-key string for a backend's precision config.

    ``backend.name`` alone is ambiguous for mixed-precision APNN backends
    (every override set renders as ``+mixed``), so the key spells out the
    per-layer pairs.
    """
    if isinstance(backend, APNNBackend):
        parts = [f"APNN:{backend.pair.name}"]
        for layer, pair in sorted(backend.layer_pairs, key=lambda lp: lp[0]):
            parts.append(f"{layer}={pair.name}")
        return "|".join(parts)
    return backend.name


@dataclass
class GroupReport:
    """Priced execution of one fused group."""

    name: str
    kind: str
    latency: LatencyBreakdown | None
    costs: list[KernelCost]
    total_us: float
    output_shape: tuple[int, ...]


@dataclass
class ModelReport:
    """Whole-network latency estimate."""

    model_name: str
    backend_name: str
    device_name: str
    batch: int
    groups: list[GroupReport]
    dataflow: DataflowPlan | None = None

    @property
    def total_us(self) -> float:
        return sum(g.total_us for g in self.groups)

    @property
    def latency_ms(self) -> float:
        return self.total_us / 1000.0

    @property
    def throughput_fps(self) -> float:
        return self.batch / (self.total_us * 1e-6)

    def layer_fractions(self) -> list[tuple[str, float]]:
        """Per-group share of total latency (Fig. 9's breakdown)."""
        total = self.total_us
        return [(g.name, g.total_us / total) for g in self.groups]


@dataclass(frozen=True)
class PlannedGroup:
    """One fused group's compiled kernel chain (pricing-independent)."""

    name: str
    kind: str
    costs: tuple[KernelCost, ...]
    output_shape: tuple[int, ...]


@dataclass(frozen=True)
class GemmProblem:
    """One GEMM a plan dispatches: the (implicit-)GEMM shape + precisions.

    ``repro.bench`` pulls these from :meth:`InferenceEngine.gemm_problems`
    so its serving suite times exactly the matrix products a served model's
    kernels execute -- shapes and ``wXaY`` pairs included.
    """

    layer: str
    kind: str  # "conv" (implicit GEMM) | "linear"
    m: int
    n: int
    k: int
    w_bits: int
    a_bits: int

    @property
    def name(self) -> str:
        return (
            f"{self.kind}-w{self.w_bits}a{self.a_bits}-"
            f"{self.m}x{self.n}x{self.k}"
        )


# ----------------------------------------------------------------------
# plan serialization (used by repro.serve.PlanCacheStore)
# ----------------------------------------------------------------------
def _cost_to_dict(cost: KernelCost) -> dict[str, Any]:
    return {
        "name": cost.name,
        "counters": cost.counters.as_dict(),
        "compute_class": cost.compute_class,
        "efficiency_key": cost.efficiency_key,
        "warps_per_block": cost.warps_per_block,
        "smem_bytes_per_block": cost.smem_bytes_per_block,
        "decompose_ops": cost.decompose_ops,
        "combine_ops": cost.combine_ops,
        "unique_read_bytes": cost.unique_read_bytes,
    }


def _cost_from_dict(data: Mapping[str, Any]) -> KernelCost:
    return KernelCost(
        name=data["name"],
        counters=ExecutionCounters(**data["counters"]),
        compute_class=data["compute_class"],
        efficiency_key=data["efficiency_key"],
        warps_per_block=data["warps_per_block"],
        smem_bytes_per_block=data["smem_bytes_per_block"],
        decompose_ops=data["decompose_ops"],
        combine_ops=data["combine_ops"],
        unique_read_bytes=data["unique_read_bytes"],
    )


def _dataflow_to_dict(dataflow: DataflowPlan) -> dict[str, Any]:
    return {"groups": [asdict(g) for g in dataflow.groups]}


def _dataflow_from_dict(data: Mapping[str, Any]) -> DataflowPlan:
    return DataflowPlan(groups=[GroupPlan(**g) for g in data["groups"]])


@dataclass(frozen=True)
class CompiledPlan:
    """Reusable execution plan: every planning decision, no pricing.

    Holds the fused groups' :class:`~repro.perf.cost.KernelCost` chains
    (which embed the autotuned tiles) plus the boundary-precision dataflow
    for one (model, backend, device, batch, input shape) combination.
    Planning is the expensive half of :meth:`InferenceEngine.estimate`;
    a plan can be priced repeatedly -- or cached by
    :class:`repro.serve.PlanCache` -- without redoing it.
    """

    model_name: str
    backend_name: str
    device_name: str
    batch: int
    input_shape: tuple[int, ...]
    groups: tuple[PlannedGroup, ...]
    dataflow: DataflowPlan | None

    @property
    def kernel_launches(self) -> int:
        return sum(
            c.counters.kernel_launches for g in self.groups for c in g.costs
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of every planning decision.

        Captures the fused groups' kernel cost chains (which embed the
        autotuned tile choices as counted work), the boundary-precision
        dataflow, and the plan identity -- everything
        :meth:`from_dict` needs to rebuild an equal plan, so a serving
        process can persist compiled plans and a restarted one can price
        them without replanning (:class:`repro.serve.PlanCacheStore`).
        """
        return {
            "model_name": self.model_name,
            "backend_name": self.backend_name,
            "device_name": self.device_name,
            "batch": self.batch,
            "input_shape": list(self.input_shape),
            "groups": [
                {
                    "name": g.name,
                    "kind": g.kind,
                    "costs": [_cost_to_dict(c) for c in g.costs],
                    "output_shape": list(g.output_shape),
                }
                for g in self.groups
            ],
            "dataflow": (
                _dataflow_to_dict(self.dataflow)
                if self.dataflow is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompiledPlan":
        """Rebuild a plan serialized by :meth:`to_dict` (inverse, exact)."""
        return cls(
            model_name=data["model_name"],
            backend_name=data["backend_name"],
            device_name=data["device_name"],
            batch=data["batch"],
            input_shape=tuple(data["input_shape"]),
            groups=tuple(
                PlannedGroup(
                    name=g["name"],
                    kind=g["kind"],
                    costs=tuple(_cost_from_dict(c) for c in g["costs"]),
                    output_shape=tuple(g["output_shape"]),
                )
                for g in data["groups"]
            ),
            dataflow=(
                _dataflow_from_dict(data["dataflow"])
                if data["dataflow"] is not None else None
            ),
        )

    def price(self, latency_model: LatencyModel) -> ModelReport:
        """Price this plan's kernel chains with one latency model."""
        reports = []
        for group in self.groups:
            costs = list(group.costs)
            total = sum(latency_model.latency_us(c) for c in costs)
            reports.append(
                GroupReport(
                    name=group.name,
                    kind=group.kind,
                    latency=(
                        latency_model.kernel_latency(costs[0]) if costs else None
                    ),
                    costs=costs,
                    total_us=total,
                    output_shape=group.output_shape,
                )
            )
        return ModelReport(
            model_name=self.model_name,
            backend_name=self.backend_name,
            device_name=self.device_name,
            batch=self.batch,
            groups=reports,
            dataflow=self.dataflow,
        )


def _elements(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _elementwise_cost(
    name: str,
    in_elements: int,
    in_bits: int,
    out_elements: int,
    out_bits: int,
    ops_per_element: int,
) -> KernelCost:
    """A standalone element-wise kernel (unfused epilogue / pooling)."""
    counters = ExecutionCounters(
        cuda_ops=ops_per_element * in_elements,
        global_bytes_read=in_elements * in_bits // 8,
        global_bytes_written=out_elements * out_bits // 8,
        blocks=max(1, in_elements // 4096),
        kernel_launches=1,
    )
    return KernelCost(
        name=name,
        counters=counters,
        compute_class="fp32",
        efficiency_key="cutlass_fp32",
        warps_per_block=8,
        smem_bytes_per_block=0,
    )


class InferenceEngine:
    """Prices (and functionally runs) one model on one backend/device."""

    def __init__(
        self, model: Sequential, backend, device: DeviceSpec = RTX3090
    ) -> None:
        self.model = model
        self.backend = backend
        self.device = device
        self.latency_model = LatencyModel(device)
        self.groups = fuse_graph(model)
        #: ``(model name, backend key, device name)``: the part of every
        #: plan's identity this engine fixes; a plan key adds the batch
        #: and input shape.
        self.plan_identity = (model.name, backend_key(backend), device.name)

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Float reference forward of the underlying model."""
        return self.model.forward(x)

    # ------------------------------------------------------------------
    # shape walk
    # ------------------------------------------------------------------
    def _walk_shapes(self, input_shape):
        """Per-group records (group, input shape, [(epilogue layer,
        its input elements)], output shape), honoring side branches."""
        records = []
        shape = input_shape
        saved = None
        for group in self.groups:
            gin = saved if group.side_branch else shape
            if group.block_entry:
                saved = gin
            s = group.main.output_shape(gin) if group.main is not None else gin
            epilogue_elems = []
            for layer in group.epilogue:
                epilogue_elems.append((layer, _elements(s)))
                s = layer.output_shape(s)
            records.append((group, gin, epilogue_elems, s))
            if not group.side_branch:
                shape = s
        return records

    # ------------------------------------------------------------------
    # cost assembly
    # ------------------------------------------------------------------
    def _gemm_base_cost(self, layer, in_shape, w_bits, a_bits) -> KernelCost:
        backend = self.backend
        if isinstance(backend, LibraryBackend):
            if isinstance(layer, Conv2d):
                n, c, h, w = in_shape
                return baseline_conv_cost(
                    n, c, layer.out_channels, h, w, layer.kernel,
                    backend.element_bits, TileConfig(128, 128),
                    stride=layer.stride, padding=layer.padding,
                    compute_class=backend.precision,
                    efficiency_key=f"cutlass_{backend.precision}",
                    out_bits=backend.element_bits,
                    name=layer.name,
                )
            m, k = layer.out_features, layer.in_features
            return baseline_gemm_cost(
                m, in_shape[0], k, backend.element_bits, TileConfig(128, 128),
                compute_class=backend.precision,
                efficiency_key=f"cutlass_{backend.precision}",
                out_bits=backend.element_bits,
                name=layer.name,
            )

        is_bnn = isinstance(backend, BNNBackend)
        if isinstance(layer, Conv2d):
            n, c, h, w = in_shape
            m, ngemm, _ = conv_gemm_dims(
                n, c, layer.out_channels, h, w, layer.kernel,
                layer.stride, layer.padding,
            )
            cfg = (
                TileConfig(32, 32) if is_bnn
                else autotune(m, ngemm, w_bits, a_bits, self.device).config
            )
            # The channel-major NPHWC layout needs ~128C channels to
            # coalesce (paper 4.2a); the 3-channel input layer cannot use
            # it, so its feature reads stay unaligned -- the mechanism
            # behind the first layer dominating Fig. 9's breakdown.
            return conv_cost(
                n, c, layer.out_channels, h, w, layer.kernel,
                w_bits, a_bits, cfg,
                stride=layer.stride, padding=layer.padding,
                efficiency_key="bnn" if is_bnn else "apconv",
                double_caching=not is_bnn,
                channel_major=c >= 64,
                name=layer.name,
            )
        m, k = layer.out_features, layer.in_features
        n = in_shape[0]
        cfg = (
            TileConfig(32, 32) if is_bnn
            else autotune(m, n, w_bits, a_bits, self.device).config
        )
        return gemm_cost(
            m, n, k, w_bits, a_bits, cfg,
            efficiency_key="bnn" if is_bnn else "apmm",
            double_caching=not is_bnn,
            name=layer.name,
        )

    def _epilogue_fusable(self, layer) -> bool:
        """Which epilogue layers ride in the producing kernel."""
        if isinstance(self.backend, LibraryBackend):
            # libraries fuse element-wise epilogues but not pooling
            return isinstance(layer, (BatchNorm2d, ReLU, Quantize, Flatten))
        return True

    def _quantize_is_noop(self, layer) -> bool:
        return (
            isinstance(self.backend, LibraryBackend)
            and isinstance(layer, Quantize)
            and self.backend.precision in ("fp32", "fp16")
        )

    def _assemble_gemm_group(
        self, group, gin, epilogue_elems, out_shape, w_bits, a_bits, out_bits
    ) -> list[KernelCost]:
        base = self._gemm_base_cost(group.main, gin, w_bits, a_bits)
        library = isinstance(self.backend, LibraryBackend)
        boundary_bits = self.backend.element_bits if library else 32
        if library:
            out_bits = boundary_bits

        counters = base.counters.copy()
        fused_ops = 0
        standalone: list[tuple[object, int, int]] = []  # (layer, in, out elems)
        gemm_elems = (
            epilogue_elems[0][1] if epilogue_elems else _elements(out_shape)
        )
        elems_chain = [e for _, e in epilogue_elems] + [_elements(out_shape)]
        all_fused = True
        for i, (layer, elems) in enumerate(epilogue_elems):
            if self._quantize_is_noop(layer):
                continue
            if self._epilogue_fusable(layer):
                fused_ops += _EPILOGUE_OPS_PER_ELEMENT[type(layer)] * elems
            else:
                all_fused = False
                standalone.append((layer, elems, elems_chain[i + 1]))
        if group.residual_add:
            # the add is element-wise on the group output, always fused
            fused_ops += _elements(out_shape)

        counters.cuda_ops += fused_ops
        # producing kernel writes the final packed boundary tensor when the
        # whole epilogue is fused, else its raw GEMM output
        if all_fused:
            write_elems, write_bits = _elements(out_shape), out_bits
        else:
            write_elems, write_bits = gemm_elems, boundary_bits
        counters.global_bytes_written -= gemm_elems * boundary_bits // 8
        counters.global_bytes_written += write_elems * write_bits // 8
        costs = [replace(base, counters=counters)]

        for layer, in_elems, out_elems in standalone:
            costs.append(
                _elementwise_cost(
                    f"{group.name}/{layer.name}", in_elems, boundary_bits,
                    out_elems, boundary_bits,
                    _EPILOGUE_OPS_PER_ELEMENT[type(layer)],
                )
            )
        return costs

    def _assemble_elementwise_group(self, group, epilogue_elems, out_shape):
        """A group with no GEMM: standalone element-wise kernel chain."""
        costs = []
        elems_chain = [e for _, e in epilogue_elems] + [_elements(out_shape)]
        for i, (layer, elems) in enumerate(epilogue_elems):
            if self._quantize_is_noop(layer):
                continue
            ops = _EPILOGUE_OPS_PER_ELEMENT[type(layer)]
            if ops == 0:
                continue
            costs.append(
                _elementwise_cost(
                    f"{group.name}/{layer.name}", elems, 32,
                    elems_chain[i + 1], 32, ops,
                )
            )
        return costs

    # ------------------------------------------------------------------
    def _gemm_precisions(self, records) -> list[tuple[int, int] | None]:
        """Per-record ``(w_bits, a_bits)`` for GEMM groups, ``None`` for
        epilogue-only groups.

        The single source of truth for precision assignment -- per-layer
        overrides and the first GEMM's int8 image
        (:data:`~repro.nn.dataflow.INPUT_BITS`) included -- shared by
        :meth:`compile` and :meth:`gemm_problems` so ``repro.bench``
        always benchmarks the pairs the plans actually dispatch.
        """
        pair = getattr(self.backend, "pair", None)
        bits: list[tuple[int, int] | None] = []
        first_gemm_seen = False
        for group, *_ in records:
            if group.main is None:
                bits.append(None)
                continue
            if pair is not None:
                layer_pair = (
                    self.backend.pair_for(group.main.name)
                    if isinstance(self.backend, APNNBackend) else pair
                )
                w_bits = layer_pair.weight.bits
                a_bits = (
                    layer_pair.activation.bits if first_gemm_seen
                    else INPUT_BITS
                )
            else:
                w_bits = a_bits = self.backend.element_bits
            first_gemm_seen = True
            bits.append((w_bits, a_bits))
        return bits

    def compile(
        self,
        batch: int,
        input_shape: tuple[int, int, int] = (3, 224, 224),
    ) -> CompiledPlan:
        """Plan the full network at the given batch size (no pricing)."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        records = self._walk_shapes((batch,) + tuple(input_shape))
        shapes = [rec[3] for rec in records]
        pair = getattr(self.backend, "pair", None)
        dataflow = plans = None
        if pair is not None:
            dataflow = plan_dataflow(self.groups, shapes)
            plans = dataflow.groups

        planned: list[PlannedGroup] = []
        precisions = self._gemm_precisions(records)
        for idx, (group, gin, epilogue_elems, out_shape) in enumerate(records):
            if group.main is not None:
                w_bits, a_bits = precisions[idx]
                out_bits = (
                    plans[idx].out_bits if pair is not None
                    else self.backend.element_bits
                )
                costs = self._assemble_gemm_group(
                    group, gin, epilogue_elems, out_shape,
                    w_bits, a_bits, out_bits,
                )
            else:
                costs = self._assemble_elementwise_group(
                    group, epilogue_elems, out_shape
                )
            planned.append(
                PlannedGroup(
                    name=group.name,
                    kind=type(group.main).__name__ if group.main else "epilogue",
                    costs=tuple(costs),
                    output_shape=out_shape,
                )
            )
        return CompiledPlan(
            model_name=self.model.name,
            backend_name=self.backend.name,
            device_name=self.device.name,
            batch=batch,
            input_shape=tuple(input_shape),
            groups=tuple(planned),
            dataflow=dataflow,
        )

    def estimate(
        self,
        batch: int,
        input_shape: tuple[int, int, int] = (3, 224, 224),
    ) -> ModelReport:
        """Price the full network at the given batch size."""
        return self.compile(batch, input_shape).price(self.latency_model)

    def gemm_problems(
        self,
        batch: int,
        input_shape: tuple[int, int, int] = (3, 224, 224),
    ) -> tuple[GemmProblem, ...]:
        """The GEMM problems this model dispatches at ``batch``.

        Walks the same fused groups and precision assignment as
        :meth:`compile` (the first layer's 8-bit image included) and
        returns each Conv2d/Linear group's (implicit-)GEMM shape.  This is
        how ``repro.bench`` derives serving-relevant shapes: the packed
        fast path is benchmarked on exactly the matrix products a served
        model runs.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        records = self._walk_shapes((batch,) + tuple(input_shape))
        precisions = self._gemm_precisions(records)
        problems: list[GemmProblem] = []
        for idx, (group, gin, _, _) in enumerate(records):
            layer = group.main
            if layer is None:
                continue
            w_bits, a_bits = precisions[idx]
            if isinstance(layer, Conv2d):
                n, c, h, w = gin
                m, n_gemm, k = conv_gemm_dims(
                    n, c, layer.out_channels, h, w, layer.kernel,
                    layer.stride, layer.padding,
                )
                problems.append(
                    GemmProblem(
                        layer.name, "conv", m, n_gemm, k, w_bits, a_bits
                    )
                )
            else:
                problems.append(
                    GemmProblem(
                        layer.name, "linear", layer.out_features,
                        gin[0], layer.in_features, w_bits, a_bits,
                    )
                )
        return tuple(problems)
