"""A quantized network forward composed from the library's public calls.

No library function executes a quantized model yet, so the benchmark
builds one from the pieces callers already have:

* set-up: every ``Conv2d``/``Linear`` weight is quantized once, with
  :func:`repro.core.quantize.binarize` at 1 bit and
  :class:`repro.core.quantize.QEMQuantizer` above (bipolar grid);
* per forward: the 8-bit input image is quantized by a calibrated
  :class:`repro.core.quantize.AffineQuantizer`; then, for each fused group
  of :attr:`repro.nn.engine.InferenceEngine.groups`, the group runs
  ``apconv`` / ``apmm`` on digits, its epilogue (``repro.kernels.fusion``
  ops, ``repro.nn.layers`` pooling, the residual add) on real values, and
  re-quantizes at the boundary bits of the compiled plan's ``dataflow``.

Every quantization point after a ReLU (and the image) is non-negative,
so all activation quantizers have zero point 0 and ``digit * scale`` is
the real value; a GEMM's real output is then ``acc * w_scale * x_scale``.
The epilogue is plain numpy on those values, so two forwards whose
kernels return equal accumulators return byte-equal logits -- which is
what the output check compares across kernel strategies.

A :class:`Recorder` passed to :func:`forward` wraps every call into a
layer with a wall-clock span; without one the forward does no tracing
work at all.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.quantize import AffineQuantizer, QEMQuantizer, binarize
from repro.core.types import Encoding, Precision
from repro.kernels.apconv import apconv
from repro.kernels.apmm import apmm
from repro.kernels.fusion import BatchNormOp, QuantizeOp, ReLUOp
from repro.nn.engine import InferenceEngine
from repro.nn.layers import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    MaxPool2d,
    Quantize,
    ReLU,
)

__all__ = ["Act", "GemmStep", "QuantizedNet", "Recorder", "forward", "prepare"]


@dataclass
class Act:
    """An activation: unsigned digits with a scale, or real values."""

    values: np.ndarray | None = None
    digits: np.ndarray | None = None
    bits: int = 0
    scale: float = 1.0

    def real(self) -> np.ndarray:
        if self.digits is None:
            return self.values
        return self.digits * self.scale


@dataclass
class GemmStep:
    """One fused GEMM group with its weights quantized once."""

    label: str  # "<NN>-<layer>": the group's position and main layer
    group: object  # repro.nn.fusion_pass.FusedGroup
    w_digits: np.ndarray
    w_prec: Precision
    w_scale: float
    a_prec: Precision
    out_bits: int  # boundary bits from the plan's dataflow
    macs: int
    modeled_us: float
    first: bool


@dataclass
class QuantizedNet:
    """Prepared network: steps, the plan they came from, quantizers."""

    name: str
    batch: int
    steps: list[GemmStep]
    plan: object  # repro.nn.engine.CompiledPlan
    #: calibrated activation quantizers, keyed (step label, "in"|"out")
    quantizers: dict[tuple[str, str], AffineQuantizer] = field(
        default_factory=dict
    )

    @property
    def weight_bytes(self) -> int:
        return sum(s.w_digits.nbytes for s in self.steps)

    @property
    def modeled_us(self) -> float:
        return sum(s.modeled_us for s in self.steps)


class Recorder:
    """Nested wall-clock spans from the benchmark's side of each call.

    Spans are kept as a tree while a forward runs and handed to a
    :class:`repro.obs.Tracer` when the root closes, parent first, so
    every child carries its parent's span id.
    """

    def __init__(self, tracer, lane: str) -> None:
        self.tracer = tracer
        self.lane = lane
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str, phase: str, **attrs):
        node = [name, phase, time.perf_counter() * 1e6, 0.0, attrs, []]
        self._stack.append(node)
        try:
            yield attrs
        finally:
            node[3] = time.perf_counter() * 1e6
            self._stack.pop()
            if self._stack:
                self._stack[-1][5].append(node)
            else:
                self._emit(node, None)

    def _emit(self, node, parent_id) -> None:
        name, phase, t0, t1, attrs, children = node
        span_id = self.tracer.span(
            name, phase, t0, t1, parent_id=parent_id, track="wall",
            lane=self.lane, **attrs,
        )
        for child in children:
            self._emit(child, span_id)


@contextmanager
def _nothing(**attrs):
    yield attrs


def _span(rec: Recorder | None, name: str, phase: str, **attrs):
    return _nothing(**attrs) if rec is None else rec.span(name, phase, **attrs)


def _quantize_weight(w: np.ndarray, prec: Precision):
    if prec.bits == 1:
        return binarize(w)
    return QEMQuantizer(prec).fit(w)


def prepare(model, backend, device, batch: int, input_size: int, plan_cache):
    """Quantize weights once and bind them to the compiled plan.

    Returns ``(net, timings)`` where timings split the set-up into
    weight quantization and plan compile seconds.
    """
    shape = (3, input_size, input_size)
    engine = InferenceEngine(model, backend, device)
    t0 = time.perf_counter()
    plan = plan_cache.get(engine, batch, shape)
    report = plan.price(engine.latency_model)
    problems = engine.gemm_problems(batch, shape)
    compile_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    weight_enc = backend.pair.weight.encoding
    steps = []
    gemm_idx = 0
    for idx, (group, gplan, priced) in enumerate(
        zip(engine.groups, plan.dataflow.groups, report.groups)
    ):
        if group.main is None:
            raise ValueError(f"{model.name}: epilogue-only group {group.name}")
        prob = problems[gemm_idx]
        gemm_idx += 1
        w_prec = Precision(prob.w_bits, weight_enc)
        qt = _quantize_weight(group.main.weight.data, w_prec)
        steps.append(
            GemmStep(
                label=f"{idx:02d}-{group.name}",
                group=group,
                w_digits=qt.digits,
                w_prec=w_prec,
                w_scale=qt.scale,
                a_prec=Precision(prob.a_bits, Encoding.UNSIGNED),
                out_bits=gplan.out_bits,
                macs=prob.m * prob.n * prob.k,
                modeled_us=priced.total_us,
                first=idx == 0,
            )
        )
    quantize_s = time.perf_counter() - t0
    net = QuantizedNet(model.name, batch, steps, plan)
    return net, {"plan_compile_s": compile_s, "weight_quantize_s": quantize_s}


def _quantizer(net, key, values, bits, calibrate) -> AffineQuantizer:
    q = net.quantizers.get(key)
    if q is None:
        if not calibrate:
            raise KeyError(f"{net.name}: uncalibrated quantizer {key}")
        hi = float(values.max()) if values.size else 0.0
        q = AffineQuantizer.from_range(0.0, hi if hi > 0 else 1.0, bits)
        net.quantizers[key] = q
    return q


def _kernel(step: GemmStep, digits, strategy, backend):
    layer = step.group.main
    if isinstance(layer, Conv2d):
        r = apconv(
            step.w_digits, digits, step.w_prec, step.a_prec,
            stride=layer.stride, padding=layer.padding,
            strategy=strategy, backend=backend,
        )
        return r.output, r.cost.counters.compiled_kernels
    r = apmm(
        step.w_digits, digits, step.w_prec, step.a_prec,
        strategy=strategy, backend=backend,
    )
    return r.output.T, r.cost.counters.compiled_kernels


def _kernel_kind(step: GemmStep, compiled: int) -> str:
    if step.first:
        return "first_layer"
    if not isinstance(step.group.main, Conv2d):
        return "apmm"
    return "gather" if compiled > 0 else "conv_fold"


def _epilogue(step, y, identity, net, calibrate, rec):
    """BN / residual + ReLU / requantize / pooling, in the group's order."""
    group = step.group
    pending_add = group.residual_add
    act = Act(values=y)
    for layer in group.epilogue:
        if pending_add and not isinstance(layer, BatchNorm2d):
            with _span(rec, "residual_add", "epilogue"):
                act = Act(values=ReLUOp().apply(act.real() + identity.real()))
            pending_add = False
        with _span(rec, type(layer).__name__, "epilogue"):
            if isinstance(layer, BatchNorm2d):
                act = Act(values=BatchNormOp(*layer.folded_scale_shift()).apply(
                    act.real()
                ))
            elif isinstance(layer, ReLU):
                act = Act(values=ReLUOp().apply(act.real()))
            elif isinstance(layer, Quantize):
                bits = step.out_bits
                if bits != layer.bits:
                    raise ValueError(
                        f"{step.label}: dataflow says {bits} bits, "
                        f"marker says {layer.bits}"
                    )
                values = act.real()
                q = _quantizer(net, (step.label, "out"), values, bits, calibrate)
                act = Act(digits=QuantizeOp(q).apply(values), bits=bits,
                          scale=q.scale)
            elif isinstance(layer, (MaxPool2d, Flatten)) and act.digits is not None:
                # max and reshape keep digits digits
                act = Act(digits=layer.forward(act.digits), bits=act.bits,
                          scale=act.scale)
            elif isinstance(layer, (MaxPool2d, AdaptiveAvgPool2d, Flatten)):
                act = Act(values=layer.forward(act.real()))
            else:
                raise TypeError(f"{step.label}: cannot run {layer!r}")
    if pending_add:
        with _span(rec, "residual_add", "epilogue"):
            act = Act(values=ReLUOp().apply(act.real() + identity.real()))
    return act


def forward(
    net: QuantizedNet,
    images: np.ndarray,
    *,
    strategy: str = "packed",
    backend: str | None = None,
    calibrate: bool = False,
    rec: Recorder | None = None,
) -> np.ndarray:
    """Run the quantized network on a float image batch; returns logits.

    ``calibrate=True`` fits every activation quantizer not fitted yet to
    this batch's range; later forwards reuse them.
    """
    x = Act(values=images)
    saved = branch = None
    with _span(rec, f"forward {net.name}", "forward", batch=net.batch):
        for step in net.steps:
            group = step.group
            with _span(rec, step.label, "group", label=step.label,
                       modeled_us=step.modeled_us):
                gin = saved if group.side_branch else x
                if group.block_entry:
                    saved = gin
                bits = step.a_prec.bits
                if gin.digits is not None and gin.bits == bits:
                    digits, x_scale = gin.digits, gin.scale
                else:
                    phase = "quantize" if step.first else "epilogue"
                    with _span(rec, "quantize_in", phase):
                        values = gin.real()
                        q = _quantizer(net, (step.label, "in"), values, bits,
                                       calibrate)
                        digits, x_scale = q.quantize(values), q.scale
                with _span(rec, step.label, "kernel") as attrs:
                    acc, compiled = _kernel(step, digits, strategy, backend)
                    if rec is not None:
                        attrs.update(
                            kind=_kernel_kind(step, compiled),
                            compiled_kernels=compiled,
                            macs=step.macs,
                            operand_bytes=step.w_digits.nbytes + digits.nbytes,
                            out_bytes=acc.nbytes,
                        )
                with _span(rec, "rescale", "epilogue"):
                    y = acc * (step.w_scale * x_scale)
                identity = None
                if group.residual_add:
                    identity = branch if branch is not None else saved
                    branch = None
                out = _epilogue(step, y, identity, net, calibrate, rec)
                if group.side_branch:
                    branch = out
                else:
                    x = out
    return x.real()
