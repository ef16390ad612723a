"""Minimal-traffic dataflow planner (paper section 5.1).

Decides the bit-width of every tensor crossing a kernel boundary:

* the network input is an int8 image; the **input layer** therefore
  computes at ``(p-bit weights) x (8-bit activations)`` and its fused
  epilogue quantizes down to ``q`` bits;
* **intermediate layers** consume ``q``-bit packed activations and, when
  their epilogue contains a quantization marker, write ``q``-bit packed
  outputs -- the semantics-preserving choice that moves ``q*n`` bits
  instead of ``32*n`` (the paper's motivating example: 2-bit activations
  move 16x less data);
* the **output layer** keeps its int32 logits (softmax consumes them
  directly; no quantization after the output layer).

The planner also quantifies the inter-layer traffic under the packed
dataflow versus the naive 32-bit dataflow, which is the invariant tested
against the paper's claim.  It decides only what each group *writes*;
what each GEMM computes at -- per-layer overrides and the first layer's
:data:`INPUT_BITS` included -- is :class:`~repro.nn.engine
.InferenceEngine`'s one precision assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion_pass import FusedGroup
from .layers import Conv2d, Linear

__all__ = ["GroupPlan", "DataflowPlan", "plan_dataflow"]

#: Bits of the int8 RGB input image.
INPUT_BITS = 8


@dataclass(frozen=True)
class GroupPlan:
    """Boundary precision of one fused group's output."""

    name: str
    out_bits: int
    is_gemm: bool
    #: number of scalar elements this group writes across the boundary
    out_elements: int


@dataclass
class DataflowPlan:
    """Per-group boundary precisions plus traffic accounting."""

    groups: list[GroupPlan]

    @property
    def packed_traffic_bytes(self) -> int:
        """Bytes crossing kernel boundaries with packed low-bit outputs."""
        return sum(g.out_elements * g.out_bits // 8 for g in self.groups)

    @property
    def naive_traffic_bytes(self) -> int:
        """Bytes if every boundary tensor were 32-bit (no packing)."""
        return sum(g.out_elements * 4 for g in self.groups)

    @property
    def traffic_reduction(self) -> float:
        """naive / packed ratio; ~32/q for q-bit-dominated networks."""
        packed = self.packed_traffic_bytes
        return self.naive_traffic_bytes / packed if packed else 1.0


def _elements(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def plan_dataflow(
    groups: list[FusedGroup],
    group_output_shapes: list[tuple[int, ...]],
) -> DataflowPlan:
    """Assign boundary precisions to fused groups.

    ``group_output_shapes[i]`` is the (post-epilogue) output shape of
    ``groups[i]`` -- the engine computes these during its shape walk.
    """
    if len(groups) != len(group_output_shapes):
        raise ValueError(
            f"{len(groups)} groups but {len(group_output_shapes)} shapes"
        )
    gemm_indices = [
        i for i, g in enumerate(groups) if isinstance(g.main, (Conv2d, Linear))
    ]
    if not gemm_indices:
        raise ValueError("model has no GEMM-bearing layers to plan")
    last_gemm = gemm_indices[-1]

    plans: list[GroupPlan] = []
    act_bits = INPUT_BITS
    for i, (group, out_shape) in enumerate(zip(groups, group_output_shapes)):
        is_gemm = isinstance(group.main, (Conv2d, Linear))
        if i == last_gemm:
            out_bits = 32  # logits stay int32 (paper 5.1)
        elif group.quantize_bits is not None:
            out_bits = group.quantize_bits
        else:
            # a GEMM writes raw int32; a pure epilogue passes its input on
            out_bits = 32 if is_gemm else act_bits
        plans.append(
            GroupPlan(
                name=group.name or "epilogue",
                out_bits=out_bits,
                is_gemm=is_gemm,
                out_elements=_elements(out_shape),
            )
        )
        act_bits = out_bits
    return DataflowPlan(groups=plans)
