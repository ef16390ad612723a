"""Semantic-aware kernel fusion as a graph pass (paper section 5.2).

Walks a model and groups every GEMM-bearing layer (``Conv2d``/``Linear``)
with the element-wise and pooling layers that follow it -- batch norm,
ReLU, quantization, pooling -- into :class:`FusedGroup` units.  One group
= one kernel launch in the fused execution; without fusion each member
becomes its own launch with a DRAM round trip (the engine prices both).

ResNet's :class:`~repro.nn.models.BasicBlock` is flattened into its
constituent convolutions; the residual add (+ReLU) is attached to the
second convolution's epilogue, which is how fused implementations
schedule it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Quantize,
    ReLU,
)
from .models import BasicBlock
from .module import Module, Sequential

__all__ = ["FusedGroup", "fuse_graph", "EPILOGUE_TYPES"]

#: Layer types that can ride along in a producing kernel's epilogue.
EPILOGUE_TYPES = (
    BatchNorm2d,
    ReLU,
    Quantize,
    MaxPool2d,
    AvgPool2d,
    AdaptiveAvgPool2d,
    Flatten,
)


@dataclass
class FusedGroup:
    """One launch unit: a main GEMM layer plus its fused epilogue."""

    main: Module | None
    epilogue: list[Module] = field(default_factory=list)
    #: extra element-wise work fused into this group's epilogue that has no
    #: layer object (the residual add of a BasicBlock)
    residual_add: bool = False
    #: this group's input is a residual-block entry point (saved for the
    #: downsample branch)
    block_entry: bool = False
    #: this group consumes the saved block input (downsample branch); it
    #: does not advance the main chain
    side_branch: bool = False
    name: str = ""

    @property
    def is_gemm(self) -> bool:
        return isinstance(self.main, (Conv2d, Linear))

    @property
    def quantize_bits(self) -> int | None:
        """Output bits if the epilogue re-quantizes, else None."""
        for layer in self.epilogue:
            if isinstance(layer, Quantize):
                return layer.bits
        return None


def fuse_graph(model: Sequential) -> list[FusedGroup]:
    """Group a model's layers into fused launch units."""
    groups: list[FusedGroup] = []
    current: FusedGroup | None = None

    def flush() -> None:
        nonlocal current
        if current is not None:
            groups.append(current)
            current = None

    def open_group(main: Module) -> None:
        nonlocal current
        flush()
        current = FusedGroup(main=main, name=main.name)

    def attach(layer: Module) -> None:
        nonlocal current
        if current is None:
            current = FusedGroup(main=None, name=layer.name)
        current.epilogue.append(layer)

    def visit(layer: Module) -> None:
        nonlocal current
        if isinstance(layer, Sequential):
            for sub in layer:
                visit(sub)
        elif isinstance(layer, BasicBlock):
            # conv1 + bn1 + relu | (downsample) | conv2 + bn2 + add + relu
            open_group(layer.conv1)
            current.block_entry = True
            attach(layer.bn1)
            attach(ReLU(name=f"{layer.name}.relu1"))
            if layer.downsample is not None:
                ds_conv, ds_bn = layer.downsample[0], layer.downsample[1]
                open_group(ds_conv)
                current.side_branch = True
                attach(ds_bn)
            open_group(layer.conv2)
            attach(layer.bn2)
            current.residual_add = True
        elif isinstance(layer, (Conv2d, Linear)):
            open_group(layer)
        elif isinstance(layer, EPILOGUE_TYPES):
            attach(layer)
        else:
            raise TypeError(
                f"fuse_graph cannot place layer {layer!r} of type "
                f"{type(layer).__name__}"
            )

    visit(model)
    flush()
    return groups
