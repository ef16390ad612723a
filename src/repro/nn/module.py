"""Minimal inference-oriented module system for APNN models.

The APNN framework (paper section 5) needs just enough structure to
express AlexNet / VGG-Variant / ResNet-18: typed layers with float
parameters, shape propagation, and a composable container.  Training for
Table 1's accuracy study lives separately in :mod:`repro.train` (the
quantization-aware loop needs gradients, which inference modules do not).

Every module implements:

* ``forward(x)`` -- float reference semantics on NCHW arrays;
* ``output_shape(input_shape)`` -- static shape propagation, used by the
  engine to cost layers without running data through them (mandatory for
  224x224 ImageNet-sized latency estimates).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .layers import DrawPlan

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A named float tensor owned by a module.

    Either it holds its array from construction, or it is one recorded
    draw of a :class:`~repro.nn.layers.DrawPlan`, which fills every
    parameter it recorded on the first read of any one's :attr:`data`.
    :attr:`shape` and :attr:`size` answer from the recorded shape, so
    shape propagation, planning, pricing and serving never allocate a
    weight.
    """

    __slots__ = ("_data", "_shape", "_plan")

    def __init__(
        self,
        data: np.ndarray | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        plan: DrawPlan | None = None,
    ) -> None:
        self._data = data
        self._shape = tuple(shape if data is None else data.shape)
        self._plan = plan

    @property
    def data(self) -> np.ndarray:
        """The array, drawn with the rest of its plan on first read."""
        if self._data is None:
            self._plan.draw()
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return math.prod(self._shape)


class Module:
    """Base class: float forward + static shape propagation."""

    name: str = ""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """All parameters, depth first."""
        out = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                out.append(value)
            elif isinstance(value, Module):
                out.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        out.extend(item.parameters())
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class Sequential(Module):
    """Ordered container; the backbone shape of the paper's models."""

    def __init__(self, layers: list[Module], name: str = "") -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx):
        return self.layers[idx]
