"""The three evaluation networks (paper Table 1): AlexNet, VGG-Variant,
ResNet-18, all for 224x224x3 ImageNet-shaped inputs with 1000 classes.

* **AlexNet** follows Krizhevsky et al. [20] in its torchvision form.
* **VGG-Variant** follows Cai et al. [2] (the HWGQ variant the paper
  cites): a 7x7 stride-2 stem, two 3-conv stages at 256/512 channels, and
  a VGG-style classifier -- substantially heavier than AlexNet, lighter
  than VGG-16.
* **ResNet-18** follows He et al. [12] with standard BasicBlocks.

Each builder inserts the quantization markers of the APNN dataflow
(section 5.1): activations are re-quantized after every ReLU so the next
layer consumes ``q``-bit inputs; the marker layers are what the engine
fuses into producing kernels.  ``num_classes`` and input resolution are
configurable so the unit tests and the synthetic-accuracy study can run
scaled-down instances.  :func:`micro_cnn` is no paper network: it is the
cheap model population of the serving placement and cluster studies.

A builder draws no weight.  It hands its layers one
:class:`~repro.nn.layers.DrawPlan` seeded ``seed``, and the first read
of any weight draws them all, in construction order, byte-identical to
drawing them eagerly from ``default_rng(seed)``.  Planning, pricing and
serving read layer shapes only, so a model that is never executed never
allocates its weights (AlexNet-224's 61.1M parameters are 244 MB).
"""

from __future__ import annotations

import numpy as np

from .layers import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    DrawPlan,
    Flatten,
    Linear,
    MaxPool2d,
    Quantize,
    ReLU,
)
from .module import Module, Sequential

__all__ = [
    "BasicBlock", "alexnet", "vgg_variant", "resnet18", "micro_cnn",
    "MODEL_BUILDERS",
]


class BasicBlock(Module):
    """ResNet-18/34 residual block: two 3x3 convs plus identity/projection."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | DrawPlan | None = None,
        name: str = "",
    ) -> None:
        rng = DrawPlan(0) if rng is None else rng
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride, 1, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, 1, 1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.downsample: Sequential | None = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = Sequential(
                [
                    Conv2d(in_channels, out_channels, 1, stride, 0, rng=rng),
                    BatchNorm2d(out_channels),
                ],
                name=f"{name}-down",
            )
        self.name = name or f"block{in_channels}-{out_channels}s{stride}"

    def forward(self, x: np.ndarray) -> np.ndarray:
        identity = x if self.downsample is None else self.downsample.forward(x)
        out = self.relu.forward(self.bn1.forward(self.conv1.forward(x)))
        out = self.bn2.forward(self.conv2.forward(out))
        return np.maximum(out + identity, 0)

    def output_shape(self, input_shape):
        return self.bn2.output_shape(
            self.conv2.output_shape(
                self.conv1.output_shape(input_shape)
            )
        )


def alexnet(
    num_classes: int = 1000,
    activation_bits: int = 2,
    input_size: int = 224,
    seed: int = 0,
) -> Sequential:
    """AlexNet [20] with APNN quantization markers."""
    r = DrawPlan(seed)
    if input_size < 63:
        raise ValueError("AlexNet needs input_size >= 63")
    fc_spatial = ((((input_size + 2 * 2 - 11) // 4 + 1) - 3) // 2 + 1)
    fc_spatial = ((fc_spatial - 5 + 4) // 1 + 1 - 3) // 2 + 1
    fc_spatial = (fc_spatial - 3) // 2 + 1  # after conv5 + pool
    q = activation_bits
    return Sequential(
        [
            Conv2d(3, 64, 11, 4, 2, rng=r, name="conv1"),
            ReLU(),
            MaxPool2d(3, 2, name="pool1"),
            Quantize(q),
            Conv2d(64, 192, 5, 1, 2, rng=r, name="conv2"),
            ReLU(),
            MaxPool2d(3, 2, name="pool2"),
            Quantize(q),
            Conv2d(192, 384, 3, 1, 1, rng=r, name="conv3"),
            ReLU(),
            Quantize(q),
            Conv2d(384, 256, 3, 1, 1, rng=r, name="conv4"),
            ReLU(),
            Quantize(q),
            Conv2d(256, 256, 3, 1, 1, rng=r, name="conv5"),
            ReLU(),
            MaxPool2d(3, 2, name="pool5"),
            Quantize(q),
            Flatten(),
            Linear(256 * fc_spatial * fc_spatial, 4096, rng=r, name="fc6"),
            ReLU(),
            Quantize(q),
            Linear(4096, 4096, rng=r, name="fc7"),
            ReLU(),
            Quantize(q),
            Linear(4096, num_classes, rng=r, name="fc8"),
        ],
        name="alexnet",
    )


def vgg_variant(
    num_classes: int = 1000,
    activation_bits: int = 2,
    input_size: int = 224,
    seed: int = 1,
) -> Sequential:
    """VGG-Variant of Cai et al. [2]: 7x7 stem + 256/512 3-conv stages."""
    r = DrawPlan(seed)
    if input_size % 32 != 0:
        raise ValueError("vgg_variant needs input_size divisible by 32")
    q = activation_bits
    final = input_size // 32
    layers: list[Module] = [
        Conv2d(3, 96, 7, 2, 3, rng=r, name="conv1"),
        BatchNorm2d(96),
        ReLU(),
        MaxPool2d(2, 2, name="pool1"),
        Quantize(q),
    ]
    in_ch = 96
    for stage, ch in enumerate((256, 512), start=2):
        for i in range(3):
            layers += [
                Conv2d(in_ch, ch, 3, 1, 1, rng=r, name=f"conv{stage}_{i + 1}"),
                BatchNorm2d(ch),
                ReLU(),
                Quantize(q),
            ]
            in_ch = ch
        layers.append(MaxPool2d(2, 2, name=f"pool{stage}"))
    # final 2x2 pool keeps the classifier VGG-sized (512*7*7 at 224 input)
    layers.append(MaxPool2d(2, 2, name="pool4"))
    layers += [
        Flatten(),
        Linear(512 * final * final, 4096, rng=r, name="fc1"),
        ReLU(),
        Quantize(q),
        Linear(4096, 4096, rng=r, name="fc2"),
        ReLU(),
        Quantize(q),
        Linear(4096, num_classes, rng=r, name="fc3"),
    ]
    return Sequential(layers, name="vgg_variant")


def resnet18(
    num_classes: int = 1000,
    activation_bits: int = 2,
    input_size: int = 224,
    seed: int = 2,
) -> Sequential:
    """ResNet-18 [12] with APNN quantization markers between stages."""
    r = DrawPlan(seed)
    if input_size % 32 != 0:
        raise ValueError("resnet18 needs input_size divisible by 32")
    q = activation_bits
    layers: list[Module] = [
        Conv2d(3, 64, 7, 2, 3, rng=r, name="conv1"),
        BatchNorm2d(64),
        ReLU(),
        MaxPool2d(3, 2, name="pool1"),
        Quantize(q),
    ]
    channels = (64, 128, 256, 512)
    in_ch = 64
    for stage, ch in enumerate(channels, start=1):
        stride = 1 if stage == 1 else 2
        layers.append(BasicBlock(in_ch, ch, stride, rng=r, name=f"layer{stage}.0"))
        layers.append(Quantize(q))
        layers.append(BasicBlock(ch, ch, 1, rng=r, name=f"layer{stage}.1"))
        layers.append(Quantize(q))
        in_ch = ch
    layers += [
        AdaptiveAvgPool2d(),
        Flatten(),
        Linear(512, num_classes, rng=r, name="fc"),
    ]
    return Sequential(layers, name="resnet18")


_micro_cache: dict[tuple, Sequential] = {}


def micro_cnn(
    name: str,
    seed: int,
    input_shape: tuple[int, int, int],
    num_classes: int = 10,
) -> Sequential:
    """A distinctly named micro-CNN (conv-conv-pool-fc) for serving studies.

    Small enough that a ten-model cluster plans in milliseconds, real
    enough that the cost model yields a meaningful latency ladder.  Not
    a paper network, so it stays out of :data:`MODEL_BUILDERS`.
    Memoized per (name, seed, input shape, class count): model objects
    are read-only planning inputs, so every caller can share them.
    """
    key = (name, seed, tuple(input_shape), num_classes)
    if key not in _micro_cache:
        r = DrawPlan(seed)
        c, h = 16, input_shape[1]
        _micro_cache[key] = Sequential(
            [
                Conv2d(input_shape[0], c, 3, 1, 1, rng=r, name="c1"),
                ReLU(),
                Quantize(2),
                Conv2d(c, c, 3, 1, 1, rng=r, name="c2"),
                ReLU(),
                MaxPool2d(2, 2, name="p1"),
                Quantize(2),
                Flatten(),
                Linear(c * (h // 2) * (h // 2), num_classes,
                       rng=r, name="fc"),
            ],
            name=name,
        )
    return _micro_cache[key]


#: Registry used by the experiment harness (Table 2 iterates these).
MODEL_BUILDERS = {
    "AlexNet": alexnet,
    "VGG-Variant": vgg_variant,
    "ResNet-18": resnet18,
}
