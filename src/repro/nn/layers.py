"""Layer types of the APNN framework (paper section 5).

Float reference semantics live here; the arbitrary-precision execution of
the same layers is the engine's job (it maps ``Conv2d``/``Linear`` onto
APConv/APMM kernel costs and folds the element-wise layers into fused
epilogues).  Weight layout is ``(C_out, C_in, KH, KW)`` / ``(out, in)``;
activations are NCHW.  ``Conv2d`` and ``Linear`` draw their Kaiming
weights from a caller's generator at construction, and otherwise defer
the draw to a :class:`DrawPlan` until the weight is first read.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core import cores
from ..kernels.layout import conv_output_shape, conv_weight_matrix, im2col
from .module import Module, Parameter

__all__ = [
    "DrawPlan",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Quantize",
    "Flatten",
]


def _kaiming(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int):
    # float32 halves a drawn model (AlexNet-224's 61M weights, 244 MB);
    # a model that is only planned and priced draws none (DrawPlan)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


class DrawPlan:
    """One seeded generator's weight draws, deferred to the first read.

    A model builder hands every layer it constructs one plan.  Each layer
    records its weight's shape and fan-in in construction order, and the
    first read of any recorded :attr:`Parameter.data` replays every
    recorded :func:`_kaiming` draw from ``default_rng(seed)``, under a
    lock, so each weight's bytes equal an eager build from that
    generator while a model that is only planned, priced and served
    never allocates one.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._pending: list[tuple[Parameter, int]] = []
        self._lock = threading.Lock()

    def record(self, shape: tuple[int, ...], fan_in: int) -> Parameter:
        param = Parameter(shape=shape, plan=self)
        with self._lock:
            self._pending.append((param, fan_in))
        return param

    def draw(self) -> None:
        """Fill every recorded parameter not drawn yet, in record order."""
        with self._lock:
            for param, fan_in in self._pending:
                param._data = _kaiming(self._rng, param.shape, fan_in)
            self._pending.clear()


def _weight(
    rng: np.random.Generator | DrawPlan | None,
    shape: tuple[int, ...],
    fan_in: int,
) -> Parameter:
    """A Kaiming weight.  A caller's generator draws it now, because the
    caller goes on using that stream; otherwise it is recorded in the
    given plan, or in a plan of its own seeded 0."""
    if isinstance(rng, np.random.Generator):
        return Parameter(_kaiming(rng, shape, fan_in))
    return (DrawPlan(0) if rng is None else rng).record(shape, fan_in)


class Conv2d(Module):
    """2-D convolution (cross-correlation), square kernel, zero padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        rng: np.random.Generator | DrawPlan | None = None,
        name: str = "",
    ) -> None:
        if min(in_channels, out_channels, kernel, stride) < 1 or padding < 0:
            raise ValueError("invalid Conv2d geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.weight = _weight(
            rng, (out_channels, in_channels, kernel, kernel),
            in_channels * kernel * kernel,
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.name = name or f"conv{in_channels}-{out_channels}k{kernel}s{stride}"

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        xpad = np.pad(
            x,
            ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2),
        )
        cols = im2col(xpad, self.kernel, self.stride)
        out = cols @ conv_weight_matrix(self.weight.data).T
        oh, ow = conv_output_shape(h, w, self.kernel, self.stride, self.padding)
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None, None]
        return out

    def output_shape(self, input_shape):
        n, c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        oh, ow = conv_output_shape(h, w, self.kernel, self.stride, self.padding)
        return (n, self.out_channels, oh, ow)

    @property
    def macs_per_output(self) -> int:
        return self.in_channels * self.kernel * self.kernel


class Linear(Module):
    """Fully connected layer on (N, features) inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | DrawPlan | None = None,
        name: str = "",
    ) -> None:
        if min(in_features, out_features) < 1:
            raise ValueError("invalid Linear geometry")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _weight(rng, (out_features, in_features), in_features)
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.name = name or f"fc{in_features}-{out_features}"

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_features}), got {x.shape}"
            )
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data[None, :]
        return out

    def output_shape(self, input_shape):
        n, f = input_shape
        if f != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} features, got {f}"
            )
        return (n, self.out_features)


class BatchNorm2d(Module):
    """Inference batch norm with running statistics (paper eq. 5)."""

    def __init__(self, channels: int, eps: float = 1e-5, name: str = "") -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = channels
        self.eps = eps
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.name = name or f"bn{channels}"

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(f"{self.name}: bad input shape {x.shape}")
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        shift = self.beta.data - self.running_mean * scale
        return x * scale[None, :, None, None] + shift[None, :, None, None]

    def output_shape(self, input_shape):
        return input_shape

    def folded_scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift) for epilogue fusion."""
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        return scale, self.beta.data - self.running_mean * scale


class ReLU(Module):
    """Elementwise max(x, 0)."""

    def __init__(self, name: str = "relu") -> None:
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0)

    def output_shape(self, input_shape):
        return input_shape


class _Pool2d(Module):
    def __init__(self, kernel: int, stride: int | None = None, name: str = "") -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.name = name or f"{type(self).__name__.lower()}{kernel}s{self.stride}"

    def _check_nchw(self, x: np.ndarray) -> None:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: pooling expects NCHW, got {x.shape}")

    def _windows(self, x: np.ndarray) -> np.ndarray:
        self._check_nchw(x)
        win = np.lib.stride_tricks.sliding_window_view(
            x, (self.kernel, self.kernel), axis=(2, 3)
        )
        return win[:, :, :: self.stride, :: self.stride]

    def output_shape(self, input_shape):
        n, c, h, w = input_shape
        oh = (h - self.kernel) // self.stride + 1
        ow = (w - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"{self.name}: window larger than input {h}x{w}")
        return (n, c, oh, ow)


class MaxPool2d(_Pool2d):
    """Max pooling with independent kernel/stride (AlexNet uses k3 s2).

    The output is the elementwise maximum of the ``k*k`` strided slices
    ``x[..., i::s, j::s]`` (one per window offset): a selection, so exact
    and dtype-preserving for floats and narrow digits alike, and far
    cheaper than reducing a ``sliding_window_view``.  Images are split
    across the usable CPUs (:func:`repro.core.cores.split`).
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_nchw(x)
        shape = self.output_shape(x.shape)
        _, _, oh, ow = shape
        k, s = self.kernel, self.stride
        rows, cols = (oh - 1) * s + 1, (ow - 1) * s + 1
        out = np.empty(shape, dtype=x.dtype)

        def part(lo: int, hi: int) -> None:  # images lo .. hi-1
            view = out[lo:hi]
            view[...] = x[lo:hi, :, :rows:s, :cols:s]
            for i in range(k):
                for j in range(k):
                    if i or j:
                        np.maximum(view, x[lo:hi, :, i:i + rows:s, j:j + cols:s],
                                   out=view)

        cores.split(shape[0], part, k * k * out.size * cores.ELEMENT_US)
        return out


class AvgPool2d(_Pool2d):
    """Average pooling."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._windows(x).mean(axis=(-2, -1))


class AdaptiveAvgPool2d(Module):
    """Global average pooling to 1x1 (ResNet head)."""

    def __init__(self, name: str = "gap") -> None:
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3), keepdims=True)

    def output_shape(self, input_shape):
        n, c, _, _ = input_shape
        return (n, c, 1, 1)


class Quantize(Module):
    """Activation quantization marker (paper section 5.1).

    Functionally clamps to the quantization grid then de-quantizes (the
    straight-through inference view); in the APNN dataflow the engine
    fuses it into the producing kernel and keeps the packed digits.
    """

    def __init__(self, bits: int, name: str = "") -> None:
        if bits < 1 or bits > 8:
            raise ValueError(f"activation bits must be in [1, 8], got {bits}")
        self.bits = bits
        self.name = name or f"quant{bits}"

    def forward(self, x: np.ndarray) -> np.ndarray:
        levels = (1 << self.bits) - 1
        lo, hi = x.min(), x.max()
        if hi <= lo:
            return x
        scale = (hi - lo) / levels
        return np.round((x - lo) / scale) * scale + lo

    def output_shape(self, input_shape):
        return input_shape


class Flatten(Module):
    """NCHW -> (N, C*H*W)."""

    def __init__(self, name: str = "flatten") -> None:
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape):
        n = input_shape[0]
        size = 1
        for d in input_shape[1:]:
            size *= d
        return (n, size)
