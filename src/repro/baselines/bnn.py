"""TCBNN/BSTC-style binary-NN baseline kernels [Li et al. 2019/2020].

The paper's BNN baseline ("the state-of-the-art design from [25]") runs
1-bit weights x 1-bit activations with XOR+popc, but -- as section 4.1
observes -- existing binary kernels split layers into *small* matrix tiles
(e.g. 32x32) to raise thread-level parallelism and load tiles per-warp,
forgoing the batched double caching APNN-TC adds.  Figure 12's
APMM-w1a1 = 1.35x gain over binary cutlass and Table 2's BNN row both
measure the headroom that leaves.

We model exactly that: bipolar/bipolar (Case II) GEMM/conv with fixed
32x32 tiles, ``double_caching=False`` traffic, and the ``"bnn"``
efficiency family.
"""

from __future__ import annotations

import numpy as np

from ..core.emulate import apbit_matmul, reference_matmul
from ..core.types import Encoding, Precision
from ..kernels.layout import conv_weight_matrix, im2col
from ..kernels.padding import pad_digits, padding_correction, plan_padding
from ..kernels.tiling import TileConfig
from ..perf.cost import conv_cost, gemm_cost
from ..tensorcore.device import DeviceSpec, RTX3090
from .cutlass import BaselineResult

__all__ = ["BNN_TILE", "BIPOLAR1", "bnn_gemm", "bnn_conv"]

#: Small tiles of the prior binary kernels (paper section 4.1a).
BNN_TILE = TileConfig(32, 32)

#: The only precision binary NNs use: 1-bit bipolar.
BIPOLAR1 = Precision(1, Encoding.BIPOLAR)


def bnn_gemm(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    device: DeviceSpec = RTX3090,
    *,
    strategy: str = "integer",
) -> BaselineResult:
    """Binary GEMM ``decode(W) @ decode(X)^T`` with {-1,+1} operands."""
    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("bnn_gemm operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError("K mismatch in bnn_gemm")
    if strategy == "bitserial":
        out = apbit_matmul(w_digits, x_digits, BIPOLAR1, BIPOLAR1)
    elif strategy == "integer":
        out = reference_matmul(w_digits, x_digits, BIPOLAR1, BIPOLAR1)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    m, k = w_digits.shape
    n = x_digits.shape[0]
    cost = gemm_cost(
        m, n, k, 1, 1, BNN_TILE,
        double_caching=False,
        efficiency_key="bnn",
        name=f"bnn-gemm-{m}x{n}x{k}",
    )
    return BaselineResult(output=out, cost=cost)


def bnn_conv(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    device: DeviceSpec = RTX3090,
    *,
    stride: int = 1,
    padding: int = 0,
    strategy: str = "integer",
) -> BaselineResult:
    """Binary convolution with the paper's Case-II padding correction."""
    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 4 or x_digits.ndim != 4:
        raise ValueError("bnn_conv expects 4-D weights and features")
    cout, cin, kh, kw = w_digits.shape
    if kh != kw:
        raise ValueError("only square kernels supported")
    batch, _, h, w = x_digits.shape

    pplan = plan_padding(BIPOLAR1, BIPOLAR1)
    padded = pad_digits(x_digits, padding, pplan.pad_digit)
    cols = im2col(padded, kh, stride)
    w_flat = conv_weight_matrix(w_digits)
    if strategy == "bitserial":
        acc = apbit_matmul(w_flat, cols, BIPOLAR1, BIPOLAR1)
    elif strategy == "integer":
        acc = reference_matmul(w_flat, cols, BIPOLAR1, BIPOLAR1)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = acc.reshape(cout, batch, oh, ow).transpose(1, 0, 2, 3)
    if padding > 0:
        corr = padding_correction(
            BIPOLAR1.decode(w_digits), h, w, padding, stride, pplan.pad_value
        )
        out = out - corr[None]

    cost = conv_cost(
        batch, cin, cout, h, w, kh, 1, 1, BNN_TILE,
        stride=stride,
        padding=padding,
        padding_correction=padding > 0,
        double_caching=False,
        efficiency_key="bnn",
        name=f"bnn-conv-c{cin}x{cout}",
    )
    return BaselineResult(output=out, cost=cost)
