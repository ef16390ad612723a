"""APConv: Arbitrary-Precision Convolution (paper section 4.2).

Convolution of a ``p``-bit weight tensor ``(C_out, C_in, KH, KW)`` with a
``q``-bit feature tensor ``(N, C_in, H, W)``, lowered onto APMM through
implicit GEMM: ``M = C_out``, ``N_gemm = N * OH * OW``,
``K = C_in * KH * KW``.  The three design elements the paper adds on top
of the GEMM machinery:

* **channel-major data organization** (section 4.2a) -- every path
  reads one padded channel-last map
  (:func:`~repro.kernels.layout.pad_channel_last`, written once per
  call) and orders ``K`` channel-innermost, so the ``K``-contiguous
  window reads are aligned and coalesced;
  :func:`~repro.perf.cost.conv_cost` charges the naive NCHW layout a 4x
  read amplification when its ``channel_major`` flag is off (its
  ``double_caching`` flag prices the uncached design);
* **input-aware padding** (section 4.2b) -- the padding digit and the
  counter correction come from :mod:`repro.kernels.padding`, keyed by the
  operand encodings;
* the same **batch-based double caching** and autotuned tiling as APMM
  (the workload is ``p*q`` binary convolutions batched into one kernel).

All three execution strategies (``"packed"`` fast path -- the default:
whichever of the compiled window gather and the native int8 conv of
:mod:`repro.kernels.packed_conv` and the im2col'd fold the host cost
model (:class:`~repro.core.packed.HostProduct`) prices lowest, instead
of the per-plane broadcast -- / ``"integer"`` reference /
``"bitserial"`` plane-wise Tensor-Core emulation) return identical
outputs.  The int8 conv is the paper's native baseline (its Figs. 5-8
set APConv against CUTLASS int4/int8 on the same GPU): where the host
has AVX-512 VNNI it is priced beside the popcount emulation, layer by
layer, and runs wherever it is cheaper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import backends, prepared
from ..core.emulate import apbit_matmul, reference_matmul
from ..core.packed import (
    PATH_KERNELS,
    HostProduct,
    compiled_branch,
    compiled_vnni,
    matmul_path,
)
from ..core.types import Precision
from ..obs import kernel_tracer
from ..perf.cost import KernelCost, conv_cost
from ..tensorcore.device import DeviceSpec, RTX3090
from .autotune import TuneResult, autotune
from .layout import conv_output_shape, conv_weight_matrix, im2col, pad_channel_last
from .packed_conv import packed_conv_matmul, vnni_conv_matmul
from .padding import PaddingPlan, padding_correction, plan_padding
from .tiling import TileConfig

__all__ = ["APConvResult", "apconv"]


def _weight_matrix(w_digits: np.ndarray) -> np.ndarray:
    """:func:`~repro.kernels.layout.conv_weight_matrix` of ``w_digits``,
    kept for a prepared weight and prepared itself, so the matmul's
    forms of the matrix are kept too."""
    return prepared.form(
        w_digits, "conv_weight_matrix", lambda: conv_weight_matrix(w_digits)
    )


@dataclass
class APConvResult:
    """Conv output plus execution facts."""

    output: np.ndarray
    cost: KernelCost
    config: TileConfig
    tune: TuneResult | None
    padding_plan: PaddingPlan


def apconv(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    stride: int = 1,
    padding: int = 0,
    device: DeviceSpec = RTX3090,
    config: TileConfig | None = None,
    strategy: str = "packed",
    backend: "backends.Backend | str | None" = None,
) -> APConvResult:
    """Run (and cost) one arbitrary-precision convolution.

    Parameters mirror :func:`repro.kernels.apmm.apmm` (including the
    ``backend`` kernel-backend selector); geometry is NCHW digits in, in
    any unsigned dtype (the quantizers' narrow
    :func:`~repro.core.types.digit_dtype`) or int64, and
    ``(N, C_out, OH, OW)`` int64 accumulators out.  Every strategy and
    route reads the one padded channel-last map
    :func:`~repro.kernels.layout.pad_channel_last` writes per call, and
    lowers K in the channel-major ``(KH, KW, C_in)`` order: features
    through :func:`~repro.kernels.layout.im2col` or a compiled window
    copy, weights through
    :func:`~repro.kernels.layout.conv_weight_matrix`.  The packed
    strategy decides its path once per call from the full shape -- the
    padded map, the kernel and the stride as well as ``M``, ``N`` and
    ``K`` -- with :meth:`~repro.core.packed.HostProduct.cheapest`: on
    the compiled ``cffi`` backend the gather (the popcount emulation)
    and, where the build has the AVX-512 VNNI kernels
    (:func:`~repro.core.packed.compiled_vnni`), the int8 conv skip the
    im2col digit matrix where the model prices them lowest, and the
    im2col'd fold runs otherwise; numpy always folds.  Outputs are
    byte-identical either way, and ``cost.counters.compiled_kernels``
    counts the compiled kernels that ran: 2 for the gather (window
    gather, popcount GEMM) and for the int8 conv (panel writer, VNNI
    GEMM), 0 for the fold.  A traced call's span also carries ``path``
    (``fold``, ``gather`` or ``vnni``) and ``host_us``, the model's
    price of that path.

    On the packed strategy a prepared weight (:mod:`repro.core.prepared`:
    a quantizer's digits) keeps its range, its packed planes or s8
    panels and, on the fold, its weight matrix from its first call; the
    reference strategies never read them.
    """
    # Kernel-boundary tracing (wall clock; same hook as apmm).
    tracer = kernel_tracer()
    t0_us = time.perf_counter() * 1e6 if tracer.enabled else 0.0

    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 4:
        raise ValueError(f"weights must be (C_out, C_in, KH, KW), got {w_digits.shape}")
    if x_digits.ndim != 4:
        raise ValueError(f"features must be (N, C_in, H, W), got {x_digits.shape}")
    cout, cin, kh, kw = w_digits.shape
    if kh != kw:
        raise ValueError(f"only square kernels supported, got {kh}x{kw}")
    batch, cin_x, h, w = x_digits.shape
    if cin != cin_x:
        raise ValueError(f"channel mismatch: weights C_in={cin}, features C_in={cin_x}")
    strategy, run_backend = backends.resolve_dispatch(
        strategy, backend, kernel_name="apconv"
    )

    oh, ow = conv_output_shape(h, w, kh, stride, padding)
    pplan = plan_padding(weight, feature)
    x_map = pad_channel_last(x_digits, padding, pplan.pad_digit)

    m, n_gemm = cout, batch * oh * ow
    tune = None
    if config is None:
        tune = autotune(m, n_gemm, weight.bits, feature.bits, device)
        config = tune.config
    config.validate_for_device(device)

    path = strategy
    if strategy == "packed":
        # one decision per call, from the full shape: the map, the
        # kernel and the stride as well as M, N and K
        product = HostProduct.conv(
            batch, cin, cout, x_map.shape[1], x_map.shape[2], kh, stride,
            weight.bits, feature.bits,
        )
        branch = compiled_branch(run_backend)
        path = product.cheapest(branch, compiled_vnni(run_backend))
    if path in ("gather", "vnni"):
        # compiled window copies: the im2col digit matrix never exists
        conv = packed_conv_matmul if path == "gather" else vnni_conv_matmul
        acc = conv(
            w_digits, x_map, weight, feature,
            stride=stride, backend=run_backend,
        )
    else:
        cols = im2col(x_map, kh, stride)  # (batch*OH*OW, kh*kw*C_in)
        # the references never read the prepared table
        matrix = _weight_matrix if strategy == "packed" else conv_weight_matrix
        w_flat = matrix(w_digits)
        if strategy == "packed":
            acc = matmul_path(path, w_flat, cols, weight, feature,
                              backend=run_backend)
        elif strategy == "bitserial":
            acc = apbit_matmul(w_flat, cols, weight, feature)
        else:
            acc = reference_matmul(w_flat, cols, weight, feature)
    # (C_out, batch*OH*OW) -> (batch, C_out, OH, OW)
    out = acc.reshape(cout, batch, oh, ow).transpose(1, 0, 2, 3)

    if pplan.needs_correction and padding > 0:
        corr = padding_correction(
            weight.decode(w_digits), h, w, padding, stride, pplan.pad_value
        )
        out = out - corr[None, :, :, :]

    cost = conv_cost(
        batch, cin, cout, h, w, kh, weight.bits, feature.bits, config,
        stride=stride,
        padding=padding,
        padding_correction=pplan.needs_correction and padding > 0,
        name=f"apconv-w{weight.bits}a{feature.bits}-{cin}->{cout}@{h}x{w}k{kh}s{stride}",
    )
    # Observed execution fact on top of the analytic charge.
    cost.counters.compiled_kernels = PATH_KERNELS.get(path, 0)
    if tracer.enabled:
        host = {}
        if strategy == "packed":
            host = {"path": path, "host_us": product.host_us(path, branch)}
        tracer.span(
            cost.name, "kernel", t0_us, time.perf_counter() * 1e6,
            track="wall", lane="apconv",
            strategy=strategy, backend=run_backend.name,
            batch=batch, cin=cin, cout=cout,
            kernel=kh, stride=stride, padding=padding,
            weight_bits=weight.bits, feature_bits=feature.bits,
            **host, **cost.counters.as_dict(),
        )
    return APConvResult(
        output=out,
        cost=cost,
        config=config,
        tune=tune,
        padding_plan=pplan,
    )
