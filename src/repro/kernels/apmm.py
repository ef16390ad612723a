"""APMM: Arbitrary-Precision Matrix Multiplication (paper section 4.1).

The layer-level GEMM kernel.  Given a ``p``-bit weight matrix ``W`` of
shape ``(M, K)`` and a ``q``-bit feature matrix ``X`` of shape ``(N, K)``
(both K-major, matching the Tensor-Core fragment layout), APMM produces
``Y = decode(W) @ decode(X)^T`` as an ``(M, N)`` int64 array on every
strategy and path.  The Tensor Core's 32-bit accumulator is modeled by a
check, not a dtype: the packed strategy scans its output for int32
overflow only where :func:`~repro.core.packed.fold_exactness_bound`
exceeds ``2**31 - 1``.  The next layer's quantizer is an epilogue op
(:mod:`repro.kernels.fusion`), not part of the kernel call.

Three execution strategies produce bit-identical results:

* ``"packed"`` (default) -- the fast path every caller takes
  automatically: one GEMM on the digit matrices in place of the ``p*q``
  plane-pair products (the fold), its accumulator chosen from the shape
  and precisions so it stays exact, or, on the compiled tier where the
  host cost model (:class:`~repro.core.packed.HostProduct`) prices it
  lower, the ``p*q`` popcount products themselves on ``np.packbits``
  words (:func:`~repro.core.packed.matmul_path`);
* ``"bitserial"`` -- the plane-wise reference: decompose -> per-plane-pair
  packed-word Boolean GEMM -> shifted-add combination;
* ``"integer"`` -- reference integer GEMM on the decoded operands.

Tests assert three-way equivalence on random problems, and the packed
path is additionally held byte-identical to the tile-level oracle
:func:`~repro.kernels.apmm_sim.apmm_tile_simulate`.

Regardless of strategy, the returned :class:`APMMResult` carries the
kernel cost assembled from the *batched double caching* design: the
``p*q`` bit-plane products are issued as one virtual large BMMA whose grid
covers ``ceil(pM/bm) x ceil(qN/bn)`` blocks, tiles staged in shared
memory, accumulators pinned in fragments.  The naive designs the paper
compares against are priced by :func:`~repro.perf.cost.gemm_cost`'s
``batch_planes`` and ``double_caching`` flags, not by this entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import backends
from ..core.emulate import apbit_matmul, reference_matmul
from ..core.packed import PATH_KERNELS, HostProduct, compiled_branch, matmul_path
from ..core.types import Precision
from ..obs import kernel_tracer
from ..perf.cost import KernelCost, gemm_cost
from ..tensorcore.device import DeviceSpec, RTX3090
from .autotune import TuneResult, autotune
from .tiling import TileConfig

__all__ = ["APMMResult", "apmm", "STRATEGIES"]

#: Re-exported from :mod:`repro.core.backends`, which validates
#: strategies for both ``apmm`` and ``apconv``.
STRATEGIES = backends.STRATEGIES


@dataclass
class APMMResult:
    """Accumulators plus the costed execution facts.

    ``output`` is ``(M, N)`` int64; it was checked against the int32
    accumulator only where the shape's exactness bound exceeds it.
    """

    output: np.ndarray
    cost: KernelCost
    config: TileConfig
    tune: TuneResult | None


def apmm(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    device: DeviceSpec = RTX3090,
    config: TileConfig | None = None,
    strategy: str = "packed",
    backend: "backends.Backend | str | None" = None,
) -> APMMResult:
    """Run (and cost) one arbitrary-precision GEMM.

    Parameters
    ----------
    w_digits, x_digits:
        ``(M, K)`` and ``(N, K)`` raw digit matrices.
    weight, feature:
        Operand precisions (bits + encoding); they drive operator
        selection, tiling TLP and the cost model.
    device:
        Simulated GPU (tile legality + autotuning target).
    config:
        Explicit tiling; autotuned per the paper's heuristic when omitted.
    strategy:
        ``"packed"`` (vectorized packed-word fast path, default),
        ``"integer"`` (decoded-integer reference) or ``"bitserial"``
        (plane-wise Tensor-Core reference); identical outputs.
    backend:
        Kernel backend (:mod:`repro.core.backends`): ``None``,
        ``"numpy"`` or ``"cffi"``.  On ``cffi`` the packed strategy runs
        the compiled popcount GEMM where the host cost model
        (:meth:`~repro.core.packed.HostProduct.cheapest`, decided once
        from ``M``, ``N``, ``K`` and the precisions) prices it below the
        BLAS fold (then ``cost.counters.compiled_kernels`` is 1); numpy
        always folds.  The reference strategies only combine with
        ``"numpy"``.  A traced call's span also carries ``path``
        (``fold`` or ``popcount``) and ``host_us``, the model's price
        of that path; untraced calls price nothing beyond the decision.
    """
    # Kernel-boundary tracing (wall clock: this really executes).  The
    # default tracer is the shared no-op, so untraced callers pay one
    # attribute load.
    tracer = kernel_tracer()
    t0_us = time.perf_counter() * 1e6 if tracer.enabled else 0.0

    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("APMM operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError(
            f"K mismatch: W has K={w_digits.shape[1]}, X has K={x_digits.shape[1]}"
        )
    strategy, run_backend = backends.resolve_dispatch(
        strategy, backend, kernel_name="apmm"
    )

    m, k = w_digits.shape
    n = x_digits.shape[0]

    tune = None
    if config is None:
        tune = autotune(m, n, weight.bits, feature.bits, device)
        config = tune.config
    config.validate_for_device(device)

    path = strategy
    if strategy == "packed":
        # one decision per call, from the full shape
        product = HostProduct(m, n, k, weight.bits, feature.bits)
        branch = compiled_branch(run_backend)
        path = product.cheapest(branch)
        acc = matmul_path(path, w_digits, x_digits, weight, feature,
                          backend=run_backend)
    elif strategy == "bitserial":
        acc = apbit_matmul(w_digits, x_digits, weight, feature)
    else:
        acc = reference_matmul(w_digits, x_digits, weight, feature)

    cost = gemm_cost(
        m, n, k, weight.bits, feature.bits, config,
        name=f"apmm-w{weight.bits}a{feature.bits}-{m}x{n}x{k}",
    )
    # Observed execution fact on top of the analytic charge.
    cost.counters.compiled_kernels = PATH_KERNELS.get(path, 0)
    if tracer.enabled:
        host = {}
        if strategy == "packed":
            host = {"path": path, "host_us": product.host_us(path, branch)}
        tracer.span(
            cost.name, "kernel", t0_us, time.perf_counter() * 1e6,
            track="wall", lane="apmm",
            strategy=strategy, backend=run_backend.name, m=m, n=n, k=k,
            weight_bits=weight.bits, feature_bits=feature.bits,
            **host, **cost.counters.as_dict(),
        )
    return APMMResult(output=acc, cost=cost, config=config, tune=tune)
