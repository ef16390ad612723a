"""APNN-TC reproduction: arbitrary-precision NNs on simulated Ampere Tensor Cores.

Subpackages
-----------
``repro.core``
    Bit-level emulation algebra (paper section 3): decomposition, Boolean
    matmul templates, operator selection, quantizers.
``repro.tensorcore``
    Functional simulator of the Ampere Tensor-Core binary primitive
    (bmma 8x8x128 XOR/AND) with execution counters.
``repro.kernels``
    AP-Layer design (paper section 4): APMM, APConv, tiling, autotuner,
    im2col lowering, input-aware padding, fused epilogues.
``repro.baselines``
    Modeled cost of the CUTLASS/cuBLAS kernels the paper compares against.
``repro.perf``
    Analytical latency model (roofline + occupancy + launch overhead) with
    one fitted calibration over the RTX 3090 and A100 device specs.
``repro.nn``
    APNN framework (paper section 5): modules, models (AlexNet, VGG-Variant,
    ResNet-18), kernel-fusion pass, minimal-traffic dataflow, engine.
``repro.train``
    QEM quantization-aware training on a synthetic dataset (Table 1
    substitute).
``repro.serve``
    Async batched inference serving: plan cache, cost-model-driven
    dynamic batching, multi-backend worker pool, serving metrics.
``repro.experiments``
    Harness regenerating every table and figure of the paper's evaluation.
"""

from . import core

__version__ = "1.0.0"

__all__ = ["core", "__version__"]
