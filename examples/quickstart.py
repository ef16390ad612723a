"""Quickstart: arbitrary-precision GEMM on the simulated Tensor Core.

Runs one APMM at w1a2 (1-bit bipolar weights x 2-bit unsigned
activations), verifies the bit-serial emulation against the exact integer
product, and prints the modeled RTX 3090 latency next to the CUTLASS
int4 baseline -- the paper's core comparison, in ~40 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.baselines import cutlass_gemm_cost
from repro.core import PrecisionPair, reference_matmul
from repro.kernels import apmm
from repro.perf import LatencyModel
from repro.tensorcore import RTX3090


def main() -> None:
    pair = PrecisionPair.parse("w1a2")
    rng = np.random.default_rng(0)

    # weights: 1024 output neurons, K=1024; activations: batch of 64
    weights = pair.weight.random_digits(rng, (1024, 1024))
    activations = pair.activation.random_digits(rng, (64, 1024))

    result = apmm(weights, activations, pair.weight, pair.activation,
                  strategy="bitserial")
    exact = reference_matmul(weights, activations, pair.weight, pair.activation)
    assert np.array_equal(result.output, exact), "emulation must be exact"
    print(f"APMM-{pair} output {result.output.shape}, bit-exact: OK")
    print(f"autotuned tile: {result.config} "
          f"(TLP={result.tune.tlp:.0f}, CI={result.tune.ci:.1f})")

    model = LatencyModel(RTX3090)
    ap_us = model.latency_us(result.cost)

    # the same GEMM shape through the int4 library baseline
    int4_us = model.latency_us(cutlass_gemm_cost(64, 1024, 1024, "int4"))

    print(f"\nmodeled RTX 3090 latency:")
    print(f"  APMM-w1a2          {ap_us:7.2f} us   (paper Table 4:  6.67 us)")
    print(f"  cutlass-gemm-int4  {int4_us:7.2f} us   (paper Table 4: 15.61 us)")
    print(f"  speedup            {int4_us / ap_us:7.2f} x")


if __name__ == "__main__":
    main()
