"""Wall-clock micro-benchmarks of the simulator's own building blocks.

These track the Python-level performance of the reproduction (the
vectorized bit kernels), independent of the modeled GPU latencies --
useful for keeping the simulator usable as problem sizes grow.
"""

import numpy as np
import pytest

from repro.core import PrecisionPair, apbit_matmul, bit_decompose, pack_bits
from repro.core.bitops import popcount_reduce
from repro.core.opselect import TCOp
from repro.kernels import apmm
from repro.tensorcore import bmma


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_pack_bits_1M(benchmark, rng):
    bits = rng.integers(0, 2, size=(128, 8192), dtype=np.uint8)
    words = benchmark(lambda: pack_bits(bits))
    assert words.shape == (128, 128)


def test_bit_decompose_8bit(benchmark, rng):
    x = rng.integers(0, 256, size=(512, 512))
    planes = benchmark(lambda: bit_decompose(x, 8))
    assert planes.shape == (8, 512, 512)


def test_popcount_reduce_1M_words(benchmark, rng):
    words = rng.integers(0, 2**63, size=(1024, 1024), dtype=np.uint64)
    out = benchmark(lambda: popcount_reduce(words, axis=-1))
    assert out.shape == (1024,)


def test_bmma_primitive(benchmark, rng):
    a = rng.integers(0, 2**63, size=(8, 2), dtype=np.uint64)
    b = rng.integers(0, 2**63, size=(8, 2), dtype=np.uint64)

    def run():
        c = np.zeros((8, 8), dtype=np.int32)
        return bmma(a, b, c, TCOp.XOR)

    out = benchmark(run)
    assert out.shape == (8, 8)


@pytest.mark.parametrize("pair_name", ["w1a1", "w1a2", "w2a8"])
def test_apbit_matmul_512(benchmark, rng, pair_name):
    pair = PrecisionPair.parse(pair_name)
    w = pair.weight.random_digits(rng, (512, 512))
    x = pair.activation.random_digits(rng, (64, 512))
    out = benchmark(
        lambda: apbit_matmul(w, x, pair.weight, pair.activation)
    )
    assert out.shape == (512, 64)


@pytest.mark.parametrize("strategy", ["packed", "integer", "bitserial"])
def test_apmm_strategies_wall_time(benchmark, rng, strategy):
    """Relative cost of the packed fast path vs the reference paths."""
    pair = PrecisionPair.parse("w1a2")
    w = pair.weight.random_digits(rng, (512, 512))
    x = pair.activation.random_digits(rng, (64, 512))
    res = benchmark(
        lambda: apmm(w, x, pair.weight, pair.activation, strategy=strategy)
    )
    assert res.output.shape == (512, 64)
