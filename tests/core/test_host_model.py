"""The host cost model that routes every packed product.

:class:`repro.core.packed.HostProduct` prices the fold, the popcount
GEMM and the conv gather from counted work and the committed
:data:`~repro.core.packed.HOST_RATES`; ``apmm``, ``apconv`` and
``packed_matmul`` run the cheapest.  The branch is passed in
explicitly, so both compiled branches' routes are checked on any host.
"""

import pytest

from repro.bench.hostfit import ALEXNET, RESNET18, ConvShape
from repro.core.packed import HOST_RATES, PATH_KERNELS, HostProduct

MICRO_KERNEL, LOOP_NEST = 1, 0

#: Every benchmark layer's route: (micro-kernel, loop nest).  On the
#: micro-kernel, ResNet-18's 3x3 convs take the gather at both strides
#: and its 1x1 stride-2 convs the fold, whose 4x smaller windows the
#: gather would pack whole; AlexNet keeps conv1 on the fold, conv2-5 on
#: the gather and fc6-fc8 on the popcount GEMM.  The loop nest's
#: popcount GEMM is ~6x slower per word, so only the fully connected
#: layers leave the fold there.
ROUTES = {
    ("alexnet", "conv1"): ("fold", "fold"),
    ("alexnet", "conv2"): ("gather", "fold"),
    ("alexnet", "conv3"): ("gather", "fold"),
    ("alexnet", "conv4"): ("gather", "fold"),
    ("alexnet", "conv5"): ("gather", "fold"),
    ("alexnet", "fc6"): ("popcount", "popcount"),
    ("alexnet", "fc7"): ("popcount", "popcount"),
    ("alexnet", "fc8"): ("popcount", "popcount"),
    ("resnet18", "conv1"): ("fold", "fold"),
    ("resnet18", "conv64-64k3s1"): ("gather", "fold"),
    ("resnet18", "conv64-128k3s2"): ("gather", "fold"),
    ("resnet18", "conv64-128k1s2"): ("fold", "fold"),
    ("resnet18", "conv128-128k3s1"): ("gather", "fold"),
    ("resnet18", "conv128-256k3s2"): ("gather", "fold"),
    ("resnet18", "conv128-256k1s2"): ("fold", "fold"),
    ("resnet18", "conv256-256k3s1"): ("gather", "fold"),
    ("resnet18", "conv256-512k3s2"): ("gather", "fold"),
    ("resnet18", "conv256-512k1s2"): ("fold", "fold"),
    ("resnet18", "conv512-512k3s1"): ("gather", "fold"),
    ("resnet18", "fc"): ("popcount", "popcount"),
}

LAYERS = [("alexnet", s) for s in ALEXNET] + [("resnet18", s) for s in RESNET18]


def test_the_table_covers_every_benchmark_layer():
    assert sorted(ROUTES) == sorted((net, s.name) for net, s in LAYERS)


@pytest.mark.parametrize(
    "net,shape", LAYERS, ids=[f"{net}-{s.name}" for net, s in LAYERS]
)
def test_benchmark_layer_routes_on_both_branches(net, shape):
    micro, loop = ROUTES[net, shape.name]
    product = shape.product()
    assert product.cheapest(MICRO_KERNEL) == micro
    assert product.cheapest(LOOP_NEST) == loop
    assert product.cheapest(None) == "fold"


def test_resnet_strided_1x1_convs_never_take_the_gather():
    # they read one pixel in four of the map the gather packs whole
    for shape in RESNET18:
        if isinstance(shape, ConvShape) and shape.kernel == 1:
            product = shape.product()
            for branch in (MICRO_KERNEL, LOOP_NEST):
                assert product.host_us("gather", branch) > product.host_us(
                    "fold", branch)


class TestWideDigits:
    """Digits wider than 8 bits only fold: ``_pack_planes`` packs at most
    8 bits, so the popcount GEMM and the gather are never candidates."""

    WIDE = [(p, q) for p in (1, 2) for q in range(9, 17)]

    @pytest.mark.parametrize("p,q", WIDE, ids=[f"w{p}a{q}" for p, q in WIDE])
    @pytest.mark.parametrize("branch", [MICRO_KERNEL, LOOP_NEST])
    def test_large_products_fold(self, p, q, branch):
        gemms = [HostProduct(4096, 1 << 16, 1 << 14, p, q),
                 HostProduct(64, 1 << 20, 4096, p, q)]
        convs = [HostProduct.conv(64, 512, 512, 30, 30, 3, 1, p, q),
                 HostProduct.conv(256, 64, 64, 114, 114, 3, 1, p, q)]
        for product in gemms + convs:
            assert product.paths(branch) == ("fold",)
            assert product.cheapest(branch) == "fold"

    def test_at_eight_bits_the_compiled_paths_are_candidates(self):
        conv = HostProduct.conv(4, 64, 64, 30, 30, 3, 1, 8, 8)
        assert conv.paths(MICRO_KERNEL) == ("fold", "popcount", "gather")
        assert HostProduct(64, 64, 64, 8, 8).paths(LOOP_NEST) == (
            "fold", "popcount")

    @pytest.mark.parametrize("q", [9, 16])
    def test_entry_points_fold_wide_digits_on_cffi(self, q):
        import numpy as np

        from repro.core import Encoding, Precision, backends
        from repro.kernels.apconv import apconv
        from repro.kernels.apmm import apmm

        if not backends.get_backend().compiled:
            pytest.skip("cffi kernels do not load here")
        rng = np.random.default_rng(q)
        wp, xp = Precision(1, Encoding.BIPOLAR), Precision(q)
        w = wp.random_digits(rng, (128, 2048))
        x = xp.random_digits(rng, (256, 2048))
        got = apmm(w, x, wp, xp, backend="cffi")
        assert got.cost.counters.compiled_kernels == 0
        want = apmm(w, x, wp, xp, strategy="integer")
        assert np.array_equal(got.output, want.output)
        wc = wp.random_digits(rng, (64, 64, 3, 3))
        xc = xp.random_digits(rng, (2, 64, 16, 16))
        got = apconv(wc, xc, wp, xp, padding=1, backend="cffi")
        assert got.cost.counters.compiled_kernels == 0
        want = apconv(wc, xc, wp, xp, padding=1, strategy="integer")
        assert np.array_equal(got.output, want.output)


class TestPrices:
    def test_a_single_path_is_not_priced(self, monkeypatch):
        def unpriced(*args):
            raise AssertionError("priced a product with one path")

        monkeypatch.setattr(HostProduct, "host_us", unpriced)
        # numpy, and digits too wide to pack
        assert HostProduct(512, 512, 512, 1, 1).cheapest(None) == "fold"
        assert HostProduct(512, 512, 512, 1, 9).cheapest(MICRO_KERNEL) == "fold"

    def test_compiled_paths_need_a_branch(self):
        product = HostProduct.conv(1, 64, 64, 10, 10, 3, 1, 1, 2)
        assert product.host_us("fold", None) > 0
        for path in ("popcount", "gather"):
            with pytest.raises(ValueError, match="compiled branch"):
                product.host_us(path, None)

    def test_the_gather_needs_a_conv(self):
        with pytest.raises(ValueError, match="conv window"):
            HostProduct(64, 64, 576, 1, 2).host_us("gather", MICRO_KERNEL)

    def test_unknown_path(self):
        with pytest.raises(ValueError, match="unknown path"):
            HostProduct(8, 8, 64, 1, 1).host_us("bogus", MICRO_KERNEL)

    def test_prices_grow_with_the_work(self):
        small = HostProduct(256, 256, 2048, 2, 2)
        large = HostProduct(256, 1024, 2048, 2, 2)
        for path in ("fold", "popcount"):
            for branch in (MICRO_KERNEL, LOOP_NEST):
                assert 0 < small.host_us(path, branch) < large.host_us(
                    path, branch)

    def test_the_micro_kernel_is_priced_in_whole_tiles(self):
        # 4x16 output tiles: one column costs what sixteen do
        one = HostProduct(64, 1, 4096, 1, 2)
        sixteen = HostProduct(64, 16, 4096, 1, 2)
        assert one.popcount_pairs(MICRO_KERNEL) == sixteen.popcount_pairs(
            MICRO_KERNEL)
        assert one.popcount_pairs(LOOP_NEST) * 16 == sixteen.popcount_pairs(
            LOOP_NEST)

    def test_every_path_reports_its_compiled_kernels(self):
        assert dict(PATH_KERNELS) == {"fold": 0, "popcount": 1, "gather": 2}

    def test_rates_are_positive(self):
        assert all(v > 0 for v in HOST_RATES.fold_macs.values())
        assert set(HOST_RATES.fold_macs) == {"float32", "float64", "int64"}
        assert min(HOST_RATES.popcount_words) > 0


class TestFit:
    """The pieces of ``python -m repro.bench.hostfit`` that need no timing."""

    def test_nnls_recovers_the_costs_it_was_given(self):
        from repro.bench.hostfit import nnls_relative

        rows = [(w, r) for w in (1e3, 1e4, 1e5) for r in (10.0, 100.0, 1e3)]
        times = [2e-3 * w + 0.5 * r for w, r in rows]
        assert nnls_relative(rows, times) == pytest.approx([2e-3, 0.5])

    def test_nnls_keeps_every_cost_non_negative(self):
        from repro.bench.hostfit import nnls_relative

        # the second column would fit best with a negative cost
        rows = [(w, 1.0) for w in (1e3, 1e4, 1e5)]
        times = [2e-3 * w - 0.1 for w, _ in rows]
        coef = nnls_relative(rows, times)
        assert coef[1] == 0.0
        assert coef[0] > 0

    def test_the_printed_literal_is_the_committed_table(self):
        from repro.bench.hostfit import rates_literal
        from repro.core.packed import HostRates

        namespace = {"HostRates": HostRates}
        exec(rates_literal(HOST_RATES), namespace)
        assert namespace["HOST_RATES"] == HOST_RATES
