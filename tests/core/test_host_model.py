"""The host cost model that routes every packed product.

:class:`repro.core.packed.HostProduct` prices the fold, the popcount
GEMM, the conv gather and the int8 conv from counted work and the
committed :data:`~repro.core.packed.HOST_RATES`; ``apmm``, ``apconv``
and ``packed_matmul`` run the cheapest.  The build -- its popcount
branch, and whether it has the AVX-512 VNNI kernels -- is passed in
explicitly, so every build's routes are checked on any host.
"""

import pytest

from repro.bench.hostfit import ALEXNET, RESNET18, ConvShape
from repro.core.packed import HOST_RATES, PATH_KERNELS, HostProduct

MICRO_KERNEL, LOOP_NEST = 1, 0

#: The builds the table pins, as ``(branch, vnni)``: the micro-kernel
#: with VNNI (an AVX-512 VPOPCNTDQ host), the loop nest without it (an
#: x86-64-v3 host), and the loop nest with it (AVX-512 VNNI without
#: VPOPCNTDQ, such as Cascade Lake).
BUILDS = ((MICRO_KERNEL, True), (LOOP_NEST, False), (LOOP_NEST, True))

#: Every benchmark layer's route on each of :data:`BUILDS`.  With VNNI,
#: every ResNet-18 conv and both conv1s (p*q of 8 and more) take the int8
#: path, whose ``vpdpbusd`` does 64 products per instruction; AlexNet's
#: w1a2 conv2-conv5 keep the gather on the micro-kernel, which beats
#: int8 at p*q = 2, and take int8 over the loop nest's slower popcount.
#: Without VNNI the loop nest folds every conv but AlexNet's conv2-conv5,
#: which take the gather.  The fully connected layers take the popcount
#: GEMM on every build.
ROUTES = {
    ("alexnet", "conv1"): ("vnni", "fold", "vnni"),
    ("alexnet", "conv2"): ("gather", "gather", "vnni"),
    ("alexnet", "conv3"): ("gather", "gather", "vnni"),
    ("alexnet", "conv4"): ("gather", "gather", "vnni"),
    ("alexnet", "conv5"): ("gather", "gather", "vnni"),
    ("alexnet", "fc6"): ("popcount", "popcount", "popcount"),
    ("alexnet", "fc7"): ("popcount", "popcount", "popcount"),
    ("alexnet", "fc8"): ("popcount", "popcount", "popcount"),
    ("resnet18", "conv1"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv64-64k3s1"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv64-128k3s2"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv64-128k1s2"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv128-128k3s1"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv128-256k3s2"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv128-256k1s2"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv256-256k3s1"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv256-512k3s2"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv256-512k1s2"): ("vnni", "fold", "vnni"),
    ("resnet18", "conv512-512k3s1"): ("vnni", "fold", "vnni"),
    ("resnet18", "fc"): ("popcount", "popcount", "popcount"),
}

LAYERS = [("alexnet", s) for s in ALEXNET] + [("resnet18", s) for s in RESNET18]


def test_the_table_covers_every_benchmark_layer():
    assert sorted(ROUTES) == sorted((net, s.name) for net, s in LAYERS)


@pytest.mark.parametrize(
    "net,shape", LAYERS, ids=[f"{net}-{s.name}" for net, s in LAYERS]
)
def test_benchmark_layer_routes_on_every_build(net, shape):
    product = shape.product()
    for (branch, vnni), route in zip(BUILDS, ROUTES[net, shape.name]):
        assert product.cheapest(branch, vnni) == route
    assert product.cheapest(None) == "fold"
    assert product.cheapest(None, True) == "fold"


def test_resnet_strided_1x1_convs_never_take_the_gather():
    # they read one pixel in four of the map the gather packs whole
    for shape in RESNET18:
        if isinstance(shape, ConvShape) and shape.kernel == 1:
            product = shape.product()
            for branch in (MICRO_KERNEL, LOOP_NEST):
                assert product.host_us("gather", branch) > product.host_us(
                    "fold", branch)


def test_a_conv_never_takes_the_im2col_popcount_gemm():
    for net, shape in LAYERS:
        product = shape.product()
        if isinstance(shape, ConvShape):
            for branch in (MICRO_KERNEL, LOOP_NEST):
                for vnni in (True, False):
                    assert "popcount" not in product.paths(branch, vnni)


class TestWideDigits:
    """Digits wider than 8 bits only fold: ``_pack_planes`` packs at most
    8 bits and the int8 path takes at most 8-bit activations, so no
    compiled path is ever a candidate."""

    WIDE = [(p, q) for p in (1, 2) for q in range(9, 17)]

    @pytest.mark.parametrize("p,q", WIDE, ids=[f"w{p}a{q}" for p, q in WIDE])
    @pytest.mark.parametrize("branch", [MICRO_KERNEL, LOOP_NEST])
    def test_large_products_fold(self, p, q, branch):
        gemms = [HostProduct(4096, 1 << 16, 1 << 14, p, q),
                 HostProduct(64, 1 << 20, 4096, p, q)]
        convs = [HostProduct.conv(64, 512, 512, 30, 30, 3, 1, p, q),
                 HostProduct.conv(256, 64, 64, 114, 114, 3, 1, p, q)]
        for product in gemms + convs:
            for vnni in (True, False):
                assert product.paths(branch, vnni) == ("fold",)
                assert product.cheapest(branch, vnni) == "fold"

    def test_at_eight_bits_the_packed_paths_are_candidates(self):
        # 8-bit weights do not fit s8: no int8 path
        conv = HostProduct.conv(4, 64, 64, 30, 30, 3, 1, 8, 8)
        assert conv.paths(MICRO_KERNEL, True) == ("fold", "gather")
        assert HostProduct(64, 64, 64, 8, 8).paths(LOOP_NEST, True) == (
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
        conv = HostProduct.conv(1, 64, 64, 10, 10, 3, 1, 1, 2)
        gemm = HostProduct(64, 64, 576, 1, 2)
        for product in (conv, gemm):
            assert product.host_us("fold", None) > 0
        for product, path in ((gemm, "popcount"), (conv, "gather"),
                              (conv, "vnni")):
            with pytest.raises(ValueError, match="compiled branch"):
                product.host_us(path, None)

    @pytest.mark.parametrize("path", ["gather", "vnni"])
    def test_conv_paths_need_a_conv(self, path):
        with pytest.raises(ValueError, match="conv window"):
            HostProduct(64, 64, 576, 1, 2).host_us(path, MICRO_KERNEL)

    def test_a_conv_has_no_popcount_path(self):
        conv = HostProduct.conv(1, 64, 64, 10, 10, 3, 1, 1, 2)
        for branch in (MICRO_KERNEL, LOOP_NEST):
            with pytest.raises(ValueError, match="no popcount path"):
                conv.host_us("popcount", branch)

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
        assert dict(PATH_KERNELS) == {
            "fold": 0, "popcount": 1, "gather": 2, "vnni": 2}

    def test_the_int8_path_is_priced_alike_on_either_branch(self):
        conv = HostProduct.conv(4, 64, 64, 58, 58, 3, 1, 2, 4)
        assert conv.host_us("vnni", MICRO_KERNEL) == conv.host_us(
            "vnni", LOOP_NEST) > 0

    def test_rates_are_positive(self):
        assert all(v > 0 for v in HOST_RATES.fold_macs.values())
        assert set(HOST_RATES.fold_macs) == {"float32", "float64", "int64"}
        assert min(HOST_RATES.popcount_words) > 0
        assert min(HOST_RATES.vnni_quads, HOST_RATES.panel_bytes,
                   HOST_RATES.vnni_weight_digits) > 0


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
