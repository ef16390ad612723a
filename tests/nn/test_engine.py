"""Tests for the inference engine: backends, fusion effects, Table 2 shapes."""

import numpy as np
import pytest

from repro.core import PrecisionPair
from repro.nn import (
    AdaptiveAvgPool2d,
    APNNBackend,
    AvgPool2d,
    BNNBackend,
    InferenceEngine,
    LibraryBackend,
    MaxPool2d,
    alexnet,
    fuse_graph,
    resnet18,
    vgg_variant,
)

W1A2 = PrecisionPair.parse("w1a2")


@pytest.fixture(scope="module")
def small_alexnet():
    return alexnet(num_classes=100, input_size=224)


@pytest.fixture(scope="module")
def small_resnet():
    return resnet18(num_classes=100, input_size=224)


class TestBackends:
    def test_backend_names(self):
        assert APNNBackend(W1A2).name == "APNN-w1a2"
        assert BNNBackend().name == "BNN"
        assert LibraryBackend("fp32").name == "CUTLASS-Single"
        assert LibraryBackend("fp16").name == "CUTLASS-Half-TC"
        assert LibraryBackend("int8").name == "CUTLASS-INT8-TC"

    def test_library_precision_validated(self):
        with pytest.raises(ValueError):
            LibraryBackend("int4")

    def test_bnn_pair_is_w1a1(self):
        assert BNNBackend().pair.name == "w1a1"


class TestEstimate(object):
    def test_report_structure(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        rep = eng.estimate(8)
        assert rep.batch == 8
        assert rep.total_us > 0
        assert rep.latency_ms == pytest.approx(rep.total_us / 1000)
        assert rep.throughput_fps == pytest.approx(8 / (rep.total_us * 1e-6))
        assert len(rep.groups) >= 8
        assert rep.dataflow is not None

    def test_batch_validated(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        with pytest.raises(ValueError):
            eng.estimate(0)

    def test_latency_grows_with_batch(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        assert eng.estimate(128).total_us > eng.estimate(8).total_us

    def test_throughput_better_at_large_batch(self, small_alexnet):
        """Launch overhead amortizes: batch-128 fps > batch-8 fps."""
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        assert eng.estimate(128).throughput_fps > eng.estimate(8).throughput_fps

    def test_resnet_residual_groups_costed(self, small_resnet):
        eng = InferenceEngine(small_resnet, APNNBackend(W1A2))
        rep = eng.estimate(8)
        assert len([g for g in rep.groups if g.kind == "Conv2d"]) == 20
        assert rep.total_us > 0

    def test_layer_fractions_sum_to_one(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        fracs = eng.estimate(8).layer_fractions()
        assert sum(f for _, f in fracs) == pytest.approx(1.0)

    def test_first_layer_dominates_apnn_alexnet(self, small_alexnet):
        """Fig. 9's shape: conv1 is the largest single contributor."""
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        fracs = eng.estimate(8).layer_fractions()
        assert fracs[0][0] == "conv1"
        assert fracs[0][1] == max(f for _, f in fracs)
        assert fracs[0][1] > 0.25


class TestCompile:
    """CompiledPlan: planning/pricing split introduced for the serve layer."""

    def test_compile_then_price_equals_estimate(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        plan = eng.compile(8)
        fresh = eng.estimate(8)
        priced = plan.price(eng.latency_model)
        assert priced.total_us == pytest.approx(fresh.total_us, rel=1e-12)
        assert [g.name for g in priced.groups] == [g.name for g in fresh.groups]

    def test_plan_metadata(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        plan = eng.compile(8)
        assert plan.model_name == small_alexnet.name
        assert plan.backend_name == "APNN-w1a2"
        assert plan.device_name == eng.device.name
        assert plan.batch == 8
        assert plan.input_shape == (3, 224, 224)
        assert plan.dataflow is not None
        assert plan.kernel_launches >= len(plan.groups)

    def test_plan_reprices_on_other_device(self, small_alexnet):
        """One plan's counted work can be priced under any latency model."""
        from repro.perf import LatencyModel
        from repro.tensorcore import A100

        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        plan = eng.compile(8)
        here = plan.price(eng.latency_model).total_us
        there = plan.price(LatencyModel(A100)).total_us
        assert here != there

    def test_compile_validates_batch(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        with pytest.raises(ValueError):
            eng.compile(0)


class TestBackendOrdering:
    """Table 2's who-beats-whom shape on every model."""

    @pytest.fixture(scope="class")
    def latencies(self, small_alexnet):
        out = {}
        for backend in (
            LibraryBackend("fp32"),
            LibraryBackend("fp16"),
            LibraryBackend("int8"),
            BNNBackend(),
            APNNBackend(W1A2),
        ):
            rep = InferenceEngine(small_alexnet, backend).estimate(8)
            out[backend.name] = rep.latency_ms
        return out

    def test_apnn_w1a2_fastest(self, latencies):
        assert latencies["APNN-w1a2"] == min(latencies.values())

    def test_apnn_beats_single_by_over_4x(self, latencies):
        """Paper: >4x latency reduction vs single precision."""
        assert latencies["CUTLASS-Single"] / latencies["APNN-w1a2"] > 4

    def test_bnn_second_fastest(self, latencies):
        rest = {k: v for k, v in latencies.items() if k != "APNN-w1a2"}
        assert latencies["BNN"] == min(rest.values())

    def test_precision_ordering_for_libraries(self, latencies):
        assert (
            latencies["CUTLASS-INT8-TC"]
            < latencies["CUTLASS-Half-TC"]
            < latencies["CUTLASS-Single"]
        )


class TestFusionEffect:
    def test_apnn_fuses_every_group_library_launches_pooling(
        self, small_alexnet
    ):
        """APNN folds every epilogue into its GEMM's launch; a library
        backend fuses the element-wise layers but runs each pooling layer
        as its own kernel."""
        def launches(backend):
            report = InferenceEngine(small_alexnet, backend).estimate(8)
            return [
                sum(c.counters.kernel_launches for c in g.costs)
                for g in report.groups
            ]

        apnn = launches(APNNBackend(W1A2))
        assert apnn == [1] * len(apnn)
        pools = sum(
            isinstance(layer, (MaxPool2d, AvgPool2d, AdaptiveAvgPool2d))
            for g in fuse_graph(small_alexnet) for layer in g.epilogue
        )
        assert pools > 0
        assert sum(launches(LibraryBackend("int8"))) == len(apnn) + pools


class TestPrecisionTradeoffs:
    """Table 3's shape: w1a2 < w2a2 < w2a8 latency; w2a8 ~ int8."""

    @pytest.fixture(scope="class")
    def vgg(self):
        return vgg_variant(num_classes=100, input_size=224)

    def test_w1a2_faster_than_w2a2(self, vgg):
        t = {}
        for name in ("w1a2", "w2a2", "w2a8"):
            backend = APNNBackend(PrecisionPair.parse(name))
            t[name] = InferenceEngine(vgg, backend).estimate(8).total_us
        assert t["w1a2"] < t["w2a2"] < t["w2a8"]

    def test_w2a8_comparable_to_int8(self, vgg):
        """The emulation-cost crossover the paper reports in Table 3."""
        w2a8 = InferenceEngine(
            vgg, APNNBackend(PrecisionPair.parse("w2a8"))
        ).estimate(128).throughput_fps
        int8 = InferenceEngine(
            vgg, LibraryBackend("int8")
        ).estimate(128).throughput_fps
        assert 0.2 < w2a8 / int8 < 2.5

    def test_forward_float_reference(self, vgg):
        eng = InferenceEngine(vgg, APNNBackend(W1A2))
        x = np.random.default_rng(0).normal(size=(1, 3, 224, 224)).astype(np.float32)
        out = eng.forward(x)
        assert out.shape == (1, 100)


class TestGemmProblems:
    """repro.bench derives its serving-relevant shapes from this walk."""

    def test_matches_alexnet_first_conv(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        problems = eng.gemm_problems(batch=4)
        first = problems[0]
        assert first.kind == "conv"
        # AlexNet conv1: 64 filters, 11x11x3 window, stride 4, pad 2
        assert first.m == 64
        assert first.k == 3 * 11 * 11
        assert first.n == 4 * 55 * 55
        # first GEMM runs 8-bit activations (int8 image), later ones the
        # backend pair
        assert first.a_bits == 8
        assert problems[1].a_bits == W1A2.activation.bits
        assert all(p.w_bits == W1A2.weight.bits for p in problems)

    def test_one_problem_per_gemm_group(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        problems = eng.gemm_problems(batch=2)
        plan = eng.compile(2)
        gemm_groups = [
            g for g in plan.groups if g.kind in ("Conv2d", "Linear")
        ]
        assert len(problems) == len(gemm_groups)
        kinds = {"Conv2d": "conv", "Linear": "linear"}
        for prob, group in zip(problems, gemm_groups):
            assert prob.kind == kinds[group.kind]

    def test_library_backend_uses_element_bits(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, LibraryBackend("int8"))
        problems = eng.gemm_problems(batch=1)
        assert all(p.w_bits == 8 and p.a_bits == 8 for p in problems)

    def test_mixed_precision_overrides_respected(self, small_alexnet):
        backend = APNNBackend.mixed("w1a2", {"fc8": "w4a4"})
        eng = InferenceEngine(small_alexnet, backend)
        by_layer = {p.layer: p for p in eng.gemm_problems(batch=1)}
        assert by_layer["fc8"].w_bits == 4 and by_layer["fc8"].a_bits == 4
        assert by_layer["fc7"].w_bits == 1 and by_layer["fc7"].a_bits == 2

    def test_batch_validated_and_name_stable(self, small_alexnet):
        eng = InferenceEngine(small_alexnet, APNNBackend(W1A2))
        with pytest.raises(ValueError, match="batch"):
            eng.gemm_problems(batch=0)
        prob = eng.gemm_problems(batch=1)[-1]
        assert prob.name == (
            f"{prob.kind}-w{prob.w_bits}a{prob.a_bits}-"
            f"{prob.m}x{prob.n}x{prob.k}"
        )
