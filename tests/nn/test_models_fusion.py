"""Tests for model builders, the fusion pass and the dataflow planner."""

import numpy as np
import pytest

from repro.core import PrecisionPair
from repro.nn import (
    BasicBlock,
    Linear,
    Sequential,
    alexnet,
    fuse_graph,
    plan_dataflow,
    resnet18,
    vgg_variant,
)
from repro.nn.engine import InferenceEngine, APNNBackend


class TestModelBuilders:
    def test_alexnet_shapes(self):
        model = alexnet(num_classes=10, input_size=224)
        assert model.output_shape((2, 3, 224, 224)) == (2, 10)

    def test_alexnet_forward_small(self):
        model = alexnet(num_classes=5, input_size=63)
        x = np.random.default_rng(0).normal(size=(1, 3, 63, 63)).astype(np.float32)
        assert model.forward(x).shape == (1, 5)

    def test_vgg_variant_shapes(self):
        model = vgg_variant(num_classes=10, input_size=224)
        assert model.output_shape((1, 3, 224, 224)) == (1, 10)

    def test_vgg_input_validated(self):
        with pytest.raises(ValueError):
            vgg_variant(input_size=100)

    def test_resnet18_shapes(self):
        model = resnet18(num_classes=10, input_size=224)
        assert model.output_shape((1, 3, 224, 224)) == (1, 10)

    def test_resnet18_forward_small(self):
        model = resnet18(num_classes=4, input_size=32)
        x = np.random.default_rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (1, 4)
        assert np.all(np.isfinite(out))

    def test_resnet_block_count(self):
        model = resnet18(input_size=32)
        blocks = [l for l in model if isinstance(l, BasicBlock)]
        assert len(blocks) == 8

    def test_param_counts_ordering(self):
        """AlexNet ~61M, VGG-variant > AlexNet, ResNet-18 ~11M."""
        small = dict(num_classes=1000, input_size=224)
        a = alexnet(**small).num_parameters()
        r = resnet18(**small).num_parameters()
        assert 55e6 < a < 70e6
        assert 10e6 < r < 13e6

    def test_basic_block_residual_semantics(self):
        rng = np.random.default_rng(2)
        block = BasicBlock(4, 4, stride=1, rng=rng)
        x = rng.normal(size=(1, 4, 8, 8))
        out = block.forward(x)
        # manual: relu(bn2(conv2(relu(bn1(conv1 x)))) + x)
        mid = block.relu.forward(block.bn1.forward(block.conv1.forward(x)))
        ref = np.maximum(block.bn2.forward(block.conv2.forward(mid)) + x, 0)
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_basic_block_downsample(self):
        block = BasicBlock(4, 8, stride=2)
        assert block.downsample is not None
        x = np.random.default_rng(3).normal(size=(1, 4, 8, 8))
        assert block.forward(x).shape == (1, 8, 4, 4)


class TestFuseGraph:
    def test_conv_groups_collect_epilogue(self):
        model = alexnet(input_size=224)
        groups = fuse_graph(model)
        gemm_groups = [g for g in groups if g.is_gemm]
        # 5 convs + 3 fcs
        assert len(gemm_groups) == 8
        # first group: conv1 + relu + pool + quantize
        first = gemm_groups[0]
        assert first.main.name == "conv1"
        assert len(first.epilogue) == 3
        assert first.quantize_bits == 2

    def test_every_layer_placed_once(self):
        model = vgg_variant(input_size=224)
        groups = fuse_graph(model)
        placed = sum(1 + len(g.epilogue) for g in groups)
        assert placed == len(model.layers) - 0  # sequential models map 1:1

    def test_resnet_block_expansion(self):
        model = resnet18(input_size=224)
        groups = fuse_graph(model)
        gemm_groups = [g for g in groups if g.is_gemm]
        # conv1 + 8 blocks x 2 convs + 3 downsample convs + fc = 21
        assert len(gemm_groups) == 21
        adds = [g for g in groups if g.residual_add]
        assert len(adds) == 8
        side = [g for g in groups if g.side_branch]
        assert len(side) == 3
        entries = [g for g in groups if g.block_entry]
        assert len(entries) == 8

    def test_unknown_layer_rejected(self):
        class Strange:
            pass

        from repro.nn.module import Module

        class StrangeLayer(Module):
            name = "strange"

            def forward(self, x):
                return x

            def output_shape(self, s):
                return s

        with pytest.raises(TypeError, match="strange|Strange"):
            fuse_graph(Sequential([Linear(2, 2), StrangeLayer()]))

    def test_last_linear_group_has_no_quantize(self):
        groups = fuse_graph(alexnet(input_size=224))
        last = [g for g in groups if g.is_gemm][-1]
        assert last.quantize_bits is None


class TestDataflow:
    def _engine(self, model):
        return InferenceEngine(model, APNNBackend(PrecisionPair.parse("w1a2")))

    def _plan(self, model):
        engine = self._engine(model)
        records = engine._walk_shapes((8, 3, 224, 224))
        return plan_dataflow(engine.groups, [r[3] for r in records])

    def test_first_layer_consumes_8bit(self):
        problems = self._engine(alexnet(input_size=224)).gemm_problems(8)
        assert problems[0].a_bits == 8

    def test_intermediate_layers_consume_q_bits(self):
        problems = self._engine(alexnet(input_size=224)).gemm_problems(8)
        assert all(p.a_bits == 2 for p in problems[1:])

    def test_output_layer_keeps_int32(self):
        plan = self._plan(alexnet(input_size=224))
        gemms = [g for g in plan.groups if g.is_gemm]
        assert gemms[-1].out_bits == 32

    def test_traffic_reduction_substantial(self):
        """Packed 2-bit boundaries move far less data than 32-bit ones."""
        plan = self._plan(vgg_variant(input_size=224))
        assert plan.traffic_reduction > 8

    def test_mismatched_lengths_rejected(self):
        groups = fuse_graph(alexnet(input_size=224))
        with pytest.raises(ValueError):
            plan_dataflow(groups, [(1, 1)])
