"""APNN framework (paper section 5): modules, models, fusion, dataflow, engine."""

from .dataflow import DataflowPlan, GroupPlan, plan_dataflow
from .engine import (
    APNNBackend,
    BNNBackend,
    CompiledPlan,
    GemmProblem,
    GroupReport,
    InferenceEngine,
    LibraryBackend,
    ModelReport,
    PlannedGroup,
    backend_key,
)
from .fusion_pass import EPILOGUE_TYPES, FusedGroup, fuse_graph
from .layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Quantize,
    ReLU,
)
from .models import MODEL_BUILDERS, BasicBlock, alexnet, resnet18, vgg_variant
from .module import Module, Parameter, Sequential

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Quantize",
    "Flatten",
    "BasicBlock",
    "alexnet",
    "vgg_variant",
    "resnet18",
    "MODEL_BUILDERS",
    "FusedGroup",
    "fuse_graph",
    "EPILOGUE_TYPES",
    "DataflowPlan",
    "GroupPlan",
    "plan_dataflow",
    "APNNBackend",
    "BNNBackend",
    "LibraryBackend",
    "backend_key",
    "InferenceEngine",
    "GroupReport",
    "ModelReport",
    "PlannedGroup",
    "CompiledPlan",
    "GemmProblem",
]
