"""Smoke test of the library API the repo benchmark calls.

``perfbench/qnet.py`` composes a quantized forward from public calls.
This imports it unedited and runs a small AlexNet through it, pinning
what the benchmark relies on: ``backends.get_backend()`` with its
``.name``/``.capabilities``, the per-call ``backend=`` of
``apmm``/``apconv``, and ``cost.counters.compiled_kernels``, which
splits gather from im2col + fold time and marks the fully-connected
layers that ran the popcount GEMM: each call's count is that of the
route the host cost model (:class:`repro.core.packed.HostProduct`)
prices lowest for its shape.  It pins the logits digests of two small
forwards, AlexNet-w1a2 and ResNet-18-w2a4, with the kernels and epilogue
ops split across CPUs as they are by default, split on every call, and
held to one CPU.  It also checks that CI runs only modules, benchmark
files and tests that exist.
"""

import ast
import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import PrecisionPair, backends, cores
from repro.core.packed import (
    PATH_KERNELS,
    HostProduct,
    compiled_branch,
    compiled_vnni,
)
from repro.nn import APNNBackend, alexnet, resnet18
from repro.obs import Tracer
from repro.serve import PlanCache
from repro.tensorcore import RTX3090

REPO = Path(__file__).resolve().parents[1]
QNET = REPO / "perfbench" / "qnet.py"
SIZE = 67
BATCH = 2


@pytest.fixture(scope="module")
def qnet():
    spec = importlib.util.spec_from_file_location("perfbench_qnet", QNET)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def prepared(qnet):
    model = alexnet(activation_bits=2, input_size=SIZE)
    net, _ = qnet.prepare(
        model, APNNBackend(PrecisionPair.parse("w1a2")), RTX3090,
        BATCH, SIZE, PlanCache(),
    )
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(BATCH, 3, SIZE, SIZE),
                          dtype=np.uint8) / 255.0
    qnet.forward(net, images, calibrate=True)
    return net, images


def test_backend_descriptor_the_benchmark_prints():
    active = backends.get_backend()
    assert active.name in ("numpy", "cffi")
    assert set(active.capabilities) <= set(backends.CAPABILITIES)


def test_default_forward_matches_the_integer_reference(qnet, prepared):
    net, images = prepared
    default = qnet.forward(net, images)
    reference = qnet.forward(net, images, strategy="integer",
                             backend="numpy")
    assert default.dtype == reference.dtype
    assert default.tobytes() == reference.tobytes()


#: sha256 of the logits of two small forwards, taken before the kernels
#: and epilogue ops split their work across CPUs: ``prepared``'s 67x67
#: AlexNet-w1a2, and a 64x64 ResNet-18-w2a4 (BN, the residual add and
#: the 1x1 stride-2 convs) at batch 2.  Both sides of the integer
#: reference run the same epilogue ops, so only a pin catches a fault in
#: one of them.
ALEXNET_DIGEST = "655e6dc07e36aa7dc1bcd0c89f2c1c1fe08ecc62a2679043e6ee4c3cf8ff1262"
RESNET_DIGEST = "e2abc9a4f4275c598a85058e18d7b02fc8cd22aa7701e49eee693a855f200cbf"


@pytest.fixture(scope="module")
def resnet_prepared(qnet):
    size = 64
    net, _ = qnet.prepare(
        resnet18(activation_bits=4, input_size=size),
        APNNBackend(PrecisionPair.parse("w2a4")), RTX3090, BATCH, size,
        PlanCache(),
    )
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(BATCH, 3, size, size),
                          dtype=np.uint8) / 255.0
    qnet.forward(net, images, calibrate=True)
    return net, images


@pytest.mark.parametrize("cpus", ["default", "every call split", "one CPU"])
@pytest.mark.parametrize("network", ["alexnet", "resnet18"])
def test_small_forwards_keep_their_pinned_digests(
    qnet, prepared, resnet_prepared, monkeypatch, network, cpus
):
    net, images = prepared if network == "alexnet" else resnet_prepared
    if cpus == "every call split":
        monkeypatch.setattr(cores, "MIN_PART_US", 0.0)
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
    elif cpus == "one CPU":
        monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
    logits = qnet.forward(net, images)
    want = ALEXNET_DIGEST if network == "alexnet" else RESNET_DIGEST
    assert hashlib.sha256(logits.tobytes()).hexdigest() == want


def _kernel_spans(qnet, net, images, **kwargs) -> list[dict]:
    tracer = Tracer()
    qnet.forward(net, images, rec=qnet.Recorder(tracer, "test"), **kwargs)
    return [s.attributes for s in tracer.spans_in("kernel")]


def _kernel_kinds(qnet, net, images, **kwargs) -> list[str]:
    return [a["kind"] for a in _kernel_spans(qnet, net, images, **kwargs)]


def _routes(qnet, net, images, monkeypatch) -> list[str]:
    """The host model's route for each kernel call of one forward."""
    products = []
    conv, mm = qnet.apconv, qnet.apmm

    def traced_conv(w, x, wp, xp, *, stride, padding, **kwargs):
        products.append(HostProduct.conv(
            x.shape[0], x.shape[1], w.shape[0], x.shape[2] + 2 * padding,
            x.shape[3] + 2 * padding, w.shape[2], stride, wp.bits, xp.bits,
        ))
        return conv(w, x, wp, xp, stride=stride, padding=padding, **kwargs)

    def traced_mm(w, x, wp, xp, **kwargs):
        products.append(HostProduct(w.shape[0], x.shape[0], w.shape[1],
                                    wp.bits, xp.bits))
        return mm(w, x, wp, xp, **kwargs)

    monkeypatch.setattr(qnet, "apconv", traced_conv)
    monkeypatch.setattr(qnet, "apmm", traced_mm)
    qnet.forward(net, images)
    branch, vnni = compiled_branch(), compiled_vnni()
    return [product.cheapest(branch, vnni) for product in products]


def test_gather_runs_only_on_cffi(qnet, prepared, monkeypatch):
    net, images = prepared
    spans = _kernel_spans(qnet, net, images)
    routes = _routes(qnet, net, images, monkeypatch)
    convs = [(a, r) for a, r in zip(spans, routes)
             if a["kind"] in ("gather", "conv_fold")]
    assert len(convs) == 4  # conv2-conv5
    # every conv takes the model's route; qnet labels any conv that ran
    # a compiled kernel "gather"
    for attrs, route in convs:
        assert attrs["compiled_kernels"] == PATH_KERNELS[route]
        assert attrs["kind"] == ("conv_fold" if route == "fold" else "gather")
    if compiled_branch() == 1:
        # on the micro-kernel conv2 (w1a2, C_in 64, 5x5 on a 7x7 map)
        # takes the gather, with or without the int8 kernels: the
        # popcount emulation beats int8 at p*q = 2
        assert routes[1] == "gather"
    numpy_kinds = _kernel_kinds(qnet, net, images, backend="numpy")
    assert "gather" not in numpy_kinds
    assert numpy_kinds.count("conv_fold") == 4


def test_popcount_gemm_runs_only_on_cffi(qnet, prepared, monkeypatch):
    net, images = prepared
    spans = _kernel_spans(qnet, net, images)
    routes = _routes(qnet, net, images, monkeypatch)
    fc = [(a["compiled_kernels"], r) for a, r in zip(spans, routes)
          if a["kind"] == "apmm"]
    first = [a["compiled_kernels"] for a in spans if a["kind"] == "first_layer"]
    assert len(fc) == 3
    assert all(count == PATH_KERNELS[route] for count, route in fc)
    # w1a2 (p*q = 2) at K a multiple of 64: fc6-fc8 take the popcount
    # GEMM whenever cffi loads; conv1 (w1a8, C_in 3) takes the int8 path
    # where the build has it, and the fold elsewhere
    if backends.get_backend().compiled:
        assert [route for _, route in fc] == ["popcount"] * 3
    else:
        assert fc == [(0, "fold")] * 3
    assert routes[0] == ("vnni" if compiled_vnni() else "fold")
    assert first == [PATH_KERNELS[routes[0]]]
    numpy_spans = _kernel_spans(qnet, net, images, backend="numpy")
    assert [a["compiled_kernels"] for a in numpy_spans] == [0] * len(spans)


def test_ci_names_only_what_exists():
    # Read as text: CI installs requirements-dev.txt, which has no YAML
    # parser.  A third-party module counts when that file installs it.
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    installed = {"pip"} | {
        re.split(r"[<>=]", line)[0].strip()
        for line in (REPO / "requirements-dev.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    }
    modules = set(re.findall(r"python3? -m ([\w.]+)", ci))
    assert "repro.bench" in modules
    for module in modules:
        if module.split(".")[0] == "repro":
            assert importlib.util.find_spec(module) is not None, module
        else:
            assert module in installed, module
    paths = {p.rstrip(".") for p in
             re.findall(r"(?:perfbench|benchmarks)/[\w./-]+", ci)}
    assert "perfbench/run.py" in paths
    for path in paths:
        assert (REPO / path).exists(), path
    # pytest targets: each file or directory exists, and each
    # ``::Class::test`` node is defined where it says
    targets = set(re.findall(r"tests/[\w./-]+(?:::\w+)*", ci))
    assert "tests/serve/test_drain.py" in targets
    assert any("::" in target for target in targets)
    for target in targets:
        path, *nodes = target.split("::")
        assert (REPO / path).exists(), target
        scope = ast.parse((REPO / path).read_text()).body if nodes else []
        for name in nodes:
            defs = {
                node.name: node for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))
            }
            assert name in defs, target
            scope = defs[name].body
