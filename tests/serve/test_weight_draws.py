"""Serving draws no weight: a prewarmed server's replay and a simulated
cluster run plan and price from layer shapes alone."""

import pytest

from repro.nn import alexnet, layers, resnet18
from repro.serve import ModelSpec, ServedModel, burst_trace

from harness import make_fault_cluster, make_server, run_cluster_trace, run_trace

pytestmark = pytest.mark.serving


@pytest.fixture
def draws(monkeypatch):
    """Every ``_kaiming`` call made while the test runs, as its shape."""
    calls = []
    real = layers._kaiming

    def counting(rng, shape, fan_in):
        calls.append(tuple(shape))
        return real(rng, shape, fan_in)

    monkeypatch.setattr(layers, "_kaiming", counting)
    return calls


def test_prewarmed_server_replay_draws_nothing(draws):
    models = {
        "alex": ServedModel(alexnet(num_classes=10, input_size=64), (3, 64, 64)),
        "res": ServedModel(resnet18(num_classes=10, input_size=32), (3, 32, 32)),
    }
    run = run_trace(
        make_server(models), burst_trace(16, list(models)), prewarm=True
    )
    assert len(run.results) == 16
    assert draws == []


def test_sim_cluster_run_draws_nothing(draws):
    specs = {
        "draws-micro": ModelSpec(kind="micro", name="draws-micro", seed=41),
        "draws-alexnet": ModelSpec(
            kind="alexnet", name="draws-alexnet", input_shape=(3, 64, 64)
        ),
        "draws-resnet": ModelSpec(
            kind="resnet18", name="draws-resnet", input_shape=(3, 32, 32)
        ),
    }
    run = run_cluster_trace(
        make_fault_cluster(specs, num_workers=2), burst_trace(12, list(specs))
    )
    run.assert_invariants(12)
    assert draws == []
