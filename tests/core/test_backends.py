"""The two kernel tiers: selection, degradation, dispatch validation.

:mod:`repro.core.backends` has two fixed tiers -- ``numpy`` and ``cffi``
when its shared object loads.  Degradation is tested against the real
cffi loader: with no ``cffi`` package and a cold build cache it must
fall back to numpy with exactly one ``RuntimeWarning``, after which an
explicit ``backend="cffi"`` raises.  Also covers the ``(strategy,
backend)`` validation that ``apmm``/``apconv`` share.
"""

import ast
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import PrecisionPair, _backend_cffi, backends
from repro.core.backends import (
    CAPABILITIES,
    CFFI,
    NUMPY,
    STRATEGIES,
    get_backend,
    resolve_backend,
    resolve_dispatch,
)

needs_cffi = pytest.mark.skipif(
    not get_backend().compiled, reason="cffi kernels do not load here"
)


@pytest.fixture
def broken_cffi(monkeypatch, tmp_path):
    """The real loader with no cffi package and a cold build cache."""
    monkeypatch.setenv("REPRO_CFFI_CACHE", str(tmp_path))
    monkeypatch.setitem(sys.modules, "cffi", None)
    monkeypatch.setattr(_backend_cffi, "_loaded", None)
    monkeypatch.setattr(backends, "_cffi_table", None)


class TestRegistry:
    def test_numpy_is_always_registered_and_usable(self, broken_cffi):
        # naming numpy never touches the cffi loader, broken or not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("numpy") is NUMPY
            assert resolve_dispatch("packed", "numpy") == ("packed", NUMPY)
        assert backends._cffi_table is None


class TestPrecedence:
    @needs_cffi
    def test_auto_detection_picks_highest_priority_usable(self):
        # cffi outranks numpy whenever its shared object loads
        assert get_backend() is CFFI
        assert resolve_backend(None) is CFFI
        assert CFFI.capabilities == frozenset(CAPABILITIES)

    @needs_cffi
    def test_call_kwarg_beats_everything(self):
        assert resolve_backend("numpy") is NUMPY
        assert resolve_backend("cffi") is CFFI


class TestDegradation:
    def test_auto_detection_skips_backend_whose_loader_raises(
        self, broken_cffi
    ):
        with pytest.warns(RuntimeWarning, match="failed to load") as record:
            assert get_backend() is NUMPY
        assert len(record) == 1
        # warn once: later lookups stay on numpy silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend() is NUMPY
            assert backends.kernel("conv_gather") is None

    def test_explicit_request_of_broken_backend_raises(self, broken_cffi):
        with pytest.warns(RuntimeWarning):
            get_backend()
        with pytest.raises(RuntimeError, match="failed to load"):
            resolve_backend("cffi")
        with pytest.raises(RuntimeError, match="failed to load"):
            resolve_dispatch("packed", "cffi")

    @pytest.mark.parametrize("kernel", ["apmm", "apconv"])
    def test_explicit_cffi_raises_in_kernels_after_load_failure(
        self, broken_cffi, kernel
    ):
        from repro.kernels.apconv import apconv
        from repro.kernels.apmm import apmm

        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(0)
        if kernel == "apmm":
            fn, shapes = apmm, ((4, 16), (3, 16))
        else:
            fn, shapes = apconv, ((4, 2, 3, 3), (1, 2, 5, 5))
        w = pair.weight.random_digits(rng, shapes[0])
        x = pair.activation.random_digits(rng, shapes[1])
        with pytest.warns(RuntimeWarning, match="failed to load"):
            fallback = fn(w, x, pair.weight, pair.activation)
        assert fallback.cost.counters.compiled_kernels == 0
        with pytest.raises(RuntimeError, match="failed to load"):
            fn(w, x, pair.weight, pair.activation, backend="cffi")

    def test_unknown_backend_name_enumerates_registry(self):
        with pytest.raises(ValueError, match="numpy/cffi"):
            resolve_backend("numba")

    def test_loader_missing_advertised_kernel_degrades(self, monkeypatch):
        monkeypatch.setattr(backends, "_cffi_table", None)
        monkeypatch.setattr(
            _backend_cffi, "kernels", lambda: {"packed_gemm": lambda *a: None}
        )
        with pytest.warns(RuntimeWarning, match="no kernels for"):
            assert get_backend() is NUMPY


class TestBuildCache:
    def test_module_name_keys_on_the_cpu_features(self):
        # a cache shared between hosts must not load another CPU's build
        name = _backend_cffi._module_name
        assert name("fpu sse2 avx2") == name("fpu sse2 avx2")
        assert name("fpu sse2 avx2") != name("fpu sse2 avx2 avx512f")

    def test_host_features_are_read(self):
        assert _backend_cffi._cpu_features().strip()


class TestKernelLookup:
    def test_numpy_backend_has_no_compiled_kernels(self):
        assert not NUMPY.compiled
        assert NUMPY.capabilities == frozenset()
        for cap in CAPABILITIES:
            assert backends.kernel(cap, "numpy") is None

    def test_capability_not_advertised_returns_none(self):
        active = get_backend()
        for cap in CAPABILITIES:
            assert (backends.kernel(cap) is None) == (
                cap not in active.capabilities
            )

    def test_unknown_capability_raises(self):
        with pytest.raises(ValueError, match="unknown capability"):
            backends.kernel("warp_shuffle")

    @needs_cffi
    def test_cffi_serves_its_kernel_table(self):
        table = _backend_cffi.kernels()
        for cap in CAPABILITIES:
            assert backends.kernel(cap, "cffi") is table[cap]


@needs_cffi
class TestPackedGemmShapes:
    """The C loop trusts its extents, so the wrapper must check them."""

    ONES = 2**64 - 1

    def test_b_narrower_than_a_raises(self):
        a = np.full((1, 4), self.ONES, dtype=np.uint64)
        b = np.full((1, 1), self.ONES, dtype=np.uint64)
        with pytest.raises(ValueError, match="do not match"):
            backends.kernel("packed_gemm", "cffi")(a, b, 1, 1, 1, 1, True)

    def test_missing_plane_raises(self):
        a = np.full((1, 2), self.ONES, dtype=np.uint64)
        b = np.full((1, 2), self.ONES, dtype=np.uint64)
        with pytest.raises(ValueError, match="do not match"):
            backends.kernel("packed_gemm", "cffi")(a, b, 2, 1, 1, 1, True)
        with pytest.raises(ValueError, match="do not match"):
            backends.kernel("packed_gemm", "cffi")(a, b, 1, 1, 2, 1, True)

    def test_matching_shapes_run(self):
        a = np.full((2, 2), self.ONES, dtype=np.uint64)
        b = np.full((3, 2), self.ONES, dtype=np.uint64)
        out = backends.kernel("packed_gemm", "cffi")(a, b, 2, 1, 1, 3, True)
        # 128 set bits per row pair, planes weighted 1 and 2
        assert out.tolist() == [[384, 384, 384]]


class TestResolveDispatch:
    def test_reference_strategies_pin_numpy(self):
        for strategy in ("integer", "bitserial"):
            resolved_strategy, b = resolve_dispatch(strategy)
            assert resolved_strategy == strategy
            assert b is NUMPY

    def test_reference_strategy_rejects_compiled_backend(self):
        with pytest.raises(ValueError, match="valid combinations"):
            resolve_dispatch("bitserial", "cffi", kernel_name="apmm")

    def test_unknown_strategy_enumerates_combinations(self):
        with pytest.raises(ValueError) as exc:
            resolve_dispatch("bogus", kernel_name="apconv")
        msg = str(exc.value)
        assert msg.startswith("apconv: unknown strategy")
        assert "packed x (numpy/cffi)" in msg

    def test_backend_name_is_not_a_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_dispatch("cffi")

    @needs_cffi
    def test_packed_resolves_through_backend_precedence(self):
        strategy, b = resolve_dispatch("packed")
        assert (strategy, b) == ("packed", CFFI)
        assert resolve_dispatch("packed", "numpy")[1] is NUMPY

    def test_strategies_tuple_is_the_public_contract(self):
        assert STRATEGIES == ("packed", "integer", "bitserial")


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _imports_backends(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module.endswith("backends") or (
                "backends" in names and module in ("", "core", "repro.core")
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.endswith("core.backends") for a in node.names):
                return True
    return False


class TestLayering:
    """Pricing never runs a kernel, so it must not reach the kernel tier."""

    @pytest.mark.parametrize("part", ["nn", "serve", "tensorcore"])
    def test_pricing_layers_do_not_import_backends(self, part):
        root = SRC / part
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        offenders = [
            str(f.relative_to(SRC)) for f in files if _imports_backends(f)
        ]
        assert offenders == []
