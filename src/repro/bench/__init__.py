"""repro.bench: micro-benchmark subsystem + CI regression gate.

Times the vectorized packed-word backend (:mod:`repro.core.packed`, the
``"packed"`` kernel strategy) against the plane-wise reference
(:func:`repro.core.emulate.apbit_matmul`, the ``"bitserial"`` strategy)
on three suites:

* **gemm** -- raw APMM problems across the paper's ``wXaY`` pairs;
* **conv** -- APConv problems through the full kernel entry point
  (im2col + padding plan + packed GEMM vs the plane-wise path);
* **serving** -- the exact (implicit-)GEMMs a served model dispatches,
  pulled from :meth:`repro.nn.engine.InferenceEngine.gemm_problems` and
  priced through the serving layer's :class:`repro.serve.PlanCache`, so
  the numbers CI tracks are the shapes production traffic runs.

Every run is **self-checking**: each timed kernel's packed output must be
byte-identical to the reference or the run fails.  Results serialize to a
versioned JSON document (``BENCH_kernels.json``); the committed copy under
``benchmarks/baselines/`` is the regression baseline.  The gate compares
*speedup ratios* (packed vs reference measured in the same process on the
same machine), not absolute wall times, so it is robust to CI hardware
changing under it; a tracked kernel whose speedup drops more than the
tolerance (default 25%) below its committed baseline fails the run, as
does a gemm-suite geometric-mean speedup below the floor (default 10x).

The packed side of every row is the default path of the running
interpreter: where the compiled ``cffi`` kernel backend
(:mod:`repro.core.backends`) loads, gemm and serving rows time the
route the host cost model (:class:`repro.core.packed.HostProduct`)
prices lowest -- the compiled popcount GEMM or the BLAS fold.  With
cffi, every conv kernel additionally times the full conv entry point on
``backend="numpy"`` (im2col + fold) against ``backend="cffi"`` (the
packed window gather or, on an AVX-512 VNNI build, the int8 conv where
the model prefers it, else the same fold).
The gate then also requires byte-identity between the two and, above
the smoke tier, a compiled geometric mean no slower than numpy.  Runs
without cffi simply omit the comparison; the gate skips those checks.

CLI (see ``python -m repro.bench --help``)::

    python -m repro.bench --fast                 # CI entry point
    python -m repro.bench --update-baseline      # refresh committed numbers
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core import backends
from ..core.emulate import apbit_matmul
from ..core.packed import packed_matmul
from ..core.types import PrecisionPair

__all__ = [
    "SCHEMA_VERSION",
    "RESULT_FILENAME",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MIN_GEMM_SPEEDUP",
    "GemmSpec",
    "ConvSpec",
    "KernelResult",
    "BenchReport",
    "gemm_suite",
    "conv_suite",
    "serving_suite",
    "run_suite",
    "merge_best",
    "check_report",
    "load_report",
    "geomean",
]

#: Bump when the JSON layout changes; the checker refuses mismatched
#: baselines instead of comparing apples to oranges.
#:
#: v2: per-kernel numpy-vs-compiled comparison fields
#: (``numpy_path_us`` / ``compiled_*``, filled on conv rows) and their
#: summary geomean.
SCHEMA_VERSION = 2

RESULT_FILENAME = "BENCH_kernels.json"

#: Committed baseline the CI gate compares against.  Anchored on the
#: package location (src/repro/bench -> repo root), not the cwd, so the
#: gate finds it no matter where the CLI is invoked from.
DEFAULT_BASELINE_PATH = (
    Path(__file__).resolve().parents[3]
    / "benchmarks" / "baselines" / RESULT_FILENAME
)

#: A tracked kernel may lose this fraction of its baseline speedup before
#: the gate fails (ratios, not wall times -- machine-robust).
DEFAULT_TOLERANCE = 0.25

#: Floor on the gemm suite's geometric-mean packed-vs-reference speedup.
DEFAULT_MIN_GEMM_SPEEDUP = 10.0


# ----------------------------------------------------------------------
# kernel specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GemmSpec:
    """One timed APMM problem."""

    suite: str  # "gemm" | "serving"
    pair: str   # "wXaY" (weights bipolar, activations unsigned)
    m: int
    n: int
    k: int
    label: str = ""

    @property
    def id(self) -> str:
        tag = f"-{self.label}" if self.label else ""
        return f"{self.suite}-{self.pair}-{self.m}x{self.n}x{self.k}{tag}"


@dataclass(frozen=True)
class ConvSpec:
    """One timed APConv problem (full kernel entry: im2col + padding)."""

    pair: str
    batch: int
    cin: int
    cout: int
    hw: int
    kernel: int = 3
    stride: int = 1
    padding: int = 1

    @property
    def suite(self) -> str:
        return "conv"

    @property
    def id(self) -> str:
        return (
            f"conv-{self.pair}-b{self.batch}c{self.cin}-{self.cout}"
            f"@{self.hw}k{self.kernel}s{self.stride}"
        )


@dataclass
class KernelResult:
    """Timed packed-vs-reference outcome of one kernel.

    The ``numpy_path_us`` / ``compiled_*`` fields (schema v2) compare the
    numpy and compiled executions of the full conv entry point.  They
    stay ``None`` on gemm/serving rows and on runs without cffi, and the
    gate then skips the compiled checks.
    """

    id: str
    suite: str
    pair: str
    dims: dict[str, int]
    reference_us: float
    packed_us: float
    speedup: float
    identical: bool
    repeats: int
    numpy_path_us: float | None = None
    compiled_backend: str | None = None
    compiled_us: float | None = None
    compiled_speedup: float | None = None
    compiled_identical: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class BenchReport:
    """A full run: results + summary, JSON round-trippable."""

    suite: str  # "fast" | "full" | "smoke"
    repeats: int
    kernels: list[KernelResult]
    serving: list[dict[str, Any]]
    host: dict[str, str]

    @property
    def gemm_speedups(self) -> list[float]:
        return [r.speedup for r in self.kernels if r.suite == "gemm"]

    @property
    def compiled_speedups(self) -> list[float]:
        return [
            r.compiled_speedup
            for r in self.kernels
            if r.compiled_speedup is not None
        ]

    def summary(self) -> dict[str, float]:
        speedups = [r.speedup for r in self.kernels]
        out = {
            "geomean_speedup": geomean(speedups),
            "gemm_geomean_speedup": geomean(self.gemm_speedups),
            "min_speedup": min(speedups) if speedups else 0.0,
            "max_speedup": max(speedups) if speedups else 0.0,
        }
        if self.compiled_speedups:
            out["compiled_geomean_speedup"] = geomean(self.compiled_speedups)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "repeats": self.repeats,
            "host": self.host,
            "kernels": [r.to_dict() for r in self.kernels],
            "serving": self.serving,
            "summary": self.summary(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
#: The paper's headline precision pairs (Fig. 5/6 sweep order).
_PAPER_PAIRS = ("w1a2", "w2a2", "w1a4", "w2a4", "w4a4", "w2a8")


def gemm_suite(tier: str = "fast") -> list[GemmSpec]:
    """Raw APMM problems across ``wXaY`` pairs.

    Shapes follow the paper's GEMM sweep (square-ish, K-heavy) at sizes
    where the plane-wise reference's ``(p, q, M, N, words)`` broadcast is
    the dominant cost -- the regime the packed backend exists to fix.
    """
    if tier == "smoke":
        return [GemmSpec("gemm", "w1a2", 32, 32, 128),
                GemmSpec("gemm", "w2a2", 32, 32, 128)]
    shapes = [(256, 256, 2048)] if tier == "fast" else [
        (256, 256, 2048), (512, 512, 4096), (64, 1024, 1024),
    ]
    return [
        GemmSpec("gemm", pair, m, n, k)
        for (m, n, k) in shapes
        for pair in _PAPER_PAIRS
    ]


def conv_suite(tier: str = "fast") -> list[ConvSpec]:
    """APConv problems through the full kernel entry point."""
    if tier == "smoke":
        return [ConvSpec("w1a2", batch=1, cin=8, cout=8, hw=8)]
    specs = [
        ConvSpec("w1a2", batch=4, cin=64, cout=64, hw=28),
        ConvSpec("w2a2", batch=4, cin=64, cout=128, hw=14),
        # ResNet-18-shaped w2a4 convs on each side of the host cost
        # model's decision: on the AVX-512 micro-kernel without VNNI the
        # 3x3 stride-1 conv takes the gather, and the 1x1 stride-2 conv,
        # whose windows read one pixel in four, stays on im2col + fold;
        # with VNNI both take the int8 path, and so does the w2a2 row
        ConvSpec("w2a4", batch=2, cin=64, cout=64, hw=28),
        ConvSpec("w2a4", batch=4, cin=64, cout=128, hw=28,
                 kernel=1, stride=2, padding=0),
    ]
    if tier == "full":
        specs.append(ConvSpec("w2a8", batch=8, cin=128, cout=128, hw=14))
    return specs


def serving_suite(
    tier: str = "fast",
) -> tuple[list[GemmSpec], list[dict[str, Any]]]:
    """GEMMs a served model dispatches, via the engine and the plan cache.

    Compiles the model through :class:`repro.serve.PlanCache` (the same
    memoized path the serving workers use), prices the plan, and returns
    one spec per distinct GEMM problem of the network plus per-model
    metadata (modeled latency, plan-cache stats) for the report.
    """
    if tier == "smoke":
        return [], []
    from ..nn.engine import APNNBackend, InferenceEngine
    from ..nn.models import MODEL_BUILDERS
    from ..serve.plan_cache import PlanCache

    configs = [("AlexNet", "w1a2", 4)]
    if tier == "full":
        configs.append(("AlexNet", "w2a8", 8))

    cache = PlanCache()
    specs: list[GemmSpec] = []
    meta: list[dict[str, Any]] = []
    seen: set[str] = set()
    for model_name, pair_name, batch in configs:
        model = MODEL_BUILDERS[model_name]()
        engine = InferenceEngine(
            model, APNNBackend(pair=PrecisionPair.parse(pair_name))
        )
        plan = cache.get(engine, batch)
        modeled_us = cache.total_us(engine, batch)
        problems = engine.gemm_problems(batch)
        meta.append({
            "model": model_name,
            "pair": pair_name,
            "batch": batch,
            "modeled_total_us": modeled_us,
            "kernel_launches": plan.kernel_launches,
            "gemm_problems": len(problems),
            "plan_cache_hit_rate": cache.stats().hit_rate,
        })
        for prob in problems:
            # first layers run 8-bit activations on 3-channel inputs --
            # enormous N with tiny K; keep the fast tier bounded.
            if tier == "fast" and prob.m * prob.n * prob.k > 1 << 28:
                continue
            spec = GemmSpec(
                "serving", f"w{prob.w_bits}a{prob.a_bits}",
                prob.m, prob.n, prob.k,
                label=f"{model_name}.{prob.layer}",
            )
            if spec.id not in seen:
                seen.add(spec.id)
                specs.append(spec)
    return specs, meta


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _best_of(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-N wall time in microseconds, plus the last return value."""
    best = math.inf
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6, value


def _compiled_compare(
    run: Callable[[str], np.ndarray],
    ref_out: np.ndarray,
    repeats: int,
) -> dict[str, Any]:
    """Time ``run(backend_name)`` numpy-vs-compiled on the same path.

    Returns the schema-v2 ``KernelResult`` field values, or ``{}`` when
    cffi does not load.  Identity is checked against both the numpy
    execution *and* the plane-wise reference.
    """
    cb = backends.get_backend()
    if not cb.compiled:
        return {}
    numpy_us, numpy_out = _best_of(lambda: run("numpy"), repeats)
    compiled_us, compiled_out = _best_of(lambda: run(cb.name), repeats)
    return {
        "numpy_path_us": numpy_us,
        "compiled_backend": cb.name,
        "compiled_us": compiled_us,
        "compiled_speedup": numpy_us / compiled_us if compiled_us else 0.0,
        "compiled_identical": bool(
            np.array_equal(numpy_out, compiled_out)
            and np.array_equal(compiled_out, ref_out)
        ),
    }


def _run_gemm(spec: GemmSpec, rng: np.random.Generator, repeats: int) -> KernelResult:
    pair = PrecisionPair.parse(spec.pair)
    w = pair.weight.random_digits(rng, (spec.m, spec.k))
    x = pair.activation.random_digits(rng, (spec.n, spec.k))
    ref_us, ref_out = _best_of(
        lambda: apbit_matmul(w, x, pair.weight, pair.activation), repeats
    )
    packed_us, packed_out = _best_of(
        lambda: packed_matmul(w, x, pair.weight, pair.activation), repeats
    )
    return KernelResult(
        id=spec.id,
        suite=spec.suite,
        pair=spec.pair,
        dims={"m": spec.m, "n": spec.n, "k": spec.k},
        reference_us=ref_us,
        packed_us=packed_us,
        speedup=ref_us / packed_us if packed_us else 0.0,
        identical=bool(np.array_equal(ref_out, packed_out)),
        repeats=repeats,
    )


def _run_conv(spec: ConvSpec, rng: np.random.Generator, repeats: int) -> KernelResult:
    from ..kernels.apconv import apconv
    from ..kernels.autotune import autotune
    from ..perf.cost import conv_gemm_dims
    from ..tensorcore.device import RTX3090

    pair = PrecisionPair.parse(spec.pair)
    w = pair.weight.random_digits(
        rng, (spec.cout, spec.cin, spec.kernel, spec.kernel)
    )
    x = pair.activation.random_digits(
        rng, (spec.batch, spec.cin, spec.hw, spec.hw)
    )
    # autotune once outside the timed region so both strategies run the
    # same tile config and the clock sees only kernel execution
    m, n_gemm, _ = conv_gemm_dims(
        spec.batch, spec.cin, spec.cout, spec.hw, spec.hw,
        spec.kernel, spec.stride, spec.padding,
    )
    cfg = autotune(
        m, n_gemm, pair.weight.bits, pair.activation.bits, RTX3090
    ).config

    def run(strategy: str, backend: str | None = None):
        return apconv(
            w, x, pair.weight, pair.activation,
            stride=spec.stride, padding=spec.padding,
            config=cfg, strategy=strategy, backend=backend,
        ).output

    ref_us, ref_out = _best_of(lambda: run("bitserial"), repeats)
    packed_us, packed_out = _best_of(lambda: run("packed"), repeats)
    # full conv entry point: cffi swaps the im2col digit-matrix
    # materialization for the packed-window gather where the dispatch
    # prefers it
    compiled = _compiled_compare(
        lambda backend: run("packed", backend), ref_out, repeats
    )
    return KernelResult(
        id=spec.id,
        suite="conv",
        pair=spec.pair,
        dims={
            "batch": spec.batch, "cin": spec.cin, "cout": spec.cout,
            "hw": spec.hw, "kernel": spec.kernel,
            "stride": spec.stride, "padding": spec.padding,
        },
        reference_us=ref_us,
        packed_us=packed_us,
        speedup=ref_us / packed_us if packed_us else 0.0,
        identical=bool(np.array_equal(ref_out, packed_out)),
        repeats=repeats,
        **compiled,
    )


def run_suite(tier: str = "fast", *, repeats: int = 3, seed: int = 0) -> BenchReport:
    """Run every suite at the given tier; see the module docstring."""
    if tier not in ("smoke", "fast", "full"):
        raise ValueError(f"unknown tier {tier!r}; choose smoke/fast/full")
    rng = np.random.default_rng(seed)
    serving_specs, serving_meta = serving_suite(tier)
    kernels: list[KernelResult] = []
    for spec in gemm_suite(tier) + serving_specs:
        kernels.append(_run_gemm(spec, rng, repeats))
    for cspec in conv_suite(tier):
        kernels.append(_run_conv(cspec, rng, repeats))
    return BenchReport(
        suite=tier,
        repeats=repeats,
        kernels=kernels,
        serving=serving_meta,
        host={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
    )


def merge_best(first: BenchReport, second: BenchReport) -> BenchReport:
    """Per-kernel best-ratio merge of two runs of the same suite.

    Timing-flake mitigation for the gate: a regression verdict is only
    upheld if it reproduces, so the merged report keeps whichever run
    measured the better speedup for each kernel.  Byte-identity is the
    opposite -- a violation in *either* run is a real bug and survives
    the merge.
    """
    by_id = {r.id: r for r in second.kernels}
    merged: list[KernelResult] = []
    for a in first.kernels:
        b = by_id.get(a.id)
        if b is None:
            merged.append(a)
            continue
        pick = KernelResult(**asdict(a if a.speedup >= b.speedup else b))
        pick.identical = a.identical and b.identical
        # compiled comparison merges the same way: best ratio, identity
        # violations survive; a run without compiled data contributes
        # neither
        with_compiled = [
            r for r in (a, b) if r.compiled_speedup is not None
        ]
        if with_compiled:
            best = max(with_compiled, key=lambda r: r.compiled_speedup or 0.0)
            pick.numpy_path_us = best.numpy_path_us
            pick.compiled_backend = best.compiled_backend
            pick.compiled_us = best.compiled_us
            pick.compiled_speedup = best.compiled_speedup
            pick.compiled_identical = all(
                r.compiled_identical for r in with_compiled
            )
        merged.append(pick)
    return BenchReport(
        suite=first.suite,
        repeats=first.repeats,
        kernels=merged,
        serving=first.serving,
        host=first.host,
    )


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def load_report(path: Path) -> dict[str, Any]:
    """Load a serialized report/baseline, validating the schema version."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path} has schema {data.get('schema')!r}; "
            f"this build writes schema {SCHEMA_VERSION}"
        )
    return data


def check_report(
    report: BenchReport,
    baseline: Mapping[str, Any] | None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_gemm_speedup: float = DEFAULT_MIN_GEMM_SPEEDUP,
) -> list[str]:
    """The CI gate: return a list of failures (empty means pass).

    * any kernel whose packed output was not byte-identical;
    * gemm-suite geometric-mean speedup below ``min_gemm_speedup``;
    * when the run carries compiled-vs-numpy data (conv rows with cffi):
      any kernel where the compiled output was not byte-identical, and
      -- except on the smoke tier, whose shapes are too tiny for a
      meaningful ratio -- a compiled geomean below 1.0 (the compiled
      backend must never be a pessimization);
    * with a baseline: any tracked kernel whose measured speedup fell more
      than ``tolerance`` below its committed speedup, and any committed
      kernel that disappeared from the run (silent coverage loss).

    Baseline ratio tracking deliberately covers only the numpy
    ``speedup`` column: compiled timings depend on the host toolchain,
    so the compiled gate is an absolute floor, not a baseline diff.
    """
    failures: list[str] = []
    for r in report.kernels:
        if not r.identical:
            failures.append(
                f"{r.id}: packed output NOT byte-identical to the "
                "plane-wise reference"
            )
        if r.compiled_identical is False:
            failures.append(
                f"{r.id}: compiled ({r.compiled_backend}) output NOT "
                "byte-identical to the numpy path"
            )
    gg = geomean(report.gemm_speedups)
    if report.gemm_speedups and gg < min_gemm_speedup:
        failures.append(
            f"gemm suite geomean speedup {gg:.1f}x below the "
            f"{min_gemm_speedup:.0f}x floor"
        )
    # compiled byte-identity above is never waived
    if report.compiled_speedups and report.suite != "smoke":
        cg = geomean(report.compiled_speedups)
        if cg < 1.0:
            failures.append(
                f"compiled backend geomean {cg:.2f}x vs numpy -- the "
                "compiled path must not be slower than the numpy path"
            )
    if baseline is not None:
        measured = {r.id: r for r in report.kernels}
        for entry in baseline.get("kernels", []):
            kid = entry["id"]
            if kid not in measured:
                failures.append(
                    f"{kid}: tracked in the baseline but missing from this "
                    "run (suite shrank -- update the baseline deliberately)"
                )
                continue
            floor = entry["speedup"] * (1.0 - tolerance)
            got = measured[kid].speedup
            if got < floor:
                failures.append(
                    f"{kid}: speedup regressed to {got:.2f}x "
                    f"(baseline {entry['speedup']:.2f}x, floor "
                    f"{floor:.2f}x at {tolerance:.0%} tolerance)"
                )
    return failures
