"""Run one benchmark workload in this process and print its result.

Started by ``run.py``, which pins BLAS threads, points the cffi build
cache into the checkout, warms it, and puts ``src`` and this directory
on ``PYTHONPATH``.  The last line of standard output is the result
object; the lines before it print every metric with its unit and the
run facts.  The exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_T_PROCESS = float(os.environ.get("PERFBENCH_SPAWNED_AT", time.monotonic()))

import numpy as np  # noqa: E402

from repro.core import PrecisionPair, backends  # noqa: E402
from repro.nn import APNNBackend, alexnet, resnet18  # noqa: E402
from repro.obs import Tracer, write_chrome_trace, write_jsonl  # noqa: E402
from repro.serve import PlanCache  # noqa: E402
from repro.tensorcore import RTX3090  # noqa: E402

import qnet  # noqa: E402
import serving  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build"

#: Set-ups per run; ``setup_s`` and the ``setup.*`` split are medians.
#: The first precedes the timed loop and the rest follow it, one network
#: in memory at a time, so the median spans the run rather than its first
#: seconds, which one slow phase of a shared host can cover.
SETUPS = 3
#: Phase-1 replays of the serving trace after its timed loop.
REPLAYS = 2
#: Requests of the trace the serving set-up replays to warm up: enough to
#: run every code path, few enough that set-up time is not mostly Python
#: bookkeeping, the work whose speed a shared host varies most.
WARMUP_REQUESTS = 2_000
#: Distinct seeded image batches the timed forwards cycle through.  The
#: integer reference costs about 8 s per batch on 2 vCPUs, so the pool
#: stays small.
POOL = 1
INPUT_SIZE = 224
#: Completions per window of the serving rate (one forward is one window
#: of a forward workload).
RATE_WINDOW = 1000


@dataclass(frozen=True)
class ForwardSpec:
    builder: object
    activation_bits: int
    pair: str
    batch: int


FORWARDS = {
    "alexnet-w1a2": ForwardSpec(alexnet, 2, "w1a2", 8),
    "resnet18-w2a4": ForwardSpec(resnet18, 4, "w2a4", 4),
}
WORKLOADS = (*FORWARDS, "serve-poisson")

#: Fused GEMM groups of both networks, in plan order; every traced run
#: reports all of them (0 for the other network's groups).
ALEXNET_GROUPS = (
    "00-conv1", "01-conv2", "02-conv3", "03-conv4", "04-conv5",
    "05-fc6", "06-fc7", "07-fc8",
)
RESNET18_GROUPS = (
    "00-conv1",
    "01-conv64-64k3s1", "02-conv64-64k3s1", "03-conv64-64k3s1",
    "04-conv64-64k3s1",
    "05-conv64-128k3s2", "06-conv64-128k1s2", "07-conv128-128k3s1",
    "08-conv128-128k3s1", "09-conv128-128k3s1",
    "10-conv128-256k3s2", "11-conv128-256k1s2", "12-conv256-256k3s1",
    "13-conv256-256k3s1", "14-conv256-256k3s1",
    "15-conv256-512k3s2", "16-conv256-512k1s2", "17-conv512-512k3s1",
    "18-conv512-512k3s1", "19-conv512-512k3s1",
    "20-fc",
)
GROUP_LABELS = tuple(dict.fromkeys(ALEXNET_GROUPS + RESNET18_GROUPS))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}

#: Printed beside the gated metrics, not gated: the per-workload
#: timings (in these closed loops latency is the work in flight divided
#: by the rate, and its median moves with the host's slow phases), the
#: output check and the modeled serving outcome.
REPORT_UNITS = {
    "failed_frac": "ratio",
    "images_per_s": "img/s",
    "forward_ms_p50": "ms",
    "forward_ms_tail": "ms",
    "forward_ms_tail_percentile": "%",
    "forward_ms_samples": "count",
    "serve_rps": "req/s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "request_ms_tail_percentile": "%",
    "request_ms_samples": "count",
    "sim_p50_ms": "modeled-ms",
    "sim_p99_ms": "modeled-ms",
    "sim_slo_met_frac": "ratio",
    "sim_max_rate_rps": "modeled-req/s",
}

PER_LAYER_UNITS = {
    "kernels.apmm_ms": "ms",
    "kernels.gather_ms": "ms",
    "kernels.conv_fold_ms": "ms",
    "kernels.first_layer_ms": "ms",
    "kernels.weight_mb": "MB",
    "kernels.gmac_per_s": "GMAC/s",
    "quantize.input_ms": "ms",
    "epilogue_ms": "ms",
    "modeled_ratio": "ratio",
    "setup.model_build_s": "s",
    "setup.weight_quantize_s": "s",
    "setup.plan_compile_s": "s",
    "setup.calibrate_s": "s",
    "setup.prewarm_s": "s",
    "serve.scheduler_us_per_req": "us",
    "gateway.us_per_req": "us",
    "serve.batches": "count",
    "serve.requests_per_batch": "count",
    "serve.deadline_misses": "count",
    "plan_cache.compiles": "count",
    "plan_cache.hit_rate": "ratio",
    "gateway.ws_backpressure_waits": "count",
    "gateway.ws_send_queue_high_water": "count",
    "trace.overhead_frac": "ratio",
    **{f"group.{g}.ms": "ms" for g in GROUP_LABELS},
}

SETUP_KEYS = (
    "model_build_s", "weight_quantize_s", "plan_compile_s", "calibrate_s",
    "prewarm_s",
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile of ``values`` with
    at least ten samples beyond it (the maximum below eleven samples)."""
    data = sorted(values)
    n = len(data)
    if n <= 10:
        return data[-1], 100.0, n
    return data[n - 11], 100.0 * (n - 10) / n, n


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover (µs)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent_id:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start_us
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_us):
            lo, hi = max(c.start_us, edge), min(c.end_us, s.end_us)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.span_id] = s.duration_us - covered
    return out


def fast_rate(rates: list[float]) -> float:
    """The 90th percentile of per-window rates: the program's rate in the
    run's faster phases.  A shared host can run memory-bound Python at
    half speed for tens of seconds; a slow phase lowers this only when it
    covers nearly the whole run, where it would move a median or an
    overall rate whenever it covers half."""
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=10)[8]


def window_rates(done_s: list[float]) -> list[float]:
    """Completions per second over consecutive runs of ``RATE_WINDOW``
    completions (``done_s``: completion stamps in seconds)."""
    done = sorted(done_s)
    return [
        RATE_WINDOW / (done[i + RATE_WINDOW] - done[i])
        for i in range(0, len(done) - RATE_WINDOW, RATE_WINDOW)
    ]


def median_setup(setups: list[dict]) -> dict[str, float]:
    return {
        key: statistics.median(s.get(key, 0.0) for s in setups)
        for key in ("total_s", *SETUP_KEYS)
    }


# ----------------------------------------------------------------------
# run facts
# ----------------------------------------------------------------------
def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """The checked-out commit when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_facts(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    active = backends.get_backend()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": active.name,
        "kernel_backend_capabilities": sorted(active.capabilities),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# forward workloads
# ----------------------------------------------------------------------
def make_images(seed: int, batch: int, count: int) -> list[np.ndarray]:
    """Seeded synthetic 8-bit RGB batches, as floats in [0, 1]."""
    rng = np.random.default_rng(seed)
    shape = (batch, 3, INPUT_SIZE, INPUT_SIZE)
    return [
        rng.integers(0, 256, size=shape, dtype=np.uint8) / 255.0
        for _ in range(count)
    ]


def digest(logits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()


def setup_forward(spec: ForwardSpec, calib: np.ndarray, warm: np.ndarray):
    """Model build, weight quantization, plan compile, calibration and
    one warm-up forward; returns ``(net, timings)``."""
    t0 = time.perf_counter()
    model = spec.builder(activation_bits=spec.activation_bits,
                         input_size=INPUT_SIZE)
    t1 = time.perf_counter()
    backend = APNNBackend(PrecisionPair.parse(spec.pair))
    cache = PlanCache()
    net, timings = qnet.prepare(
        model, backend, RTX3090, spec.batch, INPUT_SIZE, cache
    )
    t2 = time.perf_counter()
    qnet.forward(net, calib, calibrate=True)
    t3 = time.perf_counter()
    qnet.forward(net, warm)
    t4 = time.perf_counter()
    timings.update(
        model_build_s=t1 - t0, calibrate_s=t3 - t2, total_s=t4 - t0,
        cache=cache.stats(),
    )
    return net, timings


def forward_layers(tracer: Tracer, net, forwards: int) -> dict[str, float]:
    spans = tracer.spans
    own = self_times(spans)
    kinds = {"apmm": 0.0, "gather": 0.0, "conv_fold": 0.0, "first_layer": 0.0}
    phases = {"quantize": 0.0, "epilogue": 0.0}
    groups = dict.fromkeys(GROUP_LABELS, 0.0)
    macs = kernel_us = 0.0
    for s in spans:
        if s.phase == "kernel":
            kinds[s.attributes["kind"]] += own[s.span_id]
            kernel_us += own[s.span_id]
            macs += s.attributes["macs"]
        elif s.phase in phases:
            phases[s.phase] += own[s.span_id]
        elif s.phase == "group":
            groups[s.attributes["label"]] += s.duration_us
    per = 1e3 * forwards  # µs summed over forwards -> ms per forward
    out = {f"kernels.{k}_ms": v / per for k, v in kinds.items()}
    out.update({
        "kernels.weight_mb": net.weight_bytes / 2**20,
        "kernels.gmac_per_s": macs / kernel_us / 1e3,
        "quantize.input_ms": phases["quantize"] / per,
        "epilogue_ms": phases["epilogue"] / per,
        "modeled_ratio": kernel_us / forwards / net.modeled_us,
    })
    for label in GROUP_LABELS:
        out[f"group.{label}.ms"] = groups[label] / per
    return out


def run_forward(args) -> dict:
    spec = FORWARDS[args.workload]
    calib, *pool = make_images(args.seed, spec.batch, 1 + POOL)

    net, timings = setup_forward(spec, calib, pool[0])
    setups = [timings]

    tracer = Tracer() if args.trace else None
    rec = None if tracer is None else qnet.Recorder(tracer, args.workload)
    times = {False: [], True: []}  # traced? -> forward seconds
    checks = []  # (pool index, digest)
    i = 0
    loop_t0 = time.perf_counter()
    deadline = loop_t0 + args.seconds
    while i < 2 or time.perf_counter() < deadline:
        traced = rec is not None and i % 2 == 1
        b = i % POOL
        t0 = time.perf_counter()
        logits = qnet.forward(net, pool[b], rec=rec if traced else None)
        times[traced].append(time.perf_counter() - t0)
        checks.append((b, digest(logits)))
        i += 1
    loop_s = time.perf_counter() - loop_t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # reference: same composed forward on the integer/numpy kernels
    ref = [
        digest(qnet.forward(net, images, strategy="integer", backend="numpy"))
        for images in pool
    ]
    failed = sum(1 for b, d in checks if d != ref[b])
    modeled_us = {s.label: s.modeled_us for s in net.steps}
    layers = None if tracer is None else forward_layers(
        tracer, net, len(times[True])
    )
    net = None
    for _ in range(SETUPS - 1):
        gc.collect()
        setups.append(setup_forward(spec, calib, pool[0])[1])
    setup = median_setup(setups)

    plain = times[False]
    value, pct, n = tail(t * 1e3 for t in plain)
    result = {
        "attempted": len(checks),
        "failed": failed,
        "setup": setup,
        "reference_digests": ref,
        "forward_s": plain,
        # the cost model's price of each group, beside its measured ms
        "modeled_us": modeled_us,
        "end_to_end": {
            "setup_s": setup["total_s"],
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": fast_rate([spec.batch / t for t in plain]),
        },
        "report": {
            "failed_frac": failed / len(checks),
            "images_per_s": spec.batch * len(checks) / loop_s,
            "forward_ms_p50": statistics.median(plain) * 1e3,
            "forward_ms_tail": value,
            "forward_ms_tail_percentile": pct,
            "forward_ms_samples": n,
        },
    }
    if tracer is not None:
        cache = setups[0]["cache"]
        layers.update({f"setup.{k}": setup[k] for k in SETUP_KEYS})
        layers.update({
            "plan_cache.compiles": float(cache.compiles),
            "plan_cache.hit_rate": cache.hit_rate,
            "trace.overhead_frac": (
                statistics.median(times[True]) / statistics.median(plain) - 1.0
            ),
        })
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
async def setup_serve(trace):
    """Model build, prewarm (plan compiles) and a warm-up replay of the
    trace's first ``WARMUP_REQUESTS`` requests."""
    t0 = time.perf_counter()
    models = serving.build_models()
    t1 = time.perf_counter()
    dep = serving.deployment(models)
    await serving.prewarm(dep)
    t2 = time.perf_counter()
    await serving.replay_pass(dep, trace[:WARMUP_REQUESTS])
    t3 = time.perf_counter()
    timings = {
        "model_build_s": t1 - t0,
        "prewarm_s": t2 - t1,
        "plan_compile_s": dep.plan_cache.stats().compile_us / 1e6,
        "total_s": t3 - t0,
    }
    return dep, timings


async def run_serve_async(args) -> dict:
    trace = serving.make_trace(args.seed)
    frames = serving.encode_frames(trace, args.seed)

    dep, timings = await setup_serve(trace)
    setups = [timings]

    tracer = Tracer() if args.trace else None
    problems: list[str] = []
    streams = {False: [], True: []}  # traced? -> [StreamOutcome]
    i = 0
    deadline = time.perf_counter() + args.seconds
    while i < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        # each pass starts from the same collector state, so garbage left
        # by the previous pass is not charged to this one
        gc.collect()
        stream = await serving.stream_pass(dep, frames, args.seed)
        streams[traced].append(stream)
        problems += stream.problems
        if traced:
            record_stream_spans(tracer, stream)
        i += 1

    # phase 1, after the timed loop: every replay must repeat the first
    # one's modeled outcome, and its wall time is the serving core's
    replays = []
    for r in range(REPLAYS):
        gc.collect()
        rep = await serving.replay_pass(dep, trace)
        replays.append(rep)
        if rep.digest != replays[0].digest:
            problems.append(f"replay {r}: modeled results differ")
        if len(rep.results) != len(trace):
            problems.append(f"replay {r}: {len(rep.results)} results")
        problems += serving.invariant_problems(rep.snapshot)
        if tracer is not None:
            tracer.span("phase1 replay", "serve.replay", rep.start_s * 1e6,
                        rep.end_s * 1e6, track="wall", lane="serve",
                        requests=len(rep.results))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = replays[0]
    sim = serving.sim_summary(first.results, len(trace))
    sim["sim_max_rate_rps"] = await serving.max_rate(dep, args.seed)
    layers = None if tracer is None else serve_layers(tracer, streams, first, dep)
    dep = None
    for _ in range(SETUPS - 1):
        gc.collect()
        setups.append((await setup_serve(trace))[1])
    setup = median_setup(setups)

    attempted = REPLAYS * len(trace) + sum(
        s.requests for group in streams.values() for s in group
    )
    plain = streams[False]
    rates = [r for s in plain for r in window_rates([d for _, d in s.stamps_s])]
    latencies = [x * 1e3 for s in plain for x in s.latencies_s]
    value, pct, n = tail(latencies)
    result = {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "setup": setup,
        "replay_digest": first.digest,
        "window_rates": rates,
        "end_to_end": {
            "setup_s": setup["total_s"],
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": fast_rate(rates),
        },
        "report": {
            "failed_frac": len(problems) / attempted,
            "serve_rps": (
                sum(s.requests for s in plain) / sum(s.wall_s for s in plain)
            ),
            "request_ms_p50": statistics.median(latencies),
            "request_ms_tail": value,
            "request_ms_tail_percentile": pct,
            "request_ms_samples": n,
            **sim,
        },
    }
    if tracer is not None:
        layers.update({f"setup.{k}": setup[k] for k in SETUP_KEYS})
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result


def record_stream_spans(tracer: Tracer, stream) -> None:
    """A phase-2 pass span plus one span per request, send to result.

    Recorded after the pass from stamps every pass keeps, so a traced
    pass does the same work as an untraced one.
    """
    parent = tracer.span("phase2 stream", "gateway.stream",
                         stream.start_s * 1e6, stream.end_s * 1e6,
                         track="wall", lane="gateway",
                         requests=stream.requests)
    for sent, done in stream.stamps_s:
        tracer.span("request", "request", sent * 1e6, done * 1e6,
                    parent_id=parent, track="wall", lane="client")


def serve_layers(tracer, streams, replay, dep) -> dict:
    spans = tracer.spans
    rep_us = sum(s.duration_us for s in spans if s.phase == "serve.replay")
    rep_n = sum(s.attributes["requests"] for s in spans
                if s.phase == "serve.replay")
    gw_us = sum(s.duration_us for s in spans if s.phase == "gateway.stream")
    gw_n = sum(s.attributes["requests"] for s in spans
               if s.phase == "gateway.stream")
    scheduler_us = rep_us / rep_n
    snap = replay.snapshot
    stats = dep.plan_cache.stats()
    all_streams = streams[False] + streams[True]
    rps = {
        traced: sum(s.requests for s in group) / sum(s.wall_s for s in group)
        for traced, group in streams.items()
    }
    return {
        "serve.scheduler_us_per_req": scheduler_us,
        "gateway.us_per_req": gw_us / gw_n - scheduler_us,
        "serve.batches": float(snap["batches"]),
        "serve.requests_per_batch": snap["requests"] / snap["batches"],
        "serve.deadline_misses": float(snap["deadline_misses"]),
        "plan_cache.compiles": float(stats.compiles),
        "plan_cache.hit_rate": stats.hit_rate,
        "gateway.ws_backpressure_waits": float(max(
            s.snapshot["ws_backpressure_waits"] for s in all_streams
        )),
        "gateway.ws_send_queue_high_water": float(max(
            s.snapshot["ws_send_queue_high_water"] for s in all_streams
        )),
        "trace.overhead_frac": rps[False] / rps[True] - 1.0,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def write_outputs(args, facts: dict, result: dict) -> None:
    """Result document plus, for a traced run, the span exports."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        chrome = write_chrome_trace(tracer, OUT_DIR / "traces" / f"{stem}.json")
        write_jsonl(tracer, OUT_DIR / "traces" / f"{stem}.jsonl")
        facts["chrome_trace"] = chrome.relative_to(ROOT).as_posix()
    doc = {"facts": facts, **result}
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{stem}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n"
    )


def print_result(args, facts: dict, result: dict, correct: bool) -> None:
    for key in ("kernel_backend", "kernel_backend_capabilities", "nproc",
                "blas_threads", "numpy", "blas", "commit", "seed"):
        print(f"fact {key}: {facts[key]}")
    for name, value in result["end_to_end"].items():
        print(f"metric {name}: {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in result["report"].items():
        print(f"report {name}: {value:.6g} {REPORT_UNITS[name]}")
    layers = result.get("per_layer", {})
    for name, value in layers.items():
        print(f"layer {name}: {value:.6g} {PER_LAYER_UNITS[name]}")
    for label, value in result.get("modeled_us", {}).items():
        print(f"modeled group.{label}.modeled_us: {value:.6g} us")
    chosen = layers if args.trace else result["end_to_end"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": chosen[name], "unit": units[name]}
            for name in units
        },
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = time.monotonic() - _T_PROCESS
    facts = run_facts(args)
    if args.workload == "serve-poisson":
        result = asyncio.run(run_serve_async(args))
    else:
        result = run_forward(args)
    result["setup"]["import_s"] = import_s
    result["end_to_end"]["setup_s"] += import_s
    if "per_layer" in result:
        layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers.update(result["per_layer"])
        result["per_layer"] = layers
    correct = result["failed"] == 0
    write_outputs(args, facts, result)
    print_result(args, facts, result, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
