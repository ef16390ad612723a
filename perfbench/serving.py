"""The ``serve-poisson`` workload: one seeded trace, two ways in.

Phase 1 replays the trace in process with :func:`repro.serve.replay` on
a fresh :class:`~repro.serve.InferenceServer`; its modeled outcome is a
pure function of the trace and the warmed plan cache, so two replays
must agree exactly.  Phase 2 streams the same trace, ``arrival_us``
stamps included, over two WebSocket connections into an in-process
:class:`~repro.serve.http.HttpGateway` in front of another fresh server.
Each client writes its pre-encoded frames while a reader task collects
results, so the gateway's bounded send queues cannot deadlock it.

Every server shares one :class:`~repro.serve.PlanCache` warmed at
set-up by ``start(prewarm=True)``, so no pass compiles a plan.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass

from repro.core import PrecisionPair
from repro.nn import APNNBackend, alexnet, resnet18
from repro.serve import (
    InferenceServer,
    PlanCache,
    ServedModel,
    percentile,
    poisson_trace,
    replay,
)
from repro.serve.http import HttpGateway
from repro.serve.http.protocol import (
    OP_CLOSE,
    OP_TEXT,
    WSDecoder,
    WSMessageAssembler,
    encode_ws_frame,
    encode_ws_message,
    ws_accept_key,
)
from repro.tensorcore import A100, RTX3090

REQUESTS = 20_000
RATE_RPS = 40_000.0
SLO_MS = 1.0
PAIR = "w1a2"
MODELS = ("alexnet-224", "resnet18-224")
CLIENTS = 2
#: Rates of the fixed doubling ladder behind ``sim_max_rate_rps``.
LADDER_RPS = (2_500.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0)
LADDER_REQUESTS = 4_000
#: Requests each client keeps outstanding (a closed loop with a window):
#: wide enough that the batcher sees every arrival it could coalesce.
WINDOW = 256

_HANDSHAKE_KEY = "cGVyZmJlbmNoLXNlcnZl"


@dataclass
class Deployment:
    """What every pass shares: models, workers and the warm plan cache."""

    models: dict
    workers: list
    plan_cache: PlanCache

    def server(self) -> InferenceServer:
        return InferenceServer(
            self.models, self.workers, slo_ms=SLO_MS, discipline="edf",
            plan_cache=self.plan_cache,
        )


def build_models() -> dict:
    return {
        "alexnet-224": ServedModel(alexnet(), (3, 224, 224)),
        "resnet18-224": ServedModel(resnet18(), (3, 224, 224)),
    }


def deployment(models: dict) -> Deployment:
    pair = PrecisionPair.parse(PAIR)
    workers = [(APNNBackend(pair), RTX3090), (APNNBackend(pair), A100)]
    return Deployment(models, workers, PlanCache())


def make_trace(seed: int, rate_rps: float = RATE_RPS,
               requests: int = REQUESTS):
    return poisson_trace(rate_rps, requests, list(MODELS), seed=seed)


def encode_frames(trace, seed: int) -> list[list[tuple[str, bytes]]]:
    """Per-client ``(tag, frame)`` lists: event ``i`` goes to client
    ``i % CLIENTS``, masked with a seeded key."""
    rng = random.Random(seed)
    out: list[list[tuple[str, bytes]]] = [[] for _ in range(CLIENTS)]
    for i, event in enumerate(trace):
        tag = f"r{i}"
        body = json.dumps(
            {"model": event.model, "tag": tag, "arrival_us": event.t_us}
        )
        out[i % CLIENTS].append(
            (tag, encode_ws_message(body, mask=rng.randbytes(4)))
        )
    return out


async def prewarm(dep: Deployment) -> None:
    server = dep.server()
    await server.start(prewarm=True)
    await server.stop()


def invariant_problems(snapshot: dict) -> list[str]:
    """The server's zero-invariant counters that are not zero."""
    return [
        f"{key}={snapshot[key]}"
        for key in ("dropped_requests", "reordered_dispatches")
        if snapshot[key]
    ]


def modeled_digest(results) -> str:
    """SHA-256 over every result's modeled coordinates, arrival order."""
    rows = sorted(
        (r.arrival_us, r.request_id, r.model, r.worker, r.batch_size,
         r.batch_requests, r.start_us, r.finish_us, r.pair)
        for r in results
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


@dataclass
class ReplayOutcome:
    start_s: float  # perf_counter stamps around replay() + stop()
    end_s: float
    results: list
    snapshot: dict
    digest: str


async def replay_pass(dep: Deployment, trace) -> ReplayOutcome:
    """Phase 1: a fresh server replays the whole trace in process."""
    server = dep.server()
    await server.start(prewarm=True)
    t0 = time.perf_counter()
    try:
        results = await replay(server, trace)
    finally:
        await server.stop()
    t1 = time.perf_counter()
    return ReplayOutcome(
        t0, t1, results, server.metrics.snapshot(), modeled_digest(results)
    )


def sim_summary(results, sent: int) -> dict:
    """Modeled latency (ms from each request's arrival stamp) and SLO share."""
    lat = [r.latency_ms for r in results]
    met = sum(1 for r in results if r.met_deadline)
    return {
        "sim_p50_ms": percentile(lat, 50),
        "sim_p99_ms": percentile(lat, 99),
        "sim_slo_met_frac": met / sent,
    }


async def max_rate(dep: Deployment, seed: int) -> float:
    """Highest ladder rate whose modeled p99 stays within the SLO."""
    best = 0.0
    for rate in LADDER_RPS:
        out = await replay_pass(dep, make_trace(seed, rate, LADDER_REQUESTS))
        if len(out.results) != LADDER_REQUESTS:
            break
        if percentile([r.latency_ms for r in out.results], 99) > SLO_MS:
            break
        best = rate
    return best


async def _ws_client(port: int, frames, seed: int, sent_at: dict,
                     stamps: list, problems: list) -> None:
    rng = random.Random(seed)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                "GET /v1/stream HTTP/1.1\r\nHost: perfbench\r\n"
                "Connection: Upgrade\r\nUpgrade: websocket\r\n"
                f"Sec-WebSocket-Key: {_HANDSHAKE_KEY}\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n")[0] or (
            ws_accept_key(_HANDSHAKE_KEY).encode("ascii") not in head
        ):
            raise RuntimeError(f"websocket upgrade refused: {head[:80]!r}")

        window = asyncio.Semaphore(WINDOW)

        async def send() -> None:
            for tag, frame in frames:
                if window.locked():
                    await writer.drain()
                await window.acquire()
                sent_at[tag] = time.perf_counter()
                writer.write(frame)
            await writer.drain()

        async def receive() -> None:
            decoder = WSDecoder(forbid_mask=True)
            assembler = WSMessageAssembler()
            pending = len(frames)
            while pending:
                chunk = await reader.read(65536)
                if not chunk:
                    decoder.check_eof()
                    problems.append(f"stream ended with {pending} pending")
                    return
                now = time.perf_counter()
                decoder.feed(chunk)
                for frame in decoder.frames():
                    message = assembler.push(frame)
                    if message is None or message[0] != OP_TEXT:
                        continue
                    body = json.loads(message[1])
                    tag = body.get("tag")
                    if "error" in body:
                        problems.append(f"{tag}: {body['error']}")
                    elif tag not in sent_at:
                        problems.append(f"unknown or duplicate tag {tag!r}")
                    else:
                        stamps.append((sent_at.pop(tag), now))
                    pending -= 1
                    window.release()

        await asyncio.gather(send(), receive())
        writer.write(encode_ws_frame(OP_CLOSE, b"", mask=rng.randbytes(4)))
        await writer.drain()
    finally:
        writer.close()
        await writer.wait_closed()


@dataclass
class StreamOutcome:
    start_s: float  # perf_counter stamps around the clients' streams
    end_s: float
    requests: int
    stamps_s: list  # (sent, result read) perf_counter pairs per request
    problems: list
    snapshot: dict

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def latencies_s(self) -> list:
        return [end - start for start, end in self.stamps_s]


async def stream_pass(dep: Deployment, frames, seed: int) -> StreamOutcome:
    """Phase 2: every client streams its frames through the gateway."""
    server = dep.server()
    await server.start(prewarm=True)
    gateway = HttpGateway(server)
    await gateway.start()
    sent_at: dict = {}
    stamps: list = []
    problems: list = []
    t0 = time.perf_counter()
    try:
        await asyncio.gather(*(
            _ws_client(gateway.port, frames[c], seed + c, sent_at,
                       stamps, problems)
            for c in range(len(frames))
        ))
        t1 = time.perf_counter()
    finally:
        await gateway.stop(timeout=30.0)
        await server.stop()
    problems += [f"{tag}: no result" for tag in sent_at]
    snap = server.metrics.snapshot()
    problems += invariant_problems(snap)
    return StreamOutcome(
        t0, t1, sum(len(f) for f in frames), stamps, problems, snap
    )
