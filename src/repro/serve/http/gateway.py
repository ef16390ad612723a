"""HTTP/1.1 + WebSocket ingress over an inference server.

:class:`HttpGateway` is the network edge of the serving stack: a
stdlib-asyncio front end that turns real sockets into
:meth:`~repro.serve.server.InferenceServer.submit` calls.  A
:class:`~repro.serve.cluster.ClusterCoordinator` is an
``InferenceServer`` too, so the gateway fronts a cluster unchanged.

Endpoints
---------
``POST /v1/infer``
    One JSON submission (``{"model": ..., "tag"?: ..., "arrival_us"?:
    ...}``) -> one JSON response carrying the result digest, pricing
    (modeled batch-1 unit price + the wXaY pair actually served) and
    deadline/precision metadata.  400 on malformed JSON, 404 on an
    unknown model, 429 on admission shed, 503 while draining.
``GET /v1/metrics``
    ``ServerMetrics.snapshot()`` as canonical JSON.
``GET /healthz``
    ``{"status": "ok"}`` -- or ``"draining"`` once shutdown began.
``GET /v1/stream`` (WebSocket upgrade)
    Submit many, stream results as they complete.  Each text frame in
    is one submission object; each text frame out is one completed
    result (same shape as ``/v1/infer`` responses, plus the echoed
    ``tag``/``echo`` fields).  Errors come back as ``{"tag": ...,
    "error": {...}}`` messages on the same stream.

Backpressure
------------
Every WS client gets a *bounded* send queue (``send_queue_limit``
frames).  When a slow reader lets it fill, the gateway stops reading
that client's socket (the reader coroutine parks on the queue) until
the sender drains below the bound -- deferral, not unbounded
buffering, so one stuck client costs O(limit) memory and stalls nobody
else.  ``ws_backpressure_waits`` / ``ws_send_queue_high_water`` in the
metrics snapshot make the behaviour observable (and testable).

Clocks
------
``clock="sim"`` (default) leaves arrival stamps to the backend's
discrete-event clock -- the mode every scheduler/placement test runs
in.  ``clock="wall"`` stamps arrivals with real elapsed microseconds
since gateway start, for soak tests and demos against wall time.  The
gateway's own bookkeeping (tracing spans, drain timeouts) is always
wall-clock: sockets are process property, not model property, which is
why this package is a sanctioned zone for the analysis wall-clock rule.

Digests
-------
:func:`result_digest` condenses a completed request into a SHA-256 over
canonical JSON of its *deterministic* coordinates (model, served wXaY
pair, modeled batch-1 unit price, client tag).  Wall-time-dependent
quantities (batch coalescing, queue wait) are deliberately excluded, so
a gateway response and a direct in-process ``submit`` for the same
logical request produce byte-identical digests -- the loopback suite's
cross-transport invariant.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from typing import Any

from ...obs import NULL_TRACER, Tracer
from ..cluster import canonical_json
from ..policies import AdmissionRejected
from ..server import InferenceServer, ServerDraining
from .protocol import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    HttpRequest,
    ProtocolError,
    WSDecoder,
    WSMessageAssembler,
    encode_response,
    encode_ws_frame,
    read_http_request,
    ws_accept_key,
)

__all__ = [
    "DEFAULT_SEND_QUEUE_LIMIT",
    "HttpGateway",
    "result_digest",
]

#: Default per-client bound on queued-but-unsent WS result frames.
DEFAULT_SEND_QUEUE_LIMIT = 32

#: Grace period ``stop()`` grants in-flight work before force-closing.
DEFAULT_STOP_TIMEOUT = 30.0


def result_digest(
    model: str, pair: str, unit_us: float, tag: str
) -> str:
    """SHA-256 hex digest of one result's deterministic coordinates.

    Covers exactly the quantities that are pure functions of (model,
    backend, device, precision, client tag) -- never wall-time-dependent
    batching/queueing fields -- so the same logical request digests
    identically whether served over HTTP, WebSocket, or a direct
    in-process ``submit``.
    """
    payload = canonical_json(
        {"model": model, "pair": pair, "tag": tag, "unit_us": unit_us}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _json_safe(value: float) -> float | None:
    """Canonical JSON refuses NaN/inf; map unset deadlines to null."""
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


class _BoundedSendQueue:
    """FIFO of encoded frames with a hard bound and wait-based put.

    ``put`` parks when the queue is at its bound (that is the
    backpressure: the caller -- the client's reader coroutine or a
    completion task -- stops making progress until the sender drains).
    ``metrics`` receives the high-water mark and each wait.
    """

    def __init__(self, limit: int, metrics) -> None:
        if limit < 1:
            raise ValueError(f"send_queue_limit must be >= 1, got {limit}")
        self.limit = limit
        self._metrics = metrics
        self._frames: list[bytes] = []
        self._cond = asyncio.Condition()
        self._closed = False

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def full(self) -> bool:
        return len(self._frames) >= self.limit

    async def put(self, frame: bytes) -> None:
        async with self._cond:
            if self.full and not self._closed:
                self._metrics.record_ws_backpressure_wait()
                await self._cond.wait_for(
                    lambda: not self.full or self._closed
                )
            if self._closed:
                return
            self._frames.append(frame)
            self._metrics.record_ws_send_queue_depth(len(self._frames))
            self._cond.notify_all()

    async def wait_not_full(self) -> None:
        """Park until there is room -- the reader's deferral point."""
        async with self._cond:
            if self.full and not self._closed:
                self._metrics.record_ws_backpressure_wait()
                await self._cond.wait_for(
                    lambda: not self.full or self._closed
                )

    async def get(self) -> bytes | None:
        """Next frame to send; ``None`` once closed and empty."""
        async with self._cond:
            await self._cond.wait_for(
                lambda: self._frames or self._closed
            )
            if not self._frames:
                return None
            frame = self._frames.pop(0)
            self._cond.notify_all()
            return frame

    async def shutdown(self) -> None:
        """Unblock every waiter; pending frames still get sent."""
        async with self._cond:
            self._closed = True
            self._cond.notify_all()


class HttpGateway:
    """Network-facing front end over one inference server.

    Parameters
    ----------
    backend:
        An :class:`~repro.serve.server.InferenceServer` (a
        :class:`~repro.serve.cluster.ClusterCoordinator` is one),
        already ``start()``-ed by the caller.
    host, port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    send_queue_limit:
        Per-WS-client bound on queued result frames (see module docs).
    clock:
        ``"sim"`` stamps nothing (the backend's discrete-event clock
        assigns arrivals); ``"wall"`` stamps arrivals with elapsed real
        microseconds since gateway start.
    tracer:
        Optional :class:`~repro.obs.Tracer`; gateway spans (accept ->
        parse -> submit -> stream) go on the wall track.
    """

    def __init__(
        self,
        backend: InferenceServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        send_queue_limit: int = DEFAULT_SEND_QUEUE_LIMIT,
        clock: str = "sim",
        tracer: Tracer | None = None,
    ) -> None:
        if clock not in ("sim", "wall"):
            raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
        if send_queue_limit < 1:
            raise ValueError(
                f"send_queue_limit must be >= 1, got {send_queue_limit}"
            )
        self.backend = backend
        self.host = host
        self.port = port
        self.send_queue_limit = send_queue_limit
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = backend.metrics
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight: set[asyncio.Task] = set()
        self._draining = False
        self._t0 = time.perf_counter()
        self._unit_us: dict[str, float] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start accepting."""
        if self._server is not None:
            return
        self._draining = False
        self._t0 = time.perf_counter()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` (or :meth:`stop`) has been called --
        or the backend itself started draining underneath us."""
        return self._draining or self.backend.draining

    def drain(self) -> None:
        """Stop admitting new work; let in-flight requests complete.

        New connections are answered 503 and closed; new submissions on
        existing connections get 503 (HTTP) or an error message (WS).
        The backend's own drain hook is pulled in the same instant, so
        in-process submitters see :class:`ServerDraining` too.
        """
        self._draining = True
        self.backend.begin_drain()

    async def stop(self, *, timeout: float = DEFAULT_STOP_TIMEOUT) -> None:
        """Graceful shutdown: drain, finish in-flight work, close.

        Waits up to ``timeout`` wall seconds for in-flight submissions
        and open connections to wind down, then force-closes whatever
        is left (counted nowhere near the drop counters -- by then every
        submission future has resolved or been refused).
        """
        self.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.perf_counter() + timeout
        if self._inflight:
            await asyncio.wait(
                self._inflight,
                timeout=max(0.0, deadline - time.perf_counter()),
            )
        if self._connections:
            _, pending = await asyncio.wait(
                self._connections,
                timeout=max(0.0, deadline - time.perf_counter()),
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._connections.clear()
        self._inflight.clear()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def _arrival_us(self) -> float | None:
        return self._now_us() if self.clock == "wall" else None

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        accept_us = self._now_us()
        self.metrics.record_gateway_connection()
        try:
            if self.draining:
                # Refuse the whole connection: a load balancer health
                # check has already failed by now, this is the stragglers.
                self.metrics.record_gateway_unavailable()
                writer.write(encode_response(
                    503,
                    b'{"error":"draining"}',
                    close=True,
                ))
                await writer.drain()
                # Consume whatever request bytes already arrived before
                # closing: unread receive-buffer data turns close() into
                # a TCP RST, which can destroy the 503 in flight.
                try:
                    await asyncio.wait_for(reader.read(65536), timeout=0.2)
                except asyncio.TimeoutError:  # repro: allow-swallowed-exception -- straggler sent nothing; close anyway
                    pass
                return
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError:
                    self.metrics.record_gateway_bad_request()
                    writer.write(encode_response(
                        400, b'{"error":"malformed request"}', close=True
                    ))
                    await writer.drain()
                    return
                if request is None:
                    return
                parse_us = self._now_us()
                self.metrics.record_gateway_request()
                if request.is_websocket_upgrade:
                    await self._serve_websocket(reader, writer, request)
                    return
                close = await self._serve_http(writer, request)
                if self.tracer.enabled:
                    self.tracer.span(
                        f"gw.{request.method} {request.target}",
                        "gateway",
                        accept_us,
                        self._now_us(),
                        track="wall",
                        lane="gateway",
                        parse_us=parse_us,
                    )
                if close:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            # Client hangup mid-exchange: routine for a network server,
            # not a gateway fault -- the connection just ends.
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # repro: allow-swallowed-exception -- closing an already-reset transport
                pass

    # ------------------------------------------------------------------
    # plain HTTP endpoints
    # ------------------------------------------------------------------
    async def _serve_http(
        self, writer: asyncio.StreamWriter, request: HttpRequest
    ) -> bool:
        """Serve one parsed request; returns True to close the socket."""
        route = (request.method, request.target)
        if route == ("POST", "/v1/infer"):
            status, body = await self._infer(request.body)
        elif route == ("GET", "/v1/metrics"):
            status, body = 200, canonical_json(
                self.metrics.snapshot()
            ).encode("utf-8")
        elif route == ("GET", "/healthz"):
            state = "draining" if self.draining else "ok"
            status, body = 200, canonical_json(
                {"status": state}
            ).encode("utf-8")
        elif request.target in ("/v1/infer", "/v1/metrics", "/healthz"):
            status, body = 405, b'{"error":"method not allowed"}'
        else:
            status, body = 404, b'{"error":"no such endpoint"}'
        close = request.wants_close
        writer.write(encode_response(status, body, close=close))
        await writer.drain()
        return close

    async def _infer(self, body: bytes) -> tuple[int, bytes]:
        """POST /v1/infer: one submission, one JSON result."""
        try:
            spec = self._parse_submission(body)
        except ProtocolError as exc:
            self.metrics.record_gateway_bad_request()
            return 400, canonical_json(
                {"error": {"type": "bad_request", "message": str(exc)}}
            ).encode("utf-8")
        status, payload = await self._submit(spec)
        return status, canonical_json(payload).encode("utf-8")

    def _parse_submission(self, raw: bytes) -> dict[str, Any]:
        """Validate one submission object (HTTP body or WS message)."""
        try:
            spec = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable submission: {exc}") from exc
        if not isinstance(spec, dict):
            raise ProtocolError(
                f"submission must be a JSON object, got "
                f"{type(spec).__name__}"
            )
        model = spec.get("model")
        if not isinstance(model, str) or not model:
            raise ProtocolError("submission needs a non-empty 'model'")
        tag = spec.get("tag", "")
        if not isinstance(tag, str):
            raise ProtocolError(f"'tag' must be a string, got {tag!r}")
        arrival = spec.get("arrival_us")
        if arrival is not None and not isinstance(arrival, (int, float)):
            raise ProtocolError(
                f"'arrival_us' must be a number, got {arrival!r}"
            )
        return spec

    async def _submit(
        self, spec: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Run one validated submission; (HTTP status, JSON payload).

        WS streaming reuses this and keeps only the payload, mapping
        non-200 statuses to error messages on the stream.
        """
        model = spec["model"]
        tag = spec.get("tag", "")
        arrival = spec.get("arrival_us")
        if arrival is None:
            arrival = self._arrival_us()
        if self.draining:
            self.metrics.record_gateway_unavailable()
            return 503, {
                "tag": tag,
                "error": {"type": "draining", "message": "draining"},
            }
        submit_t0 = self._now_us()
        try:
            result = await self.backend.submit(model, arrival)
            unit = await self._unit_price(model)
        except KeyError as exc:
            return 404, {
                "tag": tag,
                "error": {"type": "unknown_model", "message": str(exc)},
            }
        except ServerDraining as exc:
            self.metrics.record_gateway_unavailable()
            return 503, {
                "tag": tag,
                "error": {"type": "draining", "message": str(exc)},
            }
        except AdmissionRejected as exc:
            return 429, {
                "tag": tag,
                "error": {"type": "admission_rejected", "message": str(exc)},
            }
        payload: dict[str, Any] = {
            "tag": tag,
            "model": model,
            "request_id": result.request_id,
            "worker": result.worker,
            "digest": result_digest(model, result.pair, unit, tag),
            "pricing": {"unit_us": unit, "pair": result.pair},
            "deadline": {
                "deadline_us": _json_safe(result.deadline_us),
                "met": result.met_deadline,
            },
            "timing": {
                "arrival_us": result.arrival_us,
                "start_us": result.start_us,
                "finish_us": result.finish_us,
            },
            "batch": {
                "size": result.batch_size,
                "requests": result.batch_requests,
            },
            "switched": result.switched,
        }
        if "echo" in spec:
            payload["echo"] = spec["echo"]
        if self.tracer.enabled:
            self.tracer.span(
                f"gw.submit {model}",
                "gateway",
                submit_t0,
                self._now_us(),
                track="wall",
                lane="gateway",
                model=model,
                tag=tag,
            )
        return 200, payload

    async def _unit_price(self, model: str) -> float:
        unit = self._unit_us.get(model)
        if unit is None:
            unit = await self.backend.unit_price_us(model)
            self._unit_us[model] = unit
        return unit

    # ------------------------------------------------------------------
    # WebSocket streaming
    # ------------------------------------------------------------------
    async def _serve_websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: HttpRequest,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if request.target != "/v1/stream" or not key:
            self.metrics.record_gateway_bad_request()
            writer.write(encode_response(
                400, b'{"error":"bad websocket upgrade"}', close=True
            ))
            await writer.drain()
            return
        writer.write(encode_response(
            101,
            headers={
                "Upgrade": "websocket",
                "Connection": "Upgrade",
                "Sec-WebSocket-Accept": ws_accept_key(key),
            },
        ))
        await writer.drain()
        self.metrics.record_ws_connection()
        queue = _BoundedSendQueue(self.send_queue_limit, self.metrics)
        sender = asyncio.ensure_future(self._ws_sender(writer, queue))
        inflight: set[asyncio.Task] = set()
        stream_t0 = self._now_us()
        try:
            await self._ws_reader(reader, queue, inflight)
        finally:
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            await queue.put(encode_ws_frame(OP_CLOSE, b""))
            await queue.shutdown()
            await sender
            if self.tracer.enabled:
                self.tracer.span(
                    "gw.stream", "gateway", stream_t0, self._now_us(),
                    track="wall", lane="gateway",
                )

    async def _ws_reader(
        self,
        reader: asyncio.StreamReader,
        queue: _BoundedSendQueue,
        inflight: set[asyncio.Task],
    ) -> None:
        """Read frames; spawn one submission task per data message.

        The deferral point for backpressure: before reading another
        frame off the socket the reader parks until the client's send
        queue is below its bound, so a slow reader throttles its own
        submissions instead of growing server-side state.
        """
        decoder = WSDecoder(require_mask=True)
        assembler = WSMessageAssembler()
        while True:
            await queue.wait_not_full()
            chunk = await reader.read(65536)
            if not chunk:
                decoder.check_eof()
                return
            try:
                for frame in self._feed(decoder, chunk):
                    message = assembler.push(frame)
                    if message is None:
                        continue
                    opcode, payload = message
                    if opcode == OP_CLOSE:
                        return
                    if opcode == OP_PING:
                        await queue.put(
                            encode_ws_frame(OP_PONG, payload)
                        )
                        continue
                    if opcode == OP_PONG:
                        continue
                    task = asyncio.ensure_future(
                        self._ws_submit(payload, queue)
                    )
                    inflight.add(task)
                    task.add_done_callback(inflight.discard)
                    self._inflight.add(task)
                    task.add_done_callback(self._inflight.discard)
            except ProtocolError as exc:
                self.metrics.record_gateway_bad_request()
                await queue.put(encode_ws_frame(
                    OP_TEXT,
                    canonical_json({
                        "error": {
                            "type": "protocol_error",
                            "message": str(exc),
                        }
                    }).encode("utf-8"),
                ))
                return

    @staticmethod
    def _feed(decoder: WSDecoder, chunk: bytes):
        decoder.feed(chunk)
        return decoder.frames()

    async def _ws_submit(
        self, payload: bytes, queue: _BoundedSendQueue
    ) -> None:
        """One streamed submission: submit, then enqueue the result."""
        try:
            spec = self._parse_submission(payload)
        except ProtocolError as exc:
            self.metrics.record_gateway_bad_request()
            await queue.put(encode_ws_frame(
                OP_TEXT,
                canonical_json({
                    "error": {"type": "bad_request", "message": str(exc)}
                }).encode("utf-8"),
            ))
            return
        status, result = await self._submit(spec)
        await queue.put(encode_ws_frame(
            OP_TEXT, canonical_json(result).encode("utf-8")
        ))
        if status == 200:
            self.metrics.record_ws_streamed()

    async def _ws_sender(
        self, writer: asyncio.StreamWriter, queue: _BoundedSendQueue
    ) -> None:
        """Drain the send queue onto the socket, frame by frame.

        ``writer.drain()`` propagates the client's TCP receive window:
        a slow reader stalls this coroutine, the queue fills, and the
        reader coroutine defers -- the whole backpressure chain.
        """
        while True:
            frame = await queue.get()
            if frame is None:
                return
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):  # repro: allow-swallowed-exception -- client reset mid-stream; keep draining so producers unblock
                continue
