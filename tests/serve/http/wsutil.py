"""Loopback HTTP / WebSocket test clients for the gateway suite.

Everything here speaks to a real ``asyncio.start_server`` socket --
no mocked transports -- through :mod:`repro.serve.http.protocol`'s own
codec, with client-side frame masks drawn from explicitly seeded RNGs
so every run is replayable.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
from contextlib import asynccontextmanager

from repro.serve.http import HttpGateway
from repro.serve.http.protocol import (
    OP_CLOSE,
    OP_TEXT,
    WSDecoder,
    WSMessageAssembler,
    encode_ws_frame,
    encode_ws_message,
)

#: Any syntactically valid Sec-WebSocket-Key works for the handshake.
HANDSHAKE_KEY = "dGhlIHNhbXBsZSBub25jZQ=="


@asynccontextmanager
async def gateway_over(server, **kwargs):
    """A started gateway over a started backend; tears both down."""
    await server.start()
    gateway = HttpGateway(server, **kwargs)
    await gateway.start()
    try:
        yield gateway
    finally:
        await gateway.stop(timeout=10.0)
        await server.stop()


async def http_request(
    port: int,
    method: str,
    target: str,
    body: bytes | None = None,
    *,
    host: str = "127.0.0.1",
) -> tuple[int, dict[str, str], bytes]:
    """One whole-connection request: (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await request_on(reader, writer, method, target, body,
                                close=True)
    finally:
        writer.close()
        await _closed(writer)


async def request_on(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    body: bytes | None = None,
    *,
    close: bool = False,
) -> tuple[int, dict[str, str], bytes]:
    """One request on an existing (possibly kept-alive) connection."""
    payload = body if body is not None else b""
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
    if close:
        head += "Connection: close\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write(head.encode("ascii") + b"\r\n" + payload)
    await writer.drain()
    return await read_response(reader)


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _closed(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # repro: allow-swallowed-exception -- teardown of a test socket the peer may have reset
        pass


class WSClient:
    """A masked RFC 6455 client over one loopback connection.

    The mask keys come from ``random.Random(seed)``, so a failing run
    replays byte-for-byte.  Reading and writing are independent --
    the backpressure test writes from one task while deliberately not
    reading -- and :meth:`recv_json` never busy-waits: it blocks on the
    socket read and raises on EOF.
    """

    def __init__(self, seed: int = 7) -> None:
        self._rng = random.Random(seed)
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self._decoder = WSDecoder(forbid_mask=True)
        self._assembler = WSMessageAssembler()
        self._messages: list[tuple[int, bytes]] = []

    async def connect(
        self, port: int, *, host: str = "127.0.0.1", rcvbuf: int | None = None
    ) -> None:
        """Connect and upgrade.  ``rcvbuf`` fixes the socket's receive
        buffer (``SO_RCVBUF``, set before connecting) so the kernel
        cannot grow it past what the caller means to buffer."""
        if rcvbuf is None:
            self.reader, self.writer = await asyncio.open_connection(host, port)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(sock, (host, port))
            except BaseException:
                sock.close()
                raise
            self.reader, self.writer = await asyncio.open_connection(sock=sock)
        self.writer.write(
            (
                f"GET /v1/stream HTTP/1.1\r\nHost: t\r\n"
                f"Connection: Upgrade\r\nUpgrade: websocket\r\n"
                f"Sec-WebSocket-Key: {HANDSHAKE_KEY}\r\n\r\n"
            ).encode("ascii")
        )
        await self.writer.drain()
        status, headers, _ = await read_response(self.reader)
        assert status == 101, f"upgrade refused: {status}"
        assert "sec-websocket-accept" in headers

    def mask(self) -> bytes:
        return self._rng.randbytes(4)

    async def send_json(
        self, obj, *, fragment_size: int | None = None
    ) -> None:
        await self.send_text(json.dumps(obj), fragment_size=fragment_size)

    async def send_text(
        self, text: str, *, fragment_size: int | None = None
    ) -> None:
        assert self.writer is not None
        self.writer.write(encode_ws_message(
            text, mask=self.mask(), fragment_size=fragment_size
        ))
        await self.writer.drain()

    def send_json_nowait(self, obj) -> None:
        """Queue a message on the transport without awaiting drain."""
        assert self.writer is not None
        self.writer.write(
            encode_ws_message(json.dumps(obj), mask=self.mask())
        )

    async def send_close(self) -> None:
        assert self.writer is not None
        self.writer.write(encode_ws_frame(OP_CLOSE, b"", mask=self.mask()))
        await self.writer.drain()

    async def recv_message(self) -> tuple[int, bytes]:
        """Next complete message (control frames included), in order."""
        assert self.reader is not None
        while not self._messages:
            chunk = await self.reader.read(65536)
            if not chunk:
                self._decoder.check_eof()
                raise EOFError("server closed the stream")
            self._decoder.feed(chunk)
            for frame in self._decoder.frames():
                message = self._assembler.push(frame)
                if message is not None:
                    self._messages.append(message)
        return self._messages.pop(0)

    async def recv_json(self) -> dict:
        """Next OP_TEXT message as JSON (skips control frames)."""
        while True:
            opcode, payload = await self.recv_message()
            if opcode == OP_TEXT:
                return json.loads(payload.decode("utf-8"))
            if opcode == OP_CLOSE:
                raise EOFError("server sent close")

    async def shutdown(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await _closed(self.writer)
