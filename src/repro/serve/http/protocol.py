"""Minimal HTTP/1.1 request parsing and RFC 6455 WebSocket framing.

The gateway (:mod:`repro.serve.http.gateway`) fronts real sockets, so
this module owns the two wire formats it speaks, under one discipline:

* **hard size bounds** turn a corrupt or hostile length field into a
  loud :class:`ProtocolError` instead of an unbounded allocation
  (:data:`MAX_HEAD_BYTES`, :data:`MAX_BODY_BYTES`,
  :data:`MAX_WS_PAYLOAD_BYTES`);
* **torn input is an error, never a hang** -- EOF inside a frame or a
  request head raises :class:`ProtocolError`; EOF *between* messages is
  a clean ``None``.  The incremental :class:`WSDecoder` simply retains
  a partial frame until more bytes arrive, and its :meth:`WSDecoder
  .check_eof` makes a dangling partial loud at stream end;
* **pure functions / incremental state machines** -- everything here is
  exercisable byte-by-byte without sockets, which is what the
  hypothesis suites (``tests/serve/http/test_protocol_properties.py``)
  lean on: arbitrary payloads survive arbitrary fragmentation, masking,
  and chunk boundaries.

Masking note: RFC 6455 requires client-to-server frames to be masked
with a 32-bit key.  Encoding takes the key as an *explicit argument*
(``mask=``) -- this package never draws hidden entropy, so client-side
tests and demos mask with explicitly seeded RNGs and stay replayable.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import struct
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "MAX_HEAD_BYTES",
    "MAX_BODY_BYTES",
    "MAX_WS_PAYLOAD_BYTES",
    "WS_GUID",
    "OP_CONT",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "ProtocolError",
    "HttpRequest",
    "parse_request_head",
    "read_http_request",
    "encode_response",
    "status_line",
    "ws_accept_key",
    "WSFrame",
    "encode_ws_frame",
    "encode_ws_message",
    "WSDecoder",
    "WSMessageAssembler",
]

#: Upper bound on one request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

#: Upper bound on one HTTP request body; mirrors the cluster pipes'
#: ``MAX_FRAME_BYTES`` discipline (loud error, not a huge allocation).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Upper bound on one WebSocket frame payload.
MAX_WS_PAYLOAD_BYTES = 16 * 1024 * 1024

#: RFC 6455 magic GUID concatenated to ``Sec-WebSocket-Key``.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_DATA_OPCODES = frozenset({OP_TEXT, OP_BINARY})
_CONTROL_OPCODES = frozenset({OP_CLOSE, OP_PING, OP_PONG})

_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(RuntimeError):
    """Malformed wire input: bad request head, torn/invalid WS frame."""


# ----------------------------------------------------------------------
# HTTP/1.1 requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HttpRequest:
    """One parsed request.  Header names are lower-cased."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes = b""

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    @property
    def is_websocket_upgrade(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        upgrade = self.headers.get("upgrade", "").lower()
        return "upgrade" in connection and upgrade == "websocket"


def parse_request_head(head: bytes) -> HttpRequest:
    """Parse the request line + headers (no body) of one request.

    ``head`` is everything up to and including the blank line.  Raises
    :class:`ProtocolError` on anything malformed; never returns a
    half-parsed request.
    """
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError(
            f"request head of {len(head)} bytes exceeds MAX_HEAD_BYTES "
            f"({MAX_HEAD_BYTES})"
        )
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"non-ASCII request head: {exc}") from exc
    lines = text.split("\r\n")
    # Tolerate (and strip) the trailing blank line of a full head blob.
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ProtocolError("empty request head")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if not method.isalpha() or not method.isupper():
        raise ProtocolError(f"malformed method: {method!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported HTTP version: {version!r}")
    if not target.startswith("/"):
        raise ProtocolError(f"malformed request target: {target!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or "\n" in line:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.lower()] = value.strip()
    return HttpRequest(
        method=method, target=target, version=version, headers=headers
    )


async def read_http_request(
    reader: asyncio.StreamReader,
) -> HttpRequest | None:
    """Read one full request (head + Content-Length body) from a stream.

    Returns ``None`` on a clean EOF before any byte of a new request
    (client hung up between requests); raises :class:`ProtocolError` on
    a torn head, an oversize head/body, or a malformed Content-Length.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"EOF inside a request head ({len(exc.partial)} bytes)"
        ) from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(
            f"request head exceeds the stream limit: {exc}"
        ) from exc
    request = parse_request_head(head)
    length_text = request.headers.get("content-length")
    if length_text is None:
        return request
    try:
        length = int(length_text)
    except ValueError as exc:
        raise ProtocolError(
            f"malformed Content-Length: {length_text!r}"
        ) from exc
    if length < 0:
        raise ProtocolError(f"negative Content-Length: {length}")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"body of {length} bytes exceeds MAX_BODY_BYTES "
            f"({MAX_BODY_BYTES})"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"EOF after {len(exc.partial)}/{length} body bytes"
        ) from exc
    return HttpRequest(
        method=request.method,
        target=request.target,
        version=request.version,
        headers=request.headers,
        body=body,
    )


def status_line(status: int) -> str:
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"


def encode_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
    close: bool = False,
) -> bytes:
    """One full HTTP/1.1 response with an explicit Content-Length."""
    lines = [status_line(status)]
    if body or status != 101:
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    if headers:
        lines.extend(f"{name}: {value}" for name, value in headers.items())
    if close:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


# ----------------------------------------------------------------------
# RFC 6455 WebSocket frames
# ----------------------------------------------------------------------
def ws_accept_key(key: str) -> str:
    """``Sec-WebSocket-Accept`` value for one handshake key."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


@dataclass(frozen=True)
class WSFrame:
    """One decoded frame, payload already unmasked."""

    fin: bool
    opcode: int
    payload: bytes

    @property
    def is_control(self) -> bool:
        return self.opcode in _CONTROL_OPCODES


def encode_ws_frame(
    opcode: int,
    payload: bytes,
    *,
    fin: bool = True,
    mask: bytes | None = None,
) -> bytes:
    """Encode one frame.  ``mask`` is the explicit 4-byte client key
    (``None`` = unmasked, the server-to-client direction)."""
    if opcode in _CONTROL_OPCODES:
        if not fin:
            raise ProtocolError(
                f"control frame (opcode {opcode:#x}) must not be fragmented"
            )
        if len(payload) > 125:
            raise ProtocolError(
                f"control frame payload of {len(payload)} bytes exceeds 125"
            )
    if len(payload) > MAX_WS_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"MAX_WS_PAYLOAD_BYTES ({MAX_WS_PAYLOAD_BYTES})"
        )
    first = (0x80 if fin else 0x00) | (opcode & 0x0F)
    mask_bit = 0x80 if mask is not None else 0x00
    length = len(payload)
    if length < 126:
        header = bytes([first, mask_bit | length])
    elif length < 1 << 16:
        header = bytes([first, mask_bit | 126]) + struct.pack(">H", length)
    else:
        header = bytes([first, mask_bit | 127]) + struct.pack(">Q", length)
    if mask is None:
        return header + payload
    if len(mask) != 4:
        raise ProtocolError(f"mask key must be 4 bytes, got {len(mask)}")
    return header + mask + _apply_mask(payload, mask)


def _apply_mask(payload: bytes, mask: bytes) -> bytes:
    """XOR-mask (symmetric: also unmasks) without a Python-level loop."""
    if not payload:
        return b""
    repeated = mask * (len(payload) // 4 + 1)
    return bytes(a ^ b for a, b in zip(payload, repeated))


def encode_ws_message(
    payload: bytes | str,
    *,
    opcode: int | None = None,
    mask: bytes | None = None,
    fragment_size: int | None = None,
) -> bytes:
    """Encode one data message, optionally fragmented.

    Text payloads (``str``) default to :data:`OP_TEXT`, byte payloads
    to :data:`OP_BINARY`.  ``fragment_size`` splits the payload into an
    initial frame plus continuation frames (the last one carries FIN),
    re-using ``mask`` for every fragment.
    """
    if isinstance(payload, str):
        data = payload.encode("utf-8")
        opcode = OP_TEXT if opcode is None else opcode
    else:
        data = payload
        opcode = OP_BINARY if opcode is None else opcode
    if opcode not in _DATA_OPCODES:
        raise ProtocolError(
            f"messages must use a data opcode, got {opcode:#x}"
        )
    if fragment_size is None or fragment_size >= max(len(data), 1):
        return encode_ws_frame(opcode, data, mask=mask)
    if fragment_size < 1:
        raise ProtocolError(
            f"fragment_size must be >= 1, got {fragment_size}"
        )
    chunks = [
        data[i : i + fragment_size]
        for i in range(0, len(data), fragment_size)
    ]
    frames = []
    for i, chunk in enumerate(chunks):
        frames.append(
            encode_ws_frame(
                opcode if i == 0 else OP_CONT,
                chunk,
                fin=(i == len(chunks) - 1),
                mask=mask,
            )
        )
    return b"".join(frames)


class WSDecoder:
    """Incremental frame decoder: feed arbitrary chunks, pop frames.

    A partial frame is simply retained until more bytes arrive --
    feeding torn input never raises and never spins; call
    :meth:`check_eof` when the stream ends to turn a dangling partial
    frame into a loud :class:`ProtocolError`.  Structurally invalid
    bytes (RSV bits set, bad opcode, oversize or fragmented control
    frame, oversize payload, unexpected masking) raise immediately.

    ``require_mask`` enforces the RFC's client-to-server masking rule
    (the gateway's receive direction); ``forbid_mask`` enforces the
    server-to-client rule (a client's receive direction).
    """

    def __init__(
        self, *, require_mask: bool = False, forbid_mask: bool = False
    ) -> None:
        if require_mask and forbid_mask:
            raise ValueError("require_mask and forbid_mask are exclusive")
        self.require_mask = require_mask
        self.forbid_mask = forbid_mask
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def check_eof(self) -> None:
        """Raise if the stream ended inside a frame."""
        if self._buffer:
            raise ProtocolError(
                f"EOF inside a WebSocket frame "
                f"({len(self._buffer)} dangling bytes)"
            )

    def frames(self) -> Iterator[WSFrame]:
        """Yield every complete frame currently buffered."""
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield frame

    def _next_frame(self) -> WSFrame | None:
        buf = self._buffer
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        if first & 0x70:
            raise ProtocolError(
                f"RSV bits set ({first & 0x70:#04x}) with no negotiated "
                f"extension"
            )
        opcode = first & 0x0F
        if opcode not in _DATA_OPCODES | _CONTROL_OPCODES | {OP_CONT}:
            raise ProtocolError(f"unknown opcode {opcode:#x}")
        fin = bool(first & 0x80)
        masked = bool(second & 0x80)
        if self.require_mask and not masked:
            raise ProtocolError(
                "unmasked client frame (RFC 6455 requires client-to-"
                "server masking)"
            )
        if self.forbid_mask and masked:
            raise ProtocolError(
                "masked server frame (RFC 6455 forbids server-to-client "
                "masking)"
            )
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < offset + 2:
                return None
            (length,) = struct.unpack_from(">H", buf, offset)
            offset += 2
        elif length == 127:
            if len(buf) < offset + 8:
                return None
            (length,) = struct.unpack_from(">Q", buf, offset)
            offset += 8
        if length > MAX_WS_PAYLOAD_BYTES:
            raise ProtocolError(
                f"frame payload of {length} bytes exceeds "
                f"MAX_WS_PAYLOAD_BYTES ({MAX_WS_PAYLOAD_BYTES})"
            )
        if opcode in _CONTROL_OPCODES:
            if not fin:
                raise ProtocolError(
                    f"fragmented control frame (opcode {opcode:#x})"
                )
            if length > 125:
                raise ProtocolError(
                    f"control frame payload of {length} bytes exceeds 125"
                )
        mask = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            mask = bytes(buf[offset : offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset : offset + length])
        del buf[: offset + length]
        if masked:
            payload = _apply_mask(payload, mask)
        return WSFrame(fin=fin, opcode=opcode, payload=payload)


class WSMessageAssembler:
    """Reassemble data messages from (possibly fragmented) frames.

    Feed frames in wire order via :meth:`push`; complete data messages
    come back as ``(opcode, payload)`` with the opcode of the initial
    fragment.  Control frames pass through immediately (they may
    interleave with a fragmented message) as ``(opcode, payload)``
    too.  Fragmentation violations -- a new data frame inside an open
    message, or a continuation with no message open -- raise
    :class:`ProtocolError`.
    """

    def __init__(self) -> None:
        self._opcode: int | None = None
        self._parts: list[bytes] = []
        self._size = 0

    def push(self, frame: WSFrame) -> tuple[int, bytes] | None:
        if frame.is_control:
            return frame.opcode, frame.payload
        if frame.opcode == OP_CONT:
            if self._opcode is None:
                raise ProtocolError(
                    "continuation frame with no message in progress"
                )
        elif self._opcode is not None:
            raise ProtocolError(
                f"new data frame (opcode {frame.opcode:#x}) inside a "
                f"fragmented message"
            )
        else:
            self._opcode = frame.opcode
        self._parts.append(frame.payload)
        self._size += len(frame.payload)
        if self._size > MAX_WS_PAYLOAD_BYTES:
            raise ProtocolError(
                f"fragmented message of {self._size} bytes exceeds "
                f"MAX_WS_PAYLOAD_BYTES ({MAX_WS_PAYLOAD_BYTES})"
            )
        if not frame.fin:
            return None
        opcode = self._opcode
        payload = b"".join(self._parts)
        self._opcode = None
        self._parts = []
        self._size = 0
        assert opcode is not None
        return opcode, payload
