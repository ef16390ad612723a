"""The gateway's wire formats: HTTP request parsing + RFC 6455 frames.

Pinned scenarios for both codecs; the hypothesis suite
(``test_protocol_properties.py``) generalizes the roundtrips across
arbitrary payloads, fragmentation, masking and chunk boundaries.  Torn
input is a loud :class:`ProtocolError`; clean EOF between messages is
not.
"""

import asyncio

import pytest

from repro.serve.http.protocol import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    ProtocolError,
    WSDecoder,
    WSFrame,
    WSMessageAssembler,
    encode_response,
    encode_ws_frame,
    encode_ws_message,
    parse_request_head,
    read_http_request,
    ws_accept_key,
)

pytestmark = pytest.mark.serving


def feed_all(decoder: WSDecoder, data: bytes) -> list[WSFrame]:
    decoder.feed(data)
    return list(decoder.frames())


class TestHttpParser:
    def test_parses_request_line_and_headers(self):
        req = parse_request_head(
            b"POST /v1/infer HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n\r\n"
        )
        assert req.method == "POST"
        assert req.target == "/v1/infer"
        assert req.version == "HTTP/1.1"
        assert req.headers["host"] == "x"
        assert req.headers["content-type"] == "application/json"

    def test_header_names_are_lowercased_values_stripped(self):
        req = parse_request_head(
            b"GET / HTTP/1.1\r\nX-Thing:   padded   \r\n\r\n"
        )
        assert req.headers == {"x-thing": "padded"}

    def test_websocket_upgrade_detection(self):
        req = parse_request_head(
            b"GET /v1/stream HTTP/1.1\r\nConnection: keep-alive, Upgrade\r\n"
            b"Upgrade: websocket\r\n\r\n"
        )
        assert req.is_websocket_upgrade
        plain = parse_request_head(b"GET / HTTP/1.1\r\n\r\n")
        assert not plain.is_websocket_upgrade

    @pytest.mark.parametrize(
        "head",
        [
            b"\r\n\r\n",                                  # empty
            b"GET /\r\n\r\n",                             # 2-part line
            b"GET / HTTP/1.1 extra\r\n\r\n",              # 4-part line
            b"GET / HTTP/2\r\n\r\n",                      # bad version
            b"get / HTTP/1.1\r\n\r\n",                    # lowercase method
            b"GET noslash HTTP/1.1\r\n\r\n",              # bad target
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",   # bad header
            b"GET / HTTP/1.1\r\n : empty-name\r\n\r\n",   # empty name
            b"GET / HTTP/1.1\r\nH\xc3\xa9ader: x\r\n\r\n",  # non-ascii
        ],
    )
    def test_malformed_heads_raise(self, head):
        with pytest.raises(ProtocolError):
            parse_request_head(head)

    def test_oversize_head_raises(self):
        big = b"GET / HTTP/1.1\r\nX: " + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n"
        with pytest.raises(ProtocolError, match="MAX_HEAD_BYTES"):
            parse_request_head(big)

    def test_encode_response_shape(self):
        raw = encode_response(200, b'{"a":1}')
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 7\r\n" in raw
        assert raw.endswith(b"\r\n\r\n" + b'{"a":1}')
        assert b"Connection: close" in encode_response(400, b"x", close=True)

    def test_accept_key_matches_rfc6455_example(self):
        # The worked example from RFC 6455 section 1.3.
        key = "dGhlIHNhbXBsZSBub25jZQ=="
        assert ws_accept_key(key) == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="


class TestReadHttpRequest:
    def run(self, coro):
        return asyncio.run(coro)

    async def _read(self, data: bytes):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_http_request(reader)

    def test_reads_body_by_content_length(self):
        req = self.run(self._read(
            b"POST /v1/infer HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        ))
        assert req.body == b"abcd"

    def test_clean_eof_between_requests_is_none(self):
        assert self.run(self._read(b"")) is None

    def test_eof_inside_head_raises(self):
        with pytest.raises(ProtocolError, match="EOF inside"):
            self.run(self._read(b"GET / HTTP/1.1\r\nHost"))

    def test_eof_inside_body_raises(self):
        with pytest.raises(ProtocolError, match="body bytes"):
            self.run(self._read(
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
            ))

    @pytest.mark.parametrize("length", ["nan", "-1", str(MAX_BODY_BYTES + 1)])
    def test_bad_content_length_raises(self, length):
        with pytest.raises(ProtocolError):
            self.run(self._read(
                f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                .encode()
            ))


class TestWSFrameCodec:
    def test_unmasked_roundtrip(self):
        raw = encode_ws_frame(OP_TEXT, b"hello")
        [frame] = feed_all(WSDecoder(), raw)
        assert frame == WSFrame(fin=True, opcode=OP_TEXT, payload=b"hello")

    def test_masked_roundtrip(self):
        raw = encode_ws_frame(OP_BINARY, b"payload", mask=b"\x01\x02\x03\x04")
        assert b"payload" not in raw  # actually masked on the wire
        [frame] = feed_all(WSDecoder(require_mask=True), raw)
        assert frame.payload == b"payload"

    @pytest.mark.parametrize("length", [0, 1, 125, 126, 127, 65535, 65536])
    def test_length_encodings(self, length):
        payload = bytes(length % 251 for _ in range(length))
        raw = encode_ws_frame(OP_BINARY, payload)
        [frame] = feed_all(WSDecoder(), raw)
        assert frame.payload == payload

    def test_incremental_byte_at_a_time(self):
        raw = encode_ws_frame(OP_TEXT, b"abcdef", mask=b"mask")
        decoder = WSDecoder()
        frames = []
        for i in range(len(raw)):
            decoder.feed(raw[i : i + 1])
            frames.extend(decoder.frames())
        assert [f.payload for f in frames] == [b"abcdef"]
        decoder.check_eof()  # nothing dangling

    def test_torn_frame_is_loud_at_eof(self):
        raw = encode_ws_frame(OP_TEXT, b"abcdef")
        decoder = WSDecoder()
        decoder.feed(raw[:-2])
        assert list(decoder.frames()) == []  # waits, never hangs or raises
        with pytest.raises(ProtocolError, match="EOF inside"):
            decoder.check_eof()

    def test_require_mask_rejects_unmasked(self):
        with pytest.raises(ProtocolError, match="unmasked client frame"):
            feed_all(WSDecoder(require_mask=True),
                     encode_ws_frame(OP_TEXT, b"x"))

    def test_forbid_mask_rejects_masked(self):
        with pytest.raises(ProtocolError, match="masked server frame"):
            feed_all(WSDecoder(forbid_mask=True),
                     encode_ws_frame(OP_TEXT, b"x", mask=b"abcd"))

    def test_rsv_bits_rejected(self):
        raw = bytearray(encode_ws_frame(OP_TEXT, b"x"))
        raw[0] |= 0x40
        with pytest.raises(ProtocolError, match="RSV"):
            feed_all(WSDecoder(), bytes(raw))

    def test_unknown_opcode_rejected(self):
        raw = bytearray(encode_ws_frame(OP_TEXT, b"x"))
        raw[0] = (raw[0] & 0xF0) | 0x3
        with pytest.raises(ProtocolError, match="unknown opcode"):
            feed_all(WSDecoder(), bytes(raw))

    def test_control_frames_must_be_small_and_final(self):
        with pytest.raises(ProtocolError, match="exceeds 125"):
            encode_ws_frame(OP_PING, b"x" * 126)
        with pytest.raises(ProtocolError, match="fragmented"):
            encode_ws_frame(OP_PING, b"x", fin=False)
        # and the decoder enforces the same on received bytes
        raw = bytearray(encode_ws_frame(OP_PING, b"x"))
        raw[0] &= 0x7F  # clear FIN
        with pytest.raises(ProtocolError, match="fragmented control"):
            feed_all(WSDecoder(), bytes(raw))

    def test_oversize_length_prefix_rejected(self):
        import struct

        raw = bytes([0x82, 127]) + struct.pack(">Q", 1 << 40)
        with pytest.raises(ProtocolError, match="MAX_WS_PAYLOAD_BYTES"):
            feed_all(WSDecoder(), raw)


class TestMessageAssembly:
    def test_fragmented_message_reassembles(self):
        raw = encode_ws_message(b"abcdefghij", fragment_size=3)
        assembler = WSMessageAssembler()
        messages = [
            m for f in feed_all(WSDecoder(), raw)
            if (m := assembler.push(f)) is not None
        ]
        assert messages == [(OP_BINARY, b"abcdefghij")]

    def test_control_frame_interleaves_mid_message(self):
        frames = [
            WSFrame(fin=False, opcode=OP_TEXT, payload=b"ab"),
            WSFrame(fin=True, opcode=OP_PING, payload=b"hb"),
            WSFrame(fin=True, opcode=OP_CONT, payload=b"cd"),
        ]
        assembler = WSMessageAssembler()
        out = [m for f in frames if (m := assembler.push(f)) is not None]
        assert out == [(OP_PING, b"hb"), (OP_TEXT, b"abcd")]

    def test_continuation_without_message_raises(self):
        with pytest.raises(ProtocolError, match="no message in progress"):
            WSMessageAssembler().push(
                WSFrame(fin=True, opcode=OP_CONT, payload=b"x")
            )

    def test_new_data_frame_mid_message_raises(self):
        assembler = WSMessageAssembler()
        assembler.push(WSFrame(fin=False, opcode=OP_TEXT, payload=b"a"))
        with pytest.raises(ProtocolError, match="inside a fragmented"):
            assembler.push(WSFrame(fin=True, opcode=OP_TEXT, payload=b"b"))

    def test_close_passes_through(self):
        out = WSMessageAssembler().push(
            WSFrame(fin=True, opcode=OP_CLOSE, payload=b"")
        )
        assert out == (OP_CLOSE, b"")
