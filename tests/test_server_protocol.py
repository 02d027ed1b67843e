"""The serving tier's wire protocol, attacked from both sides.

Property tests (hypothesis) pin down the framing layer in isolation —
any JSON frame round-trips through ``encode_frame``/``FrameDecoder``
under arbitrary chunk splits, and a stream salted with malformed
frames yields exactly one structured error event per bad frame with
every good frame still decoded. Session-level fuzz cases then aim the
same malice at a live ``QuercServer`` over a loopback socket: every
hostile byte sequence must come back as a structured ``error`` frame
on a session that still answers pings — never a hang, never a crash,
never a desync. All asyncio tests run under ``run_async``, which
fails the test on leaked event-loop tasks or pool threads.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import EdgeAdmission, QuercServer
from repro.server.protocol import (
    HEADER_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    decode_payload,
    encode_frame,
    error_frame,
    goodbye_frame,
    hello_frame,
    jsonable,
    ping_frame,
    submit_frame,
)

# -- strategies ---------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

frames = st.fixed_dictionaries(
    {"type": st.sampled_from(["submit", "result", "hello", "custom"])},
    optional={
        "id": st.integers(min_value=0, max_value=2**31),
        "queries": st.lists(st.text(max_size=30), max_size=5),
        "extra": json_values,
    },
)


def chunked(blob: bytes, cuts: list[int]) -> list[bytes]:
    """Split a byte string at the given (sorted, deduped) offsets."""
    points = sorted({min(c, len(blob)) for c in cuts})
    out, prev = [], 0
    for p in points:
        out.append(blob[prev:p])
        prev = p
    out.append(blob[prev:])
    return [c for c in out if c] or [b""]


# -- pure framing properties --------------------------------------------------------


class TestFrameRoundTrip:
    @given(frame=frames)
    @settings(max_examples=150, deadline=None)
    def test_encode_decode_payload_round_trip(self, frame):
        wire = encode_frame(frame)
        (length,) = struct.unpack_from(">I", wire)
        assert length == len(wire) - HEADER_BYTES
        assert wire.endswith(b"\n")
        assert decode_payload(wire[HEADER_BYTES:]) == frame

    @given(
        frame_list=st.lists(frames, min_size=1, max_size=6),
        cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_decoder_reassembles_any_chunking(self, frame_list, cuts):
        """However the wire bytes are split, the decoder emits exactly
        the encoded frames, in order, all ok."""
        blob = b"".join(encode_frame(f) for f in frame_list)
        decoder = FrameDecoder()
        events = []
        for chunk in chunked(blob, cuts):
            events.extend(decoder.feed(chunk))
        assert [e.frame for e in events] == frame_list
        assert all(e.ok for e in events)
        assert decoder.at_boundary
        assert decoder.frames_decoded == len(frame_list)
        assert decoder.frames_rejected == 0

    @given(
        parts=st.lists(
            st.one_of(
                frames.map(lambda f: ("ok", f)),
                st.sampled_from(
                    [
                        ("bad", b"not json at all\n"),
                        ("bad", b"[1,2,3]\n"),  # JSON but not an object
                        ("bad", b'"string"\n'),
                        ("bad", b"\xff\xfe garbage \xff\n"),  # invalid UTF-8
                        ("big", None),  # oversized declared length
                    ]
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=8192), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_decoder_resyncs_after_malformed_frames(self, parts, cuts):
        """Bad frames at frame boundaries cost exactly one error event
        each; every good frame around them still decodes."""
        max_bytes = 512
        blob = bytearray()
        expected = []
        for kind, payload in parts:
            if kind == "ok":
                try:
                    wire = encode_frame(payload, max_bytes)
                except ProtocolError:
                    continue  # drew a frame over the tiny test cap
                blob += wire
                expected.append(("ok", payload))
            elif kind == "bad":
                blob += struct.pack(">I", len(payload)) + payload
                expected.append(("err", ErrorCode.BAD_FRAME.value))
            else:  # oversized: header promises too much, body follows
                body = b"x" * (max_bytes + 7)
                blob += struct.pack(">I", len(body)) + body
                expected.append(("err", ErrorCode.FRAME_TOO_LARGE.value))
        decoder = FrameDecoder(max_bytes)
        events = []
        for chunk in chunked(bytes(blob), cuts):
            events.extend(decoder.feed(chunk))
        assert len(events) == len(expected)
        for event, (kind, want) in zip(events, expected):
            if kind == "ok":
                assert event.ok and event.frame == want
            else:
                assert not event.ok and event.error == want
        assert decoder.at_boundary

    @given(noise=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_decoder_never_raises_and_bounds_its_buffer(self, noise):
        decoder = FrameDecoder(max_frame_bytes=256)
        decoder.feed(noise)  # must not raise, whatever the bytes
        # at most one partial frame is ever buffered
        assert decoder.buffered_bytes <= HEADER_BYTES + 256


class TestEncodeGuards:
    def test_oversized_frame_is_refused_with_code(self):
        with pytest.raises(ProtocolError) as exc_info:
            encode_frame({"type": "submit", "blob": "x" * 100}, 64)
        assert exc_info.value.code == ErrorCode.FRAME_TOO_LARGE.value

    def test_non_dict_frame_is_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame(["not", "a", "frame"])

    def test_jsonable_flattens_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        out = jsonable({"a": np.int64(3), "b": np.float32(0.5), "c": (1, 2)})
        assert out == {"a": 3, "b": 0.5, "c": [1, 2]}
        json.dumps(out)  # round-trippable by the stdlib encoder

    def test_truncated_header_waits_instead_of_erroring(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        assert not decoder.at_boundary
        # the rest of a valid frame completes it
        wire = encode_frame(ping_frame(9))
        events = decoder.feed(wire[2:])
        assert [e.frame for e in events] == [ping_frame(9)]


# -- live-session fuzz --------------------------------------------------------------

MAX_TEST_FRAME = 4096


@pytest.fixture()
def tiny_service():
    """A minimal one-app service: labeling yields the timestamp label
    only (no classifiers) and dispatch hits one MiniDB backend."""
    from repro.backends import MiniDBBackend
    from repro.core import QuercService
    from repro.minidb import materialize_log_tables

    queries = [f"SELECT c{i} FROM frames WHERE c{i} > {i}" for i in range(4)]
    service = QuercService()
    service.register_backend(
        MiniDBBackend("DB(proto)", materialize_log_tables(queries, rows_per_table=3))
    )
    service.add_application("proto-app", backend="DB(proto)")
    try:
        yield service
    finally:
        service.close()


async def _start_server(service, **kwargs) -> QuercServer:
    kwargs.setdefault("max_frame_bytes", MAX_TEST_FRAME)
    server = QuercServer(service, **kwargs)
    await server.start()
    return server


async def _open_raw(server):
    host, port = server.address
    return await asyncio.open_connection(host, port)


async def _say(writer, frame: dict) -> None:
    writer.write(encode_frame(frame, MAX_TEST_FRAME))
    await writer.drain()


async def _hear(reader) -> dict:
    """Read exactly one frame off a raw connection."""
    header = await asyncio.wait_for(reader.readexactly(HEADER_BYTES), 10.0)
    (length,) = struct.unpack(">I", header)
    payload = await asyncio.wait_for(reader.readexactly(length), 10.0)
    return decode_payload(payload)


async def _handshake(reader, writer, application: str = "proto-app") -> dict:
    await _say(writer, hello_frame(application=application))
    reply = await _hear(reader)
    assert reply["type"] == "hello_ok"
    assert reply["version"] == PROTOCOL_VERSION
    return reply


class TestLiveSessionFuzz:
    def test_bad_json_frame_answers_error_and_session_survives(
        self, tiny_service, run_async
    ):
        async def scenario():
            server = await _start_server(tiny_service)
            try:
                reader, writer = await _open_raw(server)
                await _handshake(reader, writer)
                for payload in (b"{broken", b"[1,2]\n", b"\xffnot utf8\n"):
                    writer.write(struct.pack(">I", len(payload)) + payload)
                    await writer.drain()
                    reply = await _hear(reader)
                    assert reply["type"] == "error"
                    assert reply["code"] == ErrorCode.BAD_FRAME.value
                    assert "id" not in reply
                # the session is intact: ping still answers
                await _say(writer, ping_frame(77))
                assert (await _hear(reader))["token"] == 77
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            assert server.metrics.server_protocol_errors == 3

        run_async(scenario())

    def test_oversized_frame_is_skipped_not_fatal(self, tiny_service, run_async):
        async def scenario():
            server = await _start_server(tiny_service)
            try:
                reader, writer = await _open_raw(server)
                await _handshake(reader, writer)
                # header declares far more than the cap; body follows
                body = b"y" * (MAX_TEST_FRAME * 3)
                writer.write(struct.pack(">I", len(body)) + body)
                await writer.drain()
                reply = await _hear(reader)
                assert reply["type"] == "error"
                assert reply["code"] == ErrorCode.FRAME_TOO_LARGE.value
                await _say(writer, ping_frame(5))
                assert (await _hear(reader))["token"] == 5
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run_async(scenario())

    def test_truncated_frame_then_eof_closes_cleanly(
        self, tiny_service, run_async
    ):
        async def scenario():
            server = await _start_server(tiny_service)
            try:
                reader, writer = await _open_raw(server)
                await _handshake(reader, writer)
                # promise 100 bytes, deliver 10, hang up
                writer.write(struct.pack(">I", 100) + b"0123456789")
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # the server notices EOF and retires the session: its
                # task ends while the server is still running
                sessions = set(server._session_tasks)
                assert len(sessions) == 1
                await asyncio.wait_for(asyncio.gather(*sessions), 10.0)
                assert server.metrics.server_sessions_closed == 1
                assert server.stats()["running"]
            finally:
                await server.stop()

        run_async(scenario())

    def test_first_frame_must_be_hello(self, tiny_service, run_async):
        async def scenario():
            server = await _start_server(tiny_service)
            try:
                reader, writer = await _open_raw(server)
                await _say(writer, ping_frame(1))
                reply = await _hear(reader)
                assert reply["type"] == "error"
                assert reply["code"] == ErrorCode.BAD_REQUEST.value
                # ... and the server hangs up
                assert await reader.read(64) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run_async(scenario())

    def test_version_mismatch_is_refused(self, tiny_service, run_async):
        async def scenario():
            server = await _start_server(tiny_service)
            try:
                reader, writer = await _open_raw(server)
                await _say(writer, hello_frame(version=99))
                reply = await _hear(reader)
                assert reply["type"] == "error"
                assert reply["code"] == ErrorCode.UNSUPPORTED_VERSION.value
                assert await reader.read(64) == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run_async(scenario())

    def test_bad_submit_fields_answer_bad_request(self, tiny_service, run_async):
        async def scenario():
            server = await _start_server(tiny_service)
            try:
                reader, writer = await _open_raw(server)
                await _handshake(reader, writer)
                hostile = [
                    {"type": "submit", "queries": ["SELECT 1"]},  # no id
                    {"type": "submit", "id": True, "queries": ["SELECT 1"]},
                    {"type": "submit", "id": 1, "queries": []},
                    {"type": "submit", "id": 2, "queries": ["ok", 3]},
                    {"type": "submit", "id": 3, "queries": ["q"],
                     "timestamps": [1.0, 2.0]},
                    {"type": "wat"},
                ]
                for frame in hostile:
                    await _say(writer, frame)
                    reply = await _hear(reader)
                    assert reply["type"] == "error"
                    assert reply["code"] == ErrorCode.BAD_REQUEST.value
                await _say(
                    writer,
                    {"type": "submit", "id": 4, "queries": ["SELECT 1"],
                     "application": "no-such-app"},
                )
                reply = await _hear(reader)
                assert reply["code"] == ErrorCode.UNKNOWN_APPLICATION.value
                assert reply["id"] == 4
                # a well-formed submit still works on the same session
                await _say(writer, submit_frame(5, ["SELECT c0 FROM frames"]))
                reply = await _hear(reader)
                assert reply["type"] == "result"
                assert reply["id"] == 5
                assert len(reply["labeled"]) == 1
                await _say(writer, goodbye_frame())
                assert (await _hear(reader))["type"] == "goodbye"
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run_async(scenario())

    def test_session_gate_sheds_at_accept_time(self, tiny_service, run_async):
        async def scenario():
            server = await _start_server(
                tiny_service, edge=EdgeAdmission(max_sessions=1)
            )
            try:
                r1, w1 = await _open_raw(server)
                await _handshake(r1, w1)
                # the second connection is refused before any handshake
                r2, w2 = await _open_raw(server)
                reply = await _hear(r2)
                assert reply["type"] == "error"
                assert reply["code"] == ErrorCode.SERVER_BUSY.value
                assert await r2.read(64) == b""
                w2.close()
                await w2.wait_closed()
                # first session is untouched
                await _say(w1, ping_frame(3))
                assert (await _hear(r1))["token"] == 3
                w1.close()
                await w1.wait_closed()
            finally:
                await server.stop()
            assert server.edge.sessions_shed == 1
            assert server.stats()["sessions_shed"] == 1

        run_async(scenario())

    def test_error_frame_helper_round_trips_codes(self):
        frame = error_frame(ErrorCode.SERVER_BUSY, "full", request_id=7)
        wire = encode_frame(frame)
        back = decode_payload(wire[HEADER_BYTES:])
        assert back == {
            "type": "error",
            "code": "SERVER_BUSY",
            "message": "full",
            "id": 7,
        }
