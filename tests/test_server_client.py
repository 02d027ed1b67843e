"""The blocking ``QuercClient``: the async client's calls on a private loop.

Two kinds of peer. A raw-socket fake server scripts exactly which bytes
arrive in which segment — a pong and a result in one ``sendall``, or no
reply at all — which a real server cannot be made to do on purpose. A
real ``QuercServer`` on a ``ServerThread`` covers the handshake, the
edge's session gate and ping.
"""

from __future__ import annotations

import socket
import threading
from contextlib import contextmanager

import pytest

from repro.core import QuercService
from repro.errors import ServerError, ServerReplyError
from repro.server import EdgeAdmission, QuercClient, QuercServer, ServerThread
from repro.server.protocol import (
    FrameDecoder,
    encode_frame,
    hello_ok_frame,
    pong_frame,
    result_frame,
)


@contextmanager
def fake_server(script):
    """Serve one connection on loopback with ``script(conn, frames)``,
    where ``frames`` yields the client's decoded frames until EOF."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)  # a client that never comes fails the accept

    def frames(conn):
        decoder = FrameDecoder()
        while data := conn.recv(1 << 16):
            for event in decoder.feed(data):
                yield event.frame

    def serve():
        conn, _ = listener.accept()
        with conn:
            script(conn, frames(conn))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def answer_hello(conn, frames) -> None:
    assert next(frames)["type"] == "hello"
    conn.sendall(encode_frame(hello_ok_frame(7)))


def test_a_pong_and_a_result_in_one_segment_both_arrive():
    def coalesce(conn, frames):
        answer_hello(conn, frames)
        submit = next(frames)
        labeled = [{"query": q, "labels": {"n": 1}} for q in submit["queries"]]
        conn.sendall(
            encode_frame(pong_frame(5))
            + encode_frame(result_frame(submit["id"], labeled, None))
        )
        for _ in frames:  # until the client hangs up
            pass

    with fake_server(coalesce) as address:
        with QuercClient(*address, timeout=5.0) as client:
            assert client.session_id == 7
            result = client.run_batch(["select 1", "select 2"])
            assert result.labels == [{"n": 1}, {"n": 1}]
            # the unsolicited pong was kept, not dropped with the segment
            assert client.ping() == 5


def test_a_timeout_is_the_builtin_timeout_error_and_close_is_idempotent():
    def never_answer(conn, frames):
        answer_hello(conn, frames)
        for _ in frames:
            pass

    with fake_server(never_answer) as address:
        client = QuercClient(*address, timeout=0.2).connect()
        with pytest.raises(TimeoutError) as waited:
            client.run_batch(["select 1"])
        assert waited.type is TimeoutError
        client.close()
        client.close()
        with pytest.raises(ServerError):
            client.run_batch(["select 1"])


@pytest.fixture
def server_thread():
    service = QuercService()
    server = QuercServer(service, edge=EdgeAdmission(max_sessions=1))
    try:
        with ServerThread(server) as thread:
            yield thread
    finally:
        service.close()


def test_ping_round_trips_and_a_second_connect_raises(server_thread):
    with QuercClient(*server_thread.address) as client:
        assert client.session_id is not None
        assert client.ping(41) == 41
        with pytest.raises(ServerError, match="already connected"):
            client.connect()
        assert client.ping(42) == 42


def test_a_session_the_edge_refuses_raises_server_busy(server_thread):
    with QuercClient(*server_thread.address):
        refused = QuercClient(*server_thread.address, timeout=5.0)
        with pytest.raises(ServerReplyError) as busy:
            refused.connect()
        assert busy.value.code == "SERVER_BUSY"
        refused.close()  # already torn down by the failed connect


def test_a_server_that_hangs_up_fails_the_next_call_at_once():
    def hang_up(conn, frames):
        answer_hello(conn, frames)

    with fake_server(hang_up) as address:
        with QuercClient(*address, timeout=5.0) as client:
            with pytest.raises(ServerError):
                client.ping()
            with pytest.raises(ServerError):
                client.run_batch(["select 1"])
