"""Clients for the Querc serving tier.

One client speaks the wire protocol: :class:`AsyncQuercClient`, for
asyncio callers (the soak tests drive dozens of these on one loop). It
performs the versioned hello on ``connect``, matches streamed
``result`` frames back to ``submit`` ids (the server replies in
completion order, not submission order), and raises
:class:`~repro.errors.ServerReplyError` carrying the structured code
when the server answers with an ``error`` frame. :class:`QuercClient`
is its blocking face for scripts and examples: the same calls, run on
a private event loop and bounded by a timeout.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Awaitable, Callable, Sequence

from repro.errors import ProtocolError, ServerError, ServerReplyError
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    goodbye_frame,
    hello_frame,
    ping_frame,
    submit_frame,
)


class BatchResult:
    """One completed submit: the labeled rows plus the dispatch report.

    ``labeled`` is the wire form — ``[{"query": ..., "labels": {...}},
    ...]`` in the batch's original order; ``report`` mirrors the
    library path's :class:`~repro.backends.router.DispatchReport`.
    """

    __slots__ = ("request_id", "labeled", "report")

    def __init__(self, request_id: int, labeled: list, report: dict | None) -> None:
        self.request_id = request_id
        self.labeled = labeled
        self.report = report

    @property
    def labels(self) -> list[dict]:
        return [row["labels"] for row in self.labeled]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchResult(id={self.request_id}, n={len(self.labeled)})"
        )


def _reply_error(frame: dict) -> ServerReplyError:
    return ServerReplyError(
        frame.get("message", "server error"),
        code=frame.get("code", "ERROR"),
        request_id=frame.get("id"),
    )


class AsyncQuercClient:
    """Asyncio client: concurrent submits over one session.

    ``submit_future`` returns once the frame is on the wire; awaiting
    the future it returns collects the reply. ``run_batch`` is the
    submit-and-wait convenience. One background
    task reads the socket and resolves futures by id, so any number of
    in-flight batches share the single connection; the hello reply is
    the one future keyed by no id.
    """

    def __init__(
        self,
        host: str,
        port: int,
        application: str = "",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.application = application
        self.max_frame_bytes = int(max_frame_bytes)
        self.session_id: int | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self._pending: dict[int | None, asyncio.Future] = {}
        self._pongs: asyncio.Queue = asyncio.Queue()
        self._reader_task: asyncio.Task | None = None
        self._next_id = 1
        self._closed = False
        self._lost: Exception | None = None  # why the session ended

    # -- lifecycle ------------------------------------------------------------------

    async def connect(self) -> "AsyncQuercClient":
        """Open the session; a refused or failed hello closes the client."""
        if self._writer is not None or self._closed:
            raise ServerError("client already connected")
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        hello = self._pending[None] = asyncio.get_running_loop().create_future()
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="querc-client-reader"
        )
        try:
            await self._send(hello_frame(application=self.application))
            self.session_id = await hello
        except BaseException:
            hello.cancel()
            await self.close()
            raise
        return self

    async def close(self) -> None:
        """Orderly goodbye (best-effort) and teardown. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._reader_task
            self._reader_task = None
        if self._writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                self._writer.write(encode_frame(goodbye_frame(), self.max_frame_bytes))
                await self._writer.drain()
            self._writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await self._writer.wait_closed()
            self._writer = None
        self._fail_pending(ServerError("client closed"))

    async def __aenter__(self) -> "AsyncQuercClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- wire -----------------------------------------------------------------------

    async def _send(self, frame: dict) -> None:
        if self._writer is None:
            raise ServerError("client is not connected")
        if self._lost is not None:
            raise self._lost
        self._writer.write(encode_frame(frame, self.max_frame_bytes))
        await self._writer.drain()

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while data := await self._reader.read(1 << 16):
                for event in self._decoder.feed(data):
                    if not event.ok:
                        self._lose(ProtocolError(event.detail, code=event.error))
                        return
                    self._dispatch(event.frame)
            self._lose(ServerError("server closed the connection"))
        except (ConnectionError, OSError) as exc:
            self._lose(ServerError(f"connection lost: {exc}"))

    def _lose(self, exc: Exception) -> None:
        """The session is over: fail every waiter, and every later call."""
        self._lost = exc
        self._pongs.put_nowait(exc)
        self._fail_pending(exc)

    def _dispatch(self, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "pong":
            self._pongs.put_nowait(frame.get("token", 0))
            return
        if kind not in ("result", "error", "hello_ok"):
            return  # goodbye / unknown frames are ignorable here
        # hello_ok and an id-less error answer the hello, keyed None;
        # after it, an id-less error answers bytes no submit sent
        future = self._pending.pop(frame.get("id"), None)
        if future is None or future.done():
            return
        if kind == "error":
            future.set_exception(_reply_error(frame))
        elif kind == "hello_ok":
            future.set_result(frame.get("session"))
        else:
            labeled = frame.get("labeled", [])
            future.set_result(BatchResult(frame["id"], labeled, frame.get("report")))

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # -- API ------------------------------------------------------------------------

    async def submit_future(
        self,
        queries: Sequence[str],
        application: str = "",
        timestamps: Sequence[float] | None = None,
    ) -> asyncio.Future:
        """Send one batch; the returned future resolves to its
        :class:`BatchResult` (or raises :class:`ServerReplyError`)."""
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            await self._send(
                submit_frame(
                    request_id,
                    list(queries),
                    application=application,
                    timestamps=(
                        list(timestamps) if timestamps is not None else None
                    ),
                )
            )
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        return future

    async def run_batch(
        self,
        queries: Sequence[str],
        application: str = "",
        timestamps: Sequence[float] | None = None,
    ) -> BatchResult:
        future = await self.submit_future(
            queries, application=application, timestamps=timestamps
        )
        return await future

    async def ping(self, token: int = 0) -> int:
        await self._send(ping_frame(token))
        reply = await self._pongs.get()
        if isinstance(reply, Exception):
            raise reply
        return reply


class QuercClient:
    """The blocking face of :class:`AsyncQuercClient` — for scripts.

    Each client owns a private event loop; ``connect``, ``run_batch``,
    ``ping`` and ``close`` run the async client's calls on it, each
    bounded by ``timeout`` seconds (``None``: unbounded) and raising the
    builtin :class:`TimeoutError` when it runs out. Errors are the async
    client's. Inside a running event loop, use the async client itself.
    """

    def __init__(
        self,
        host: str,
        port: int,
        application: str = "",
        timeout: float | None = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.timeout = timeout
        self._client = AsyncQuercClient(host, port, application, max_frame_bytes)
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def session_id(self) -> int | None:
        return self._client.session_id

    def _run(self, call: Callable[..., Awaitable], *args, **kwargs):
        if self._loop is None:
            raise ServerError("client is not connected")
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(call(*args, **kwargs), self.timeout)
            )
        except asyncio.TimeoutError:
            # a class of its own before Python 3.11; callers catch the builtin
            raise TimeoutError(f"no reply within {self.timeout} s") from None

    def connect(self) -> "QuercClient":
        if self._loop is not None:
            raise ServerError("client already connected")
        self._loop = asyncio.new_event_loop()
        try:
            self._run(self._client.connect)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Goodbye (best-effort) and teardown. Idempotent."""
        if self._loop is None:
            return
        try:
            self._run(self._client.close)
        finally:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "QuercClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_batch(
        self,
        queries: Sequence[str],
        application: str = "",
        timestamps: Sequence[float] | None = None,
    ) -> BatchResult:
        return self._run(
            self._client.run_batch,
            queries,
            application=application,
            timestamps=timestamps,
        )

    def ping(self, token: int = 0) -> int:
        return self._run(self._client.ping, token)
