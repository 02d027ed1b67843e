"""QuercServer: the asyncio serving front end over the staged spine.

Until this tier the reproduction was a library — nothing bounded
concurrent callers of ``QuercService.process_routed_concurrent``
itself. :class:`QuercServer` gives the service a network face the way
BRAD fronts its engines: an asyncio socket server speaking the
length-prefixed JSON-lines protocol (:mod:`repro.server.protocol`),
one lightweight coroutine per connection, and *edge admission*
(:mod:`repro.server.edge`) shedding load at accept- and frame-time —
before a refused request consumes a lane slot, an executor thread, or
a backend token.

The data path per session::

    bytes → FrameDecoder → submit frame → edge gate → bounded bridge
          → StagedExecutor lane (label → dispatch on the stage pool)
          → done-callback → event loop → result frame → bytes

The **bounded bridge** carries the stage pool's
``submit``-blocks-only-its-tenant semantics over to connections. A
session may have at most ``max_inflight_per_session`` batches in the
spine; past that, *its own* coroutine stops reading (TCP backpressure
reaches the client) while every other session keeps flowing. Into the
executor it uses the non-blocking
:meth:`~repro.runtime.executor.StagedExecutor.try_submit`: a full lane
never parks the event-loop thread — the coroutine awaits a per-lane
room event (set as that application's batches complete) and offers
again. Completions hop back onto the loop via the returned
:class:`concurrent.futures.Future`'s ``add_done_callback`` +
``call_soon_threadsafe``, so no thread ever blocks in ``result()``.

Results stream per batch, in completion order, matched to submits by
id. Malformed frames are answered with structured error frames and the
session carries on at the next frame boundary; only a broken handshake
or a transport error ends it.

Everything the server does is counted once — sessions, frames, bytes
and queries in the service's shared
:class:`~repro.runtime.metrics.RuntimeMetrics` (``server_*`` counters,
``server_decode``/``server_submit``/``server_reply`` stage timings),
sheds by the :class:`~repro.server.edge.EdgeAdmission` that refuses
them — and surfaces as ``QuercService.stats()["server"]``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import ServerError, ServiceError
from repro.server.edge import EDGE_SHEDS, EdgeAdmission
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    encode_frame,
    error_frame,
    goodbye_frame,
    hello_ok_frame,
    labeled_to_wire,
    pong_frame,
    report_to_wire,
    result_frame,
)
from repro.workloads.logs import QueryLogRecord
from repro.workloads.stream import StreamBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.core.service import QuercService

_READ_CHUNK = 1 << 16
_CLOSE = object()


class QuercServer:
    """Asyncio socket server serving one :class:`QuercService`.

    ``edge`` is the admission gate (an unconfigured one admits
    everything); ``queue_depth`` / ``label_workers`` /
    ``dispatch_workers`` size the owned
    :class:`~repro.runtime.executor.StagedExecutor` exactly like
    ``process_routed_concurrent``'s parameters; ``clock`` times the
    server stages (injectable so protocol tests stay wall-clock-free).

    Use :meth:`start` / :meth:`stop` from a running event loop, or
    :class:`ServerThread` to host the loop on a dedicated thread for
    synchronous callers.
    """

    def __init__(
        self,
        service: "QuercService",
        host: str = "127.0.0.1",
        port: int = 0,
        edge: EdgeAdmission | None = None,
        queue_depth: int = 4,
        label_workers: int = 2,
        dispatch_workers: int = 4,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight_per_session: int = 8,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_inflight_per_session < 1:
            raise ServerError("max_inflight_per_session must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.edge = edge if edge is not None else EdgeAdmission()
        self.queue_depth = queue_depth
        self.label_workers = label_workers
        self.dispatch_workers = dispatch_workers
        self.max_frame_bytes = int(max_frame_bytes)
        self.max_inflight_per_session = int(max_inflight_per_session)
        self.clock = clock
        self.metrics = service.runtime.metrics
        self.address: tuple[str, int] | None = None
        self._executor = None
        self._last_executor_stats: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        self._sessions: dict[int, _Session] = {}
        self._session_tasks: set[asyncio.Task] = set()
        self._lane_room: dict[str, asyncio.Event] = {}
        self._next_session_id = 1
        self._closing = False
        service.attach_server(self)

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        if self._server is not None:
            raise ServerError("server already started")
        self._executor = self.service.create_staged_executor(
            queue_depth=self.queue_depth,
            label_workers=self.label_workers,
            dispatch_workers=self.dispatch_workers,
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, end every session, drain the stage pool.

        Sessions are kicked (their transports closed); each one still
        drains its in-flight batches before its task finishes, so every
        accepted frame's work completes inside the spine even when the
        reply can no longer be written. Idempotent.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions.values()):
            session.kick()
        if self._session_tasks:
            await asyncio.gather(
                *list(self._session_tasks), return_exceptions=True
            )
        executor, self._executor = self._executor, None
        if executor is not None:
            # close() joins pool threads: off the loop thread
            await asyncio.to_thread(self._shutdown_executor, executor)

    def _shutdown_executor(self, executor) -> None:
        try:
            executor.close()
        finally:
            self._last_executor_stats = executor.stats()

    async def __aenter__(self) -> "QuercServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- bridge ---------------------------------------------------------------------

    def _lane_event(self, application: str) -> asyncio.Event:
        event = self._lane_room.get(application)
        if event is None:
            event = self._lane_room[application] = asyncio.Event()
        return event

    def _notify_lane(self, application: str) -> None:
        """A batch for ``application`` completed: wake bridge waiters."""
        event = self._lane_room.get(application)
        if event is not None:
            event.set()

    async def _bridge_submit(self, application: str, batch) -> "Future":
        """Offer a batch to the lane; await room without blocking the loop.

        ``try_submit`` returning ``None`` means the lane's ingress is
        full — of *this server's own* earlier batches, whose
        completions set the lane-room event. The clear-offer-wait shape
        closes the lost-wakeup race: a completion landing between the
        failed offer and the wait re-runs the loop instead of sleeping
        through it.
        """
        executor = self._executor
        if executor is None:
            raise ServerError("server is not running")
        while True:
            future = executor.try_submit(application, batch)
            if future is not None:
                return future
            event = self._lane_event(application)
            event.clear()
            future = executor.try_submit(application, batch)
            if future is not None:
                return future
            await event.wait()

    # -- connections ----------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._session_tasks.add(task)
        session: _Session | None = None
        try:
            code: ErrorCode | None = None
            if self._closing:
                code = ErrorCode.SHUTTING_DOWN
            elif not self.edge.admit_session():
                code = ErrorCode.SERVER_BUSY
            if code is not None:
                # best-effort refusal frame; the session never existed
                try:
                    writer.write(
                        encode_frame(
                            error_frame(code, "connection refused at the edge"),
                            self.max_frame_bytes,
                        )
                    )
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                return
            session_id = self._next_session_id
            self._next_session_id += 1
            self.metrics.add(server_sessions=1)
            session = _Session(self, reader, writer, session_id)
            self._sessions[session_id] = session
            try:
                await session.run()
            finally:
                self._sessions.pop(session_id, None)
                self.edge.release_session()
                self.metrics.add(server_sessions_closed=1)
        finally:
            if task is not None:
                self._session_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- introspection --------------------------------------------------------------

    def executor_stats(self) -> dict | None:
        executor = self._executor
        if executor is not None:
            return executor.stats()
        return self._last_executor_stats

    def stats(self) -> dict:
        """The serving tier's snapshot — ``stats()["server"]``.

        Session, frame, byte and query counters come from the shared
        :class:`~repro.runtime.metrics.RuntimeMetrics`; the shed
        counters (and ``edge``, the admission gates' full view) from
        the :class:`~repro.server.edge.EdgeAdmission` that sheds. The
        ``server_*`` stage timings sit alongside the pipeline stages
        in ``stats()["runtime"]["stage_seconds"]``.
        """
        snapshot = self.metrics.snapshot()
        edge = self.edge.snapshot()
        return {
            "address": list(self.address) if self.address else None,
            "running": self._server is not None,
            "active_sessions": len(self._sessions),
            "max_inflight_per_session": self.max_inflight_per_session,
            "max_frame_bytes": self.max_frame_bytes,
            **snapshot["server"],
            **{key: edge[key] for key in EDGE_SHEDS},
            "stage_seconds": {
                name: seconds
                for name, seconds in snapshot["stage_seconds"].items()
                if name.startswith("server_")
            },
            "edge": edge,
        }


class _Session:
    """One connection: a reader coroutine plus a writer task.

    The reader parses frames and feeds the bridge; the writer streams
    completed results. Writes from both sides serialize on one lock.
    The session is *drain-correct*: whatever ends the read loop (EOF,
    goodbye, a fatal handshake error, a server kick), every in-flight
    batch completes inside the spine — releasing its edge slots — and
    only then does the writer stop and ``run`` return.
    """

    def __init__(self, server: QuercServer, reader, writer, session_id: int) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session_id = session_id
        self.application = ""  # session default, set by hello
        self.decoder = FrameDecoder(server.max_frame_bytes)
        self._results: asyncio.Queue = asyncio.Queue()
        self._slots = asyncio.Semaphore(server.max_inflight_per_session)
        self._write_lock = asyncio.Lock()
        self._inflight = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self._helloed = False
        self._dead = False  # transport broken: stop writing, keep draining

    # -- plumbing -------------------------------------------------------------------

    def kick(self) -> None:
        """Server-initiated close: EOF the read loop via the transport."""
        try:
            self.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - already gone
            pass

    async def _send(self, frame: dict) -> None:
        if self._dead:
            return
        metrics = self.server.metrics
        clock = self.server.clock
        start = clock()
        try:
            data = encode_frame(frame, self.server.max_frame_bytes)
            async with self._write_lock:
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, OSError):
            # the client is gone; draining continues without replies
            self._dead = True
            return
        metrics.add(server_frames_out=1, server_bytes_out=len(data))
        metrics.add_stage_seconds("server_reply", clock() - start)

    # -- the two coroutines ---------------------------------------------------------

    async def run(self) -> None:
        writer_task = asyncio.create_task(
            self._writer_loop(), name=f"querc-session-{self.session_id}-writer"
        )
        try:
            await self._read_loop()
        finally:
            # every accepted batch resolves (executor guarantee), so
            # this wait always terminates; only then stop the writer
            await self._drained.wait()
            self._results.put_nowait(_CLOSE)
            await writer_task

    async def _read_loop(self) -> None:
        metrics = self.server.metrics
        clock = self.server.clock
        while True:
            try:
                data = await self.reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                return
            if not data:
                return  # EOF
            metrics.add(server_bytes_in=len(data))
            start = clock()
            events = self.decoder.feed(data)
            metrics.add_stage_seconds("server_decode", clock() - start)
            for event in events:
                if not event.ok:
                    # structured decode failure: answer and carry on at
                    # the boundary the length prefix guarantees
                    metrics.add(server_protocol_errors=1)
                    await self._send(error_frame(event.error, event.detail))
                    continue
                metrics.add(server_frames_in=1)
                start = clock()
                keep_going = await self._handle_frame(event.frame)
                metrics.add_stage_seconds("server_submit", clock() - start)
                if not keep_going:
                    return

    async def _writer_loop(self) -> None:
        server = self.server
        while True:
            item = await self._results.get()
            if item is _CLOSE:
                return
            request_id, n_queries, future = item
            try:
                try:
                    labeled, report = future.result(timeout=0)
                except Exception as exc:  # noqa: BLE001 - surface as a frame
                    await self._send(
                        error_frame(
                            ErrorCode.BATCH_FAILED,
                            f"{type(exc).__name__}: {exc}",
                            request_id,
                        )
                    )
                else:
                    await self._send(
                        result_frame(
                            request_id,
                            [labeled_to_wire(m) for m in labeled],
                            report_to_wire(report),
                        )
                    )
            finally:
                server.edge.release_frame(n_queries)
                self._slots.release()
                self._inflight -= 1
                if self._inflight == 0:
                    self._drained.set()

    # -- frame handling -------------------------------------------------------------

    async def _handle_frame(self, frame: dict) -> bool:
        """Process one decoded frame; False ends the session."""
        kind = frame.get("type")
        if not self._helloed:
            return await self._handle_hello(frame)
        if kind == "submit":
            await self._handle_submit(frame)
            return True
        if kind == "ping":
            await self._send(pong_frame(frame.get("token", 0)))
            return True
        if kind == "goodbye":
            await self._send(goodbye_frame())
            return False
        if kind == "hello":
            await self._send(
                error_frame(ErrorCode.BAD_REQUEST, "session already helloed")
            )
            return True
        self.server.metrics.add(server_protocol_errors=1)
        await self._send(
            error_frame(ErrorCode.BAD_REQUEST, f"unknown frame type {kind!r}")
        )
        return True

    async def _handle_hello(self, frame: dict) -> bool:
        if frame.get("type") != "hello":
            self.server.metrics.add(server_protocol_errors=1)
            await self._send(
                error_frame(
                    ErrorCode.BAD_REQUEST, "first frame must be 'hello'"
                )
            )
            return False
        version = frame.get("version")
        if version != PROTOCOL_VERSION:
            await self._send(
                error_frame(
                    ErrorCode.UNSUPPORTED_VERSION,
                    f"server speaks protocol {PROTOCOL_VERSION}, "
                    f"client offered {version!r}",
                )
            )
            return False
        application = frame.get("application", "")
        if not isinstance(application, str):
            await self._send(
                error_frame(ErrorCode.BAD_REQUEST, "application must be a string")
            )
            return False
        self.application = application
        self._helloed = True
        await self._send(hello_ok_frame(self.session_id))
        return True

    async def _handle_submit(self, frame: dict) -> None:
        request_id = frame.get("id")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            await self._send(
                error_frame(ErrorCode.BAD_REQUEST, "submit needs an integer 'id'")
            )
            return
        queries = frame.get("queries")
        if (
            not isinstance(queries, list)
            or not queries
            or not all(isinstance(q, str) for q in queries)
        ):
            await self._send(
                error_frame(
                    ErrorCode.BAD_REQUEST,
                    "'queries' must be a non-empty list of strings",
                    request_id,
                )
            )
            return
        timestamps = frame.get("timestamps")
        if timestamps is not None and (
            not isinstance(timestamps, list)
            or len(timestamps) != len(queries)
            or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool)
                for t in timestamps
            )
        ):
            await self._send(
                error_frame(
                    ErrorCode.BAD_REQUEST,
                    "'timestamps' must be numbers, one per query",
                    request_id,
                )
            )
            return
        application = frame.get("application") or self.application
        if not application:
            await self._send(
                error_frame(
                    ErrorCode.BAD_REQUEST,
                    "no application: name one in hello or in the submit frame",
                    request_id,
                )
            )
            return
        try:
            self.server.service.application(application)
        except ServiceError:
            await self._send(
                error_frame(
                    ErrorCode.UNKNOWN_APPLICATION,
                    f"unknown application {application!r}",
                    request_id,
                )
            )
            return

        n = len(queries)
        server = self.server
        # the edge decision: shed here and the frame never touches a
        # lane, an executor thread, or a backend gate
        if not server.edge.admit_frame(n):
            await self._send(
                error_frame(
                    ErrorCode.SERVER_BUSY,
                    f"edge admission shed this frame ({n} queries)",
                    request_id,
                )
            )
            return
        records = tuple(
            QueryLogRecord(
                query=query,
                timestamp=float(timestamps[i]) if timestamps else 0.0,
            )
            for i, query in enumerate(queries)
        )
        batch = StreamBatch(
            application=application, time_step=request_id, records=records
        )
        submitted = False
        try:
            # the bounded bridge: per-session window first (this
            # coroutine alone stops reading when it is full), then a
            # non-blocking lane offer
            await self._slots.acquire()
            try:
                future = await server._bridge_submit(application, batch)
            except BaseException:
                self._slots.release()
                raise
            submitted = True
        finally:
            if not submitted:
                server.edge.release_frame(n)
        self._inflight += 1
        self._drained.clear()
        server.metrics.add(server_queries=n)
        loop = asyncio.get_running_loop()

        def _on_done(f, _rid=request_id, _n=n, _app=application):
            # runs on a pool worker: hop back onto the loop thread
            loop.call_soon_threadsafe(self._complete, _rid, _n, f, _app)

        future.add_done_callback(_on_done)

    def _complete(self, request_id: int, n: int, future, application: str) -> None:
        """Loop-thread completion hook: queue the reply, free the lane."""
        self._results.put_nowait((request_id, n, future))
        self.server._notify_lane(application)


class ServerThread:
    """Host a :class:`QuercServer` on a dedicated event-loop thread.

    The synchronous harness for sync clients, benchmarks, and examples:
    ``start()`` blocks until the server is listening (re-raising any
    startup failure), ``stop()`` shuts the server down on its own loop
    and joins the thread. Usable as a context manager.
    """

    def __init__(self, server: QuercServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self.server.address is None:
            raise ServerError("server thread is not started")
        return self.server.address

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise ServerError("server thread already started")
        self._thread = threading.Thread(
            target=self._main, name="querc-server-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surface to start()
            self._startup_error = exc
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        """Stop the server and join its loop thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
