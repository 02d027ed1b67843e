"""The serving tier's wire protocol: length-prefixed JSON lines.

One frame is a 4-byte big-endian length followed by exactly that many
bytes of UTF-8 — a single compact JSON object terminated by ``\\n``
(the JSON-lines flavor: strip the prefix and a capture is greppable).
The length prefix is what makes the stream *robust*: a reader always
knows where the next frame starts, so a frame whose payload turns out
to be garbage (bad JSON, a non-object, an oversized declaration) can
be answered with a structured error frame and *skipped*, leaving the
session alive at the next boundary instead of hung or torn down.

Frame types (the ``type`` field):

* ``hello`` / ``hello_ok`` — versioned handshake. The client opens
  with its protocol version and default application; the server
  answers with its version and the session id, or an ``error`` frame
  (``SERVER_BUSY`` at the session gate, ``UNSUPPORTED_VERSION`` on a
  mismatch) and closes.
* ``submit`` — one batch: a client-chosen ``id``, ``queries`` (raw SQL
  texts), optional per-query ``timestamps``, optional ``application``
  overriding the session default.
* ``result`` — streamed per batch as it completes (ids match submits;
  order is completion order): the labeled queries plus a dispatch
  report summary.
* ``error`` — structured failure: a machine ``code`` (see
  :class:`ErrorCode`), a human message, and the ``id`` it answers when
  it answers one. Frame-level errors carry no id.
* ``ping`` / ``pong`` and ``goodbye`` — liveness and orderly close.

:class:`FrameDecoder` is the incremental reader both the server and
the clients use: feed it arbitrary byte chunks, get back a list of
:class:`DecodeEvent`\\ s — decoded frames and in-band decode errors.
It never raises on wire data and never loses sync.
"""

from __future__ import annotations

import json
import struct
from enum import Enum

from repro.errors import ProtocolError

PROTOCOL_VERSION = 1
HEADER_BYTES = 4
_HEADER = struct.Struct(">I")
# generous for query batches, small enough that one hostile frame
# cannot balloon a session's buffer
DEFAULT_MAX_FRAME_BYTES = 1 << 20


class ErrorCode(str, Enum):
    """Machine-readable codes carried by ``error`` frames."""

    SERVER_BUSY = "SERVER_BUSY"  # edge admission shed the session/frame
    BAD_FRAME = "BAD_FRAME"  # payload was not a JSON object
    FRAME_TOO_LARGE = "FRAME_TOO_LARGE"  # declared length over the cap
    BAD_REQUEST = "BAD_REQUEST"  # well-formed frame, invalid fields
    UNKNOWN_APPLICATION = "UNKNOWN_APPLICATION"
    UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
    BATCH_FAILED = "BATCH_FAILED"  # the batch raised inside the spine
    SHUTTING_DOWN = "SHUTTING_DOWN"


def jsonable(value):
    """Coerce a value into plain JSON types (numpy scalars included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return jsonable(item())
        except (TypeError, ValueError):
            pass
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return str(value)


def encode_frame(
    frame: dict, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """One frame as wire bytes: length prefix + JSON line."""
    if not isinstance(frame, dict):
        raise ProtocolError("a frame must be a JSON object", code="BAD_FRAME")
    try:
        payload = json.dumps(
            jsonable(frame), separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8") + b"\n"
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame is not JSON-serializable: {exc}") from exc
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte cap",
            code=ErrorCode.FRAME_TOO_LARGE.value,
        )
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload; raises :class:`ProtocolError` with a
    structured code when it is not a JSON object."""
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(frame).__name__}"
        )
    return frame


class DecodeEvent:
    """One outcome of feeding bytes to a :class:`FrameDecoder`.

    Either a decoded ``frame`` (a dict) or an in-band decode error
    (``frame is None``; ``error`` carries the :class:`ErrorCode` value,
    ``detail`` the human text). In-band — not raised — because a
    malformed frame is a *peer* bug the session answers with an error
    frame, not a local crash.
    """

    __slots__ = ("frame", "error", "detail")

    def __init__(
        self, frame: dict | None, error: str = "", detail: str = ""
    ) -> None:
        self.frame = frame
        self.error = error
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.frame is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.ok:
            return f"DecodeEvent(frame={self.frame!r})"
        return f"DecodeEvent(error={self.error!r}, detail={self.detail!r})"


class FrameDecoder:
    """Incremental, never-raising, never-desyncing frame reader.

    ``feed`` buffers arbitrary chunks and emits complete events in
    order. An oversized declared length switches the decoder into skip
    mode — the payload bytes are discarded as they arrive (the buffer
    never holds more than a header's worth of an oversized frame) and
    one ``FRAME_TOO_LARGE`` event is emitted; bad JSON inside a
    well-formed frame emits one ``BAD_FRAME`` event. Either way the
    next frame boundary is known exactly, so the stream keeps going.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 2:
            raise ProtocolError("max_frame_bytes must be >= 2")
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()
        self._skip_remaining = 0  # oversized-frame bytes still to discard
        self.frames_decoded = 0
        self.frames_rejected = 0

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    @property
    def at_boundary(self) -> bool:
        """True when no partial frame is pending (clean EOF point)."""
        return not self._buffer and not self._skip_remaining

    def feed(self, data: bytes) -> list[DecodeEvent]:
        """Consume one chunk; return every event it completes."""
        events: list[DecodeEvent] = []
        self._buffer.extend(data)
        while True:
            if self._skip_remaining:
                drop = min(self._skip_remaining, len(self._buffer))
                del self._buffer[:drop]
                self._skip_remaining -= drop
                if self._skip_remaining:
                    return events  # the rest of the oversized payload
                continue  # skipped it all: back to normal framing
            if len(self._buffer) < HEADER_BYTES:
                return events
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                del self._buffer[:HEADER_BYTES]
                self._skip_remaining = length
                self.frames_rejected += 1
                events.append(
                    DecodeEvent(
                        None,
                        error=ErrorCode.FRAME_TOO_LARGE.value,
                        detail=(
                            f"declared frame length {length} exceeds the "
                            f"{self.max_frame_bytes}-byte cap"
                        ),
                    )
                )
                continue
            if len(self._buffer) < HEADER_BYTES + length:
                return events
            payload = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
            del self._buffer[: HEADER_BYTES + length]
            try:
                frame = decode_payload(payload)
            except ProtocolError as exc:
                self.frames_rejected += 1
                events.append(
                    DecodeEvent(None, error=exc.code, detail=str(exc))
                )
                continue
            self.frames_decoded += 1
            events.append(DecodeEvent(frame))


# -- frame constructors -------------------------------------------------------------


def hello_frame(application: str = "", version: int = PROTOCOL_VERSION) -> dict:
    frame = {"type": "hello", "version": version}
    if application:
        frame["application"] = application
    return frame


def hello_ok_frame(session_id: int, version: int = PROTOCOL_VERSION) -> dict:
    return {"type": "hello_ok", "version": version, "session": session_id}


def submit_frame(
    request_id: int,
    queries: list[str],
    application: str = "",
    timestamps: list[float] | None = None,
) -> dict:
    frame = {"type": "submit", "id": request_id, "queries": list(queries)}
    if application:
        frame["application"] = application
    if timestamps is not None:
        frame["timestamps"] = list(timestamps)
    return frame


def result_frame(request_id: int, labeled: list[dict], report: dict | None) -> dict:
    return {
        "type": "result",
        "id": request_id,
        "labeled": labeled,
        "report": report,
    }


def error_frame(code: str | ErrorCode, message: str, request_id=None) -> dict:
    frame = {
        "type": "error",
        "code": code.value if isinstance(code, ErrorCode) else str(code),
        "message": message,
    }
    if request_id is not None:
        frame["id"] = request_id
    return frame


def ping_frame(token: int = 0) -> dict:
    return {"type": "ping", "token": token}


def pong_frame(token: int = 0) -> dict:
    return {"type": "pong", "token": token}


def goodbye_frame() -> dict:
    return {"type": "goodbye"}


# -- message serialization ----------------------------------------------------------


def labeled_to_wire(message) -> dict:
    """One :class:`~repro.core.labeled_query.LabeledQuery` as JSON."""
    return {
        "query": message.query,
        "labels": {name: jsonable(value) for name, value in message.labels.items()},
    }


def report_to_wire(report) -> dict | None:
    """A :class:`~repro.backends.router.DispatchReport` as JSON.

    Carries the batch aggregates plus every decision with its
    per-query outcomes, so a client sees exactly what the library's
    report would have told it — the serving tier adds transport, not
    opacity.
    """
    if report is None:
        return None
    return {
        "application": report.application,
        "offered": report.offered,
        "admitted": report.admitted,
        "rejected": report.rejected,
        "queued": report.queued,
        "executed_ok": report.executed_ok,
        "retries": report.retries,
        "failovers": report.failovers,
        "decisions": [
            {
                "backend": d.backend,
                "offered": d.offered,
                "admitted": d.admitted,
                "rejected": d.rejected,
                "queued": d.queued,
                "spilled_to": d.spilled_to,
                "spilled_from": d.spilled_from,
                "from_queue": d.from_queue,
                "retries": d.retries,
                "failover_to": d.failover_to,
                "failover_from": d.failover_from,
                "breaker_open": d.breaker_open,
                "deadline_expired": d.deadline_expired,
                "outcomes": (
                    None
                    if d.result is None
                    else [
                        {
                            "query": o.query,
                            "ok": o.ok,
                            "n_rows": jsonable(o.n_rows),
                            "error": o.error,
                        }
                        for o in d.result.outcomes
                    ]
                ),
            }
            for d in report.decisions
        ],
    }
