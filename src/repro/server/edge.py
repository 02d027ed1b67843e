"""Edge admission: shed load before it touches the serving spine.

BRAD's front end and WiSeDB's advisors put the first admission decision
at the network edge — a request the service cannot take right now is
answered ``SERVER_BUSY`` *before* it consumes a lane slot, a backend
token, or an executor thread. :class:`EdgeAdmission` reuses the
backend layer's :class:`~repro.backends.admission.AdmissionController`
for exactly that, with two gates:

* the **session gate** bounds concurrent connections — refused at
  accept time, before the handshake does any work;
* the **query gate** bounds in-flight queries across every session and
  (optionally) meters their arrival rate with a token bucket —
  enforced per submit frame, all-or-nothing: a frame the gate cannot
  take whole is shed whole, because a partially-executed request has
  no meaningful reply.

Both gates are optional; an unconfigured edge admits everything. The
clock is injectable, so the soak tests drive the rate limit without
wall-clock sleeps.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.backends.admission import AdmissionController
from repro.runtime.metrics import Counters

# the shed counters, which the serving tier's stats read from here
EDGE_SHEDS = ("sessions_shed", "frames_shed", "queries_shed")


class EdgeAdmission:
    """Accept-time and frame-time admission for the serving tier."""

    def __init__(
        self,
        max_sessions: int | None = None,
        max_in_flight_queries: int | None = None,
        queries_per_second: float | None = None,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._session_gate = (
            AdmissionController(max_in_flight=max_sessions, clock=clock)
            if max_sessions is not None
            else None
        )
        self._query_gate = (
            AdmissionController(
                max_in_flight=max_in_flight_queries,
                rate=queries_per_second,
                burst=burst,
                clock=clock,
            )
            if (max_in_flight_queries is not None or queries_per_second is not None)
            else None
        )
        self._counters = Counters(
            (
                "sessions_admitted",
                "sessions_shed",
                "frames_admitted",
                "frames_shed",
                "queries_admitted",
                "queries_shed",
            )
        )

    # -- session gate ---------------------------------------------------------------

    def admit_session(self) -> bool:
        """One connection asks in at accept time."""
        ok = self._session_gate is None or self._session_gate.admit_all(1)
        if ok:
            self._counters.add(sessions_admitted=1)
        else:
            self._counters.add(sessions_shed=1)
        return ok

    def release_session(self) -> None:
        if self._session_gate is not None:
            self._session_gate.release(1)

    # -- query gate -----------------------------------------------------------------

    def admit_frame(self, n_queries: int) -> bool:
        """One submit frame asks in — whole or not at all."""
        ok = self._query_gate is None or self._query_gate.admit_all(n_queries)
        if ok:
            self._counters.add(frames_admitted=1, queries_admitted=n_queries)
        else:
            self._counters.add(frames_shed=1, queries_shed=n_queries)
        return ok

    def release_frame(self, n_queries: int) -> None:
        """A previously admitted frame's queries finished (or died)."""
        if self._query_gate is not None:
            self._query_gate.release(n_queries)

    # -- introspection --------------------------------------------------------------

    @property
    def sessions_shed(self) -> int:
        return self._counters.value("sessions_shed")

    @property
    def frames_shed(self) -> int:
        return self._counters.value("frames_shed")

    def snapshot(self) -> dict:
        return {
            **self._counters.snapshot(),
            "session_gate": (
                self._session_gate.snapshot() if self._session_gate else None
            ),
            "query_gate": (
                self._query_gate.snapshot() if self._query_gate else None
            ),
        }
