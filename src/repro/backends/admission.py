"""Per-backend admission control: in-flight slots + token bucket.

WiSeDB and Tempo both place the admission decision in front of the
backends — a database protects itself by bounding how much concurrently
executing work it accepts (in-flight slots) and how fast new work may
arrive (token bucket). Both limits are optional; an unconfigured
controller admits everything. The clock is injectable so rate-limit
behavior is deterministic under test.

Admission is the *capacity* gate; the *health* gate (circuit breakers,
:mod:`repro.backends.resilience`) runs before it on the dispatch path —
an open breaker short-circuits a group without consuming slots or
tokens here.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.errors import AdmissionError

# "leave this knob alone" marker for resize() — None is a meaningful
# value there (remove the bound), so absence needs its own sentinel
_UNSET = object()


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``.

    ``take(n)`` grants up to ``n`` tokens (never blocks, never goes
    negative) and returns how many were granted — partial grants let
    the router admit the head of a batch and spill the tail.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise AdmissionError("token rate must be positive")
        if burst <= 0:
            raise AdmissionError("burst capacity must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)  # start full: allow an initial burst
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def take(self, n: int) -> int:
        """Grant up to ``n`` whole tokens; returns the number granted."""
        if n <= 0:
            return 0
        with self._lock:
            self._refill()
            granted = min(n, int(self._tokens))
            self._tokens -= granted
            return granted

    def take_exact(self, n: int) -> bool:
        """Grant exactly ``n`` tokens or none at all.

        The all-or-nothing flavor the serving tier's edge admission
        uses: a request frame is either wholly admitted or wholly shed
        — a partially-executed frame has no meaningful reply.
        """
        if n <= 0:
            return True
        with self._lock:
            self._refill()
            if self._tokens < n:
                return False
            self._tokens -= n
            return True

    def resize(self, rate: float | None = None, burst: float | None = None) -> None:
        """Change the refill rate and/or capacity without minting tokens.

        The balance is first refilled at the *old* rate (time already
        elapsed is priced at the rate it accrued under), then the new
        parameters take effect and the balance is clamped to the new
        ``burst``. Growing the capacity never grants the difference as
        an instant burst — the extra headroom fills at the new rate —
        and shrinking it forfeits any excess immediately, so a
        provisioning change can never let a spike through that neither
        configuration would have admitted.
        """
        if rate is not None and rate <= 0:
            raise AdmissionError("token rate must be positive")
        if burst is not None and burst <= 0:
            raise AdmissionError("burst capacity must be positive")
        with self._lock:
            self._refill()  # accrue at the old rate up to now
            if rate is not None:
                self.rate = float(rate)
            if burst is not None:
                self.burst = float(burst)
            self._tokens = min(self._tokens, self.burst)

    @property
    def available(self) -> int:
        with self._lock:
            self._refill()
            return int(self._tokens)


class AdmissionController:
    """Gate in front of one backend: bounded in-flight work plus an
    optional arrival-rate limit.

    ``admit(n)`` grants ``k <= n`` units (slots acquired, tokens
    spent); the caller must ``release(k)`` once the admitted work has
    finished executing. Tokens are consumed, not returned — the rate
    limit meters arrivals, the slots meter concurrency.

    The gate also *publishes* its own history: cumulative
    ``offered``/``granted`` counts, a lifetime :attr:`rejection_rate`,
    and the live :attr:`headroom` (free fraction of the in-flight
    bound). The load-aware routing policies
    (:mod:`repro.backends.policy`) consume these — a gate that is
    turning work away is the signal to place elsewhere.
    """

    def __init__(
        self,
        max_in_flight: int | None = None,
        rate: float | None = None,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise AdmissionError("max_in_flight must be >= 1 (or None)")
        if burst is not None and rate is None:
            raise AdmissionError("burst requires a rate")
        self.max_in_flight = max_in_flight
        self._clock = clock
        self._bucket = (
            TokenBucket(rate, burst if burst is not None else rate, clock)
            if rate is not None
            else None
        )
        self._in_flight = 0
        self._offered = 0
        self._granted = 0
        self._resizes = 0
        self._lock = threading.Lock()

    def admit(self, n: int) -> int:
        """Admit up to ``n`` units of work; returns how many got in."""
        if n <= 0:
            return 0
        with self._lock:
            requested = n
            if self.max_in_flight is not None:
                free = self.max_in_flight - self._in_flight
                n = min(n, max(0, free))
            if n and self._bucket is not None:
                n = self._bucket.take(n)
            self._in_flight += n
            self._offered += requested
            self._granted += n
            return n

    def admit_all(self, n: int) -> bool:
        """Admit exactly ``n`` units or nothing (slots *and* tokens).

        The edge-admission flavor of :meth:`admit`: a network request
        frame is indivisible, so a gate that can only take part of it
        must shed the whole frame — before any slot or token is spent.
        A refused offer still counts toward ``offered`` (and therefore
        the rejection rate the routing policies watch).
        """
        if n <= 0:
            return True
        with self._lock:
            self._offered += n
            if (
                self.max_in_flight is not None
                and self.max_in_flight - self._in_flight < n
            ):
                return False
            if self._bucket is not None and not self._bucket.take_exact(n):
                return False
            self._in_flight += n
            self._granted += n
            return True

    def resize(
        self,
        max_in_flight: "int | None | object" = _UNSET,
        rate: "float | None | object" = _UNSET,
        burst: "float | None | object" = _UNSET,
    ) -> dict:
        """Re-provision the gate in place; returns the new snapshot.

        Omitted knobs keep their value; passing ``None`` removes that
        bound. Work already in flight is never disturbed: shrinking
        ``max_in_flight`` below the current occupancy only pauses new
        admissions until releases drain under the new bound, and rate
        changes go through :meth:`TokenBucket.resize` — the balance is
        carried over and clamped, never topped up, so a resize cannot
        mint a token burst. A bucket created by adding a rate to a
        previously unlimited gate starts *empty*: arrivals that used
        to pass uncounted begin paying immediately. Every argument is
        validated before any knob changes: a call that raises leaves
        the gate as it was.
        """
        new_rate = None if rate is _UNSET else rate
        new_burst = None if burst is _UNSET else burst
        with self._lock:
            bound = None if max_in_flight is _UNSET else max_in_flight
            if bound is not None and bound < 1:
                raise AdmissionError("max_in_flight must be >= 1 (or None)")
            if burst is not _UNSET and (
                (rate is _UNSET and self._bucket is None)
                or (rate is None and burst is not None)
            ):
                # burst without a rate is the constructor's error too
                raise AdmissionError("burst requires a rate")
            if new_rate is not None and new_rate <= 0:
                raise AdmissionError("token rate must be positive")
            if new_burst is not None and new_burst <= 0:
                raise AdmissionError("burst capacity must be positive")
            if max_in_flight is not _UNSET:
                self.max_in_flight = max_in_flight
            if rate is None:
                self._bucket = None
            elif self._bucket is not None:
                if rate is not _UNSET or burst is not _UNSET:
                    self._bucket.resize(rate=new_rate, burst=new_burst)
            elif new_rate is not None:
                bucket = TokenBucket(
                    new_rate,
                    new_burst if new_burst is not None else new_rate,
                    self._clock,
                )
                # start empty, not full: adding a rate limit must
                # meter the very next arrival, not grant a burst
                bucket._tokens = 0.0
                self._bucket = bucket
            self._resizes += 1
        return self.snapshot()

    def release(self, n: int) -> None:
        """Return ``n`` previously admitted units' slots."""
        if n < 0:
            raise AdmissionError("cannot release a negative count")
        with self._lock:
            if n > self._in_flight:
                raise AdmissionError(
                    f"release({n}) exceeds in-flight count {self._in_flight}"
                )
            self._in_flight -= n

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _headroom_of(self, in_flight: int) -> float | None:
        """Free fraction of the slot bound; shared by property and
        snapshot so the formula cannot diverge (not locked — callers
        hold the lock or pass a consistent reading)."""
        if self.max_in_flight is None:
            return None
        return max(0, self.max_in_flight - in_flight) / self.max_in_flight

    @staticmethod
    def _rejection_rate_of(offered: int, granted: int) -> float:
        return 1.0 - granted / offered if offered else 0.0

    @property
    def headroom(self) -> float | None:
        """Free fraction of the in-flight bound (None when unbounded)."""
        with self._lock:
            return self._headroom_of(self._in_flight)

    @property
    def rejection_rate(self) -> float:
        """Lifetime fraction of offered units this gate turned away."""
        with self._lock:
            return self._rejection_rate_of(self._offered, self._granted)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
                "headroom": self._headroom_of(self._in_flight),
                "offered": self._offered,
                "granted": self._granted,
                "rejection_rate": self._rejection_rate_of(
                    self._offered, self._granted
                ),
                "tokens_available": (
                    self._bucket.available if self._bucket else None
                ),
                "rate": self._bucket.rate if self._bucket else None,
                "burst": self._bucket.burst if self._bucket else None,
                "resizes": self._resizes,
            }
