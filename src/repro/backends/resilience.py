"""Fault tolerance for dispatch: retries, deadlines, circuit breakers.

The serving spine assumed every registered backend is permanently
healthy: a backend that raised wholesale (connection loss, engine
fault) failed its dispatch group with no recovery path, and nothing
distinguished a transient blip from a dead engine. This module is the
resilience layer the :class:`~repro.backends.router.BatchRouter` puts
between itself and the backends:

* :class:`RetryPolicy` — bounded re-execution of a faulted group:
  exponential backoff with *deterministic* jitter (a pure function of
  the attempt index and seed, so chaos tests replay exactly), an
  optional per-dispatch deadline budget shared across attempts, and an
  injectable clock/sleep so tests never wait on wall time.
* :class:`CircuitBreaker` — per-backend health gate: ``closed`` while
  the backend behaves, ``open`` after a consecutive-fault or
  failure-rate threshold trips (offers short-circuit without touching
  the admission gate), ``half_open`` after a recovery timeout admits a
  bounded probe; a probe success closes the circuit, a probe failure
  re-opens it. The breaker's state feeds every
  :class:`~repro.backends.policy.CandidateView`, so the load-aware
  routing policies stop preferring an open-circuit backend.

Neither object executes anything itself: the router consults them on
the dispatch path and, on breaker-open or retry exhaustion, re-resolves
the group to a sibling candidate (the fallback spill machinery) before
surfacing failure. Everything is observable — retry counts, breaker
transitions, failovers, deadline expiries — through
``stats()["resilience"]``; each is counted once, by the binding or the
breaker it happened to.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from enum import Enum

from repro.errors import BackendError


class BreakerState(str, Enum):
    """Circuit-breaker states, in the classic three-state machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *executions*, not retries: ``3`` means one
    initial attempt plus up to two retries. The delay before retry
    *k* (1-based) is ``base_delay * multiplier**(k-1)`` capped at
    ``max_delay``, stretched by a jitter factor in ``[1, 1+jitter]``
    that is a pure function of ``(seed, k)`` — runs replay exactly,
    but different policies (seeds) decorrelate.

    ``deadline_seconds`` is a per-dispatch budget across all attempts:
    a retry whose backoff would overrun the budget is abandoned instead
    of slept (the router counts a *deadline expiry* and moves to
    failover). ``clock`` and ``sleep`` are injectable so tests drive
    logical time; the policy itself never sleeps — the router does,
    through :attr:`sleep`.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.1,
        deadline_seconds: float | None = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise BackendError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise BackendError("delays must be non-negative")
        if multiplier < 1:
            raise BackendError("multiplier must be >= 1")
        if jitter < 0:
            raise BackendError("jitter must be non-negative")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise BackendError("deadline_seconds must be positive (or None)")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.deadline_seconds = deadline_seconds
        self.seed = int(seed)
        self.clock = clock
        self.sleep = sleep

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter included."""
        if attempt < 1:
            return 0.0
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        return raw * (1.0 + self.jitter * self._unit(attempt))

    def _unit(self, attempt: int) -> float:
        """Deterministic pseudo-uniform value in [0, 1) for one attempt.

        A Weyl-style multiplicative hash of (seed, attempt) — no RNG
        state, so concurrent dispatch groups can share one policy and
        every run of a test reproduces the same backoff schedule.
        """
        x = (self.seed * 0x9E3779B1 + attempt * 0x85EBCA77) & 0xFFFFFFFF
        x ^= x >> 15
        x = (x * 0x2C1B3C6D) & 0xFFFFFFFF
        x ^= x >> 12
        return x / 2**32

    def snapshot(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "deadline_seconds": self.deadline_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, deadline={self.deadline_seconds})"
        )


class CircuitBreaker:
    """Per-backend health gate with closed → open → half-open recovery.

    The router calls :meth:`allow` before offering a group to the
    backend's admission gate, and :meth:`record_success` /
    :meth:`record_failure` after each execute attempt (one observation
    per *call*, not per query — a wholesale raise and an all-failed
    outcome batch both count as one failure). An allowed offer the gate
    admits none of never executes; the router hands it back with
    :meth:`release` instead.

    Trip conditions (either, evaluated on every failure):

    * ``failure_threshold`` consecutive failed calls;
    * a failure fraction ``>= failure_rate_threshold`` over the last
      ``window`` calls, once the window has filled.

    While **open**, :meth:`allow` returns 0 — the router short-circuits
    the offer and fails the group over to a sibling. After
    ``recovery_seconds`` (measured on the injectable ``clock``), the
    next :meth:`allow` admits a **half-open probe**: up to
    ``half_open_probes`` concurrent calls may execute; a recorded
    success closes the circuit, a failure re-opens it and restarts the
    recovery timer. Thread-safe; many dispatch threads share one
    breaker.

    The breaker counts its own transitions (``opens`` / ``half_opens``
    / ``closes`` in :meth:`snapshot`); ``stats()`` reads them from
    here. ``on_transition(old, new)``, when set, fires on every state
    change — a hook for the caller, unused by the router.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        failure_rate_threshold: float | None = None,
        window: int = 20,
        recovery_seconds: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise BackendError("failure_threshold must be >= 1")
        if failure_rate_threshold is not None and not (
            0 < failure_rate_threshold <= 1
        ):
            raise BackendError("failure_rate_threshold must be in (0, 1]")
        if window < 1:
            raise BackendError("window must be >= 1")
        if recovery_seconds < 0:
            raise BackendError("recovery_seconds must be non-negative")
        if half_open_probes < 1:
            raise BackendError("half_open_probes must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.failure_rate_threshold = failure_rate_threshold
        self.window = int(window)
        self.recovery_seconds = float(recovery_seconds)
        self.half_open_probes = int(half_open_probes)
        self.clock = clock
        self.on_transition: Callable[[str, str], None] | None = None
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=self.window)
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._opens = 0
        self._closes = 0
        self._half_opens = 0
        self._refused = 0  # allow() calls refused while open

    # -- state ---------------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state (non-mutating view).

        An open circuit whose recovery timeout has elapsed still
        reports ``half_open`` here — the *transition* (and the probe
        bookkeeping) happens on the next :meth:`allow`.
        """
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> BreakerState:
        """Caller holds the lock."""
        if (
            self._state is BreakerState.OPEN
            and self.clock() - self._opened_at >= self.recovery_seconds
        ):
            return BreakerState.HALF_OPEN
        return self._state

    def _transition(self, new: BreakerState) -> None:
        """Caller holds the lock; the callback fires inside it, so
        listeners must not re-enter the breaker."""
        old = self._state
        if old is new:
            return
        self._state = new
        # probes belong to one half-open spell: every transition ends or
        # starts one, so a late reply never leaves a count behind
        self._probes_in_flight = 0
        if new is BreakerState.OPEN:
            self._opens += 1
            self._opened_at = self.clock()
        elif new is BreakerState.HALF_OPEN:
            self._half_opens += 1
        else:
            self._closes += 1
            self._consecutive_failures = 0
            self._outcomes.clear()
        if self.on_transition is not None:
            self.on_transition(old.value, new.value)

    # -- the router's protocol -----------------------------------------------------

    def allow(self, n: int = 1) -> int:
        """How many of ``n`` offered units may execute right now.

        Closed: all of them. Open: zero (counted as a short-circuit),
        unless the recovery timeout has elapsed — then the breaker goes
        half-open and admits a probe. Half-open: the full group, as one
        of at most ``half_open_probes`` concurrently outstanding probe
        calls.
        """
        if n <= 0:
            return 0
        with self._lock:
            state = self._effective_state()
            if state is BreakerState.HALF_OPEN and self._state is BreakerState.OPEN:
                self._transition(BreakerState.HALF_OPEN)
            if self._state is BreakerState.OPEN:
                self._refused += 1
                return 0
            if self._state is BreakerState.HALF_OPEN:
                if self._probes_in_flight >= self.half_open_probes:
                    self._refused += 1
                    return 0
                self._probes_in_flight += 1
                return n
            return n

    def release(self) -> None:
        """An allowed offer executed nothing (its admission gate took
        none of it): hand back the half-open probe it may hold."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_success(self) -> None:
        """One execute call came back healthy."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.CLOSED)
                return
            self._consecutive_failures = 0
            self._outcomes.append(True)

    def record_failure(self) -> None:
        """One execute call faulted (raised, or returned only failures)."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.OPEN)
                return
            if self._state is BreakerState.OPEN:
                # late failure from a call admitted before the trip
                self._opened_at = self.clock()
                return
            self._consecutive_failures += 1
            self._outcomes.append(False)
            if self._consecutive_failures >= self.failure_threshold:
                self._transition(BreakerState.OPEN)
                return
            if (
                self.failure_rate_threshold is not None
                and len(self._outcomes) >= self.window
            ):
                failed = sum(1 for ok in self._outcomes if not ok)
                if failed / len(self._outcomes) >= self.failure_rate_threshold:
                    self._transition(BreakerState.OPEN)

    # -- introspection -------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            outcomes = list(self._outcomes)
            return {
                "state": self._effective_state().value,
                "consecutive_failures": self._consecutive_failures,
                "window_failure_rate": (
                    sum(1 for ok in outcomes if not ok) / len(outcomes)
                    if outcomes
                    else 0.0
                ),
                "opens": self._opens,
                "closes": self._closes,
                "half_opens": self._half_opens,
                "short_circuits": self._refused,
                "probes_in_flight": self._probes_in_flight,
                "failure_threshold": self.failure_threshold,
                "failure_rate_threshold": self.failure_rate_threshold,
                "window": self.window,
                "recovery_seconds": self.recovery_seconds,
                "half_open_probes": self.half_open_probes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(state={self.state.value!r})"
