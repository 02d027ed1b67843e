"""Deterministic fault injection: the chaos harness for dispatch.

Proving the resilience layer works needs backends that fail *on
schedule*: a breaker test wants exactly N consecutive faults, a
failover benchmark wants a blackout window that opens and closes at
known logical times, and none of it may depend on wall-clock sleeps or
global RNG state. :class:`FaultInjectingBackend` wraps any real
:class:`~repro.backends.base.Backend` and runs a scripted
:class:`FaultPlan` — an ordered list of fault specs evaluated against
an injectable clock and RNG before every delegated call:

* :class:`TransientBurst` — the next ``calls`` executes raise.
* :class:`FailedOutcomes` — the next ``calls`` executes return a
  :class:`~repro.backends.base.BatchResult` where every outcome failed
  (the backend "answered", but uselessly — trips breakers without an
  exception path).
* :class:`LatencySpike` — the next ``calls`` executes are delayed by
  ``seconds`` through the injectable ``sleep``, then delegate.
* :class:`Blackout` — every execute raises while
  ``start <= clock() < end``: a dead backend.
* :class:`Flap` — within ``[start, end)`` the backend alternates down
  and up phases of ``period`` seconds (down for ``duty`` of each
  period): a link that can't decide.
* :class:`RandomFaults` — each execute raises with ``probability``,
  drawn from the injected :class:`random.Random` (seed it and the
  "chaos" replays exactly).

Specs are evaluated in plan order and the first that fires wins, so a
plan reads as a schedule: ``[Blackout(5, 25), Flap(25, 38, period=2)]``.
Everything the injector does is counted and exposed via
:meth:`FaultInjectingBackend.snapshot`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from random import Random

from repro.backends.base import Backend, BatchResult, QueryOutcome, rebadge
from repro.errors import BackendError
from repro.runtime.metrics import Counters


class InjectedFaultError(BackendError):
    """Raised by a fault spec standing in for an engine/connection fault."""


#: actions a spec can request for one call
_RAISE = "raise"
_FAIL = "fail"
_DELAY = "delay"


class FaultSpec:
    """One scripted fault behaviour; subclasses decide per call.

    :meth:`decide` sees the 1-based call index, the plan clock's
    current time, and the plan RNG; it returns ``None`` (pass) or an
    ``(action, value)`` pair — ``("raise", message)``,
    ``("fail", message)``, or ``("delay", seconds)``. Specs may keep
    internal burst counters; the plan serializes calls under a lock, so
    they need no locking of their own.
    """

    def decide(
        self, call_index: int, now: float, rng: Random
    ) -> tuple[str, object] | None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {"kind": type(self).__name__}


class TransientBurst(FaultSpec):
    """Raise on the next ``calls`` executes, then stand down."""

    def __init__(self, calls: int, error: str = "injected transient fault") -> None:
        if calls < 1:
            raise BackendError("calls must be >= 1")
        self.calls = int(calls)
        self.error = error
        self._remaining = int(calls)

    def decide(self, call_index, now, rng):
        if self._remaining > 0:
            self._remaining -= 1
            return (_RAISE, self.error)
        return None

    def snapshot(self) -> dict:
        return {**super().snapshot(), "calls": self.calls, "remaining": self._remaining}


class FailedOutcomes(FaultSpec):
    """Return all-failed outcomes (no exception) for the next ``calls``."""

    def __init__(self, calls: int, error: str = "injected failed outcome") -> None:
        if calls < 1:
            raise BackendError("calls must be >= 1")
        self.calls = int(calls)
        self.error = error
        self._remaining = int(calls)

    def decide(self, call_index, now, rng):
        if self._remaining > 0:
            self._remaining -= 1
            return (_FAIL, self.error)
        return None

    def snapshot(self) -> dict:
        return {**super().snapshot(), "calls": self.calls, "remaining": self._remaining}


class LatencySpike(FaultSpec):
    """Delay the next ``calls`` executes by ``seconds``, then delegate."""

    def __init__(self, calls: int, seconds: float) -> None:
        if calls < 1:
            raise BackendError("calls must be >= 1")
        if seconds < 0:
            raise BackendError("seconds must be non-negative")
        self.calls = int(calls)
        self.seconds = float(seconds)
        self._remaining = int(calls)

    def decide(self, call_index, now, rng):
        if self._remaining > 0:
            self._remaining -= 1
            return (_DELAY, self.seconds)
        return None

    def snapshot(self) -> dict:
        return {**super().snapshot(), "calls": self.calls, "remaining": self._remaining}


class Blackout(FaultSpec):
    """Dead backend: every execute raises while ``start <= now < end``."""

    def __init__(self, start: float, end: float, error: str = "injected blackout") -> None:
        if end <= start:
            raise BackendError("blackout end must be after start")
        self.start = float(start)
        self.end = float(end)
        self.error = error

    def decide(self, call_index, now, rng):
        if self.start <= now < self.end:
            return (_RAISE, self.error)
        return None

    def snapshot(self) -> dict:
        return {**super().snapshot(), "start": self.start, "end": self.end}


class Flap(FaultSpec):
    """Flapping link: down/up phases of ``period`` within ``[start, end)``.

    Each period starts down for ``duty * period`` seconds, then comes
    back up for the remainder — deterministic in the plan clock.
    """

    def __init__(
        self,
        start: float,
        end: float,
        period: float,
        duty: float = 0.5,
        error: str = "injected flap",
    ) -> None:
        if end <= start:
            raise BackendError("flap end must be after start")
        if period <= 0:
            raise BackendError("period must be positive")
        if not (0 < duty < 1):
            raise BackendError("duty must be in (0, 1)")
        self.start = float(start)
        self.end = float(end)
        self.period = float(period)
        self.duty = float(duty)
        self.error = error

    def decide(self, call_index, now, rng):
        if not (self.start <= now < self.end):
            return None
        phase = (now - self.start) % self.period
        if phase < self.duty * self.period:
            return (_RAISE, self.error)
        return None

    def snapshot(self) -> dict:
        return {
            **super().snapshot(),
            "start": self.start,
            "end": self.end,
            "period": self.period,
            "duty": self.duty,
        }


class RandomFaults(FaultSpec):
    """Raise with ``probability`` per call, from the plan's seeded RNG."""

    def __init__(self, probability: float, error: str = "injected random fault") -> None:
        if not (0 <= probability <= 1):
            raise BackendError("probability must be in [0, 1]")
        self.probability = float(probability)
        self.error = error

    def decide(self, call_index, now, rng):
        if self.probability > 0 and rng.random() < self.probability:
            return (_RAISE, self.error)
        return None

    def snapshot(self) -> dict:
        return {**super().snapshot(), "probability": self.probability}


class FaultPlan:
    """An ordered schedule of :class:`FaultSpec`\\ s sharing clock + RNG.

    ``clock`` is consulted once per call; time-window specs compare
    against that reading, so tests advance a fake clock between batches
    and the whole schedule is reproducible. The first spec that fires
    decides the call.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        clock: Callable[[], float] = time.monotonic,
        rng: Random | None = None,
    ) -> None:
        self.specs = list(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise BackendError(f"not a FaultSpec: {spec!r}")
        self.clock = clock
        self.rng = rng if rng is not None else Random(0)
        self._lock = threading.Lock()
        self._calls = 0

    def decide(self) -> tuple[str, object] | None:
        """The scripted action for the next call, or ``None`` (healthy)."""
        with self._lock:
            self._calls += 1
            now = self.clock()
            for spec in self.specs:
                action = spec.decide(self._calls, now, self.rng)
                if action is not None:
                    return action
            return None

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": self._calls, "specs": [s.snapshot() for s in self.specs]}


class FaultInjectingBackend(Backend):
    """Wrap a backend and make it fail on schedule.

    Accepts either a :class:`FaultPlan` or a plain sequence of specs
    (wrapped into a plan with the given ``clock``/``rng``). ``sleep``
    services :class:`LatencySpike` delays and defaults to a no-op so
    chaos tests never block; pass ``time.sleep`` to feel the spike.
    """

    def __init__(
        self,
        inner: Backend,
        plan: FaultPlan | Sequence[FaultSpec],
        clock: Callable[[], float] = time.monotonic,
        rng: Random | None = None,
        sleep: Callable[[float], None] | None = None,
        name: str = "",
    ) -> None:
        super().__init__(name or inner.name)
        self.inner = inner
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan, clock=clock, rng=rng)
        self.plan = plan
        self._sleep = sleep if sleep is not None else (lambda _s: None)
        self._counters = Counters(
            (
                "injected_errors",
                "injected_failed_batches",
                "injected_delays",
                "clean_calls",
            )
        )

    def execute(self, queries: Sequence[str]) -> BatchResult:
        return self._call(queries, lambda: self.inner.execute(queries))

    def execute_templated(
        self, queries: Sequence[str], template_ids: Sequence[int] | None = None
    ) -> BatchResult:
        return self._call(
            queries, lambda: self.inner.execute_templated(queries, template_ids)
        )

    def _call(
        self, queries: Sequence[str], delegate: Callable[[], BatchResult]
    ) -> BatchResult:
        action = self.plan.decide()
        if action is not None:
            kind, value = action
            if kind == _RAISE:
                self._counters.add(injected_errors=1)
                raise InjectedFaultError(f"backend {self.name!r}: {value}")
            if kind == _FAIL:
                self._counters.add(injected_failed_batches=1)
                outcomes = tuple(
                    QueryOutcome(query=q, ok=False, error=str(value)) for q in queries
                )
                return BatchResult(backend=self.name, outcomes=outcomes)
            if kind == _DELAY:
                self._counters.add(injected_delays=1)
                self._sleep(float(value))  # then fall through to delegate
        if action is None:
            self._counters.add(clean_calls=1)
        return rebadge(delegate(), self.name)

    def load_hint(self) -> dict:
        return self.inner.load_hint()

    def snapshot(self) -> dict:
        return {
            **super().snapshot(),
            **self._counters.snapshot(),
            "plan": self.plan.snapshot(),
            "inner": self.inner.snapshot(),
        }
