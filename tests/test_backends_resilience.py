"""Fault-tolerant dispatch: retries, circuit breakers, failover, chaos.

Everything here runs on injected clocks and no-op sleeps — the chaos
schedule (bursts, blackouts, flaps) is deterministic in logical time,
so these tests replay identically on every run and never block on wall
time. Coverage is bottom-up: the retry/backoff math, the breaker state
machine, the fault schedules of ``tests/scripted_backend.py`` (through
which every backend here fails), then the router's resilience hooks end
to end (retry → failover → short-circuit → recovery) and the counter
invariants they must preserve.
"""

from __future__ import annotations

import pytest
from fake_clock import FakeClock
from scripted_backend import FAIL, RAISE, ScriptedBackend, ScriptedFault

from repro.backends import (
    BackendRegistry,
    BatchRouter,
    BreakerState,
    CircuitBreaker,
    LeastLoadedPolicy,
    NullBackend,
    RetryPolicy,
    SpillPolicy,
)
from repro.core.labeled_query import LabeledQuery
from repro.errors import BackendError
from repro.runtime.metrics import RuntimeMetrics


class SleepRecorder:
    """Injectable sleep that records instead of blocking."""

    def __init__(self, clock: FakeClock | None = None) -> None:
        self.calls: list[float] = []
        self.clock = clock

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
        if self.clock is not None:
            self.clock.advance(seconds)


def make_batch(n: int, cluster: str = "") -> list[LabeledQuery]:
    labels = {"cluster": cluster} if cluster else {}
    return [LabeledQuery.make(f"select {i}", **labels) for i in range(n)]


def make_router(**kwargs) -> tuple[BackendRegistry, BatchRouter]:
    registry = BackendRegistry()
    router = BatchRouter(
        registry, route_label="cluster", metrics=RuntimeMetrics(), **kwargs
    )
    return registry, router


def assert_invariant(binding) -> None:
    snap = binding.counters.snapshot()
    assert snap["dispatched"] == (
        snap["admitted"]
        + snap["rejected"]
        + snap["queued"]
        + snap["spilled"]
        + snap["queue_evicted"]
    ), snap


# -- RetryPolicy --------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(5) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        b = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        c = RetryPolicy(base_delay=0.1, jitter=0.5, seed=8)
        for attempt in range(1, 6):
            raw = min(a.max_delay, a.base_delay * a.multiplier ** (attempt - 1))
            assert a.delay(attempt) == b.delay(attempt)  # replayable
            assert raw <= a.delay(attempt) <= raw * 1.5  # within [1, 1+jitter]
        # different seeds decorrelate (at least one attempt differs)
        assert any(a.delay(k) != c.delay(k) for k in range(1, 6))

    def test_validation(self):
        with pytest.raises(BackendError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(BackendError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(BackendError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(BackendError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(BackendError):
            RetryPolicy(deadline_seconds=0)

    def test_snapshot_shape(self):
        snap = RetryPolicy(max_attempts=4, deadline_seconds=9.0).snapshot()
        assert snap["max_attempts"] == 4
        assert snap["deadline_seconds"] == 9.0


# -- CircuitBreaker -----------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow(5) == 0  # short-circuited

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_trips_on_failure_rate_over_window(self):
        breaker = CircuitBreaker(
            failure_threshold=100,  # out of reach
            failure_rate_threshold=0.5,
            window=4,
            clock=FakeClock(),
        )
        # alternate so consecutive never accumulates: F S F S → 50% at window
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # window not full
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED  # rate check runs on failures
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.allow(3) == 0
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN  # view only
        assert breaker.allow(3) == 3  # the probe
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(3) == 3

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow(1) == 1
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow(1) == 0  # timer restarted
        clock.advance(5.0)
        assert breaker.allow(1) == 1  # probing again

    def test_half_open_probe_quota(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            recovery_seconds=1.0,
            half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow(4) == 4
        assert breaker.allow(4) == 4
        assert breaker.allow(4) == 0  # quota exhausted until a probe reports

    def test_closing_probe_leaves_no_probe_in_flight(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            recovery_seconds=1.0,
            half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow(1) == 1
        assert breaker.allow(1) == 1
        breaker.record_success()  # closes the circuit
        breaker.record_success()  # the second probe's late reply
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["probes_in_flight"] == 0

    def test_transition_callback_fires(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, clock=clock
        )
        seen: list[tuple[str, str]] = []
        breaker.on_transition = lambda old, new: seen.append((old, new))
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow(1)
        breaker.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_snapshot_counts(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, clock=clock
        )
        breaker.record_failure()
        breaker.allow(1)  # refused
        clock.advance(1.0)
        breaker.allow(1)  # probe
        breaker.record_success()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["opens"] == 1
        assert snap["half_opens"] == 1
        assert snap["closes"] == 1
        assert snap["short_circuits"] == 1

    def test_validation(self):
        with pytest.raises(BackendError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(BackendError):
            CircuitBreaker(failure_rate_threshold=1.5)
        with pytest.raises(BackendError):
            CircuitBreaker(window=0)
        with pytest.raises(BackendError):
            CircuitBreaker(recovery_seconds=-1)
        with pytest.raises(BackendError):
            CircuitBreaker(half_open_probes=0)


# -- fault harness ------------------------------------------------------------------


class TestFaultHarness:
    """The scripted wrapper's one-line schedules do what they claim."""

    def test_transient_burst_then_clean(self):
        backend = ScriptedBackend(
            NullBackend("db"), lambda call, now: RAISE if call <= 2 else None
        )
        for _ in range(2):
            with pytest.raises(ScriptedFault):
                backend.execute(["select 1"])
        result = backend.execute(["select 1"])
        assert result.ok_count == 1
        assert result.backend == "db"
        assert backend.calls == 3

    def test_failed_outcomes_answer_without_raising(self):
        backend = ScriptedBackend(
            NullBackend("db"), lambda call, now: FAIL if call <= 1 else None
        )
        result = backend.execute(["a", "b"])
        assert result.ok_count == 0
        assert result.failed_count == 2
        assert all(o.error == "scripted failure" for o in result.outcomes)
        assert backend.execute(["a"]).ok_count == 1

    def test_blackout_window_follows_the_clock(self):
        clock = FakeClock()
        backend = ScriptedBackend(
            NullBackend("db"), lambda call, now: RAISE if 5 <= now < 10 else None, clock
        )
        assert backend.execute(["q"]).ok_count == 1  # t=0: up
        clock.advance(5.0)
        with pytest.raises(ScriptedFault):
            backend.execute(["q"])  # t=5: dark
        clock.advance(5.0)
        assert backend.execute(["q"]).ok_count == 1  # t=10: back

    def test_flap_duty_cycle(self):
        clock = FakeClock()
        backend = ScriptedBackend(
            NullBackend("db"),
            lambda call, now: RAISE if 0 <= now < 10 and now % 2 < 1 else None,
            clock,
        )
        up_down = []
        for _ in range(10):
            try:
                backend.execute(["q"])
                up_down.append("up")
            except ScriptedFault:
                up_down.append("down")
            clock.advance(1.0)
        assert up_down == ["down", "up"] * 5


# -- router integration -------------------------------------------------------------


class TestRouterResilience:
    def test_unconfigured_binding_raises_untouched(self):
        registry, router = make_router(default_backend="flaky")
        registry.register(
            ScriptedBackend(
                NullBackend("flaky"), lambda call, now: RAISE if call <= 1 else None
            )
        )
        with pytest.raises(ScriptedFault):
            router.dispatch("app", make_batch(2))

    def test_retry_recovers_within_attempts(self):
        clock = FakeClock()
        sleeps = SleepRecorder(clock)
        registry, router = make_router(default_backend="flaky")
        registry.register(
            ScriptedBackend(
                NullBackend("flaky"), lambda call, now: RAISE if call <= 2 else None
            ),
            retry=RetryPolicy(
                max_attempts=3,
                base_delay=0.1,
                jitter=0.0,
                clock=clock,
                sleep=sleeps,
            ),
        )
        report = router.dispatch("app", make_batch(4))
        assert report.executed_ok == 4
        assert report.retries == 2
        assert sleeps.calls == pytest.approx([0.1, 0.2])
        (decision,) = report.decisions
        assert decision.retries == 2
        assert not decision.failover_to
        binding = registry.get("flaky")
        assert binding.counters.value("retries") == 2
        assert binding.counters.value("executed_ok") == 4
        assert_invariant(binding)
        assert router.resilience_snapshot()["retries"] == 2

    def test_retry_exhaustion_fails_over_to_sibling(self):
        clock = FakeClock()
        sleeps = SleepRecorder(clock)
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.1, jitter=0.0, clock=clock, sleep=sleeps
            ),
        )
        standby = NullBackend("standby")
        registry.register(standby)
        report = router.dispatch("app", make_batch(3))
        # every query recovered on the sibling; no error surfaced
        assert report.executed_ok == 3
        assert standby.accepted == 3
        assert report.failovers == 1
        # the recovery pass is excluded from batch aggregates
        assert report.offered == 3
        assert report.admitted == 3
        origin, recovery = report.decisions
        assert origin.backend == "primary"
        assert origin.failover_to == "standby"
        assert origin.retries == 1
        assert recovery.backend == "standby"
        assert recovery.failover_from == "primary"
        primary = registry.get("primary")
        assert primary.counters.value("failovers_out") == 1
        assert primary.counters.value("failed") == 3
        assert registry.get("standby").counters.value("failovers_in") == 1
        assert_invariant(primary)
        assert_invariant(registry.get("standby"))
        assert router.resilience_snapshot()["failovers"] == 1

    def test_retry_exhaustion_without_sibling_raises(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="only")
        registry.register(
            ScriptedBackend(
                NullBackend("only"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.0, clock=clock, sleep=lambda _s: None
            ),
        )
        with pytest.raises(ScriptedFault):
            router.dispatch("app", make_batch(2))
        binding = registry.get("only")
        assert binding.counters.value("failed") == 2
        assert_invariant(binding)

    def test_deadline_budget_abandons_backoff(self):
        clock = FakeClock()
        sleeps = SleepRecorder(clock)
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(
                max_attempts=10,
                base_delay=5.0,
                max_delay=10.0,
                jitter=0.0,
                deadline_seconds=3.0,  # < first backoff: abandon, don't sleep
                clock=clock,
                sleep=sleeps,
            ),
        )
        registry.register(NullBackend("standby"))
        report = router.dispatch("app", make_batch(2))
        assert sleeps.calls == []  # never slept past the budget
        assert report.executed_ok == 2  # recovered on the sibling
        origin = report.decisions[0]
        assert origin.deadline_expired
        assert origin.retries == 0
        primary = registry.get("primary")
        assert primary.counters.value("deadline_expiries") == 1
        assert router.resilience_snapshot()["deadline_expiries"] == 1

    def test_breaker_trips_and_short_circuits_to_sibling(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"),
                lambda call, now: RAISE if now < 50.0 else None,
                clock,
            ),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_seconds=100.0, clock=clock
            ),
        )
        standby = NullBackend("standby")
        registry.register(standby)
        # first dispatch: the raise trips the breaker, then fails over
        report1 = router.dispatch("app", make_batch(2))
        assert report1.executed_ok == 2
        # second dispatch: breaker open → short-circuit before admission
        report2 = router.dispatch("app", make_batch(3))
        assert report2.executed_ok == 3
        origin, sibling = report2.decisions
        assert origin.breaker_open
        assert origin.admitted == 0
        assert origin.spilled_to == "standby"
        assert sibling.spilled_from == "primary"
        assert standby.accepted == 5
        primary = registry.get("primary")
        snap = primary.counters.snapshot()
        assert snap["spilled"] == 3  # the short-circuited group
        assert primary.admission.in_flight == 0  # gate never touched
        assert_invariant(primary)
        assert_invariant(registry.get("standby"))
        # breaker-open hand-offs stay inside the batch aggregates
        assert report2.offered == 3
        assert report2.admitted == 3
        assert report2.failovers == 1

    def test_breaker_open_without_sibling_sheds(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="only")
        registry.register(
            ScriptedBackend(
                NullBackend("only"), lambda call, now: RAISE if call <= 1 else None
            ),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_seconds=100.0, clock=clock
            ),
        )
        with pytest.raises(ScriptedFault):
            router.dispatch("app", make_batch(1))  # trips the breaker
        report = router.dispatch("app", make_batch(4))
        (decision,) = report.decisions
        assert decision.breaker_open
        assert decision.rejected == 4
        assert report.executed_ok == 0
        binding = registry.get("only")
        assert binding.counters.value("rejected") == 4
        assert_invariant(binding)

    def test_breaker_recovery_probe_closes_circuit(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="primary")
        primary_db = NullBackend("primary")
        registry.register(
            ScriptedBackend(
                primary_db,
                lambda call, now: RAISE if now < 10.0 else None,
                clock,
            ),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_seconds=20.0, clock=clock
            ),
        )
        registry.register(NullBackend("standby"))
        router.dispatch("app", make_batch(1))  # trips + fails over
        clock.advance(25.0)  # past both the blackout and the recovery timer
        report = router.dispatch("app", make_batch(2))  # the half-open probe
        (decision,) = report.decisions
        assert decision.backend == "primary"
        assert decision.admitted == 2
        assert report.executed_ok == 2
        breaker = registry.get("primary").breaker
        assert breaker.state is BreakerState.CLOSED
        transitions = breaker.snapshot()
        assert transitions["opens"] == 1
        assert transitions["half_opens"] == 1
        assert transitions["closes"] == 1

    def test_probe_the_gate_refuses_is_handed_back(self):
        """A half-open probe whose group the admission gate admits none
        of never executes; it must not hold the probe slot forever."""
        clock = FakeClock()
        registry, router = make_router(default_backend="only")
        registry.register(
            ScriptedBackend(
                NullBackend("only"), lambda call, now: RAISE if call <= 1 else None
            ),
            max_in_flight=1,
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_seconds=1.0, clock=clock
            ),
            clock=clock,
        )
        with pytest.raises(ScriptedFault):
            router.dispatch("app", make_batch(1))  # trips the breaker
        binding = registry.get("only")
        clock.advance(2.0)
        assert binding.admission.admit(1) == 1  # a concurrent call holds the slot
        (decision,) = router.dispatch("app", make_batch(1)).decisions
        assert (decision.breaker_open, decision.rejected) == (False, 1)
        assert binding.breaker.snapshot()["probes_in_flight"] == 0
        binding.admission.release(1)
        for t in (6.0, 50.0, 500.0):
            clock.now = t
            assert router.dispatch("app", make_batch(1)).executed_ok == 1
            assert binding.breaker.state is BreakerState.CLOSED
        assert_invariant(binding)

    def test_all_failed_outcomes_feed_breaker_but_do_not_retry(self):
        clock = FakeClock()
        sleeps = SleepRecorder(clock)
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"), lambda call, now: FAIL if call <= 2 else None
            ),
            retry=RetryPolicy(
                max_attempts=5, base_delay=0.1, clock=clock, sleep=sleeps
            ),
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_seconds=100.0, clock=clock
            ),
        )
        registry.register(NullBackend("standby"))
        report1 = router.dispatch("app", make_batch(2))
        assert sleeps.calls == []  # the queries ran; nothing to retry
        assert report1.executed_ok == 0
        assert report1.decisions[0].result.failed_count == 2
        router.dispatch("app", make_batch(1))  # second all-failed call trips it
        assert registry.get("primary").breaker.state is BreakerState.OPEN

    def test_failover_prefers_configured_fallback(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            fallback="warm",
            spill=SpillPolicy.FALLBACK,
            retry=RetryPolicy(
                max_attempts=1, clock=clock, sleep=lambda _s: None
            ),
        )
        registry.register(NullBackend("alpha"))  # sorts before "warm"
        warm = NullBackend("warm")
        registry.register(warm)
        report = router.dispatch("app", make_batch(2))
        assert report.decisions[0].failover_to == "warm"
        assert warm.accepted == 2

    def test_failover_hop_refused_by_sibling_breaker_keeps_failover_from(self):
        """The sibling's breaker refuses the recovery pass: its decision
        is still the recovery half of a failover, not new work."""
        clock = FakeClock()
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(max_attempts=1, clock=clock, sleep=lambda _s: None),
        )
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=10.0, clock=clock
        )
        registry.register(NullBackend("standby"), breaker=breaker)
        breaker.record_failure()  # trip the standby
        clock.advance(11.0)  # past recovery: half-open, not skipped as open
        assert breaker.allow(1) == 1  # someone else holds the one probe slot
        report = router.dispatch("app", make_batch(3))
        origin, recovery = report.decisions
        assert origin.failover_to == "standby"
        assert recovery.backend == "standby"
        assert recovery.breaker_open
        assert recovery.rejected == 3
        assert recovery.failover_from == "primary"
        assert report.offered == 3
        standby = registry.get("standby")
        assert standby.counters.value("failovers_in") == 1
        assert_invariant(standby)

    @pytest.mark.parametrize("case", ["route", "label"])
    def test_failover_follows_the_static_chain(self, case):
        """Failover re-resolves through the same static chain placement
        uses: a route-table entry, or a label naming a backend."""
        clock = FakeClock()
        registry, router = make_router(default_backend="A")
        registry.register(
            ScriptedBackend(
                NullBackend("A"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(max_attempts=1, clock=clock, sleep=lambda _s: None),
        )
        healthy = NullBackend("B")
        registry.register(healthy)
        router.set_policy(LeastLoadedPolicy())
        label = "x" if case == "route" else "B"
        if case == "route":
            router.set_route("x", "B")
        router.set_candidates(label, ["A"])  # placement may only pick A
        report = router.dispatch("app", make_batch(2, cluster=label))
        origin, recovery = report.decisions
        assert (origin.backend, origin.failover_to) == ("A", "B")
        assert recovery.failover_from == "A"
        assert healthy.accepted == 2
        assert report.offered == 2

    def test_failover_skips_open_circuit_siblings(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(max_attempts=1, clock=clock, sleep=lambda _s: None),
        )
        dead_breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1000.0, clock=clock
        )
        dead_breaker.record_failure()  # "alpha" is already down
        registry.register(NullBackend("alpha"), breaker=dead_breaker)
        healthy = NullBackend("omega")
        registry.register(healthy)
        report = router.dispatch("app", make_batch(2))
        assert report.decisions[0].failover_to == "omega"
        assert healthy.accepted == 2

    def test_policies_rank_open_circuits_last(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="busy")
        open_breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1000.0, clock=clock
        )
        open_breaker.record_failure()
        # "idle" would win on load, but its circuit is open
        registry.register(NullBackend("idle"), breaker=open_breaker)
        registry.register(NullBackend("busy"), max_in_flight=1)
        router.set_policy(LeastLoadedPolicy())
        views = [registry.get(n).load_view() for n in ("idle", "busy")]
        assert views[0].breaker == "open"
        assert views[0].breaker_open
        ranking = router.policy.rank("c", views, mapped=None)
        assert ranking[0] == "busy"
        assert views[0].as_dict()["breaker"] == "open"

    def test_queue_eviction_by_retry_count(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="throttled")
        # a bucket that never refills on the fake clock: admits 2, then 0
        registry.register(
            NullBackend("throttled"),
            rate=0.001,
            burst=2,
            spill=SpillPolicy.QUEUE,
            queue_max_retries=0,
            clock=clock,
        )
        binding = registry.get("throttled")
        router.dispatch("app", make_batch(4))  # 2 admitted, 2 parked
        assert binding.pending_depth == 2
        # drain re-offers the parked work; still no tokens → would re-park
        # with retries=1 > queue_max_retries=0, so it is evicted instead
        report = router.drain("throttled")
        assert binding.pending_depth == 0
        assert binding.counters.value("queue_evicted") == 2
        assert any(d.from_queue for d in report.decisions)
        assert_invariant(binding)
        snap = router.resilience_snapshot()
        assert snap["queue_evicted"] == 2

    def test_queue_eviction_by_age(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="throttled")
        registry.register(
            NullBackend("throttled"),
            rate=0.001,
            burst=2,
            spill=SpillPolicy.QUEUE,
            queue_max_age_seconds=10.0,
            clock=clock,
        )
        binding = registry.get("throttled")
        router.dispatch("app", make_batch(5))  # 2 admitted, 3 parked
        assert binding.pending_depth == 3
        clock.advance(11.0)  # past the age bound while parked
        router.drain("throttled")
        assert binding.pending_depth == 0
        assert binding.counters.value("queue_evicted") == 3
        assert_invariant(binding)

    def test_fresh_work_still_queues_under_bounds(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="throttled")
        registry.register(
            NullBackend("throttled"),
            rate=0.001,
            burst=1,
            spill=SpillPolicy.QUEUE,
            queue_max_retries=0,
            queue_max_age_seconds=100.0,
            clock=clock,
        )
        report = router.dispatch("app", make_batch(3))
        # new arrivals are never evicted — the bounds police *re*-parks
        assert report.queued == 2
        assert registry.get("throttled").counters.value("queue_evicted") == 0

    def test_resilience_snapshot_shape(self):
        clock = FakeClock()
        registry, router = make_router(default_backend="primary")
        registry.register(
            ScriptedBackend(
                NullBackend("primary"), lambda call, now: RAISE if call <= 1 else None
            ),
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.0, clock=clock, sleep=lambda _s: None
            ),
            breaker=CircuitBreaker(failure_threshold=5, clock=clock),
        )
        registry.register(NullBackend("standby"))
        router.dispatch("app", make_batch(2))
        snap = router.resilience_snapshot()
        assert snap["retries"] == 1
        assert snap["failovers"] == 0
        assert set(snap["backends"]) == {"primary", "standby"}
        primary = snap["backends"]["primary"]
        assert primary["retries"] == 1
        assert primary["breaker"]["state"] == "closed"
        assert primary["retry"]["max_attempts"] == 2
        assert snap["backends"]["standby"]["breaker"] is None
        assert snap["backends"]["standby"]["retry"] is None

    def test_chaos_churn_preserves_counter_invariant(self):
        """A blackout + flap schedule over three backends: whatever the
        mix of retries, failovers, short-circuits, parks and evictions,
        every backend's ledger must reconcile after every batch."""
        clock = FakeClock()
        registry, router = make_router(default_backend="a")
        registry.register(
            ScriptedBackend(
                NullBackend("a"),
                # a blackout over [3, 12), then a flap: down 1 s of every 2 to 20
                lambda call, now: (
                    RAISE
                    if 3.0 <= now < 12.0 or (12.0 <= now < 20.0 and now % 2.0 < 1.0)
                    else None
                ),
                clock,
            ),
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.0, clock=clock, sleep=lambda _s: None
            ),
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_seconds=4.0, clock=clock
            ),
        )
        registry.register(
            NullBackend("b"),
            rate=0.5,
            burst=8,
            spill=SpillPolicy.QUEUE,
            queue_max_retries=1,
            queue_max_age_seconds=6.0,
            clock=clock,
        )
        registry.register(NullBackend("c"))
        total_ok = 0
        for _ in range(25):
            batch = make_batch(4)
            report = router.dispatch("app", batch)
            total_ok += report.executed_ok
            assert report.offered == len(batch)
            for name in ("a", "b", "c"):
                assert_invariant(registry.get(name))
            clock.advance(1.0)
        assert total_ok > 0
        snap = router.resilience_snapshot()
        assert snap["failovers"] > 0  # the blackout forced hand-offs
