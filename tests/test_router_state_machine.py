"""Generated schedules over ``BackendRegistry`` + ``BatchRouter``.

Hypothesis interleaves dispatches, scripted faults, slots held as by a
concurrent dispatch, gate resizes (valid and not), clock steps and
queue drains on a fake clock, in one thread, over three bindings:
REJECT behind a slot bound and a token bucket, QUEUE with an age bound,
FALLBACK with retries, a circuit breaker and one slot. After every
step each ledger reconciles (``dispatched == admitted + rejected +
queued + spilled + queue_evicted``), a report offers exactly its batch,
each gate's ``in_flight`` is the slots the machine holds, no breaker
holds a probe, and a resize that raised left its gate as it was.
"""
from __future__ import annotations

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from scripted_backend import FAIL, RAISE, ScriptedBackend, ScriptedFault

from repro.backends import BackendRegistry, BatchRouter, CircuitBreaker
from repro.backends import NullBackend, RetryPolicy, SpillPolicy
from repro.core.labeled_query import LabeledQuery
from repro.errors import AdmissionError

NAMES = ("reject", "queue", "fallback")
UNSET = object()
# each knob is left alone, set to a valid value, or set to an invalid one
LIMITS = {
    "max_in_flight": st.sampled_from([UNSET, None, 0, 1, 3, 6]),
    "rate": st.sampled_from([UNSET, None, -1.0, 0.5, 4.0]),
    "burst": st.sampled_from([UNSET, None, 0.0, 2.0, 8.0]),
}


class RouterMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        clock = lambda: self.now
        self.pending = {name: deque() for name in NAMES}
        self.held = dict.fromkeys(NAMES, 0)
        self.registry = BackendRegistry()
        options = {
            "reject": dict(max_in_flight=4, rate=2.0, burst=6.0),
            "queue": dict(
                max_in_flight=3, spill=SpillPolicy.QUEUE, queue_max_age_seconds=5.0
            ),
            "fallback": dict(
                max_in_flight=1,
                spill=SpillPolicy.FALLBACK,
                fallback="reject",
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.0, clock=clock, sleep=lambda _s: None
                ),
                breaker=CircuitBreaker(
                    failure_threshold=1, recovery_seconds=1.0, clock=clock
                ),
            ),
        }
        for name in NAMES:
            queue = self.pending[name]
            script = lambda call, now, queue=queue: queue.popleft() if queue else None
            backend = ScriptedBackend(NullBackend(name), script, clock)
            self.registry.register(backend, clock=clock, **options[name])
        self.router = BatchRouter(
            self.registry, route_label="cluster", default_backend="reject"
        )

    @rule(labels=st.lists(st.sampled_from(NAMES), min_size=1, max_size=8))
    def dispatch(self, labels):
        batch = [
            LabeledQuery.make(f"select {i}", cluster=label)
            for i, label in enumerate(labels)
        ]
        try:
            report = self.router.dispatch("app", batch)
        except ScriptedFault:
            return  # an unguarded binding surfaces its fault untouched
        assert report.offered == len(batch)

    @rule(
        name=st.sampled_from(NAMES),
        actions=st.lists(st.sampled_from([RAISE, FAIL]), min_size=1, max_size=3),
    )
    def script_next_calls(self, name, actions):
        self.pending[name].extend(actions)

    @rule(name=st.sampled_from(NAMES), n=st.integers(1, 4))
    def hold_slots(self, name, n):
        self.held[name] += self.registry.get(name).admission.admit(n)

    @rule(name=st.sampled_from(NAMES))
    def release_slots(self, name):
        self.registry.get(name).admission.release(self.held[name])
        self.held[name] = 0

    @rule(name=st.sampled_from(NAMES), change=st.fixed_dictionaries(LIMITS))
    def resize(self, name, change):
        gate = self.registry.get(name).admission
        before = gate.snapshot()
        try:
            gate.resize(**{k: v for k, v in change.items() if v is not UNSET})
        except AdmissionError:
            assert gate.snapshot() == before

    @rule(seconds=st.sampled_from([0.5, 1.0, 3.0, 7.0]))
    def advance(self, seconds):
        self.now += seconds

    @rule()
    def drain(self):
        try:
            self.router.drain("queue")
        except ScriptedFault:
            pass

    @invariant()
    def spine_invariants(self):
        for name in NAMES:
            binding = self.registry.get(name)
            c = binding.counters.snapshot()
            assert c["dispatched"] == (
                c["admitted"] + c["rejected"] + c["queued"] + c["spilled"]
                + c["queue_evicted"]
            ), (name, c)
            assert binding.admission.in_flight == self.held[name], name
            if binding.breaker is not None:
                assert binding.breaker.snapshot()["probes_in_flight"] == 0, name


# derandomized: tier-1 replays the same schedules on every run
RouterMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=80, deadline=None, derandomize=True
)
TestRouterMachine = RouterMachine.TestCase
