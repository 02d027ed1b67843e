"""The backend routing layer: admission control, dispatch, spill.

Covers the pieces bottom-up — token bucket and admission gate, the
MiniDB backend adapter, registry + router policies — and ends with the
Figure-1 end-to-end: a service with two registered backends routing a
SnowSim stream by *predicted* cluster, with an admission limit on one
backend observable in ``stats()`` and admitted queries actually
executing on the bound databases.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backends import (
    AdmissionController,
    BackendRegistry,
    BatchRouter,
    Blackout,
    CircuitBreaker,
    FaultInjectingBackend,
    LeastLoadedPolicy,
    MiniDBBackend,
    NullBackend,
    RetryPolicy,
    SpillPolicy,
    TokenBucket,
)
from repro.core.labeled_query import LabeledQuery
from repro.core.qworker import QWorker
from repro.errors import AdmissionError, BackendError
from repro.minidb import materialize_log_tables
from repro.runtime.columnar import ColumnarBatch
from repro.runtime.metrics import RuntimeMetrics
from repro.workloads import (
    QueryStream,
    SnowSimConfig,
    generate_snowsim_workload,
    interleave_streams,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_batch(n: int, cluster: str = "", query: str = "select 1") -> list[LabeledQuery]:
    labels = {"cluster": cluster} if cluster else {}
    return [LabeledQuery.make(f"{query} -- {i}", **labels) for i in range(n)]


def _label_column_batch(messages: list[LabeledQuery]) -> ColumnarBatch:
    """The shape the pipeline emits: the route label predicted into a
    ``LabelColumn``, the messages themselves carrying none."""
    batch = ColumnarBatch([LabeledQuery.make(m.query) for m in messages])
    batch.add_column(
        "cluster",
        np.array([m.label("cluster") for m in messages], dtype=object),
        np.arange(len(messages), dtype=np.intp),
    )
    return batch


# the three inputs ``BatchRouter.dispatch`` must treat identically
INPUT_FORMS = {
    "messages": lambda messages: messages,
    "bare_batch": ColumnarBatch,
    "label_column": _label_column_batch,
}


@pytest.fixture(params=sorted(INPUT_FORMS))
def form(request):
    """One of the three input forms, as ``form(messages) -> batch``."""
    return INPUT_FORMS[request.param]


class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4, clock=clock)
        assert bucket.take(10) == 4
        clock.advance(100.0)
        assert bucket.take(10) == 4  # refill capped at burst

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=10, clock=clock)
        assert bucket.take(10) == 10
        clock.advance(1.5)  # 3 tokens back
        assert bucket.take(10) == 3

    def test_partial_grant_never_negative(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.take(1) == 1
        assert bucket.take(5) == 1
        assert bucket.take(5) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(AdmissionError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(AdmissionError):
            TokenBucket(rate=1, burst=0)


class TestAdmissionController:
    def test_unconfigured_admits_everything(self):
        gate = AdmissionController()
        assert gate.admit(10_000) == 10_000
        gate.release(10_000)
        assert gate.in_flight == 0

    def test_in_flight_bound(self):
        gate = AdmissionController(max_in_flight=3)
        assert gate.admit(5) == 3
        assert gate.admit(1) == 0  # saturated
        gate.release(2)
        assert gate.admit(5) == 2

    def test_rate_limit_composes_with_slots(self):
        clock = FakeClock()
        gate = AdmissionController(max_in_flight=10, rate=1.0, burst=4, clock=clock)
        assert gate.admit(8) == 4  # token-bound, not slot-bound
        gate.release(4)
        assert gate.admit(8) == 0  # bucket empty
        clock.advance(2.0)
        assert gate.admit(8) == 2

    def test_release_more_than_in_flight_rejected(self):
        gate = AdmissionController(max_in_flight=2)
        gate.admit(2)
        with pytest.raises(AdmissionError):
            gate.release(3)

    def test_invalid_config_rejected(self):
        with pytest.raises(AdmissionError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(AdmissionError):
            AdmissionController(burst=4)  # burst without rate

    def test_snapshot_shape(self):
        gate = AdmissionController(max_in_flight=2, rate=5.0)
        gate.admit(1)
        snap = gate.snapshot()
        assert snap["in_flight"] == 1
        assert snap["max_in_flight"] == 2
        assert snap["rate"] == 5.0


class TestAllOrNothingAdmission:
    """``admit_all`` / ``take_exact`` — the serving edge's gate mode.

    A submit frame is one request: the edge takes it whole or not at
    all, because a partially-admitted frame has no meaningful reply.
    """

    def test_take_exact_is_whole_or_nothing(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4, clock=clock)
        assert bucket.take_exact(5) is False  # over burst: nothing taken
        assert bucket.take_exact(4) is True  # the refusal cost no tokens
        assert bucket.take_exact(1) is False
        clock.advance(2.0)
        assert bucket.take_exact(2) is True

    def test_admit_all_slots_whole_or_nothing(self):
        gate = AdmissionController(max_in_flight=4)
        assert gate.admit_all(5) is False
        assert gate.in_flight == 0  # the refusal held nothing
        assert gate.admit_all(4) is True
        assert gate.admit_all(1) is False
        gate.release(2)
        assert gate.admit_all(2) is True

    def test_admit_all_composes_slots_and_rate(self):
        clock = FakeClock()
        gate = AdmissionController(
            max_in_flight=10, rate=1.0, burst=3, clock=clock
        )
        assert gate.admit_all(3) is True
        assert gate.admit_all(1) is False  # bucket empty, slots free
        gate.release(3)
        clock.advance(3.0)
        assert gate.admit_all(3) is True

    def test_admit_all_zero_and_unconfigured(self):
        assert AdmissionController().admit_all(100) is True
        gate = AdmissionController(max_in_flight=1)
        assert gate.admit_all(0) is True
        assert gate.in_flight == 0

    def test_admit_all_counts_offered_and_granted(self):
        gate = AdmissionController(max_in_flight=2)
        gate.admit_all(2)
        gate.admit_all(2)
        snap = gate.snapshot()
        assert snap["offered"] == 4
        assert snap["granted"] == 2


@pytest.fixture(scope="module")
def snow_records():
    return generate_snowsim_workload(SnowSimConfig(total_queries=600, seed=11))


@pytest.fixture(scope="module")
def snow_db(snow_records):
    return materialize_log_tables(
        [r.query for r in snow_records], rows_per_table=48, seed=3
    )


class TestMiniDBBackend:
    def test_executes_batch_with_results(self, snow_db, snow_records):
        backend = MiniDBBackend("DB(A)", snow_db)
        queries = [r.query for r in snow_records[:20]]
        result = backend.execute(queries)
        assert len(result) == 20
        assert result.ok_count >= 18  # materialized schema satisfies the log
        for outcome in result.outcomes:
            if outcome.ok:
                assert outcome.result is not None  # engine results returned
                assert outcome.error == ""

    def test_bad_query_captured_not_raised(self, snow_db):
        backend = MiniDBBackend("DB(A)", snow_db)
        result = backend.execute(["select * from no_such_table", "not even sql"])
        assert result.ok_count == 0
        assert result.failed_count == 2
        assert all(o.error for o in result.outcomes)

    def test_strict_mode_raises(self, snow_db, snow_records):
        backend = MiniDBBackend("DB(A)", snow_db, strict=True)
        with pytest.raises(BackendError):
            backend.execute(["select * from no_such_table"])
        # the fault names the offending query: its position in the batch
        # and the template key it was planned under
        good = next(
            o.query
            for o in MiniDBBackend("probe", snow_db)
            .execute([r.query for r in snow_records[:30]])
            .outcomes
            if o.ok
        )
        with pytest.raises(BackendError) as caught:
            backend.execute_templated(
                [good, good, "select * from no_such_table", good], [5, 5, 9, 5]
            )
        assert caught.value.query_index == 2
        assert caught.value.template_key == 9
        assert "at query 2 (template 9)" in str(caught.value)

    def test_strict_mode_batch_results(self, snow_db, snow_records):
        backend = MiniDBBackend("DB(A)", snow_db, strict=True)
        # pick queries the lenient backend is known to execute cleanly
        good = [
            o.query
            for o in MiniDBBackend("probe", snow_db)
            .execute([r.query for r in snow_records[:30]])
            .outcomes
            if o.ok
        ][:10]
        result = backend.execute(good)
        assert result.ok_count == len(good)
        assert all(o.result is not None for o in result.outcomes)

    def test_strict_overflow_still_queued_when_execute_raises(self, snow_db):
        registry = BackendRegistry()
        router = BatchRouter(registry, metrics=RuntimeMetrics())
        backend = MiniDBBackend("DB(A)", snow_db, strict=True)
        registry.register(
            backend, max_in_flight=2, spill=SpillPolicy.QUEUE, queue_capacity=10
        )
        bad = [
            LabeledQuery.make("select * from no_such_table", cluster="DB(A)")
            for _ in range(5)
        ]
        with pytest.raises(BackendError):
            router.dispatch("X", bad)
        binding = registry.get("DB(A)")
        # the overflow was dispositioned before the backend raised
        assert binding.pending_depth == 3
        counters = binding.counters.snapshot()
        assert counters["queued"] == 3
        assert counters["admitted"] == 2
        # the admitted slots were released despite the raise
        assert binding.admission.in_flight == 0

    def test_snapshot_counts(self, snow_db, snow_records):
        backend = MiniDBBackend("DB(A)", snow_db)
        backend.execute([snow_records[0].query, "select * from no_such_table"])
        snap = backend.snapshot()
        assert snap["executed"] + snap["failed"] == 2
        assert snap["tables"]


class TestBackendRegistry:
    def test_register_and_lookup(self):
        registry = BackendRegistry()
        binding = registry.register(NullBackend("DB(A)"))
        assert registry.get("DB(A)") is binding
        assert "DB(A)" in registry
        assert registry.names() == ["DB(A)"]

    def test_duplicate_rejected(self):
        registry = BackendRegistry()
        registry.register(NullBackend("DB(A)"))
        with pytest.raises(BackendError):
            registry.register(NullBackend("DB(A)"))

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            BackendRegistry().get("DB(missing)")

    def test_fallback_policy_requires_name(self):
        with pytest.raises(BackendError):
            BackendRegistry().register(
                NullBackend("DB(A)"), spill=SpillPolicy.FALLBACK
            )

    def test_options_forward_to_the_binding_and_unknown_ones_raise(self):
        from repro.core.service import QuercService

        service = QuercService()
        binding = service.register_backend(
            NullBackend("DB(A)"), max_in_flight=2, spill="queue"
        )
        assert binding.spill is SpillPolicy.QUEUE
        assert binding.admission.admit(5) == 2
        for register in (service.register_backend, service.backends.register):
            with pytest.raises(TypeError):
                register(NullBackend("DB(B)"), max_inflight=2)
        assert service.backends.names() == ["DB(A)"]


def make_router(**bindings_kwargs):
    registry = BackendRegistry()
    router = BatchRouter(registry, route_label="cluster", metrics=RuntimeMetrics())
    return registry, router


class TestBatchRouterResolution:
    def test_route_table_wins(self):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        router.set_route("east", "DB(A)")
        assert router.resolve(LabeledQuery.make("q", cluster="east")) == "DB(A)"

    def test_label_naming_a_backend_routes_itself(self):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        assert router.resolve(LabeledQuery.make("q", cluster="DB(A)")) == "DB(A)"

    def test_default_backend_catches_unmapped(self):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        assert router.resolve(LabeledQuery.make("q"), default="DB(A)") == "DB(A)"

    def test_no_route_raises(self):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        with pytest.raises(BackendError):
            router.resolve(LabeledQuery.make("q", cluster="nowhere"))

    def test_route_to_unknown_backend_rejected(self):
        _, router = make_router()
        with pytest.raises(BackendError):
            router.set_route("east", "DB(missing)")


class TestBatchRouterDispatch:
    """Every case runs over the three input forms (the ``form`` fixture)
    with the same pinned numbers: the form must not change a decision."""

    def test_empty_batch_is_a_noop(self, form):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        report = router.dispatch("X", form([]))
        assert report.decisions == ()

    def test_splits_batch_by_predicted_label(self, form):
        registry, router = make_router()
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(a)
        registry.register(b)
        router.set_route("east", "DB(A)")
        router.set_route("west", "DB(B)")
        batch = form(make_batch(6, "east") + make_batch(4, "west"))
        report = router.dispatch("X", batch)
        assert report.offered == 10
        assert report.admitted == 10
        assert a.accepted == 6
        assert b.accepted == 4

    def test_reject_policy_counts_overflow(self, form):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"), max_in_flight=3)
        report = router.dispatch("X", form(make_batch(8, "DB(A)")))
        assert report.admitted == 3
        assert report.rejected == 5
        counters = registry.get("DB(A)").counters.snapshot()
        assert counters["dispatched"] == 8
        assert counters["admitted"] == 3
        assert counters["rejected"] == 5
        # slots were released after the synchronous execute
        assert registry.get("DB(A)").admission.in_flight == 0

    def test_queue_policy_parks_and_drains_fifo(self, form):
        registry, router = make_router()
        backend = NullBackend("DB(A)")
        registry.register(
            backend, max_in_flight=2, spill=SpillPolicy.QUEUE, queue_capacity=10
        )
        first = router.dispatch("X", form(make_batch(5, "DB(A)", query="first")))
        assert first.admitted == 2
        assert first.queued == 3
        assert registry.get("DB(A)").pending_depth == 3
        # next dispatch retries the parked tail before new arrivals
        second = router.dispatch("X", form(make_batch(2, "DB(A)", query="second")))
        from_queue = [d for d in second.decisions if d.from_queue]
        assert from_queue and from_queue[0].admitted == 2
        assert all("first" in q for q in backend.recent()[2:4])

    def test_queue_capacity_overflow_rejected(self, form):
        registry, router = make_router()
        registry.register(
            NullBackend("DB(A)"),
            max_in_flight=1,
            spill=SpillPolicy.QUEUE,
            queue_capacity=2,
        )
        report = router.dispatch("X", form(make_batch(6, "DB(A)")))
        assert report.admitted == 1
        assert report.queued == 2
        assert report.rejected == 3

    def test_explicit_drain(self, form):
        registry, router = make_router()
        backend = NullBackend("DB(A)")
        registry.register(
            backend, max_in_flight=2, spill=SpillPolicy.QUEUE, queue_capacity=10
        )
        router.dispatch("X", form(make_batch(6, "DB(A)")))
        assert registry.get("DB(A)").pending_depth == 4
        drained = router.drain("DB(A)")
        # drain decisions are queue retries, so read them directly
        # (the batch-level aggregate properties exclude retries)
        assert sum(d.admitted for d in drained.decisions) == 2
        assert all(d.from_queue for d in drained.decisions)
        assert registry.get("DB(A)").pending_depth == 2

    def test_fallback_spills_one_hop(self, form):
        registry, router = make_router()
        primary, sibling = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(
            primary, max_in_flight=2, spill=SpillPolicy.FALLBACK, fallback="DB(B)"
        )
        registry.register(sibling, max_in_flight=3)
        report = router.dispatch("X", form(make_batch(9, "DB(A)")))
        assert primary.accepted == 2
        assert sibling.accepted == 3  # fallback admitted what its gate allows
        assert report.rejected == 4  # sibling overflow is rejected, not cascaded
        # the hand-off does not double-count the batch: 9 in, 9 accounted
        assert report.offered == 9
        assert report.admitted == 5  # 2 at the origin + 3 at the sibling
        assert report.admitted + report.rejected == report.offered
        sibling_decision = [d for d in report.decisions if d.spilled_from][0]
        assert sibling_decision.backend == "DB(B)"
        assert sibling_decision.spilled_from == "DB(A)"
        a_counters = registry.get("DB(A)").counters.snapshot()
        assert a_counters["spilled"] == 7
        b_counters = registry.get("DB(B)").counters.snapshot()
        assert b_counters["dispatched"] == 7
        assert b_counters["admitted"] == 3
        assert b_counters["rejected"] == 4

    def test_rate_limit_recovers_over_time(self, form):
        clock = FakeClock()
        registry = BackendRegistry()
        router = BatchRouter(registry, metrics=RuntimeMetrics())
        backend = NullBackend("DB(A)")
        registry.register(backend, rate=2.0, burst=4, clock=clock)
        assert router.dispatch("X", form(make_batch(6, "DB(A)"))).admitted == 4
        assert router.dispatch("X", form(make_batch(6, "DB(A)"))).admitted == 0
        clock.advance(3.0)  # refill capped at burst=4
        report = router.dispatch("X", form(make_batch(6, "DB(A)")))
        assert report.admitted == 4
        assert report.rejected == 2

    def test_dispatch_times_route_and_execute_stages(self, form):
        metrics = RuntimeMetrics()
        registry = BackendRegistry()
        router = BatchRouter(registry, metrics=metrics)
        registry.register(NullBackend("DB(A)"))
        router.dispatch("X", form(make_batch(3, "DB(A)")))
        snap = metrics.snapshot()["stage_seconds"]
        assert snap["route"] > 0.0
        assert snap["execute"] > 0.0

    def test_queue_policy_with_full_queue_rejects_everything(self, form):
        """A queue already at capacity parks nothing: pure overflow."""
        registry, router = make_router()
        backend = NullBackend("DB(A)")
        registry.register(
            backend, max_in_flight=1, spill=SpillPolicy.QUEUE, queue_capacity=3
        )
        # fill the queue exactly to capacity (1 admitted, 3 parked)
        first = router.dispatch("X", form(make_batch(4, "DB(A)", query="fill")))
        assert first.queued == 3
        assert registry.get("DB(A)").pending_depth == 3
        # hold the only slot so the retry can't drain the queue
        assert registry.get("DB(A)").admission.admit(1) == 1
        second = router.dispatch("X", form(make_batch(5, "DB(A)", query="late")))
        # the retry re-parked the 3 old messages; the queue is full
        # again, so all 5 new arrivals are rejected outright
        assert second.queued == 0
        assert second.rejected == 5
        assert registry.get("DB(A)").pending_depth == 3
        counters = registry.get("DB(A)").counters.snapshot()
        assert counters["rejected"] == 5
        registry.get("DB(A)").admission.release(1)
        # parked work survives the storm and is FIFO-retried later
        drained = router.drain("DB(A)")
        assert sum(d.admitted for d in drained.decisions) == 1
        assert all("fill" in q for q in backend.recent()[-1:])

    def test_fallback_to_rejecting_sibling_drops_overflow(self, form):
        """FALLBACK overflow offered to a saturated sibling is rejected
        by the sibling's own gate — never queued, never cascaded."""
        registry, router = make_router()
        primary, sibling = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(
            primary, max_in_flight=2, spill=SpillPolicy.FALLBACK, fallback="DB(B)"
        )
        # the sibling itself spills to a queue, but overflow handed
        # over by a FALLBACK hop must not be parked (only a first hop spills)
        registry.register(
            sibling, max_in_flight=4, spill=SpillPolicy.QUEUE, queue_capacity=8
        )
        # saturate the sibling's gate completely
        assert registry.get("DB(B)").admission.admit(4) == 4
        report = router.dispatch("X", form(make_batch(6, "DB(A)")))
        assert primary.accepted == 2
        assert sibling.accepted == 0  # gate admitted nothing
        assert registry.get("DB(B)").pending_depth == 0  # and parked nothing
        assert report.admitted == 2
        assert report.rejected == 4
        assert report.admitted + report.rejected == report.offered == 6
        b_counters = registry.get("DB(B)").counters.snapshot()
        assert b_counters["rejected"] == 4
        assert b_counters["queued"] == 0
        registry.get("DB(B)").admission.release(4)

    def test_snapshot_mid_dispatch_is_internally_consistent(self, form):
        """Concurrent snapshots always reconcile: dispatched ==
        admitted + rejected + queued + spilled, per backend — the
        disposition lands in one atomic counter update."""
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"), max_in_flight=3)
        stop = threading.Event()
        violations: list[dict] = []
        errors: list[Exception] = []

        def reader():
            while not stop.is_set():
                snap = registry.get("DB(A)").counters.snapshot()
                accounted = (
                    snap["admitted"]
                    + snap["rejected"]
                    + snap["queued"]
                    + snap["spilled"]
                )
                if snap["dispatched"] != accounted:
                    violations.append(snap)

        def writer():
            try:
                for _ in range(200):
                    router.dispatch("X", form(make_batch(5, "DB(A)")))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(4)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert not violations, f"inconsistent snapshots: {violations[:3]}"
        counters = registry.get("DB(A)").counters.snapshot()
        assert counters["dispatched"] == 4 * 200 * 5

    def test_concurrent_dispatch_counters_consistent(self, form):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        errors = []

        def worker():
            try:
                for _ in range(25):
                    router.dispatch("X", form(make_batch(4, "DB(A)")))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        counters = registry.get("DB(A)").counters.snapshot()
        assert counters["dispatched"] == 8 * 25 * 4
        assert counters["admitted"] == 8 * 25 * 4
        assert registry.get("DB(A)").admission.in_flight == 0


def _decision_key(decision):
    return (
        decision.backend,
        decision.offered,
        decision.admitted,
        decision.rejected,
        decision.queued,
        decision.spilled_to,
        decision.spilled_from,
        decision.from_queue,
        decision.retries,
        decision.failover_to,
        decision.failover_from,
        decision.breaker_open,
    )


def _mixed(n: int, query: str = "select 1") -> list[LabeledQuery]:
    """n messages alternating cluster=east / cluster=west."""
    return [
        LabeledQuery.make(f"{query} -- {i}", cluster=("east", "west")[i % 2])
        for i in range(n)
    ]


def _two_backends(a_kwargs=None, b_kwargs=None, a_wrap=lambda backend: backend):
    """east -> DB(A), west -> DB(B); returns (router, {name: NullBackend})."""
    registry = BackendRegistry()
    router = BatchRouter(registry, metrics=RuntimeMetrics())
    sinks = {"DB(A)": NullBackend("DB(A)"), "DB(B)": NullBackend("DB(B)")}
    registry.register(a_wrap(sinks["DB(A)"]), **(a_kwargs or {}))
    registry.register(sinks["DB(B)"], **(b_kwargs or {}))
    router.set_route("east", "DB(A)")
    router.set_route("west", "DB(B)")
    return router, sinks


def _scenario_static():
    return _two_backends(), [_mixed(6)]


def _scenario_policy():
    # least-loaded over explicit candidate sets swaps the static table:
    # DB(B) holds parked work, so "west" moves onto DB(A), while "east"
    # may only go to DB(B) (and drains the parked rows ahead of itself)
    router, sinks = _two_backends()
    router.set_policy(LeastLoadedPolicy())
    router.set_candidates("east", ["DB(B)"])
    router.set_candidates("west", ["DB(A)", "DB(B)"])
    parked = ColumnarBatch(make_batch(3, "west", query="parked"))
    router.registry.get("DB(B)").enqueue(parked.select(np.arange(3)))
    return (router, sinks), [_mixed(6)]


def _scenario_reject():
    return _two_backends(a_kwargs={"max_in_flight": 2}), [_mixed(8)]


def _scenario_queue():
    fleet = _two_backends(
        a_kwargs={"max_in_flight": 2, "spill": "queue", "queue_capacity": 3}
    )
    # the second batch drains the first's parked tail ahead of itself
    return fleet, [_mixed(10, "first"), _mixed(4, "second")]


def _scenario_fallback():
    fleet = _two_backends(
        a_kwargs={"max_in_flight": 1, "spill": "fallback", "fallback": "DB(B)"},
        b_kwargs={"max_in_flight": 5},
    )
    return fleet, [_mixed(8)]


def _scenario_breaker_open():
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_seconds=1000.0, clock=FakeClock()
    )
    breaker.record_failure()  # DB(A) is already tripped
    return _two_backends(a_kwargs={"breaker": breaker}), [_mixed(6)]


def _scenario_failover():
    clock = FakeClock()
    fleet = _two_backends(
        a_kwargs={
            "retry": RetryPolicy(max_attempts=2, clock=clock, sleep=lambda _s: None)
        },
        a_wrap=lambda backend: FaultInjectingBackend(
            backend, [Blackout(0.0, 100.0)], clock=clock
        ),
    )
    return fleet, [_mixed(6)]


class TestDispatchInputEquivalence:
    """``dispatch(list)`` == ``dispatch(ColumnarBatch)``, decision for
    decision and query for query, on every path a group can take."""

    @pytest.mark.parametrize(
        "scenario",
        [
            _scenario_static,
            _scenario_policy,
            _scenario_reject,
            _scenario_queue,
            _scenario_fallback,
            _scenario_breaker_open,
            _scenario_failover,
        ],
    )
    def test_same_decisions_and_backend_order_for_every_form(self, scenario):
        outcomes = {}
        for name, form in INPUT_FORMS.items():
            (router, sinks), batches = scenario()
            decisions = []
            for messages in batches:
                report = router.dispatch("X", form(messages))
                assert report.offered == len(messages)
                decisions.extend(_decision_key(d) for d in report.decisions)
            outcomes[name] = (
                decisions,
                {backend: sink.recent() for backend, sink in sinks.items()},
            )
        want_decisions, want_received = outcomes["messages"]
        assert len({d[0] for d in want_decisions}) == 2  # both backends decided
        for name in ("bare_batch", "label_column"):
            assert outcomes[name][0] == want_decisions, name
            assert outcomes[name][1] == want_received, name

    def test_prelabeled_messages_route_by_their_own_label(self):
        """The route label on the messages (no classifier predicts it)
        groups exactly as ``resolve(message)`` says — through
        ``dispatch`` in either form and through a worker."""
        messages = _mixed(6)
        want = [("DB(A)", 3), ("DB(B)", 3)]
        for form in INPUT_FORMS.values():
            router, _ = _two_backends()
            report = router.dispatch("X", form(messages))
            assert [(d.backend, d.offered) for d in report.decisions] == want
        router, sinks = _two_backends()
        assert [router.resolve(m) for m in messages] == ["DB(A)", "DB(B)"] * 3
        worker = QWorker("X")
        worker.set_dispatcher(lambda labeled: router.dispatch("X", labeled))
        worker.process_batch(messages)
        decisions = worker.last_dispatch.decisions
        assert [(d.backend, d.offered) for d in decisions] == want
        assert sinks["DB(A)"].recent() == [m.query for m in messages[0::2]]
        assert sinks["DB(B)"].recent() == [m.query for m in messages[1::2]]


class TestEndToEndRouting:
    """The acceptance scenario: two backends, SnowSim, predicted labels."""

    @pytest.fixture(scope="class")
    def routed_service(self, snow_records, snow_db):
        from repro import BagOfTokensEmbedder, QuercService
        from repro.apps.routing import RoutingPolicyAuditor

        records = snow_records
        train, serve = records[:400], records[400:]
        embedder = BagOfTokensEmbedder(dimension=64).fit(
            [r.query for r in train]
        )
        # route on a binary split of SnowSim's four assigned clusters
        def side(record):
            return "DB(east)" if record.cluster.endswith(("us_east", "eu")) else "DB(west)"

        relabeled = [
            type(r)(
                query=r.query,
                timestamp=r.timestamp,
                user=r.user,
                account=r.account,
                cluster=side(r),
                runtime_seconds=r.runtime_seconds,
                memory_mb=r.memory_mb,
                error_code=r.error_code,
                template_id=r.template_id,
            )
            for r in train
        ]
        auditor = RoutingPolicyAuditor(embedder, n_trees=10, seed=0).fit(relabeled)

        service = QuercService()
        service.register_backend(
            MiniDBBackend("DB(east)", snow_db), max_in_flight=8
        )
        service.register_backend(MiniDBBackend("DB(west)", snow_db))
        service.add_application("X", backend="DB(west)")
        service.attach_classifier("X", auditor.to_classifier("cluster"))
        return service, serve

    def test_stream_routes_executes_and_limits(self, routed_service):
        service, serve = routed_service
        reports = []
        for batch in QueryStream("X", serve, batch_size=32).batches():
            labeled, report = service.process_routed(batch)
            assert len(labeled) == len(batch)
            assert all(m.has_label("cluster") for m in labeled)
            assert report is not None
            reports.append(report)

        stats = service.stats()
        east = stats["backends"]["DB(east)"]
        west = stats["backends"]["DB(west)"]
        # both backends saw prediction-driven traffic
        assert east["dispatched"] > 0
        assert west["dispatched"] > 0
        # the admission limit on DB(east) visibly rejected overflow
        assert east["admitted"] <= east["dispatched"]
        assert east["rejected"] > 0
        assert east["admitted"] + east["rejected"] == east["dispatched"]
        # admitted work actually executed on the bound MiniDB backends
        assert east["executed_ok"] > 0
        assert west["executed_ok"] > 0
        assert east["execute_seconds"] > 0.0
        total_admitted = sum(r.admitted for r in reports)
        total_executed = sum(r.executed_ok for r in reports)
        assert total_executed > 0
        assert total_executed <= total_admitted
        # engine results came back through the dispatch reports
        outcomes = [
            o
            for r in reports
            for res in r.results()
            for o in res.outcomes
            if o.ok
        ]
        assert outcomes and all(o.result is not None for o in outcomes)
        # routing stages show up in the shared runtime metrics
        stages = stats["runtime"]["stage_seconds"]
        assert stages["route"] > 0.0
        assert stages["execute"] > 0.0

    def test_plain_process_still_returns_labels(self, routed_service):
        service, serve = routed_service
        batch = next(QueryStream("X", serve[:8], batch_size=8).batches())
        labeled = service.process(batch)
        assert len(labeled) == 8


class TestInterleaveStreams:
    def test_round_robin_by_time_step(self, snow_records):
        x = QueryStream("X", snow_records[:64], batch_size=32)
        y = QueryStream("Y", snow_records[64:160], batch_size=32)
        order = [(b.application, b.time_step) for b in interleave_streams([x, y])]
        assert order == [
            ("X", 0), ("Y", 0), ("X", 1), ("Y", 1), ("Y", 2),
        ]

    def test_duplicate_application_rejected(self, snow_records):
        from repro.errors import WorkloadError

        x1 = QueryStream("X", snow_records[:32])
        x2 = QueryStream("X", snow_records[:32])
        with pytest.raises(WorkloadError):
            list(interleave_streams([x1, x2]))

    def test_empty_input(self):
        assert list(interleave_streams([])) == []


class TestMaterializeLogTables:
    def test_snowsim_log_mostly_executes(self, snow_db, snow_records):
        ok = failed = 0
        for record in snow_records[:150]:
            try:
                snow_db.execute(record.query)
                ok += 1
            except Exception:
                failed += 1
        assert ok / (ok + failed) > 0.9

    def test_observed_literals_can_match_rows(self, snow_db):
        # point lookups are planted into the value pools, so at least
        # one log query returns rows (checked over the module's log)
        total = sum(t.n_rows for t in snow_db.tables.values())
        assert total > 0

    def test_invalid_rows_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            materialize_log_tables(["select 1 from t"], rows_per_table=0)
