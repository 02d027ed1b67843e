"""Spill-path row materialization in ``BatchRouter.dispatch``.

The columnar contract: a :class:`ColumnarBatch` flows route → admit →
execute entirely as arrays, and per-row ``LabeledQuery`` objects are
built *only* where a spill path genuinely iterates rows. These tests
instrument ``ColumnarBatch.message_at`` (the single on-demand
materialization point) and pin down, per spill policy, exactly which
rows are allowed to materialize: none for an in-gate dispatch or a
REJECT/FALLBACK overflow, and only the parked rows when QUEUE overflow
is later drained. The batch-level ``to_messages`` cache must stay cold
throughout — dispatch never pays the full-batch materialization.
"""

from __future__ import annotations

import numpy as np
import pytest
from fake_clock import FakeClock
from scripted_backend import RAISE, ScriptedBackend

from repro.backends import (
    BackendRegistry,
    BatchRouter,
    CircuitBreaker,
    NullBackend,
    RetryPolicy,
    SpillPolicy,
)
from repro.core.labeled_query import LabeledQuery
from repro.runtime.columnar import ColumnarBatch


def columnar_batch(n: int, cluster: str = "east") -> ColumnarBatch:
    """An n-row batch with one route-label column (identity inverse,
    so row i's template is i — indices in assertions read literally)."""
    messages = [LabeledQuery.make(f"select {i} from t") for i in range(n)]
    batch = ColumnarBatch(messages)
    batch.inverse = np.arange(n, dtype=np.intp)
    batch.columns["cluster"] = np.array([cluster] * n, dtype=object)
    return batch


@pytest.fixture()
def materialized_rows(monkeypatch):
    """Record every row index ``message_at`` materializes."""
    calls: list[int] = []
    original = ColumnarBatch.message_at

    def counting(self, i):
        calls.append(int(i))
        return original(self, i)

    monkeypatch.setattr(ColumnarBatch, "message_at", counting)
    return calls


class TestSpillMaterialization:
    def test_fully_admitted_dispatch_materializes_nothing(
        self, materialized_rows
    ):
        registry = BackendRegistry()
        registry.register(NullBackend("DB(A)"))
        router = BatchRouter(registry, default_backend="DB(A)")
        batch = columnar_batch(8)
        report = router.dispatch("app", batch)
        assert report.admitted == 8
        assert materialized_rows == []
        assert batch._materialized is None

    def test_reject_overflow_materializes_nothing(self, materialized_rows):
        registry = BackendRegistry()
        registry.register(NullBackend("DB(A)"), max_in_flight=3)
        router = BatchRouter(registry, default_backend="DB(A)")
        batch = columnar_batch(8)
        report = router.dispatch("app", batch)
        assert report.admitted == 3
        assert report.rejected == 5
        # rejection is a disposition, not an iteration: no rows built
        assert materialized_rows == []
        assert batch._materialized is None

    def test_queue_spill_parks_rows_without_materializing(
        self, materialized_rows
    ):
        registry = BackendRegistry()
        binding = registry.register(
            NullBackend("DB(A)"),
            max_in_flight=3,
            spill=SpillPolicy.QUEUE,
            queue_capacity=16,
        )
        router = BatchRouter(registry, default_backend="DB(A)")
        batch = columnar_batch(8)
        report = router.dispatch("app", batch)
        assert report.admitted == 3
        assert report.queued == 5
        # parking stores a zero-copy slice: still nothing materialized
        assert materialized_rows == []

        # draining the parked slice touches the 5 spilled rows — and
        # only those; the admitted head (rows 0-2) is never rebuilt
        parked, _retries, _evicted = binding.take_for_drain()
        drained = list(parked)
        assert [m.query for m in drained] == [
            f"select {i} from t" for i in range(3, 8)
        ]
        assert sorted(materialized_rows) == [3, 4, 5, 6, 7]
        # the spilled rows carry their labels despite lazy build
        assert {m.label("cluster") for m in drained} == {"east"}
        assert batch._materialized is None

    def test_queue_drain_merges_parked_segments_of_two_batches(
        self, materialized_rows
    ):
        """Parked rows of different batches re-enter as one group: only
        they materialize (once, to build the merged batch), they drain
        as a single ``from_queue`` decision, and in parking order."""
        registry = BackendRegistry()
        backend = NullBackend("DB(A)")
        binding = registry.register(
            backend, max_in_flight=2, spill=SpillPolicy.QUEUE, queue_capacity=16
        )
        router = BatchRouter(registry, default_backend="DB(A)")
        first, second = columnar_batch(5), columnar_batch(4, cluster="west")
        router.dispatch("app", first)  # admits rows 0-1, parks 2-4
        # hold the gate shut so the second dispatch parks all 4 rows
        # behind the re-parked tail of the first
        assert binding.admission.admit(2) == 2
        router.dispatch("app", second)
        binding.admission.release(2)
        assert binding.pending_depth == 7
        assert materialized_rows == []

        binding.admission.resize(max_in_flight=16)
        report = router.drain("DB(A)")
        (decision,) = report.decisions
        assert decision.from_queue and decision.admitted == 7
        assert backend.recent()[-7:] == [
            f"select {i} from t" for i in (2, 3, 4, 0, 1, 2, 3)
        ]
        # per-row builds of exactly the parked rows, per source batch
        assert sorted(materialized_rows) == [0, 1, 2, 2, 3, 3, 4]
        assert first._materialized is None and second._materialized is None
        assert binding.pending_depth == 0

    def test_fallback_spill_executes_sibling_columnar(self, materialized_rows):
        registry = BackendRegistry()
        registry.register(
            NullBackend("DB(A)"),
            max_in_flight=3,
            spill=SpillPolicy.FALLBACK,
            fallback="DB(B)",
        )
        registry.register(NullBackend("DB(B)"))
        router = BatchRouter(registry, default_backend="DB(A)")
        batch = columnar_batch(8)
        report = router.dispatch("app", batch)
        assert report.admitted == 8  # 3 on A + 5 across on B
        by_backend = {d.backend: d for d in report.decisions}
        assert by_backend["DB(B)"].spilled_from == "DB(A)"
        assert by_backend["DB(B)"].admitted == 5
        # the sibling executes the overflow via the batch's text
        # array (ColumnarSlice.queries) — still zero row objects
        assert materialized_rows == []
        assert batch._materialized is None

    def test_post_execution_failover_materializes_nothing(
        self, materialized_rows
    ):
        """A terminal execute failure fails the group over to a healthy
        sibling; learning the group's route label for candidate lookup
        must read the label column, not build row objects."""
        clock = FakeClock()
        registry = BackendRegistry()
        registry.register(
            ScriptedBackend(
                NullBackend("DB(A)"),
                lambda call, now: RAISE if now < 100.0 else None,
                clock,
            ),
            retry=RetryPolicy(
                max_attempts=1, clock=clock, sleep=lambda _s: None
            ),
        )
        sibling = NullBackend("DB(B)")
        registry.register(sibling)
        router = BatchRouter(registry, default_backend="DB(A)")
        router.set_candidates("east", ["DB(A)", "DB(B)"])
        batch = columnar_batch(6)
        report = router.dispatch("app", batch)
        assert report.failovers == 1
        assert report.executed_ok == 6
        assert sibling.accepted == 6
        # candidate constraints were honored via the columnar label
        assert {d.backend for d in report.decisions} == {"DB(A)", "DB(B)"}
        assert materialized_rows == []
        assert batch._materialized is None

    def test_breaker_short_circuit_failover_materializes_nothing(
        self, materialized_rows
    ):
        """An open circuit hands the whole group to a sibling before
        admission — the label lookup for that hand-off is columnar."""
        clock = FakeClock()
        registry = BackendRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1000.0, clock=clock
        )
        breaker.record_failure()  # DB(A) is already tripped
        registry.register(NullBackend("DB(A)"), breaker=breaker)
        sibling = NullBackend("DB(B)")
        registry.register(sibling)
        router = BatchRouter(registry, default_backend="DB(A)")
        batch = columnar_batch(5)
        report = router.dispatch("app", batch)
        origin = report.decisions[0]
        assert origin.breaker_open and origin.spilled_to == "DB(B)"
        assert report.executed_ok == 5
        assert sibling.accepted == 5
        assert materialized_rows == []
        assert batch._materialized is None

    def test_slice_label_at_reads_columns_without_building_rows(
        self, materialized_rows
    ):
        batch = columnar_batch(4)
        head = batch.select(np.array([2, 3], dtype=np.intp))
        assert head.label_at(0, "cluster") == "east"
        assert head.label_at(1, "missing", default="d") == "d"
        assert materialized_rows == []
        assert batch._materialized is None

    def test_to_messages_after_dispatch_is_the_single_full_build(
        self, materialized_rows
    ):
        registry = BackendRegistry()
        registry.register(NullBackend("DB(A)"), max_in_flight=3)
        router = BatchRouter(registry, default_backend="DB(A)")
        batch = columnar_batch(6)
        router.dispatch("app", batch)
        assert materialized_rows == []
        labeled = batch.to_messages()  # the stage-B boundary
        assert len(labeled) == 6
        assert all(m.label("cluster") == "east" for m in labeled)
        # the bulk build goes through the fancy-index scatter, not
        # per-row message_at calls
        assert materialized_rows == []
        assert batch._materialized is not None
