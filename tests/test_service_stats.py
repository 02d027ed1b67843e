"""``QuercService.stats()``: its shape, and where each count comes from.

Every event is counted once, by the object that performs it — cache
lookups by the ``EmbeddingCache``, retries / failovers / deadline
expiries / queue evictions by each binding's ``BackendCounters``,
breaker transitions by the ``CircuitBreaker``, edge sheds by the
``EdgeAdmission``. ``stats()["runtime"]`` and ``stats()["server"]``
keep the keys they have always had and read those numbers from the
owners, once per call: sections that repeat a number agree even when it
moves while ``stats()`` runs. The shape pin below is the full nested key tree of a service
with every optional part attached, so no key may move, vanish or
appear unnoticed.
"""

from __future__ import annotations

import pytest
from fake_clock import FakeClock
from scripted_backend import RAISE, ScriptedBackend

from repro.backends import (
    CircuitBreaker,
    NullBackend,
    RetryPolicy,
)
from repro.core import QuercService, QueryClassifier
from repro.core.labeled_query import LabeledQuery
from repro.core.labeler import ClassifierLabeler
from repro.errors import ServerReplyError
from repro.forecast import PredictiveProvisioner
from repro.ml.forest import RandomizedForestClassifier
from repro.server import EdgeAdmission, QuercClient, QuercServer, ServerThread
from repro.workloads import QueryLogRecord, StreamBatch


def key_tree(node, path: str = "", out: dict | None = None) -> dict:
    """Every dict in ``node``, by dotted path, mapped to its sorted keys
    (one space-separated string)."""
    out = {} if out is None else out
    if isinstance(node, dict):
        out[path] = " ".join(sorted(map(str, node)))
        for key, value in node.items():
            key_tree(value, f"{path}.{key}" if path else str(key), out)
    return out


# the full key tree of ``stats()`` for the topology in
# ``test_stats_key_tree_is_pinned``: dict path -> its keys
EXPECTED_KEY_TREE = {
    "": (
        "applications backends executor forecast plan_cache resilience "
        "routing runtime server"
    ),
    "runtime": (
        "batches breaker_closes breaker_half_opens breaker_opens cache "
        "cache_hit_rate cache_hits cache_misses deadline_expiries "
        "dedup_ratio embedded_templates failovers fingerprint_memo_hit_rate "
        "fingerprint_memo_hits fingerprint_memo_misses fingerprints "
        "intern_overflow queries queue_evictions retries server "
        "stage_seconds transform_calls unique_templates"
    ),
    "runtime.server": (
        "bytes_in bytes_out frames_in frames_out frames_shed "
        "protocol_errors queries queries_shed sessions sessions_closed "
        "sessions_shed"
    ),
    "runtime.stage_seconds": (
        "dedup embed execute fingerprint predict route scatter "
        "server_decode server_reply server_submit"
    ),
    "runtime.cache": (
        "capacity evictions hit_rate hits matrix_lanes matrix_rows misses "
        "size"
    ),
    "runtime.fingerprints": "interner memo",
    "runtime.fingerprints.memo": "capacity hit_rate hits misses size",
    "runtime.fingerprints.interner": "capacity overflow size",
    "backends": "primary standby",
    "backends.primary": (
        "admission admitted backend batches breaker cost_units "
        "deadline_expiries dispatched execute_seconds executed_ok failed "
        "failovers_in failovers_out fallback load mean_query_seconds "
        "pending queue_evicted queued rejected retries retry rows_returned "
        "spill spilled"
    ),
    "backends.primary.load": (
        "admissions executions latency_ewma_seconds rejection_ewma"
    ),
    "backends.primary.admission": (
        "burst granted headroom in_flight max_in_flight offered rate "
        "rejection_rate resizes tokens_available"
    ),
    "backends.primary.backend": "kind name",
    "backends.primary.breaker": (
        "closes consecutive_failures failure_rate_threshold "
        "failure_threshold half_open_probes half_opens opens "
        "probes_in_flight recovery_seconds short_circuits state window "
        "window_failure_rate"
    ),
    "backends.primary.retry": (
        "base_delay deadline_seconds jitter max_attempts max_delay "
        "multiplier"
    ),
    "backends.standby": (
        "admission admitted backend batches breaker cost_units "
        "deadline_expiries dispatched execute_seconds executed_ok failed "
        "failovers_in failovers_out fallback load mean_query_seconds "
        "pending queue_evicted queued rejected retries retry rows_returned "
        "spill spilled"
    ),
    "backends.standby.load": (
        "admissions executions latency_ewma_seconds rejection_ewma"
    ),
    "backends.standby.admission": (
        "burst granted headroom in_flight max_in_flight offered rate "
        "rejection_rate resizes tokens_available"
    ),
    "backends.standby.backend": "accepted kind name",
    "routing": (
        "candidates decisions policy reranks route_table "
        "signals static_fallbacks"
    ),
    "routing.policy": "name",
    "routing.route_table": "",
    "routing.candidates": "",
    "routing.decisions": "",
    "routing.signals": "primary standby",
    "routing.signals.primary": (
        "breaker cost_units headroom in_flight latency_ewma_seconds pending "
        "rejection_rate"
    ),
    "routing.signals.standby": (
        "breaker cost_units headroom in_flight latency_ewma_seconds pending "
        "rejection_rate"
    ),
    "resilience": "backends deadline_expiries failovers queue_evicted retries",
    "resilience.backends": "primary standby",
    "resilience.backends.primary": (
        "breaker deadline_expiries failovers_in failovers_out queue_evicted "
        "retries retry"
    ),
    "resilience.backends.primary.breaker": (
        "closes consecutive_failures failure_rate_threshold "
        "failure_threshold half_open_probes half_opens opens "
        "probes_in_flight recovery_seconds short_circuits state window "
        "window_failure_rate"
    ),
    "resilience.backends.primary.retry": (
        "base_delay deadline_seconds jitter max_attempts max_delay "
        "multiplier"
    ),
    "resilience.backends.standby": (
        "breaker deadline_expiries failovers_in failovers_out queue_evicted "
        "retries retry"
    ),
    "executor": "busy_seconds lanes overlap pool queue_depth tenants wall_seconds",
    "executor.pool": (
        "dispatch_active dispatch_workers label_active label_workers "
        "max_dispatch_active max_label_active resizes threads "
        "window_max_dispatch_active window_max_label_active window_seconds "
        "workers_alive workers_retired"
    ),
    "executor.lanes": "tenant",
    "executor.lanes.tenant": (
        "dispatch_busy dispatch_errors dispatch_seconds dispatched_batches "
        "feedback_errors handoff_depth ingress_depth label_busy "
        "label_errors label_seconds labeled_batches labeled_queries "
        "max_handoff_depth submitted"
    ),
    "forecast": (
        "applies apply_errors auto_apply interval_seconds last_diff mix "
        "planner plans tenants"
    ),
    "forecast.planner": "headroom hot_share min_workers thread_budget",
    "forecast.tenants": "tenant",
    "forecast.tenants.tenant": (
        "alpha beta level observations open_bucket_count total_observed "
        "trend window_seconds"
    ),
    "forecast.mix": "alpha batches_observed keys top",
    "forecast.last_diff": "changes current generated_at is_noop reason recommended",
    "forecast.last_diff.current": "admission candidates dispatch_workers label_workers",
    "forecast.last_diff.current.admission": "primary standby",
    "forecast.last_diff.current.admission.primary": "burst max_in_flight rate",
    "forecast.last_diff.current.admission.standby": "burst max_in_flight rate",
    "forecast.last_diff.current.candidates": "",
    "forecast.last_diff.recommended": (
        "admission candidates dispatch_workers label_workers"
    ),
    "forecast.last_diff.recommended.admission": "primary standby",
    "forecast.last_diff.recommended.admission.primary": "burst max_in_flight rate",
    "forecast.last_diff.recommended.admission.standby": "burst max_in_flight rate",
    "forecast.last_diff.recommended.candidates": "",
    "server": (
        "active_sessions address bytes_in bytes_out edge frames_in "
        "frames_out frames_shed max_frame_bytes max_inflight_per_session "
        "protocol_errors queries queries_shed running sessions "
        "sessions_closed sessions_shed stage_seconds"
    ),
    "server.stage_seconds": "server_decode server_reply server_submit",
    "server.edge": (
        "frames_admitted frames_shed queries_admitted queries_shed "
        "query_gate session_gate sessions_admitted sessions_shed"
    ),
    "server.edge.query_gate": (
        "burst granted headroom in_flight max_in_flight offered rate "
        "rejection_rate resizes tokens_available"
    ),
    "applications": "tenant",
    "applications.tenant": "backend database processed",
}


def _tier_classifier(embedder) -> QueryClassifier:
    queries = ["select 1", "select a from t", "select b from u where c = 2"]
    labeler = ClassifierLabeler(RandomizedForestClassifier(n_trees=2, seed=0))
    labeler.fit(embedder.transform(queries), ["hot", "cold", "cold"])
    return QueryClassifier("tier", embedder, labeler, embedder_name="bow")


def test_stats_key_tree_is_pinned(fitted_bow):
    """A retry + breaker binding, a provisioner and a running
    server behind an edge gate; two served batches and one shed frame.
    The key tree matches the literal, and every re-sourced number equals
    its owner's."""
    clock = FakeClock()
    service = QuercService()
    service.register_backend(
        ScriptedBackend(
            NullBackend("primary"), lambda call, now: RAISE if call <= 1 else None
        ),
        retry=RetryPolicy(
            max_attempts=2, base_delay=0.0, clock=clock, sleep=lambda _s: None
        ),
        breaker=CircuitBreaker(failure_threshold=5, clock=clock),
    )
    service.register_backend(NullBackend("standby"))
    service.add_application("tenant", backend="primary")
    service.attach_classifier("tenant", _tier_classifier(fitted_bow))
    service.set_provisioner(PredictiveProvisioner(clock=clock, auto_apply=False))
    server = QuercServer(service, edge=EdgeAdmission(max_in_flight_queries=4))
    try:
        with ServerThread(server) as thread:
            with QuercClient(*thread.address, application="tenant") as client:
                for i in range(2):
                    client.run_batch([f"select {i}", f"select {i + 1}", "select 9"])
                with pytest.raises(ServerReplyError) as shed:
                    client.run_batch([f"select {i}" for i in range(8)])
                assert shed.value.code == "SERVER_BUSY"
            stats = service.stats()
    finally:
        service.close()

    assert key_tree(stats) == EXPECTED_KEY_TREE

    runtime, resilience = stats["runtime"], stats["resilience"]
    # the first execute raised once and the retry recovered it
    assert runtime["retries"] == resilience["retries"] == 1
    assert runtime["failovers"] == resilience["failovers"] == 0
    assert runtime["deadline_expiries"] == resilience["deadline_expiries"] == 0
    assert runtime["queue_evictions"] == resilience["queue_evicted"] == 0
    breaker = resilience["backends"]["primary"]["breaker"]
    assert runtime["breaker_opens"] == breaker["opens"] == 0
    assert runtime["breaker_half_opens"] == breaker["half_opens"] == 0
    assert runtime["breaker_closes"] == breaker["closes"] == 0
    # one template over two batches: a miss, then a hit
    assert (runtime["cache_hits"], runtime["cache_misses"]) == (1, 1)
    assert runtime["cache"]["hits"] == runtime["cache_hits"]
    assert runtime["cache_hit_rate"] == pytest.approx(0.5)
    edge = stats["server"]["edge"]
    for key, value in (("sessions_shed", 0), ("frames_shed", 1), ("queries_shed", 8)):
        assert runtime["server"][key] == stats["server"][key] == edge[key] == value


def test_breaker_with_its_own_hook_still_counts_in_runtime_stats():
    """A breaker whose ``on_transition`` slot is already taken still
    shows its transitions in ``stats()["runtime"]``: the count is the
    breaker's own, and the hook keeps firing for its owner."""
    fired: list[tuple[str, str]] = []
    breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=100.0)
    breaker.on_transition = lambda old, new: fired.append((old, new))
    service = QuercService()
    service.register_backend(
        ScriptedBackend(
            NullBackend("primary"), lambda call, now: RAISE if call <= 1 else None
        ),
        breaker=breaker,
    )
    service.register_backend(NullBackend("standby"))
    service.add_application("tenant", backend="primary")
    batch = StreamBatch(
        application="tenant",
        time_step=0,
        records=(QueryLogRecord(query="select 1", timestamp=0.0),),
    )
    try:
        _, report = service.process_routed(batch)
        stats = service.stats()
    finally:
        service.close()
    # the raise tripped the breaker and the group failed over
    assert report.failovers == 1
    assert fired == [("closed", "open")]
    assert stats["runtime"]["breaker_opens"] == 1
    assert stats["runtime"]["failovers"] == stats["resilience"]["failovers"] == 1


class _DispatchesOnSnapshot(ScriptedBackend):
    """Raises on its first execute. Its first ``snapshot()`` sends one
    batch through the router that serves it, and the retry policy runs
    it again — so a retry lands while ``stats()`` is reading."""

    router = None

    def snapshot(self) -> dict:
        router, self.router = self.router, None
        if router is not None:
            router.dispatch("tenant", [LabeledQuery.make("select 1")], "primary")
        return super().snapshot()


def test_sections_agree_when_a_counter_moves_during_stats():
    """``backends``, ``resilience`` and ``runtime`` show one reading of
    a binding's counters, even when the count moves mid-``stats()``."""
    backend = _DispatchesOnSnapshot(
        NullBackend("primary"), lambda call, now: RAISE if call <= 1 else None
    )
    service = QuercService()
    service.register_backend(
        backend,
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _s: None),
    )
    backend.router = service.router
    try:
        stats = service.stats()
        after = service.stats()
    finally:
        service.close()

    assert backend.calls == 2  # the raise and its retry ran inside stats()
    retries = (
        stats["backends"]["primary"]["retries"],
        stats["resilience"]["backends"]["primary"]["retries"],
        stats["resilience"]["retries"],
        stats["runtime"]["retries"],
    )
    assert len(set(retries)) == 1, retries
    assert after["runtime"]["retries"] == after["backends"]["primary"]["retries"] == 1


class _PricedDispatchesOnSnapshot(_DispatchesOnSnapshot):
    """:class:`_DispatchesOnSnapshot` with a latency prior, so the
    routing signal falls back to ``load_hint`` until the first
    execution is observed."""

    def load_hint(self) -> dict:
        return {"per_query_seconds": 0.5}


def test_routing_signals_agree_with_backends_when_a_batch_lands_during_stats():
    """``routing.signals`` is projected from the ``backends`` reading:
    a batch executed while ``stats()`` reads the binding moves neither
    section, and only the ``load_hint`` prior fills a missing latency."""
    backend = _PricedDispatchesOnSnapshot(
        NullBackend("primary"), lambda call, now: None
    )
    service = QuercService()
    service.register_backend(backend)
    backend.router = service.router
    try:
        stats = service.stats()
    finally:
        service.close()

    assert backend.calls == 1  # the batch executed inside stats()
    binding = stats["backends"]["primary"]
    signal = stats["routing"]["signals"]["primary"]
    latency = binding["load"]["latency_ewma_seconds"]
    if latency is None:
        latency = backend.load_hint()["per_query_seconds"]
    assert signal["latency_ewma_seconds"] == latency
    assert signal["rejection_rate"] == binding["load"]["rejection_ewma"]
    assert signal["in_flight"] == binding["admission"]["in_flight"]
    assert signal["headroom"] == binding["admission"]["headroom"]
    assert signal["pending"] == binding["pending"]
    assert signal["cost_units"] == binding["cost_units"]
    assert signal["breaker"] == "closed"


class _CountsSnapshots(NullBackend):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.snapshots = 0

    def snapshot(self) -> dict:
        self.snapshots += 1
        return super().snapshot()


def test_stats_reads_each_backend_once():
    """One ``stats()`` takes one snapshot of every backend: ``backends``,
    ``plan_cache``, ``routing`` and ``resilience`` share it."""
    backends = [_CountsSnapshots("primary"), _CountsSnapshots("standby")]
    service = QuercService()
    for backend in backends:
        service.register_backend(backend)
    try:
        service.stats()
        assert [b.snapshots for b in backends] == [1, 1]
        service.stats()
        assert [b.snapshots for b in backends] == [2, 2]
    finally:
        service.close()


def test_routing_signals_agree_with_backends_for_every_binding():
    """Every binding's signal is its ``backends`` entry seen as a
    policy would: a tripped breaker, parked rows and a full gate show
    the same in both sections."""
    service = QuercService()
    service.register_backend(
        ScriptedBackend(NullBackend("primary"), lambda call, now: RAISE),
        breaker=CircuitBreaker(failure_threshold=1, recovery_seconds=100.0),
    )
    service.register_backend(NullBackend("standby"), max_in_flight=2, spill="queue")
    service.register_backend(NullBackend("idle"))
    router = service.router
    try:
        report = router.dispatch("tenant", [LabeledQuery.make("select 1")], "primary")
        gate = service.backends.get("standby").admission
        gate.admit(2)
        router.dispatch("tenant", [LabeledQuery.make("select 2")] * 3, "standby")
        stats = service.stats()
    finally:
        service.close()

    assert report.failovers == 1
    signals = stats["routing"]["signals"]
    assert set(signals) == set(stats["backends"]) == {"primary", "standby", "idle"}
    for name, binding in stats["backends"].items():
        signal = signals[name]
        assert signal["latency_ewma_seconds"] == binding["load"]["latency_ewma_seconds"]
        assert signal["rejection_rate"] == binding["load"]["rejection_ewma"]
        assert signal["in_flight"] == binding["admission"]["in_flight"]
        assert signal["headroom"] == binding["admission"]["headroom"]
        assert signal["pending"] == binding["pending"]
        assert signal["cost_units"] == binding["cost_units"]
        breaker = binding["breaker"]
        assert signal["breaker"] == (breaker["state"] if breaker else "closed")
    assert signals["primary"]["breaker"] == "open"
    assert (signals["standby"]["in_flight"], signals["standby"]["pending"]) == (2, 3)
    assert signals["standby"]["headroom"] == 0.0
