"""Load-aware routing: signals, policies, re-ranking, fan-out, feedback.

Bottom-up over the new layer: the :class:`LoadSignal` EWMA math, each
:class:`RoutingPolicy`'s ranking (deterministic, name-tied), the
router consulting a policy per batch with candidate sets and static
fallback, the multi-backend split (every group offered in order, the
first error re-raised), the binding's load view projected from one
snapshot, and the service-level wiring
(``set_routing_policy`` + ``stats()["routing"]`` + the staged
executor's dispatch feedback).
"""

from __future__ import annotations

import pytest

from repro.backends import (
    BackendRegistry,
    BatchRouter,
    CandidateView,
    CircuitBreaker,
    CostBudgetPolicy,
    LatencyEwmaPolicy,
    LeastLoadedPolicy,
    LoadSignal,
    NullBackend,
    RoutingPolicy,
)
from repro.backends.base import Backend
from repro.backends.latency import LatencyProxyBackend
from repro.core.labeled_query import LabeledQuery
from repro.errors import BackendError
from repro.runtime import StagedExecutor
from repro.runtime.metrics import RuntimeMetrics


def make_batch(n: int, cluster: str = "", query: str = "select 1"):
    labels = {"cluster": cluster} if cluster else {}
    return [LabeledQuery.make(f"{query} -- {i}", **labels) for i in range(n)]


def make_router():
    registry = BackendRegistry()
    router = BatchRouter(registry, route_label="cluster", metrics=RuntimeMetrics())
    return registry, router


def view(name, **kwargs) -> CandidateView:
    return CandidateView(name=name, **kwargs)


class TestLoadSignal:
    def test_latency_ewma_converges(self):
        signal = LoadSignal(smoothing=0.5)
        assert signal.latency_ewma is None
        signal.observe_execution(10, 1.0)  # 0.1 s/query
        assert signal.latency_ewma == pytest.approx(0.1)
        signal.observe_execution(10, 3.0)  # 0.3 s/query
        assert signal.latency_ewma == pytest.approx(0.2)

    def test_rejection_ewma_tracks_turned_away_fraction(self):
        signal = LoadSignal(smoothing=1.0)  # no smoothing: last value wins
        signal.observe_admission(10, 5)
        assert signal.rejection_ewma == pytest.approx(0.5)
        signal.observe_admission(10, 10)
        assert signal.rejection_ewma == pytest.approx(0.0)

    def test_degenerate_observations_ignored(self):
        signal = LoadSignal()
        signal.observe_execution(0, 1.0)
        signal.observe_execution(5, -1.0)
        signal.observe_admission(0, 0)
        assert signal.latency_ewma is None
        assert signal.rejection_ewma == 0.0
        assert signal.snapshot()["executions"] == 0

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(BackendError):
            LoadSignal(smoothing=0.0)


class TestPolicyRankings:
    def test_least_loaded_prefers_smallest_depth(self):
        policy = LeastLoadedPolicy()
        views = [
            view("DB(A)", in_flight=3, pending=2),
            view("DB(B)", in_flight=1, pending=0),
            view("DB(C)", in_flight=0, pending=4),
        ]
        assert policy.rank("x", views) == ["DB(B)", "DB(C)", "DB(A)"]

    def test_least_loaded_ties_break_by_name(self):
        policy = LeastLoadedPolicy()
        views = [view("DB(B)"), view("DB(A)")]
        assert policy.rank("x", views) == ["DB(A)", "DB(B)"]

    def test_latency_ewma_prefers_fastest(self):
        policy = LatencyEwmaPolicy()
        views = [
            view("DB(slow)", latency_ewma=0.05),
            view("DB(fast)", latency_ewma=0.001),
        ]
        assert policy.rank("x", views)[0] == "DB(fast)"

    def test_latency_ewma_optimistic_about_unmeasured(self):
        policy = LatencyEwmaPolicy()
        views = [view("DB(known)", latency_ewma=0.01), view("DB(new)")]
        assert policy.rank("x", views)[0] == "DB(new)"

    def test_latency_ewma_rejection_weight_penalizes_saturated(self):
        policy = LatencyEwmaPolicy(rejection_weight=10.0)
        views = [
            view("DB(fast_but_full)", latency_ewma=0.010, rejection_rate=0.9),
            view("DB(slower_open)", latency_ewma=0.012, rejection_rate=0.0),
        ]
        assert policy.rank("x", views)[0] == "DB(slower_open)"
        with pytest.raises(BackendError):
            LatencyEwmaPolicy(rejection_weight=-1)

    def test_cost_budget_spends_fullest_wallet_first(self):
        policy = CostBudgetPolicy({"DB(A)": 100.0, "DB(B)": 100.0})
        views = [
            view("DB(A)", cost_units=80.0),
            view("DB(B)", cost_units=20.0),
        ]
        assert policy.rank("x", views) == ["DB(B)", "DB(A)"]

    def test_cost_budget_exhausted_ranks_after_funded(self):
        policy = CostBudgetPolicy({"DB(A)": 50.0})
        views = [
            view("DB(A)", cost_units=60.0),  # over budget
            view("DB(B)", latency_ewma=0.5),  # unbudgeted, slow
        ]
        # both fall in the exhausted/unbudgeted tier; DB(A) has no
        # latency history so it still ranks ahead of the slow one
        assert policy.rank("x", views) == ["DB(A)", "DB(B)"]
        funded = [view("DB(C)", cost_units=0.0)]
        policy2 = CostBudgetPolicy({"DB(C)": 10.0})
        assert policy2.rank("x", funded + views)[0] == "DB(C)"

    def test_cost_budget_validates(self):
        with pytest.raises(BackendError):
            CostBudgetPolicy({})
        with pytest.raises(BackendError):
            CostBudgetPolicy({"DB(A)": 0.0})


class TestRouterPolicyIntegration:
    def test_policy_rewrites_static_route(self):
        registry, router = make_router()
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(a, max_in_flight=1)
        registry.register(b)
        router.set_route("east", "DB(A)")
        # saturate DB(A)'s gate so its depth is visible to the policy
        assert registry.get("DB(A)").admission.admit(1) == 1
        router.set_policy(LeastLoadedPolicy())
        report = router.dispatch("X", make_batch(4, "east"))
        # least-loaded overrides the static map: everything lands on B
        assert b.accepted == 4
        assert a.accepted == 0
        assert report.admitted == 4
        registry.get("DB(A)").admission.release(1)

    def test_reranked_per_batch_as_load_shifts(self):
        registry, router = make_router()
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(a)
        registry.register(b)
        router.set_policy(LatencyEwmaPolicy())
        # price the backends by hand: A expensive, B cheap
        registry.get("DB(A)").load_signal.observe_execution(10, 1.0)
        registry.get("DB(B)").load_signal.observe_execution(10, 0.01)
        router.dispatch("X", make_batch(3, "east"))
        assert b.accepted == 3
        # load shifts: B becomes expensive, next batch re-ranks to A
        for _ in range(20):
            registry.get("DB(B)").load_signal.observe_execution(10, 50.0)
        router.dispatch("X", make_batch(3, "east"))
        assert a.accepted == 3

    def test_candidate_set_constrains_policy(self):
        registry, router = make_router()
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(a)
        registry.register(b)
        router.set_policy(LeastLoadedPolicy())
        router.set_candidates("east", ["DB(B)"])
        router.dispatch("X", make_batch(2, "east"))
        assert b.accepted == 2 and a.accepted == 0
        assert router.candidates("east") == ("DB(B)",)
        with pytest.raises(BackendError):
            router.set_candidates("west", ["DB(missing)"])

    def test_policy_cannot_escape_candidate_set(self):
        """A ranking naming a backend outside set_candidates is
        ignored — even when it is the static table's own answer."""
        registry, router = make_router()
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(a)
        registry.register(b)
        router.set_route("east", "DB(A)")
        router.set_candidates("east", ["DB(B)"])

        class Escape(RoutingPolicy):
            name = "escape"

            def rank(self, label, candidates, mapped=None):
                return [mapped] if mapped else []  # tries DB(A)

        router.set_policy(Escape())
        router.dispatch("X", make_batch(3, "east"), default="DB(B)")
        # the escape was ignored; the static fallback chain decided
        # (route table -> DB(A)), but the policy itself never could
        assert router.routing_snapshot()["static_fallbacks"] == 1
        assert a.accepted == 3

    def test_empty_candidate_set_falls_back_to_static(self):
        registry, router = make_router()
        a = NullBackend("DB(A)")
        registry.register(a)
        router.set_policy(LeastLoadedPolicy())
        router.set_candidates("east", [])
        # static chain still resolves via the dispatch default
        report = router.dispatch("X", make_batch(2, "east"), default="DB(A)")
        assert a.accepted == 2
        assert report.admitted == 2
        # counted per (label, batch), the same unit as a rerank
        assert router.routing_snapshot()["static_fallbacks"] == 1

    def test_empty_candidate_set_without_default_raises(self):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        router.set_policy(LeastLoadedPolicy())
        router.set_candidates("east", [])
        with pytest.raises(BackendError):
            router.dispatch("X", make_batch(2, "east"))

    def test_abstaining_policy_uses_static_chain(self):
        registry, router = make_router()
        a = NullBackend("DB(A)")
        registry.register(a)
        router.set_route("east", "DB(A)")

        class Abstain(RoutingPolicy):
            name = "abstain"

            def rank(self, label, candidates, mapped=None):
                return []

        router.set_policy(Abstain())
        router.dispatch("X", make_batch(3, "east"))
        assert a.accepted == 3
        snap = router.routing_snapshot()
        assert snap["policy"]["name"] == "abstain"
        # one abstention for the one label, regardless of batch size
        assert snap["static_fallbacks"] == 1
        assert snap["reranks"] == 1

    def test_policy_ranking_of_unknown_names_skipped(self):
        registry, router = make_router()
        a = NullBackend("DB(A)")
        registry.register(a)

        class Wishful(RoutingPolicy):
            name = "wishful"

            def rank(self, label, candidates, mapped=None):
                return ["DB(imaginary)", "DB(A)"]

        router.set_policy(Wishful())
        router.dispatch("X", make_batch(2, "east"))
        assert a.accepted == 2

    def test_routing_snapshot_counts_decisions(self):
        registry, router = make_router()
        registry.register(NullBackend("DB(A)"))
        registry.register(NullBackend("DB(B)"))
        router.set_policy(LeastLoadedPolicy())
        for _ in range(3):
            router.dispatch("X", make_batch(2, "east"))
        snap = router.routing_snapshot()
        assert snap["reranks"] == 3
        assert snap["decisions"]["east"]  # some backend won each batch
        assert sum(snap["decisions"]["east"].values()) == 3
        assert set(snap["signals"]) == {"DB(A)", "DB(B)"}
        for signal in snap["signals"].values():
            assert "latency_ewma_seconds" in signal
            assert "rejection_rate" in signal

    def test_load_hint_seeds_latency_view(self):
        registry, router = make_router()
        fast = LatencyProxyBackend(
            NullBackend("DB(fast)"), per_query_seconds=0.001, sleep=lambda _s: None
        )
        slow = LatencyProxyBackend(
            NullBackend("DB(slow)"), per_query_seconds=0.5, sleep=lambda _s: None
        )
        registry.register(fast)
        registry.register(slow)
        assert registry.get("DB(fast)").load_view().latency_ewma == pytest.approx(
            0.001
        )
        router.set_policy(LatencyEwmaPolicy())
        # before any execution, the hint alone routes to the fast proxy
        router.dispatch("X", make_batch(2, "east"))
        assert fast.inner.accepted == 2
        assert slow.inner.accepted == 0


class _Boom(Backend):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.calls = 0

    def execute(self, queries):
        self.calls += 1
        raise BackendError(f"{self.name} is down")


def assert_reconciles(router) -> None:
    for snap in router.snapshot().values():
        assert snap["dispatched"] == (
            snap["admitted"]
            + snap["rejected"]
            + snap["queued"]
            + snap["spilled"]
            + snap["queue_evicted"]
        ), snap


class TestParallelFanout:
    """A batch that splits over several backends: its groups are offered
    one after another on the dispatching thread, every group is offered
    even when one raises, and the first error surfaces at the end."""

    def test_one_failing_group_surfaces_after_all_ran(self):
        registry, router = make_router()
        boom, ok = _Boom("DB(A)"), NullBackend("DB(B)")
        registry.register(boom)
        registry.register(ok)
        with pytest.raises(BackendError, match="DB\\(A\\) is down"):
            router.dispatch("X", make_batch(2, "DB(A)") + make_batch(3, "DB(B)"))
        # the healthy group after the failing one still executed
        assert boom.calls == 1
        assert ok.accepted == 3
        assert registry.get("DB(B)").counters.snapshot()["dispatched"] == 3
        assert_reconciles(router)

    def test_failing_second_group_surfaces_after_first_ran(self):
        registry, router = make_router()
        ok, boom = NullBackend("DB(A)"), _Boom("DB(B)")
        registry.register(ok)
        registry.register(boom)
        with pytest.raises(BackendError, match="DB\\(B\\) is down"):
            router.dispatch("X", make_batch(2, "DB(A)") + make_batch(3, "DB(B)"))
        assert ok.accepted == 2
        assert boom.calls == 1
        assert registry.get("DB(B)").counters.snapshot()["dispatched"] == 3
        assert_reconciles(router)

    def test_first_error_in_group_order_wins(self):
        registry, router = make_router()
        registry.register(_Boom("DB(A)"))
        registry.register(_Boom("DB(B)"))
        with pytest.raises(BackendError, match="DB\\(B\\) is down"):
            router.dispatch("X", make_batch(1, "DB(B)") + make_batch(1, "DB(A)"))

    def test_non_exception_signal_propagates_at_once(self):
        class Interrupted(Backend):
            def execute(self, queries):
                raise KeyboardInterrupt

        registry, router = make_router()
        later = NullBackend("DB(B)")
        registry.register(Interrupted("DB(A)"))
        registry.register(later)
        with pytest.raises(KeyboardInterrupt):
            router.dispatch("X", make_batch(1, "DB(A)") + make_batch(1, "DB(B)"))
        assert later.accepted == 0

    def test_decisions_come_back_in_group_order(self):
        registry, router = make_router()
        for name in ("DB(A)", "DB(B)", "DB(C)"):
            registry.register(NullBackend(name))
        batch = (
            make_batch(1, "DB(C)") + make_batch(2, "DB(A)")
            + make_batch(1, "DB(C)") + make_batch(3, "DB(B)")
        )
        report = router.dispatch("X", batch)
        assert [(d.backend, d.offered) for d in report.decisions] == [
            ("DB(C)", 2), ("DB(A)", 2), ("DB(B)", 3),
        ]


class TestExecutorDispatchFeedback:
    def test_feedback_called_per_batch(self):
        seen = []
        executor = StagedExecutor(
            lambda app, item: item * 2,
            lambda app, staged: staged + 1,
            dispatch_feedback=lambda app, result: seen.append((app, result)),
        )
        with executor:
            assert executor.submit("X", 3).result(timeout=5.0) == 7
            assert executor.submit("X", 5).result(timeout=5.0) == 11
        assert seen == [("X", 7), ("X", 11)]

    def test_feedback_failure_counted_not_raised(self):
        def bad_feedback(app, result):
            raise RuntimeError("telemetry down")

        executor = StagedExecutor(
            lambda app, item: item,
            lambda app, staged: staged,
            dispatch_feedback=bad_feedback,
        )
        with executor:
            assert executor.submit("X", 1).result(timeout=5.0) == 1
        assert executor.stats()["lanes"]["X"]["feedback_errors"] == 1
        assert executor.stats()["lanes"]["X"]["dispatch_errors"] == 0


class _Hinted(NullBackend):
    """A backend with a latency prior that counts how often it is read,
    and how often its snapshot is taken."""

    def __init__(self, name: str, per_query_seconds: float = 0.25) -> None:
        super().__init__(name)
        self.per_query_seconds = per_query_seconds
        self.hint_reads = 0
        self.snapshots = 0

    def load_hint(self) -> dict:
        self.hint_reads += 1
        return {"per_query_seconds": self.per_query_seconds}

    def snapshot(self) -> dict:
        self.snapshots += 1
        return super().snapshot()


def park(router, binding, rows: int) -> None:
    """Fill ``binding``'s gate and send ``rows`` at it, so they queue."""
    binding.admission.admit(binding.admission.max_in_flight)
    router.dispatch("X", make_batch(rows), binding.name)


class TestProjectedSignals:
    """:meth:`BackendBinding.view_of` and ``routing_snapshot(backends)``:
    a policy's :class:`CandidateView`, projected from one binding
    snapshot instead of read live."""

    def test_view_of_a_fresh_snapshot_is_the_live_view(self):
        registry, router = make_router()
        binding = registry.register(_Hinted("DB(A)"), max_in_flight=2, spill="queue")
        park(router, binding, 3)
        view = binding.view_of(binding.snapshot())
        assert view == binding.load_view()
        assert (view.in_flight, view.headroom, view.pending) == (2, 0.0, 3)

    def test_view_of_reads_the_snapshot_not_the_live_binding(self):
        registry, router = make_router()
        binding = registry.register(_Hinted("DB(A)"), max_in_flight=1, spill="queue")
        before = binding.snapshot()
        park(router, binding, 2)
        old, live = binding.view_of(before), binding.load_view()
        assert (old.in_flight, old.headroom, old.pending) == (0, 1.0, 0)
        assert (live.in_flight, live.headroom, live.pending) == (1, 0.0, 2)

    def test_view_of_carries_the_snapshots_rejection_rate(self):
        registry, router = make_router()
        binding = registry.register(_Hinted("DB(A)"), max_in_flight=1)
        binding.admission.admit(1)
        report = router.dispatch("X", make_batch(4), "DB(A)")
        assert report.rejected == 4
        snap = binding.snapshot()
        assert snap["load"]["rejection_ewma"] > 0.0
        view = binding.view_of(snap)
        assert view.rejection_rate == snap["load"]["rejection_ewma"]
        assert view == binding.load_view()

    def test_view_of_falls_back_to_load_hint_without_observed_latency(self):
        registry, _ = make_router()
        hinted = registry.register(_Hinted("DB(A)", per_query_seconds=0.25))
        plain = registry.register(NullBackend("DB(B)"))
        assert hinted.view_of(hinted.snapshot()).latency_ewma == 0.25
        assert hinted.backend.hint_reads == 1
        # no execution observed and no prior: the policies' optimism
        assert plain.view_of(plain.snapshot()).latency_ewma is None

    def test_view_of_never_reads_load_hint_once_latency_is_observed(self):
        registry, router = make_router()
        binding = registry.register(_Hinted("DB(A)", per_query_seconds=0.25))
        router.dispatch("X", make_batch(2), "DB(A)")
        snap = binding.snapshot()
        observed = snap["load"]["latency_ewma_seconds"]
        assert observed is not None
        reads = binding.backend.hint_reads
        assert binding.view_of(snap).latency_ewma == observed
        assert binding.backend.hint_reads == reads

    def test_view_of_reports_the_breaker_state(self):
        registry, router = make_router()
        broken = registry.register(
            _Boom("DB(A)"),
            breaker=CircuitBreaker(failure_threshold=1, recovery_seconds=100.0),
        )
        plain = registry.register(NullBackend("DB(B)"))
        assert broken.view_of(broken.snapshot()).breaker == "closed"
        # the raise trips the breaker; the group fails over to DB(B)
        assert router.dispatch("X", make_batch(2), "DB(A)").failovers == 1
        view = broken.view_of(broken.snapshot())
        assert view.breaker == "open" and view.breaker_open
        assert view == broken.load_view()
        # no breaker configured reads as closed
        assert plain.view_of(plain.snapshot()).breaker == "closed"

    def test_routing_snapshot_projects_signals_from_the_given_reading(self):
        registry, router = make_router()
        binding = registry.register(_Hinted("DB(A)"), max_in_flight=1, spill="queue")
        registry.register(NullBackend("DB(B)"))
        reading = router.snapshot()
        park(router, binding, 2)
        then = router.routing_snapshot(reading)["signals"]
        now = router.routing_snapshot()["signals"]
        assert (then["DB(A)"]["in_flight"], then["DB(A)"]["pending"]) == (0, 0)
        assert (now["DB(A)"]["in_flight"], now["DB(A)"]["pending"]) == (1, 2)
        assert then["DB(B)"] == now["DB(B)"]

    def test_routing_snapshot_reads_each_binding_once(self):
        registry, router = make_router()
        backends = [_Hinted("DB(A)"), _Hinted("DB(B)")]
        for backend in backends:
            registry.register(backend)
        router.routing_snapshot()
        assert [b.snapshots for b in backends] == [1, 1]
        reading = router.snapshot()
        router.routing_snapshot(reading)
        # a reading handed in is not taken again
        assert [b.snapshots for b in backends] == [2, 2]

    def test_routing_snapshot_keys_are_unchanged(self):
        registry, router = make_router()
        registry.register(_Hinted("DB(A)"))
        registry.register(_Boom("DB(B)"))
        router.set_policy(LeastLoadedPolicy())
        router.dispatch("X", make_batch(2, "east"))
        bare = router.routing_snapshot()
        assert set(bare) == {
            "policy",
            "route_table",
            "candidates",
            "decisions",
            "reranks",
            "static_fallbacks",
            "signals",
        }
        assert set(bare["signals"]) == {"DB(A)", "DB(B)"}
        for signal in bare["signals"].values():
            assert set(signal) == {
                "latency_ewma_seconds",
                "rejection_rate",
                "in_flight",
                "headroom",
                "pending",
                "cost_units",
                "breaker",
            }
        # nothing moved: a bare call and one over a reading agree
        assert router.routing_snapshot(router.snapshot()) == bare


class TestServiceRoutingPolicy:
    @pytest.fixture()
    def service(self):
        from repro import QuercService

        service = QuercService()
        service.register_backend(NullBackend("DB(A)"), max_in_flight=1)
        service.register_backend(NullBackend("DB(B)"))
        service.add_application("X", backend="DB(A)")
        return service

    def test_set_routing_policy_and_stats(self, service):
        policy = service.set_routing_policy(
            LeastLoadedPolicy(), candidates={"east": ["DB(A)", "DB(B)"]}
        )
        assert service.router.policy is policy
        routing = service.stats()["routing"]
        assert routing["policy"]["name"] == "least_loaded"
        assert routing["candidates"] == {"east": ["DB(A)", "DB(B)"]}
        assert set(routing["signals"]) == {"DB(A)", "DB(B)"}

    def test_clear_policy_restores_static(self, service):
        service.set_routing_policy(LeastLoadedPolicy())
        service.set_routing_policy(None)
        assert service.stats()["routing"]["policy"] == {"name": "static"}

    def test_routed_batch_follows_policy(self, service):
        from repro.workloads import QueryLogRecord
        from repro.workloads.stream import StreamBatch

        # saturate DB(A) so least-loaded prefers DB(B) over the binding
        assert service.backends.get("DB(A)").admission.admit(1) == 1
        service.set_routing_policy(LeastLoadedPolicy())
        batch = StreamBatch(
            application="X",
            records=[QueryLogRecord(query="select 1")],
            time_step=0,
        )
        _, report = service.process_routed(batch)
        assert report is not None
        assert report.decisions[0].backend == "DB(B)"

    def test_policy_moves_placement_not_labels(self, fitted_bow, snowsim_records):
        """A skewed static table pins most labels to the slow backend;
        ``LatencyEwmaPolicy`` drains them onto the fast one — and the
        labels each query gets are the same under either placement."""
        from repro import QuercService
        from repro.core import QueryClassifier
        from repro.core.labeler import ClassifierLabeler
        from repro.ml.forest import RandomizedForestClassifier
        from repro.sql.normalizer import template_fingerprint
        from repro.workloads import QueryLogRecord, QueryStream

        n_labels = 5
        train = [r.query for r in snowsim_records[:200]]
        labeler = ClassifierLabeler(
            RandomizedForestClassifier(n_trees=6, max_depth=6, seed=1)
        )
        labeler.fit(
            fitted_bow.transform(train),
            [int(template_fingerprint(q)[:8], 16) % n_labels for q in train],
        )
        classifier = QueryClassifier(
            "cluster", fitted_bow, labeler, embedder_name="bow-route"
        )
        serve = [QueryLogRecord(query=r.query) for r in snowsim_records[200:296]]
        batches = list(QueryStream("X", serve, batch_size=8).batches())

        def run(policy):
            service = QuercService()
            for name, per_query in (("DB(alpha)", 0.002), ("DB(beta)", 0.0002)):
                service.register_backend(
                    LatencyProxyBackend(
                        NullBackend(f"{name}-engine"),
                        per_query_seconds=per_query,
                        sleep=lambda _s: None,
                        name=name,
                    )
                )
            service.add_application("X", backend="DB(alpha)")
            service.attach_classifier("X", classifier)
            for label in range(n_labels - 1):
                service.map_route(label, "DB(alpha)")
            service.map_route(n_labels - 1, "DB(beta)")
            if policy is not None:
                service.set_routing_policy(policy)
            try:
                labels = [
                    [(m.query, m.label("cluster")) for m in labeled]
                    for labeled, _ in map(service.process_routed, batches)
                ]
                return labels, service.stats()
            finally:
                service.close()

        static_labels, static = run(None)
        policy_labels, policy = run(LatencyEwmaPolicy())
        assert policy_labels == static_labels
        dispatched = {
            side: {name: b["dispatched"] for name, b in stats["backends"].items()}
            for side, stats in (("static", static), ("policy", policy))
        }
        assert dispatched["static"]["DB(alpha)"] > dispatched["static"]["DB(beta)"]
        assert dispatched["policy"]["DB(beta)"] > dispatched["policy"]["DB(alpha)"]
        assert sum(dispatched["policy"].values()) == len(serve)
        assert policy["routing"]["policy"]["name"] == "latency_ewma"
        assert policy["routing"]["reranks"] > 0
