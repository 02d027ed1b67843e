"""Load-aware routing: signals, policies, re-ranking, fan-out, feedback.

Bottom-up over the new layer: the :class:`LoadSignal` EWMA math, each
:class:`RoutingPolicy`'s ranking (deterministic, name-tied), the
router consulting a policy per batch with candidate sets and static
fallback, the parallel multi-backend fan-out (proven with a barrier,
not timing), the tuner's admission-headroom feedback, and the
service-level wiring (``set_routing_policy`` + ``stats()["routing"]``
+ the staged executor's dispatch feedback).
"""

from __future__ import annotations

import threading

import pytest

from repro.backends import (
    BackendRegistry,
    BatchRouter,
    CandidateView,
    CostBudgetPolicy,
    LatencyEwmaPolicy,
    LeastLoadedPolicy,
    LoadSignal,
    NullBackend,
    RoutingPolicy,
    StaticLabelPolicy,
)
from repro.backends.base import Backend, BatchResult, QueryOutcome
from repro.backends.latency import LatencyProxyBackend
from repro.core.labeled_query import LabeledQuery
from repro.errors import BackendError, ServiceError
from repro.runtime import BatchSizeTuner, StagedExecutor
from repro.runtime.metrics import RuntimeMetrics


def make_batch(n: int, cluster: str = "", query: str = "select 1"):
    labels = {"cluster": cluster} if cluster else {}
    return [LabeledQuery.make(f"{query} -- {i}", **labels) for i in range(n)]


def make_router(fanout_workers: int = 0):
    registry = BackendRegistry()
    router = BatchRouter(
        registry,
        route_label="cluster",
        metrics=RuntimeMetrics(),
        fanout_workers=fanout_workers,
    )
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
    def test_static_follows_mapped_else_abstains(self):
        policy = StaticLabelPolicy()
        views = [view("DB(A)"), view("DB(B)")]
        assert policy.rank("east", views, mapped="DB(B)") == ["DB(B)"]
        assert policy.rank("east", views, mapped=None) == []

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


class _BarrierBackend(Backend):
    """Proves two execute() calls overlap: both must reach the barrier."""

    def __init__(self, name: str, barrier: threading.Barrier) -> None:
        super().__init__(name)
        self.barrier = barrier

    def execute(self, queries):
        self.barrier.wait(timeout=10.0)  # raises BrokenBarrierError when serial
        return BatchResult(
            backend=self.name,
            outcomes=tuple(QueryOutcome(query=q, ok=True) for q in queries),
        )


class TestParallelFanout:
    def test_two_groups_execute_concurrently(self, no_thread_leaks):
        barrier = threading.Barrier(2)
        registry, router = make_router(fanout_workers=4)
        registry.register(_BarrierBackend("DB(A)", barrier))
        registry.register(_BarrierBackend("DB(B)", barrier))
        batch = make_batch(2, "DB(A)") + make_batch(2, "DB(B)")
        try:
            # sequential dispatch would block forever on the first barrier
            report = router.dispatch("X", batch)
            assert report.admitted == 4
            assert {d.backend for d in report.decisions} == {"DB(A)", "DB(B)"}
        finally:
            router.close()  # hygiene: the fan-out pool must not outlive us

    def test_fanout_disabled_stays_sequential(self):
        registry, router = make_router(fanout_workers=0)
        assert router._fanout_pool() is None
        registry.register(NullBackend("DB(A)"))
        registry.register(NullBackend("DB(B)"))
        report = router.dispatch("X", make_batch(2, "DB(A)") + make_batch(2, "DB(B)"))
        assert report.admitted == 4

    def test_one_failing_group_surfaces_after_all_ran(self):
        class Boom(Backend):
            def execute(self, queries):
                raise BackendError("boom")

        registry, router = make_router(fanout_workers=4)
        ok = NullBackend("DB(B)")
        registry.register(Boom("DB(A)"))
        registry.register(ok)
        with pytest.raises(BackendError):
            router.dispatch("X", make_batch(2, "DB(A)") + make_batch(3, "DB(B)"))
        # the healthy group still executed: fan-out awaits every group
        assert ok.accepted == 3

    def test_invalid_fanout_rejected(self):
        registry = BackendRegistry()
        with pytest.raises(BackendError):
            BatchRouter(registry, fanout_workers=-1)

    def test_close_releases_pool_and_dispatch_recreates(self, no_thread_leaks):
        registry, router = make_router(fanout_workers=2)
        a, b = NullBackend("DB(A)"), NullBackend("DB(B)")
        registry.register(a)
        registry.register(b)
        batch = make_batch(2, "DB(A)") + make_batch(2, "DB(B)")
        router.dispatch("X", batch)
        assert router._pool is not None
        router.close()
        router.close()  # idempotent
        assert router._pool is None
        # a later multi-backend dispatch lazily recreates the pool
        router.dispatch("X", batch)
        assert a.accepted == 4 and b.accepted == 4
        router.close()


class TestTunerAdmissionFeedback:
    def test_rejections_shrink_below_latency_fit(self):
        tuner = BatchSizeTuner(
            initial=64, min_size=8, max_size=512, target_seconds=0.1
        )
        # labeling is cheap: the latency fit alone would grow the size
        tuner.observe(64, 0.001, application="X")
        grown = tuner.recommend("X")
        assert grown > 64
        # a rejecting gate drags it down despite the latency headroom
        for _ in range(8):
            tuner.observe_admission(grown, grown // 4, application="X")
            tuner.observe(tuner.recommend("X"), 0.001, application="X")
        assert tuner.recommend("X") < grown

    def test_recovery_regrows_after_gate_opens(self):
        tuner = BatchSizeTuner(initial=64, min_size=8, target_seconds=0.1)
        tuner.observe(64, 0.001, application="X")
        for _ in range(10):
            tuner.observe_admission(64, 0, application="X")
        shrunk = tuner.recommend("X")
        assert shrunk == 8
        for _ in range(20):
            tuner.observe_admission(64, 64, application="X")
            tuner.observe(shrunk, 0.001, application="X")
        assert tuner.recommend("X") > shrunk

    def test_admission_only_lane_still_backs_off(self):
        tuner = BatchSizeTuner(initial=128, min_size=8, max_growth=2.0)
        tuner.observe_admission(128, 0, application="X")
        first = tuner.recommend("X")
        # one step never shrinks past the max_growth bound, same as _fit
        assert 128 > first >= 64
        for _ in range(5):
            tuner.observe_admission(128, 0, application="X")
        assert tuner.recommend("X") < first
        lane = tuner.snapshot()["applications"]["X"]
        assert lane["rejection_ewma"] > 0.5
        assert lane["admission_samples"] == 6

    def test_degenerate_admission_observation_ignored(self):
        tuner = BatchSizeTuner(initial=32)
        assert tuner.observe_admission(0, 0, application="X") == 32

    def test_clean_admission_never_grows_the_size(self):
        """Admission observations carry no latency data: with cheap
        labeling AND clean admissions, growth stays one bounded step
        per labeling observation (not max_growth^2 per batch)."""
        tuner = BatchSizeTuner(
            initial=32, min_size=8, max_size=512, target_seconds=0.1, max_growth=2.0
        )
        tuner.observe(32, 0.0001, application="X")  # one growth step
        after_label = tuner.recommend("X")
        assert after_label == 64
        tuner.observe_admission(64, 64, application="X")
        assert tuner.recommend("X") == after_label  # no second step

    def test_invalid_rejection_threshold(self):
        with pytest.raises(ServiceError):
            BatchSizeTuner(rejection_threshold=0.0)
        with pytest.raises(ServiceError):
            BatchSizeTuner(rejection_threshold=1.0)


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
