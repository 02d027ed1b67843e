"""The forecasting layer: estimators, blueprints, planner, provisioner.

Everything runs on injected logical clocks — forecasts and plans are
pure functions of the observation schedule, so these tests replay
identically and never sleep. The integration tests close the loop
through :class:`~repro.core.service.QuercService`: the provisioner
rides the staged executor's dispatch-feedback path, plans on its
interval, applies through the live resize hooks, and publishes the
blueprint diff via ``stats()["forecast"]``.
"""

from __future__ import annotations

import pytest
from fake_clock import FakeClock

from repro.backends import NullBackend
from repro.core.service import QuercService
from repro.errors import ServiceError
from repro.forecast import (
    AdmissionPlan,
    ArrivalRateForecaster,
    Blueprint,
    BlueprintDiff,
    HoltForecaster,
    PredictiveProvisioner,
    ProvisioningPlanner,
    TemplateMixForecaster,
)
from repro.workloads.logs import QueryLogRecord
from repro.workloads.stream import StreamBatch


# -- estimators ---------------------------------------------------------------


class TestHoltForecaster:
    def test_constant_series_converges_to_level(self):
        h = HoltForecaster(alpha=0.5, beta=0.3)
        for _ in range(50):
            h.observe(42.0)
        assert h.forecast(1.0) == pytest.approx(42.0, abs=1e-6)
        assert h.trend == pytest.approx(0.0, abs=1e-6)

    def test_linear_ramp_extrapolates_ahead(self):
        h = HoltForecaster(alpha=0.6, beta=0.4)
        for v in range(0, 100, 10):
            h.observe(float(v))
        one = h.forecast(1.0)
        three = h.forecast(3.0)
        assert one > 90.0  # ahead of the last observation
        assert three > one  # the trend term keeps extrapolating

    def test_forecast_never_negative(self):
        h = HoltForecaster(alpha=0.9, beta=0.9)
        for v in [100.0, 50.0, 10.0, 0.0, 0.0]:
            h.observe(v)
        assert h.forecast(10.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ServiceError):
            HoltForecaster(alpha=0.0)
        with pytest.raises(ServiceError):
            HoltForecaster(beta=1.5)


class TestArrivalRateForecaster:
    def test_steady_rate_is_learned(self):
        clock = FakeClock()
        f = ArrivalRateForecaster(window_seconds=1.0, clock=clock)
        for step in range(20):
            clock.now = float(step)
            f.observe(50, now=clock.now)
        assert f.forecast(now=20.0) == pytest.approx(50.0, rel=0.05)

    def test_ramp_forecast_leads_the_last_bucket(self):
        f = ArrivalRateForecaster(window_seconds=1.0, clock=lambda: 0.0)
        for step in range(12):
            f.observe(10 * (step + 1), now=float(step))
        assert f.forecast(now=12.0) > 110.0

    def test_idle_gaps_decay_the_forecast(self):
        f = ArrivalRateForecaster(
            window_seconds=1.0, alpha=0.5, beta=0.0, clock=lambda: 0.0
        )
        for step in range(5):
            f.observe(100, now=float(step))
        busy = f.forecast(now=5.0)
        idle = f.forecast(now=25.0)  # 20 empty buckets feed zeros
        assert idle < busy / 100.0

    def test_deterministic_replay(self):
        def run() -> list[float]:
            f = ArrivalRateForecaster(window_seconds=0.5, clock=lambda: 0.0)
            out = []
            for step in range(30):
                f.observe(step % 7, now=step * 0.25)
                out.append(f.forecast(now=step * 0.25))
            return out

        assert run() == run()

    def test_open_bucket_partial_rate_before_first_close(self):
        f = ArrivalRateForecaster(window_seconds=10.0, clock=lambda: 0.0)
        f.observe(20, now=0.0)
        assert f.forecast(now=2.0) == pytest.approx(10.0)

    def test_negative_count_rejected(self):
        f = ArrivalRateForecaster(clock=lambda: 0.0)
        with pytest.raises(ServiceError):
            f.observe(-1, now=0.0)


class TestTemplateMixForecaster:
    def test_mix_is_a_distribution(self):
        m = TemplateMixForecaster(alpha=0.4)
        m.observe({"a": 3, "b": 1})
        m.observe({"a": 1, "b": 1, "c": 2})
        mix = m.mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert set(mix) == {"a", "b", "c"}

    def test_absent_categories_decay(self):
        m = TemplateMixForecaster(alpha=0.5)
        m.observe({"old": 10})
        for _ in range(10):
            m.observe({"new": 10})
        assert m.share("new") > 0.99
        assert m.share("old") < 0.01

    def test_top_is_sorted_and_bounded(self):
        m = TemplateMixForecaster(alpha=1.0)
        m.observe({"a": 5, "b": 3, "c": 2})
        assert [k for k, _ in m.top(2)] == ["a", "b"]

    def test_key_set_is_bounded(self):
        m = TemplateMixForecaster(alpha=0.9, max_keys=8)
        for i in range(100):
            m.observe({f"t{i}": 1})
        assert len(m.mix()) <= 8

    def test_empty_observation_ignored(self):
        m = TemplateMixForecaster()
        m.observe({})
        assert m.mix() == {}
        assert m.batches_observed == 0


# -- blueprints ---------------------------------------------------------------


class TestBlueprintDiff:
    def test_noop_when_blueprints_match(self):
        bp = Blueprint(
            label_workers=2,
            dispatch_workers=4,
            admission={"db": AdmissionPlan(max_in_flight=4)},
            candidates={"0": ("db",)},
        )
        diff = BlueprintDiff(current=bp, recommended=bp)
        assert diff.is_noop
        assert diff.changes == []

    def test_changes_are_itemized_per_knob(self):
        cur = Blueprint(
            label_workers=2,
            dispatch_workers=4,
            admission={"db": AdmissionPlan(max_in_flight=4, rate=10.0, burst=10.0)},
            candidates={"0": ("db",)},
        )
        rec = Blueprint(
            label_workers=3,
            dispatch_workers=3,
            admission={"db": AdmissionPlan(max_in_flight=8, rate=10.0, burst=10.0)},
            candidates={"0": ("db", "db2")},
        )
        diff = BlueprintDiff(current=cur, recommended=rec, generated_at=7.0)
        fields = {(c["kind"], c["target"], c["field"]) for c in diff.changes}
        assert fields == {
            ("pool", "executor", "label_workers"),
            ("pool", "executor", "dispatch_workers"),
            ("admission", "db", "max_in_flight"),
            ("candidates", "0", "backends"),
        }
        d = diff.to_dict()
        assert d["generated_at"] == 7.0
        assert d["is_noop"] is False
        assert d["current"]["label_workers"] == 2
        assert d["recommended"]["candidates"]["0"] == ["db", "db2"]


# -- planner ------------------------------------------------------------------


class TestProvisioningPlanner:
    def _current(self) -> Blueprint:
        return Blueprint(
            label_workers=4,
            dispatch_workers=4,
            admission={
                "fast": AdmissionPlan(max_in_flight=8, rate=100.0, burst=200.0),
                "slow": AdmissionPlan(),
            },
            candidates={"0": ("fast",)},
        )

    def test_budget_splits_by_stage_demand(self):
        planner = ProvisioningPlanner(thread_budget=8, headroom=1.0)
        diff = planner.plan(
            predicted_qps=100.0,
            label_cost=0.01,  # demand 1 worker
            dispatch_cost=0.03,  # demand 3 workers
            current=self._current(),
        )
        rec = diff.recommended
        assert rec.label_workers + rec.dispatch_workers == 8
        assert rec.dispatch_workers == 3 * rec.label_workers

    def test_unbudgeted_pools_size_to_demand(self):
        planner = ProvisioningPlanner(headroom=1.0)
        diff = planner.plan(
            predicted_qps=100.0,
            label_cost=0.025,
            dispatch_cost=0.071,
            current=self._current(),
        )
        assert diff.recommended.label_workers == 3  # ceil(2.5)
        assert diff.recommended.dispatch_workers == 8  # ceil(7.1)

    def test_window_marks_floor_the_recommendation(self):
        """A bad (low) forecast cannot shrink below what the last
        interval measurably used — the reactive backstop."""
        planner = ProvisioningPlanner(headroom=1.0)
        diff = planner.plan(
            predicted_qps=0.0,
            label_cost=0.01,
            dispatch_cost=0.01,
            current=self._current(),
            window={
                "window_max_label_active": 3,
                "window_max_dispatch_active": 2,
            },
        )
        assert diff.recommended.label_workers == 3
        assert diff.recommended.dispatch_workers == 2

    def test_admission_scales_configured_gates_only(self):
        planner = ProvisioningPlanner(headroom=1.0)
        diff = planner.plan(
            predicted_qps=50.0,
            label_cost=0.001,
            dispatch_cost=0.1,
            current=self._current(),
            backend_weights={"fast": 1.0, "slow": 0.0},
        )
        fast = diff.recommended.admission["fast"]
        assert fast.rate == pytest.approx(50.0)
        assert fast.burst == pytest.approx(100.0)  # 2x ratio preserved
        assert fast.max_in_flight == 5  # ceil(50 * 0.1)
        # the unlimited gate is left unlimited: the planner never
        # imposes a bound the operator didn't configure
        assert diff.recommended.admission["slow"] == AdmissionPlan()

    def test_hot_labels_widen_candidates(self):
        planner = ProvisioningPlanner(headroom=1.0, hot_share=0.5)
        diff = planner.plan(
            predicted_qps=10.0,
            label_cost=0.001,
            dispatch_cost=0.001,
            current=self._current(),
            mix={"0": 0.8, "1": 0.2},
            all_backends=["fast", "slow"],
        )
        assert diff.recommended.candidates["0"] == ("fast", "slow")
        assert "1" not in diff.recommended.candidates

    def test_validation(self):
        with pytest.raises(ServiceError):
            ProvisioningPlanner(thread_budget=1)
        with pytest.raises(ServiceError):
            ProvisioningPlanner(headroom=0.5)
        with pytest.raises(ServiceError):
            ProvisioningPlanner().plan(
                predicted_qps=-1.0,
                label_cost=0.0,
                dispatch_cost=0.0,
                current=Blueprint(label_workers=1, dispatch_workers=1),
            )


# -- provisioner + service ----------------------------------------------------


def _records(n: int, cluster: str) -> list[QueryLogRecord]:
    return [
        QueryLogRecord(
            query=f"select {i} from {cluster}_t",
            user=f"u{i % 3}",
            account="acct",
            cluster=cluster,
            timestamp=float(i),
        )
        for i in range(n)
    ]


def _batches(app: str, n_batches: int, per_batch: int = 8) -> list[StreamBatch]:
    records = _records(n_batches * per_batch, app.lower())
    return [
        StreamBatch(
            application=app,
            records=records[i * per_batch : (i + 1) * per_batch],
            time_step=i,
        )
        for i in range(n_batches)
    ]


class TestPredictiveProvisionerIntegration:
    @pytest.fixture(autouse=True)
    def _hygiene(self, no_thread_leaks):
        yield

    def _service(self) -> QuercService:
        service = QuercService()
        service.register_backend(
            NullBackend("DB(X)"), max_in_flight=16, rate=500.0
        )
        service.register_backend(NullBackend("DB(Y)"))
        service.add_application("X", backend="DB(X)")
        service.add_application("Y", backend="DB(Y)")
        return service

    def _provisioned(
        self, service: QuercService, clock: FakeClock, **kwargs
    ) -> PredictiveProvisioner:
        kwargs.setdefault("planner", ProvisioningPlanner(thread_budget=6))
        kwargs.setdefault("interval_seconds", 0.05)
        provisioner = PredictiveProvisioner(clock=clock, **kwargs)
        # logical time advances with every observation, so planning
        # intervals elapse deterministically during the staged run
        original = provisioner.observe_result

        def advancing(application, result):
            clock.advance(0.02)
            original(application, result)

        provisioner.observe_result = advancing
        service.set_provisioner(provisioner)
        return provisioner

    def test_feedback_path_plans_and_publishes_diff(self):
        service = self._service()
        clock = FakeClock()
        self._provisioned(service, clock)
        batches = _batches("X", 8) + _batches("Y", 4)
        service.process_routed_concurrent(batches)
        forecast = service.stats()["forecast"]
        assert forecast["plans"] >= 1
        assert forecast["apply_errors"] == 0
        assert set(forecast["tenants"]) == {"X", "Y"}
        diff = forecast["last_diff"]
        assert diff is not None
        assert diff["current"]["label_workers"] >= 1
        assert (
            diff["recommended"]["label_workers"]
            + diff["recommended"]["dispatch_workers"]
            == 6
        )
        # every served query fed the tenant's arrival forecaster
        assert forecast["tenants"]["X"]["total_observed"] == 8 * 8
        assert forecast["tenants"]["Y"]["total_observed"] == 4 * 8
        # no classifier is deployed, so batches carry no route label
        # and the mix stays empty — labels appear once models deploy
        assert forecast["mix"]["batches_observed"] == 0

    def test_observe_result_feeds_label_mix_when_labeled(self):
        provisioner = PredictiveProvisioner(clock=FakeClock())
        from repro.core.labeled_query import LabeledQuery

        labeled = [
            LabeledQuery.make("select 1", cluster="east"),
            LabeledQuery.make("select 2", cluster="east"),
            LabeledQuery.make("select 3", cluster="west"),
        ]
        provisioner.observe_result("X", (labeled, None))
        snap = provisioner.snapshot()
        assert snap["mix"]["batches_observed"] == 1
        assert snap["mix"]["top"][0][0] == "east"

    def test_auto_apply_resizes_the_live_executor(self):
        service = self._service()
        clock = FakeClock()
        self._provisioned(service, clock)
        service.process_routed_concurrent(
            _batches("X", 10), label_workers=2, dispatch_workers=2
        )
        pool = service.stats()["executor"]["pool"]
        assert pool["resizes"] >= 1
        assert pool["label_workers"] + pool["dispatch_workers"] == 6

    def test_advisor_mode_never_touches_the_deployment(self):
        service = self._service()
        clock = FakeClock()
        self._provisioned(service, clock, auto_apply=False)
        service.process_routed_concurrent(
            _batches("X", 10), label_workers=2, dispatch_workers=2
        )
        stats = service.stats()
        assert stats["forecast"]["plans"] >= 1
        assert stats["forecast"]["applies"] == 0
        pool = stats["executor"]["pool"]
        assert pool["resizes"] == 0
        assert pool["label_workers"] == 2
        assert pool["dispatch_workers"] == 2
        # the diff is still published for audit
        assert stats["forecast"]["last_diff"] is not None

    def test_results_identical_with_and_without_provisioner(self):
        batches = _batches("X", 8) + _batches("Y", 6)
        plain = self._service()
        want = plain.process_routed_concurrent(batches)
        provisioned = self._service()
        self._provisioned(provisioned, FakeClock())
        got = provisioned.process_routed_concurrent(batches)
        assert len(got) == len(want)
        for (got_labeled, _), (want_labeled, _) in zip(got, want):
            assert [m.query for m in got_labeled] == [
                m.query for m in want_labeled
            ]
            assert [m.labels for m in got_labeled] == [
                m.labels for m in want_labeled
            ]

    def test_admission_resize_is_applied_to_gates(self):
        service = self._service()
        clock = FakeClock()
        self._provisioned(service, clock)
        service.process_routed_concurrent(_batches("X", 12))
        snap = service.backends.get("DB(X)").admission.snapshot()
        assert snap["resizes"] >= 1
        assert snap["rate"] is not None  # rate-limited stays rate-limited
        # the unlimited sibling gained no bounds
        other = service.backends.get("DB(Y)").admission.snapshot()
        assert other["max_in_flight"] is None and other["rate"] is None

    def test_detach_stops_observation(self):
        service = self._service()
        clock = FakeClock()
        provisioner = self._provisioned(service, clock)
        service.set_provisioner(None)
        service.process_routed_concurrent(_batches("X", 4))
        assert service.stats()["forecast"] is None
        assert provisioner.snapshot()["plans"] == 0
