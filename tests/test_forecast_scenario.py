"""Predictive vs static provisioning under a scripted ramp+spike.

Three tenants share one stage-pool deployment on a **fixed total
thread budget** of 16 workers. Two light tenants tick along at a calm
rate; the third ramps up and then spikes with dispatch-heavy queries
(logical schedule, per-second intervals):

* ``t in [0, 20)``   — calm: 8 q/s total, cheap dispatch
* ``t in [20, 35)``  — ramp: the heavy tenant climbs 0 → 40 q/s
* ``t in [35, 50)``  — spike plateau: 48 q/s total, dispatch-bound
* ``t in [50, 60)``  — cool-down back to calm

Both provisioning modes run the *same* discrete-event queueing model
(per-stage earliest-free-worker heaps — grow adds workers at the
interval boundary, shrink retires the next workers to go idle, exactly
the live ``StagedExecutor.resize`` semantics) over the same arrival
schedule:

* **static** — the budget split evenly for the whole run: 8 label +
  8 dispatch workers. At the spike the dispatch stage needs ~10.4
  worker-seconds per second; a backlog accrues for the entire plateau
  and the tail latencies blow up.
* **predictive** — per-tenant :class:`ArrivalRateForecaster`\\ s (Holt
  level+trend) and the :class:`ProvisioningPlanner` re-split the same
  16 threads every interval from the *forecast* rate and the measured
  stage costs; the trend term moves workers to the dispatch stage
  while the ramp is still climbing, so the spike lands on a pool that
  is already shaped for it.

The headline is the **p95 latency ratio** static/predictive, gated at
``MIN_P95_GAIN`` (1.3x) with **no goodput loss** (both modes complete
every query). The schedule, forecasts, plans, and queueing model run
entirely on logical time — no wall-clock sleeps — so every figure is
exact and identical on every run, and the test pins them: p95 5.020 s
static vs 0.303 s predictive (mean 1.846 s vs 0.211 s), the spike met
by an (8, 8) vs a (1, 15) label/dispatch split, 60 replans with 6
resizes, 1,400 of 1,400 queries executed in both modes. Each mode's
query stream also executes for real against MiniDB, in arrival order,
and the outcome streams must match byte for byte: provisioning shapes
*when* work runs, never *what it computes*.

Run alone::

    PYTHONPATH=src python -m pytest -q tests/test_forecast_scenario.py
"""

from __future__ import annotations

import heapq

import pytest

from repro.backends import BackendRegistry, BatchRouter, MiniDBBackend
from repro.core.labeled_query import LabeledQuery
from repro.forecast import ArrivalRateForecaster, Blueprint, ProvisioningPlanner
from repro.minidb import materialize_log_tables
from repro.workloads import SnowSimConfig, generate_snowsim_workload

THREAD_BUDGET = 16
HORIZON = 60  # logical seconds
CALM_END, SPIKE_START, SPIKE_END = 20, 35, 50
LIGHT_RATE = 4  # q/s per light tenant
HEAVY_PEAK = 40  # q/s for the spiking tenant at plateau
LABEL_COST = 0.02  # seconds/query in stage A (all tenants)
LIGHT_DISPATCH = 0.05  # seconds/query in stage B, light tenants
HEAVY_DISPATCH = 0.25  # seconds/query in stage B, the spiking tenant
MIN_P95_GAIN = 1.3


def _schedule() -> list[dict[str, int]]:
    """Arrivals per tenant per logical second — the ramp+spike script."""
    steps = []
    for t in range(HORIZON):
        if t < CALM_END:
            heavy = 0
        elif t < SPIKE_START:
            heavy = round(HEAVY_PEAK * (t - CALM_END + 1) / (SPIKE_START - CALM_END))
        elif t < SPIKE_END:
            heavy = HEAVY_PEAK
        else:
            heavy = 0
        steps.append({"A": LIGHT_RATE, "B": LIGHT_RATE, "C": heavy})
    return steps


def _dispatch_cost(tenant: str) -> float:
    return HEAVY_DISPATCH if tenant == "C" else LIGHT_DISPATCH


class _StagePool:
    """Earliest-free-worker heap with live resize at interval edges.

    Mirrors ``StagedExecutor.resize`` semantics: growing adds workers
    free at the boundary; shrinking retires the next workers to come
    free (a retire token is consumed at a stage boundary, by whichever
    worker reaches it first).
    """

    def __init__(self, workers: int, now: float = 0.0) -> None:
        self.free = [now] * workers
        heapq.heapify(self.free)

    def resize(self, workers: int, now: float) -> None:
        current = len(self.free)
        if workers > current:
            for _ in range(workers - current):
                heapq.heappush(self.free, now)
        elif workers < current:
            for _ in range(current - workers):
                heapq.heappop(self.free)  # the next-idle worker retires

    def run(self, ready_at: float, cost: float) -> float:
        start = max(ready_at, heapq.heappop(self.free))
        done = start + cost
        heapq.heappush(self.free, done)
        return done


class _PredictiveController:
    """The real forecast layer driving the simulated deployment."""

    def __init__(self) -> None:
        self.forecasters = {
            tenant: ArrivalRateForecaster(
                window_seconds=1.0, alpha=0.5, beta=0.4, clock=lambda: 0.0
            )
            for tenant in ("A", "B", "C")
        }
        self.planner = ProvisioningPlanner(
            thread_budget=THREAD_BUDGET, headroom=1.25
        )
        self.label_workers = THREAD_BUDGET // 2
        self.dispatch_workers = THREAD_BUDGET - THREAD_BUDGET // 2
        self.last_diff = None
        self.replans = 0
        self.resizes = 0

    def observe(self, counts: dict[str, int], now: float) -> None:
        for tenant, count in counts.items():
            self.forecasters[tenant].observe(count, now=now)

    def replan(self, now: float, costs: dict[str, float]) -> None:
        """Re-split the budget from per-tenant forecasts at time ``now``.

        ``costs`` carries the stage costs *measured* over the last
        interval (here: the known per-tenant service times weighted by
        the forecast mix — what a live deployment reads from its lane
        counters).
        """
        per_tenant = {
            tenant: forecaster.forecast(now=now)
            for tenant, forecaster in self.forecasters.items()
        }
        predicted = sum(per_tenant.values())
        if predicted > 0:
            dispatch_cost = (
                sum(rate * costs[tenant] for tenant, rate in per_tenant.items())
                / predicted
            )
        else:
            dispatch_cost = LIGHT_DISPATCH
        diff = self.planner.plan(
            predicted_qps=predicted,
            label_cost=LABEL_COST,
            dispatch_cost=dispatch_cost,
            current=Blueprint(
                label_workers=self.label_workers,
                dispatch_workers=self.dispatch_workers,
            ),
            now=now,
        )
        self.replans += 1
        self.last_diff = diff
        if not diff.is_noop:
            self.label_workers = diff.recommended.label_workers
            self.dispatch_workers = diff.recommended.dispatch_workers
            self.resizes += 1


def _simulate(predictive: bool):
    """One full pass of the queueing model; returns latencies + telemetry."""
    schedule = _schedule()
    controller = _PredictiveController() if predictive else None
    label_workers = THREAD_BUDGET // 2
    dispatch_workers = THREAD_BUDGET - THREAD_BUDGET // 2
    label_pool = _StagePool(label_workers)
    dispatch_pool = _StagePool(dispatch_workers)
    latencies: list[float] = []
    allocation: list[tuple[int, int]] = []
    for t, counts in enumerate(schedule):
        now = float(t)
        if controller is not None:
            controller.replan(
                now, {tenant: _dispatch_cost(tenant) for tenant in counts}
            )
            label_workers = controller.label_workers
            dispatch_workers = controller.dispatch_workers
            label_pool.resize(label_workers, now)
            dispatch_pool.resize(dispatch_workers, now)
        allocation.append((label_workers, dispatch_workers))
        total = sum(counts.values())
        # arrivals interleave across tenants, evenly spread over the second
        arrivals = []
        for tenant, count in counts.items():
            for i in range(count):
                arrivals.append((now + (i + 0.5) / max(count, 1), tenant))
        arrivals.sort()
        assert len(arrivals) == total
        for arrived, tenant in arrivals:
            done_label = label_pool.run(arrived, LABEL_COST)
            done = dispatch_pool.run(done_label, _dispatch_cost(tenant))
            latencies.append(done - arrived)
        if controller is not None:
            controller.observe(counts, now)
    return latencies, allocation, controller


def _p95(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[int(0.95 * (len(ordered) - 1))]


def _execute_for_real(order_seed: int):
    """Run the schedule's query stream against MiniDB, arrival order.

    Provisioning must never change results: both modes execute the
    identical stream and the outcome tuples are compared byte for byte.
    """
    total = sum(sum(c.values()) for c in _schedule())
    config = SnowSimConfig(
        account_profile=((73881, 4), (18487, 3)),
        tables_per_account=(3, 4),
        total_queries=total,
        seed=order_seed,
    )
    queries = [r.query for r in generate_snowsim_workload(config)][:total]
    database = materialize_log_tables(queries, rows_per_table=8)
    registry = BackendRegistry()
    registry.register(MiniDBBackend("shared", database))
    router = BatchRouter(registry, default_backend="shared")
    outcomes = []
    executed_ok = 0
    cursor = 0
    for counts in _schedule():
        n = sum(counts.values())
        if n == 0:
            continue
        batch = [
            LabeledQuery.make(sql, cluster="shared")
            for sql in queries[cursor : cursor + n]
        ]
        cursor += n
        report = router.dispatch("bench", batch)
        executed_ok += report.executed_ok
        for decision in report.decisions:
            if decision.result is None:
                continue
            for o in decision.result.outcomes:
                outcomes.append((o.query, o.ok, o.n_rows, o.error))
    return outcomes, executed_ok


def test_predictive_provisioning_beats_static_on_p95():
    static_latencies, static_alloc, _ = _simulate(predictive=False)
    pred_latencies, pred_alloc, controller = _simulate(predictive=True)

    # determinism: the whole predictive loop — forecasts, plans,
    # queueing — replays identically on logical time
    replay_latencies, replay_alloc, _ = _simulate(predictive=True)
    assert replay_latencies == pred_latencies
    assert replay_alloc == pred_alloc

    # equal work, equal thread budget, every query completes: goodput
    # is identical by construction — the gain is latency, not shedding
    assert len(static_latencies) == len(pred_latencies)
    assert all(lw + dw == THREAD_BUDGET for lw, dw in static_alloc)
    assert all(lw + dw == THREAD_BUDGET for lw, dw in pred_alloc)

    # the planner genuinely moved threads ahead of the spike: by the
    # plateau's first interval the dispatch pool already grew
    assert controller.resizes >= 2
    assert pred_alloc[SPIKE_START][1] > static_alloc[SPIKE_START][1]
    assert controller.last_diff is not None

    static_p95 = _p95(static_latencies)
    pred_p95 = _p95(pred_latencies)
    gain = static_p95 / pred_p95
    assert gain >= MIN_P95_GAIN, (
        f"expected >={MIN_P95_GAIN}x p95 gain, got {gain:.2f}x "
        f"(static {static_p95:.3f}s, predictive {pred_p95:.3f}s)"
    )

    # the exact logical-time figures
    total = len(static_latencies)
    assert total == 1400
    assert static_p95 == pytest.approx(5.020, abs=5e-4)
    assert pred_p95 == pytest.approx(0.303, abs=5e-4)
    assert sum(static_latencies) / total == pytest.approx(1.846, abs=5e-4)
    assert sum(pred_latencies) / total == pytest.approx(0.211, abs=5e-4)
    assert static_alloc[SPIKE_START] == (8, 8)
    assert pred_alloc[SPIKE_START] == (1, 15)
    assert max(dw for _, dw in pred_alloc) == 15
    assert (controller.replans, controller.resizes) == (60, 6)

    # real execution, arrival order, both modes: byte-identical outcomes
    static_outcomes, static_ok = _execute_for_real(23)
    pred_outcomes, pred_ok = _execute_for_real(23)
    assert pred_outcomes == static_outcomes
    assert pred_ok == static_ok == total


def test_blueprint_diff_is_auditable_in_service_stats():
    """The acceptance hook: wired into a live service, the provisioner
    publishes its blueprint diff via ``stats()["forecast"]`` and the
    live executor genuinely resized."""
    from repro.backends import NullBackend
    from repro.core.service import QuercService
    from repro.forecast import PredictiveProvisioner
    from repro.workloads.logs import QueryLogRecord
    from repro.workloads.stream import StreamBatch

    clock = {"now": 0.0}
    service = QuercService()
    service.register_backend(NullBackend("DB(X)"), max_in_flight=8, rate=200.0)
    service.register_backend(NullBackend("DB(Y)"))
    service.add_application("X", backend="DB(X)")
    provisioner = PredictiveProvisioner(
        planner=ProvisioningPlanner(thread_budget=6),
        interval_seconds=0.05,
        clock=lambda: clock["now"],
    )
    original = provisioner.observe_result

    def advancing(application, result):
        clock["now"] += 0.03
        original(application, result)

    provisioner.observe_result = advancing
    service.set_provisioner(provisioner)
    batches = [
        StreamBatch(
            application="X",
            records=[
                QueryLogRecord(
                    query=f"select {b}_{i} from t",
                    user="u",
                    account="a",
                    cluster="east",
                    timestamp=float(b),
                )
                for i in range(8)
            ],
            time_step=b,
        )
        for b in range(10)
    ]
    service.process_routed_concurrent(batches, label_workers=2, dispatch_workers=2)
    stats = service.stats()
    forecast = stats["forecast"]
    assert forecast["plans"] >= 1
    assert forecast["last_diff"] is not None
    assert forecast["last_diff"]["changes"], "diff must itemize its changes"
    pool = stats["executor"]["pool"]
    assert pool["resizes"] >= 1
    assert pool["label_workers"] + pool["dispatch_workers"] == 6
