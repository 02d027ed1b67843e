"""Fault-tolerant vs raw dispatch under a scripted chaos schedule.

One SnowSim query stream flows through the same two-backend topology
twice while the primary backend suffers a deterministic outage script
(a 20-step blackout, then a flapping link), driven by a logical clock
that advances one step per batch:

* **raw** — the pre-resilience router: no retries, no breaker, no
  failover. Every batch dispatched into the outage raises and its
  queries are lost (the caller sheds them — goodput is what executed).
* **resilient** — the same topology with a
  :class:`~repro.backends.resilience.RetryPolicy` (injected no-op
  sleep), a :class:`~repro.backends.resilience.CircuitBreaker`, and
  candidate failover to the healthy standby. No dispatch may raise,
  and every query's outcome must be byte-identical to a clean run on
  a healthy backend — failover is recovery, not degradation.

The headline ratio is **goodput**: successfully executed queries,
resilient / raw, which must clear ``MIN_GOODPUT`` (2.0x). The chaos
schedule is pure logical time — no wall-clock sleeps anywhere — so
every figure is exact and identical on every run, and the test pins
them: raw 405 ok with 27 batches raised; resilient 1,259 ok (the clean
run's goodput), 0 raised, 30 failovers, 4 retries, and 10 breaker
opens, 10 half-opens, 4 closes.

Run alone::

    PYTHONPATH=src python -m pytest -q tests/test_resilience_scenario.py
"""

from __future__ import annotations

from fake_clock import FakeClock
from scripted_backend import RAISE, ScriptedBackend

from repro.backends import (
    BackendRegistry,
    BatchRouter,
    CircuitBreaker,
    MiniDBBackend,
    RetryPolicy,
)
from repro.core.labeled_query import LabeledQuery
from repro.minidb import materialize_log_tables
from repro.workloads import SnowSimConfig, generate_snowsim_workload

BATCH_SIZE = 32
N_BATCHES = 40
MIN_GOODPUT = 2.0


def outage(call: int, now: float) -> str | None:
    """The outage script, in logical batch time (t = batch index):
    t in [5, 25) a blackout, the primary dead for 20 batches; t in
    [25, 38) a flapping link, down/up alternating one-batch phases."""
    return RAISE if 5 <= now < 25 or (25 <= now < 38 and (now - 25) % 2 < 1) else None


def _build_batches() -> list[list[LabeledQuery]]:
    config = SnowSimConfig(
        account_profile=((73881, 6), (18487, 4)),
        tables_per_account=(3, 4),
        total_queries=BATCH_SIZE * N_BATCHES,
        seed=17,
    )
    queries = [r.query for r in generate_snowsim_workload(config)]
    assert len(queries) >= BATCH_SIZE * N_BATCHES
    batches = []
    for start in range(0, BATCH_SIZE * N_BATCHES, BATCH_SIZE):
        batches.append(
            [
                # label = the primary's name: routes itself, and gives
                # the failover path a label to re-resolve against
                LabeledQuery.make(sql, cluster="primary")
                for sql in queries[start : start + BATCH_SIZE]
            ]
        )
    return batches, materialize_log_tables(queries, rows_per_table=8)


def _chaos_primary(database, clock: FakeClock) -> ScriptedBackend:
    return ScriptedBackend(MiniDBBackend("primary", database), outage, clock)


def _run(batches, database, resilient: bool):
    """One full pass over the chaos schedule; returns the tallies."""
    clock = FakeClock()
    registry = BackendRegistry()
    if resilient:
        registry.register(
            _chaos_primary(database, clock),
            retry=RetryPolicy(
                max_attempts=2,
                base_delay=0.0,
                clock=clock,
                sleep=lambda _s: None,  # chaos runs entirely on logical time
            ),
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_seconds=3.0, clock=clock
            ),
        )
    else:
        registry.register(_chaos_primary(database, clock))
    registry.register(MiniDBBackend("standby", database))
    router = BatchRouter(
        registry,
        route_label="cluster",
        default_backend="primary",
    )

    executed_ok = 0
    raised = 0
    outcomes = []
    for step, batch in enumerate(batches):
        clock.now = float(step)
        try:
            report = router.dispatch("bench", batch)
        except Exception:  # noqa: BLE001 - the raw router sheds the batch
            raised += 1
            continue
        executed_ok += report.executed_ok
        for decision in report.decisions:
            if decision.result is None:
                continue
            for o in decision.result.outcomes:
                outcomes.append((o.query, o.ok, o.n_rows, o.error))
    return executed_ok, raised, outcomes, router


def test_resilient_router_goodput_under_chaos():
    batches, database = _build_batches()
    total = BATCH_SIZE * N_BATCHES

    # the reference: every batch on a permanently healthy backend
    clean_backend = MiniDBBackend("clean", database)
    clean_outcomes = []
    for batch in batches:
        result = clean_backend.execute([m.query for m in batch])
        for o in result.outcomes:
            clean_outcomes.append((o.query, o.ok, o.n_rows, o.error))
    # a handful of generated queries fail even on a healthy backend
    # (engine limitations, not chaos) — parity with the clean run is
    # the bar, not the raw batch count
    clean_ok = sum(1 for o in clean_outcomes if o[1])

    raw_ok, raw_raised, _, _ = _run(batches, database, resilient=False)
    res_ok, res_raised, res_outcomes, res_router = _run(
        batches, database, resilient=True
    )

    # raw routing genuinely suffered: the blackout cost it whole batches
    assert (raw_ok, raw_raised) == (405, 27)
    assert raw_ok < clean_ok

    # resilient dispatch: zero raised errors — a healthy sibling existed
    # for every faulted batch — and clean-run goodput
    assert (res_ok, res_raised) == (1259, 0)
    assert res_ok == clean_ok
    # ...and recovery is invisible in the results: every outcome matches
    # the clean run byte for byte
    assert res_outcomes == clean_outcomes

    goodput_ratio = res_ok / max(1, raw_ok)
    assert goodput_ratio >= MIN_GOODPUT, (
        f"expected >={MIN_GOODPUT}x goodput, got {goodput_ratio:.2f}x "
        f"(raw {raw_ok}/{total}, resilient {res_ok}/{total})"
    )

    # each count read from the object that keeps it: the bindings'
    # counters (totalled by the router) and the primary's breaker
    snap = res_router.resilience_snapshot()
    breaker = res_router.registry.get("primary").breaker.snapshot()
    assert (snap["failovers"], snap["retries"]) == (30, 4)
    transitions = tuple(breaker[k] for k in ("opens", "half_opens", "closes"))
    assert transitions == (10, 10, 4)
